"""Quasi-static rollout of an edited trajectory against one object.

There is no rigid-body dynamics here: the object never moves, contacts
are sphere-vs-cloud proximity tests, and "did the grasp work" is an
epsilon-perturbed force-closure feasibility check at the grasp frame.
That trades the lift test a physics engine would run for something
deterministic, fast, and checkable against analytic grasps.

rollout_batch scores E episodes at once, and rollout, grasp_success
and feasible_combination are its one-item cases. Joint targets, joint
trajectories, wrist edits and FK run once over all E x (T_D + 1) frames.
The contact phase then works in each episode's object frame: one inverse
rotation maps the sphere centers of frames 0..T_l (nothing reads later
frames) into it, a bounding-box test drops spheres too far from the
cloud to matter, and one _nearest call per object answers the kept
spheres of every episode on that object. Only the selected grasp-frame
points and normals go back to the world frame. The seven closure LPs of
every grasp that passes the crush, table and two-mask-finger gates run
as one stacked simplex.

Determinism: every batched step is element-wise or keeps each row's or
episode's own reductions (each query row's own argmin, the per-grasp
contact centroid, the 1-D norm of each tangent, each tableau's own
pivots), so every record is bit for bit what the episode gets alone.
_nearest takes its product in fixed row blocks and never sends a single
row to the matrix product, which numpy would hand to gemv and round
differently.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .demo import Demonstration, EditAction, edited_joint_trajectory, disturb_style, target_joint_config
from .geometry import Pose, axis_angle_to_quat, quat_conjugate, quat_rotate, transform_point
from .hand import HandFrames, HandSpec, Style, classify_style, forward_kinematics_batch, sphere_metadata
from .objects import AffordanceDistribution, ObjectModel, sample_affordance_index

log = logging.getLogger(__name__)

__all__ = [
    "SimParams",
    "EnvCondition",
    "EnvState",
    "Contact",
    "ContactError",
    "RolloutRecord",
    "reset_env",
    "detect_contacts",
    "style_contact_point",
    "check_table_collision",
    "grasp_success",
    "grasp_success_batch",
    "feasible_combination",
    "feasible_combination_batch",
    "rollout",
    "rollout_batch",
]


class ContactError(ValueError):
    """Raised when contact geometry is degenerate (non-finite normals)."""


@dataclass(frozen=True)
class SimParams:
    delta_c: float = 0.005        # contact shell beyond the sphere radius, meters
    table_tol: float = 0.002      # table collision slack, meters
    mu: float = 0.5               # friction coefficient
    eta: float = 0.2              # load perturbation scale (fraction of gravity)
    crush_factor: float = 1.5     # fail if signed penetration exceeds this x radius

    def __post_init__(self):
        for name in ("delta_c", "table_tol", "eta"):
            if getattr(self, name) < 0:
                raise ValueError(f"sim.{name} must be >= 0, got {getattr(self, name)}")
        for name in ("mu", "crush_factor"):
            if getattr(self, name) <= 0:
                raise ValueError(f"sim.{name} must be positive, got {getattr(self, name)}")


@dataclass(frozen=True)
class EnvCondition:
    """What the episode asks for: where to grasp and in which style."""

    p_afford: np.ndarray          # (3,), object frame
    style_index: int
    q_style_used: np.ndarray      # (J,), disturbed during training
    contact_mask: tuple[int, ...]


@dataclass
class EnvState:
    obj: ObjectModel
    object_pose: Pose
    condition: EnvCondition


@dataclass(frozen=True)
class Contact:
    finger: int
    point: np.ndarray             # matched cloud point, world frame
    normal: np.ndarray            # outward surface normal at that point, world frame
    penetration: float            # max(0, radius - distance), meters


@dataclass
class RolloutRecord:
    success: bool
    d_series: np.ndarray          # (T_D + 1,) affordance-to-contact-centroid distance
    d_min: float
    d_final: float
    q_final: np.ndarray
    q_star: np.ndarray
    contacts_at_grasp: list[Contact]
    executed_style: int
    table_collision: bool
    crushed: bool
    obj_bb: float
    # canonical joints of the conditioned style; the style-consistency
    # reward measures deviation from this intention
    q_style_canonical: np.ndarray | None = None
    failure_reason: str | None = None
    reward_terms: object | None = None   # populated by the reward engine
    trajectory: object | None = None     # EditedTrajectory, kept for export


def reset_env(
    obj: ObjectModel,
    dist: AffordanceDistribution,
    styles: list[Style],
    rng: np.random.Generator,
    train_mode: bool,
    *,
    spec: HandSpec,
    square_half: float = 0.25,
    sigma_style: float = 0.05,
) -> EnvState:
    """Randomize object pose and sample the episode's conditioning.

    The rng call order below is part of the determinism contract:
    x, y, yaw, affordance index, style index, then (training only) the
    style disturbance.
    """
    x = rng.uniform(-1.0, 1.0) * square_half
    y = rng.uniform(-1.0, 1.0) * square_half
    yaw_draw = rng.uniform(0.0, 2.0 * np.pi)
    yaw = yaw_draw if square_half > 0 else 0.0
    pose = Pose(t=np.array([x, y, 0.0]), r=axis_angle_to_quat(np.array([0.0, 0.0, yaw])))
    p_afford = obj.points[sample_affordance_index(dist, rng)].copy()
    style_index = int(rng.integers(len(styles)))
    style = styles[style_index]
    if train_mode and sigma_style > 0:
        q_used = disturb_style(style.q_canonical, sigma_style, rng, spec)
    else:
        q_used = style.q_canonical.copy()
    return EnvState(
        obj=obj,
        object_pose=pose,
        condition=EnvCondition(
            p_afford=p_afford,
            style_index=style_index,
            q_style_used=q_used,
            contact_mask=style.contact_mask,
        ),
    )


# rows per block of _nearest's product: the (block, N) scratch stays small
_ROW_BLOCK = 64


def _nearest(centers: np.ndarray, pts: np.ndarray):
    """Nearest cloud point per row of centers: (indices, distances).

    The argmin of |p|^2 - 2 c.p, taken in blocks of _ROW_BLOCK rows; the
    distance is then the exact |c - p| of the chosen point. A row's
    answer does not depend on the other rows: no block has one row,
    since numpy hands a one-row product to gemv, which rounds
    differently from gemm.
    """
    rows = centers if len(centers) != 1 else np.repeat(centers, 2, axis=0)
    neg2p = -2.0 * pts.T
    p2 = np.einsum("ij,ij->i", pts, pts)
    idx = np.empty(len(rows), dtype=np.intp)
    scratch = np.empty((min(_ROW_BLOCK, len(rows)), len(pts)))
    for lo in range(0, len(rows), _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, len(rows))
        lo = min(lo, hi - 2)  # a lone last row is taken with the one before it
        block = scratch[: hi - lo]
        np.matmul(rows[lo:hi], neg2p, out=block)
        block += p2
        idx[lo:hi] = block.argmin(axis=1)
    idx = idx[: len(centers)]
    diff = centers - pts[idx]
    return idx, np.sqrt(np.einsum("ij,ij->i", diff, diff))


def _contact_phase(envs: list[EnvState], centers: np.ndarray, radii, finger_index, tl: int, params: SimParams):
    """Crush test over frames 0..tl-1 and contacts at frame tl, for the
    (E, > tl, K, 3) world-frame sphere centers of E episodes.

    Returns (crushed (E,) bools, per-episode contact lists, one
    deepest contact per finger within the shell radius + params.delta_c).
    """
    e_count = len(envs)
    pose_t = np.stack([env.object_pose.t for env in envs])
    pose_r = np.stack([env.object_pose.r for env in envs])
    local = quat_rotate(quat_conjugate(pose_r)[:, None, None], centers[:, : tl + 1] - pose_t[:, None, None])
    dist = np.full(local.shape[:3], np.inf)
    gap = np.full(local.shape[:3], np.inf)
    idx = np.zeros(local.shape[:3], dtype=np.intp)
    # crush and contacts only need spheres near the cloud: quick-reject
    # everything outside its bounding box grown by radius + shell
    margin = radii.max() + params.delta_c + 1e-9
    groups: dict[int, list[int]] = {}
    for i, env in enumerate(envs):
        groups.setdefault(id(env.obj), []).append(i)
    for members in groups.values():
        obj = envs[members[0]].obj
        sph = local[members]
        near = np.all((sph >= obj.points.min(axis=0) - margin) & (sph <= obj.points.max(axis=0) + margin), axis=-1)
        near[:, tl] = True  # the grasp frame always gets exact contacts
        rows = sph[near]
        found, d = _nearest(rows, obj.points)
        a, t, k = np.nonzero(near)
        at = (np.asarray(members)[a], t, k)
        dist[at] = d
        gap[at] = np.einsum("ij,ij->i", rows - obj.points[found], obj.normals[found])
        idx[at] = found
    # crush: a sphere center driven past the surface by more than
    # (crush_factor - 1) x radius during the approach
    crushed = np.any(gap[:, :tl] < radii * (1.0 - params.crush_factor), axis=(1, 2))

    dist_tl = dist[:, tl]
    hits = dist_tl <= radii + params.delta_c
    depth = radii - dist_tl
    ranked = np.where(hits, depth, -np.inf)
    picks = []  # (episode, finger, sphere) of each finger's deepest hit, finger by finger
    for f in np.unique(finger_index):
        cols = np.flatnonzero(finger_index == f)
        best = cols[ranked[:, cols].argmax(axis=1)]
        picks.extend((i, int(f), int(best[i])) for i in np.flatnonzero(hits[np.arange(e_count), best]))
    picks.sort(key=lambda p: p[0])
    # back to the world frame: only the chosen points, each row on its own
    owner = np.array([i for i, _, _ in picks], dtype=np.intp)
    local_pts = np.array([envs[i].obj.points[idx[i, tl, k]] for i, _, k in picks]).reshape(-1, 3)
    local_nrm = np.array([envs[i].obj.normals[idx[i, tl, k]] for i, _, k in picks]).reshape(-1, 3)
    world_pts = quat_rotate(pose_r[owner], local_pts) + pose_t[owner]
    world_nrm = quat_rotate(pose_r[owner], local_nrm)
    contacts: list[list[Contact]] = [[] for _ in envs]
    for n, (i, f, k) in enumerate(picks):
        contacts[i].append(Contact(
            finger=f, point=world_pts[n], normal=world_nrm[n], penetration=float(max(0.0, depth[i, k])),
        ))
    return [bool(c) for c in crushed], contacts


def detect_contacts(frames: HandFrames, env: EnvState, delta_c: float = 0.005) -> list[Contact]:
    """Sphere-vs-cloud contacts, one (deepest) per finger: the
    one-episode, one-frame case of the rollout's contact phase."""
    centers = np.asarray(frames.centers, dtype=float)[None, None]
    _, (contacts,) = _contact_phase([env], centers, np.asarray(frames.radii, dtype=float),
                                    np.asarray(frames.finger_index), 0, SimParams(delta_c=delta_c))
    return contacts


def style_contact_point(frames: HandFrames, mask) -> np.ndarray:
    """Mean world position of the mask fingers' fingertips."""
    mask = list(mask)
    if not mask:
        raise ValueError("contact mask is empty")
    return frames.fingertips[mask].mean(axis=0)


def check_table_collision(frames: HandFrames, tol: float = 0.002) -> bool:
    """True when any collision sphere reaches the table plane z = 0.

    tol is a conservative margin: a sphere counts as colliding when its
    center is within tol of tangency (z < radius + tol), so grazing
    passes are flagged rather than forgiven.
    """
    return bool(np.any(frames.centers[:, 2] < frames.radii + tol))


def feasible_combination(generators: np.ndarray, load: np.ndarray, tol: float = 1e-9) -> bool:
    """Phase-1 simplex feasibility of  generators @ alpha = load,  alpha >= 0.

    The one-problem case of feasible_combination_batch.
    """
    return bool(feasible_combination_batch(np.asarray(generators)[None], np.asarray(load)[None], tol)[0])


def feasible_combination_batch(generators: np.ndarray, loads: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Phase-1 simplex feasibility of  generators[i] @ alpha = loads[i],
    alpha >= 0, for a (B, m, n) stack of problems; returns (B,) bools.

    Small and self-contained (problems here are 6 rows x <= ~30 columns).
    Every tableau pivots on its own by Bland's rule, which prevents
    cycling, and is feasible when its artificial objective can be driven
    to ~0. Problems with fewer generators are padded with zero columns:
    their reduced cost stays -0.0, so they never enter, and the
    artificial columns keep their order after the real ones, so each
    tableau takes exactly the pivots, and the bits, it takes alone.
    """
    a = np.array(generators, dtype=float)
    b = np.array(loads, dtype=float)
    count, m, n = a.shape
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0
    tab = np.zeros((count, m + 1, n + m + 1))
    tab[:, :m, :n] = a
    tab[:, :m, n : n + m] = np.eye(m)
    tab[:, :m, -1] = b
    tab[:, m, :n] = -a.sum(axis=1)
    tab[:, m, -1] = -b.sum(axis=1)
    basis = np.tile(np.arange(n, n + m), (count, 1))
    ids = np.arange(count)
    feasible = np.zeros(count, dtype=bool)
    for _ in range(1000):
        cand = tab[:, m, : n + m] < -tol
        done = ~cand.any(axis=1)
        feasible[ids[done]] = tab[done, m, -1] >= -tol
        enter = cand.argmax(axis=1)
        col = tab[np.arange(len(ids)), :m, enter]
        ratios = np.full(col.shape, np.inf)
        pos = col > 1e-11
        ratios[pos] = tab[:, :m, -1][pos] / col[pos]
        finite = np.isfinite(ratios)
        # finished tableaus leave the stack; unbounded ones are infeasible
        keep = ~done & finite.any(axis=1)
        if not keep.all():
            tab, basis, ids, enter, ratios, finite = (
                x[keep] for x in (tab, basis, ids, enter, ratios, finite)
            )
        if not len(ids):
            return feasible
        rows = np.arange(len(ids))
        best = ratios.min(axis=1)
        ties = finite & (ratios - best[:, None] <= 1e-12)
        leave = np.where(ties, basis, n + m).argmin(axis=1)
        pivot = tab[rows, leave] / tab[rows, leave, enter][:, None]
        tab[rows, leave] = pivot
        factor = tab[rows, :, enter]
        update = factor != 0.0
        update[rows, leave] = False
        tab = np.where(update[:, :, None], tab - factor[:, :, None] * pivot[:, None, :], tab)
        basis[rows, leave] = enter
    feasible[ids] = tab[:, m, -1] >= -tol
    return feasible


def wrench_generators(contacts: list[Contact], env: EnvState, mu: float) -> np.ndarray:
    """6 x (4 * n_contacts) friction-pyramid edge wrenches.

    Forces point into the surface (along -normal); torques are taken
    about the contact centroid and normalized by obj_bb / 2 so force and
    torque rows share a scale. Columns go contact by contact, edges
    t1, -t1, t2, -t2. Each tangent is normalized with its own 1-D norm:
    an axis-wise norm rounds differently and would move low bits.
    """
    pts = np.array([c.point for c in contacts])
    normals = np.array([c.normal for c in contacts])
    if not np.all(np.isfinite(normals)) or not np.all(np.isfinite(pts)):
        raise ContactError("non-finite contact geometry")
    center = pts.mean(axis=0)
    scale = env.obj.obj_bb / 2.0
    n_in = -normals
    ref = np.where((np.abs(n_in[:, 2]) < 0.9)[:, None], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
    t1 = np.cross(n_in, ref)
    t1 /= np.array([np.linalg.norm(t) for t in t1])[:, None]
    t2 = np.cross(n_in, t1)
    f = n_in[:, None, :] + mu * np.stack([t1, -t1, t2, -t2], axis=1)
    tq = np.cross((pts - center)[:, None, :], f) / scale
    return np.concatenate([f, tq], axis=2).reshape(-1, 6).T


def grasp_success(
    contacts: list[Contact],
    env: EnvState,
    mu: float = 0.5,
    eta: float = 0.2,
    *,
    table_collision: bool = False,
) -> bool:
    """Quasi-static grasp test at the grasp frame.

    Requires (a) at least two distinct contact-mask fingers in contact,
    (b) friction-pyramid feasibility of the gravity load and of six
    perturbed loads (+-eta along each force axis), torques about the
    contact centroid, and (c) no table collision. Raises ContactError
    on non-finite contact geometry.
    """
    (outcome,) = grasp_success_batch([contacts], [env], mu, eta, table_collision=[table_collision])
    if isinstance(outcome, ContactError):
        raise outcome
    return outcome


def grasp_success_batch(
    contact_lists: list[list[Contact]],
    envs: list[EnvState],
    mu: float = 0.5,
    eta: float = 0.2,
    *,
    table_collision: list[bool],
) -> list:
    """grasp_success for many grasps, with one stacked simplex for the
    seven loads of every grasp that passes the table and mask-finger
    gates. Each entry is a bool, or the ContactError its grasp raised.
    """
    out: list = [False] * len(envs)
    g_dir = np.array([0.0, 0.0, -1.0])
    gens, gravity, owners = [], [], []
    for i, (contacts, env, table) in enumerate(zip(contact_lists, envs, table_collision)):
        mask = set(env.condition.contact_mask)
        if table or len({c.finger for c in contacts if c.finger in mask}) < 2:
            continue
        try:
            gens.append(wrench_generators(contacts, env, mu))
        except ContactError as e:
            out[i] = e
            continue
        center = np.array([c.point for c in contacts]).mean(axis=0)
        scale = env.obj.obj_bb / 2.0
        obj_center = transform_point(env.object_pose, env.obj.centroid)
        gravity.append(np.concatenate([g_dir, np.cross(obj_center - center, g_dir) / scale]))
        owners.append(i)
    if not owners:
        return out
    stacked = np.zeros((len(gens), 6, max(w.shape[1] for w in gens)))
    for g, w in enumerate(gens):
        stacked[g, :, : w.shape[1]] = w
    # gravity, then gravity perturbed by +eta and -eta along x, y and z
    perts = np.zeros((6, 6))
    perts[np.arange(6), np.arange(6) // 2] = [eta, -eta] * 3
    w = np.array(gravity)[:, None, :]
    loads = np.concatenate([-w, -(w + perts)], axis=1)
    feasible = feasible_combination_batch(np.repeat(stacked, 7, axis=0), loads.reshape(-1, 6))
    for i, ok in zip(owners, feasible.reshape(-1, 7).all(axis=1)):
        out[i] = bool(ok)
    return out


def rollout(
    env: EnvState,
    demo: Demonstration,
    action: EditAction,
    spec: HandSpec,
    styles: list[Style],
    params: SimParams = SimParams(),
) -> RolloutRecord:
    """Execute one edited trajectory; pure function of its inputs."""
    return rollout_batch([env], demo, [action], spec, styles, params)[0]


def rollout_batch(
    envs: list[EnvState],
    demo: Demonstration,
    actions: list[EditAction],
    spec: HandSpec,
    styles: list[Style],
    params: SimParams = SimParams(),
) -> list[RolloutRecord]:
    """Execute E edited trajectories; record i is a pure function of
    (envs[i], actions[i]), bit for bit whatever else is in the batch.

    Target joints, joint trajectories, wrist edits and FK run once over
    all E x (T_D + 1) frames. The contact phase (_contact_phase) maps the
    sphere centers of frames 0..T_l into each episode's object frame
    with one inverse rotation, keeps those inside the cloud's grown
    bounding box (and every grasp-frame sphere), makes one _nearest
    call per object for all its episodes, takes the crush gap in the
    object frame, and rotates only the chosen grasp-frame points and
    normals back to the world, row by row. The closure LPs of every
    grasp that gets that far run as one stacked simplex
    (grasp_success_batch).
    """
    from .demo import EditedTrajectory, edit_wrist_arrays

    q_star = target_joint_config(
        np.stack([env.condition.q_style_used for env in envs]),
        np.array([[a.k] for a in actions]),
        np.stack([a.dq for a in actions]),
        spec,
    )
    joints = edited_joint_trajectory(demo, q_star, spec)
    wrist_t, wrist_r = edit_wrist_arrays(demo, actions, [env.object_pose for env in envs])
    e_count, t_count = joints.shape[:2]
    centers, tips = forward_kinematics_batch(
        spec, wrist_t.reshape(-1, 3), wrist_r.reshape(-1, 4), joints.reshape(e_count * t_count, -1)
    )
    centers = centers.reshape(e_count, t_count, *centers.shape[1:])
    tips = tips.reshape(e_count, t_count, *tips.shape[1:])
    radii, finger_index, _ = sphere_metadata(spec)
    tl = demo.grasp_index

    d_series = []
    for env, tp in zip(envs, tips):
        cond = env.condition
        p_afford_world = transform_point(env.object_pose, cond.p_afford)
        centroid_series = tp[:, list(cond.contact_mask)].mean(axis=1)
        d_series.append(np.linalg.norm(centroid_series - p_afford_world, axis=1))
    crushed, contacts = _contact_phase(envs, centers, radii, finger_index, tl, params)
    table = np.any(centers[:, tl, :, 2] < radii + params.table_tol, axis=1)
    open_ = [i for i in range(e_count) if not crushed[i]]
    outcomes = dict(zip(open_, grasp_success_batch(
        [contacts[i] for i in open_], [envs[i] for i in open_], params.mu, params.eta,
        table_collision=[bool(table[i]) for i in open_],
    )))

    records = []
    for i, env in enumerate(envs):
        cond = env.condition
        failure_reason = None
        success = outcomes.get(i, False)
        if crushed[i]:
            failure_reason = "crush"
        elif isinstance(success, ContactError):
            failure_reason = f"degenerate_contacts: {success}"
            log.warning("episode failed: %s", success)
            success = False
        elif not success:
            failure_reason = "table_collision" if table[i] else "no_closure"
        q_final = joints[i, -1]
        records.append(RolloutRecord(
            success=success,
            d_series=d_series[i],
            d_min=float(d_series[i].min()),
            d_final=float(d_series[i][-1]),
            q_final=q_final,
            q_star=q_star[i],
            contacts_at_grasp=contacts[i],
            executed_style=classify_style(spec, q_final, styles),
            table_collision=bool(table[i]),
            crushed=crushed[i],
            obj_bb=env.obj.obj_bb,
            q_style_canonical=styles[cond.style_index].q_canonical.copy(),
            failure_reason=failure_reason,
            trajectory=EditedTrajectory(
                pose_t=wrist_t[i],
                pose_r=wrist_r[i],
                joints=joints[i],
                style_index=cond.style_index,
                p_afford=cond.p_afford,
                q_star=q_star[i],
            ),
        ))
    return records
