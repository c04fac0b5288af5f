"""Quasi-static rollout of an edited trajectory against one object.

There is no rigid-body dynamics here: the object never moves, contacts
are sphere-vs-cloud proximity tests, and "did the grasp work" is an
epsilon-perturbed force-closure feasibility check at the grasp frame.
That trades the lift test a physics engine would run for something
deterministic, fast, and checkable against analytic grasps.

rollout_batch scores E episodes at once; one episode is a batch of
one. Joint targets, joint trajectories, wrist edits and FK run once over
all E x (T_D + 1) frames. The contact phase (detect_contacts) then works
in each episode's object frame: one inverse rotation maps the sphere
centers of frames 0..T_l (nothing reads later frames) into it, and a
bounding-box test drops spheres too far from the cloud to matter. Per
object, one _nearest call answers the kept spheres of the grasp frame
and the last approach frame of every episode on that object, and a
second one the earlier approach frames of only the episodes that the
last approach frame did not crush. What comes out is one contact table
of fixed shape: hit (E, F), points and normals (E, F, 3), each finger's
deepest hit in the world frame and a zero row where it has none. Everything after it
is an array expression over the chunk, with (E, F) bool contact masks
in place of finger lists: the style contact point and d_series, the
contact centroid, the gravity wrench and the friction-pyramid
generators (four zero columns per finger without a hit). The seven
closure LPs of every grasp that passes the crush, table and
two-mask-finger gates run as one stacked simplex (grasp_success_batch,
feasible_combination_batch).

Determinism: every batched step is element-wise or keeps each row's or
episode's own reductions (each query row's own argmin, each tableau's
own pivots, and the 1-D norm, geometry.row_norms, of each tangent and
of each final joint vector's distance to each style), and a masked mean
adds the left-out fingers as exact zeros in the order np.mean adds, so
every record is bit for bit what the episode gets alone. _nearest takes its
product in fixed row blocks and never sends a single row to the matrix
product, which numpy would hand to gemv and round differently.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .demo import Demonstration, edited_joint_trajectory, disturb_style, target_joint_config
from .geometry import Pose, axis_angle_to_quat, quat_conjugate, quat_rotate, row_norms
from .hand import HandSpec, Style, classify_style, forward_kinematics_batch, sphere_metadata
from .objects import AffordanceDistribution, ObjectModel, sample_affordance_index

log = logging.getLogger(__name__)

__all__ = [
    "SimParams",
    "EnvCondition",
    "EnvState",
    "RolloutRecord",
    "reset_env",
    "detect_contacts",
    "style_contact_point",
    "check_table_collision",
    "grasp_success_batch",
    "feasible_combination_batch",
    "rollout_batch",
]


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
class RolloutRecord:
    """What one rollout measured, and nothing it was given: the
    affordance-to-contact-centroid distance of every frame, the final
    and the edited target joints, the style the final joints read as,
    the table test, and why the grasp failed (None on success).
    Everything else is a property of these fields."""

    d_series: np.ndarray          # (T_D + 1,)
    q_final: np.ndarray
    q_star: np.ndarray
    executed_style: int
    table_collision: bool
    failure_reason: str | None = None

    @property
    def success(self) -> bool:
        return self.failure_reason is None

    @property
    def crushed(self) -> bool:
        return self.failure_reason == "crush"

    @property
    def d_min(self) -> float:
        return float(self.d_series.min())

    @property
    def d_final(self) -> float:
        return float(self.d_series[-1])

    @property
    def outcome(self) -> str:
        """How the rollout ended, as named in training.OUTCOMES: "ok",
        "degenerate" for every "degenerate_contacts: ..." reason, else
        the failure reason."""
        if self.failure_reason is None:
            return "ok"
        return "degenerate" if self.failure_reason.startswith("degenerate") else self.failure_reason


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


def _crushing(obj: ObjectModel, rows: np.ndarray, found: np.ndarray, crush_gap: np.ndarray) -> np.ndarray:
    """Which query rows (object-frame sphere centers, their matched cloud
    indices and each one's crush_gap) sit deeper below the matched
    point's surface than their crush_gap allows."""
    return np.einsum("ij,ij->i", rows - obj.points[found], obj.normals[found]) < crush_gap


def detect_contacts(envs: list[EnvState], centers: np.ndarray, radii, finger_index, tl: int, params: SimParams):
    """Crush test over frames 0..tl-1 and sphere-vs-cloud contacts at
    frame tl, for the (E, > tl, K, 3) world-frame sphere centers of E
    episodes.

    Returns the contact table (crushed (E,), hit (E, F), points (E, F, 3),
    normals (E, F, 3)): for each finger, the matched cloud point and
    outward normal of its deepest sphere within the shell radius +
    params.delta_c, in the world frame, and a zero row where the finger
    has no hit.

    Per object, a first _nearest call takes frame tl and the last
    approach frame, tl-1, of every episode on it, the frame where a
    crushing approach shows most often. A second call takes frames
    0..tl-2 of only the episodes that frame left uncrushed. A query
    row's answer does not depend on the other rows, so the table is the
    one a single query of every frame gives.
    """
    e_count = len(envs)
    k_count = centers.shape[2]
    pose_t = np.stack([env.object_pose.t for env in envs])
    pose_r = np.stack([env.object_pose.r for env in envs])
    local = quat_rotate(quat_conjugate(pose_r)[:, None, None], centers[:, : tl + 1] - pose_t[:, None, None])
    crushed = np.zeros(e_count, dtype=bool)
    dist_tl = np.empty((e_count, k_count))           # each grasp-frame sphere's distance,
    grasp_pts = np.empty((e_count, k_count, 3))      # its cloud point
    grasp_nrm = np.empty((e_count, k_count, 3))      # and that point's normal, object frame
    # crush: a sphere center driven past the surface by more than
    # (crush_factor - 1) x radius during the approach
    crush_gap = radii * (1.0 - params.crush_factor)
    # crush and contacts only need spheres near the cloud: quick-reject
    # everything outside its bounding box grown by radius + shell
    margin = radii.max() + params.delta_c + 1e-9
    groups: dict[int, list[int]] = {}
    for i, env in enumerate(envs):
        groups.setdefault(id(env.obj), []).append(i)
    for members in groups.values():
        obj = envs[members[0]].obj
        members = np.asarray(members)
        lo, hi = obj.points.min(axis=0) - margin, obj.points.max(axis=0) + margin
        first = max(tl - 1, 0)
        sph = local[members, first:]                   # frames tl-1 (if any) and tl
        near = np.all((sph >= lo) & (sph <= hi), axis=-1)
        near[:, -1] = True  # the grasp frame always gets exact contacts
        rows = sph[near]
        found, d = _nearest(rows, obj.points)
        a, t, k = np.nonzero(near)
        grasp = t == tl - first
        dist_tl[members] = d[grasp].reshape(-1, k_count)
        grasp_pts[members] = obj.points[found[grasp]].reshape(-1, k_count, 3)
        grasp_nrm[members] = obj.normals[found[grasp]].reshape(-1, k_count, 3)
        app = ~grasp
        crushed[members[a[app][_crushing(obj, rows[app], found[app], crush_gap[k[app]])]]] = True
        rest = members[~crushed[members]]
        if tl < 2 or not rest.size:
            continue
        sph = local[rest, : tl - 1]
        near = np.all((sph >= lo) & (sph <= hi), axis=-1)
        if near.any():
            rows = sph[near]
            found, _ = _nearest(rows, obj.points)
            a, _, k = np.nonzero(near)
            crushed[rest[a[_crushing(obj, rows, found, crush_gap[k])]]] = True

    # per finger, its deepest in-shell sphere; ties go to the lowest sphere
    dist_tl = dist_tl[:, None]
    own = finger_index == np.arange(finger_index.max() + 1)[:, None]  # (F, K)
    cand = own & (dist_tl <= radii + params.delta_c)  # (E, F, K)
    best = np.where(cand, radii - dist_tl, -np.inf).argmax(axis=2)
    hit = cand.any(axis=2)[..., None]
    e = np.arange(e_count)[:, None]
    points = quat_rotate(pose_r[:, None], grasp_pts[e, best]) + pose_t[:, None]
    normals = quat_rotate(pose_r[:, None], grasp_nrm[e, best])
    return crushed, hit[..., 0], np.where(hit, points, 0.0), np.where(hit, normals, 0.0)


def style_contact_point(points: np.ndarray, mask) -> np.ndarray:
    """Mean of the masked fingers' points: (..., F, 3) points and a
    (..., F) bool mask give (..., 3). Of fingertips it is the style's
    contact point; of a contact table, the contact centroid. The masked
    sum adds the left-out fingers as exact zeros, in finger order.
    """
    mask = np.asarray(mask, dtype=bool)
    if not mask.any(axis=-1).all():
        raise ValueError("contact mask is empty")
    return np.where(mask[..., None], points, 0.0).sum(axis=-2) / mask.sum(axis=-1)[..., None]


def check_table_collision(centers: np.ndarray, radii, tol: float = 0.002) -> np.ndarray:
    """True where any collision sphere of a (..., K, 3) stack of centers
    reaches the table plane z = 0.

    tol is a conservative margin: a sphere counts as colliding when its
    center is within tol of tangency (z < radius + tol), so grazing
    passes are flagged rather than forgiven.
    """
    return np.any(centers[..., 2] < radii + tol, axis=-1)


def feasible_combination_batch(generators: np.ndarray, loads: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Phase-1 simplex feasibility of  generators[i] @ alpha = loads[i],
    alpha >= 0, for a (B, m, n) stack of problems; returns (B,) bools.

    Small and self-contained (problems here are 6 rows x <= ~30 columns).
    Every tableau pivots on its own by Bland's rule, which prevents
    cycling, and is feasible when its artificial objective can be driven
    to ~0. Zero columns may sit anywhere, between real columns as well as
    after them (a finger without a hit, or a problem with fewer
    generators): their reduced cost stays -0.0, so they never enter, and
    the real columns keep their order, before the artificial ones, so
    each tableau takes exactly the pivots, and the bits, it takes with
    its zero columns left out.
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
        if done.any():
            feasible[ids[done]] = tab[done, m, -1] >= -tol
        enter = cand.argmax(axis=1)
        col = tab[np.arange(len(ids)), :m, enter]
        ratios = np.full(col.shape, np.inf)
        np.divide(tab[:, :m, -1], col, out=ratios, where=col > 1e-11)
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
        np.subtract(tab, factor[:, :, None] * pivot[:, None, :], out=tab, where=update[:, :, None])
        basis[rows, leave] = enter
    feasible[ids] = tab[:, m, -1] >= -tol
    return feasible


def wrench_generators(hit: np.ndarray, points: np.ndarray, normals: np.ndarray, scale: np.ndarray, mu: float):
    """(G, 6, 4F) friction-pyramid edge wrenches of G grasps' contact
    tables: hit (G, F), points and normals (G, F, 3), scale (G,).

    Forces point into the surface (along -normal); torques are taken
    about the contact centroid and divided by scale (obj_bb / 2) so force
    and torque rows share a scale. Columns go finger by finger, edges
    t1, -t1, t2, -t2; a finger without a hit gives four zero columns.
    Each tangent is normalized with its row_norms, the bits its own 1-D
    norm gives: an axis-wise norm rounds differently and would move low
    bits.
    """
    center = style_contact_point(points, hit)
    owner = np.nonzero(hit)[0]
    n_in = -normals[hit]
    ref = np.where((np.abs(n_in[:, 2]) < 0.9)[:, None], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
    t1 = np.cross(n_in, ref)
    t1 /= row_norms(t1)[:, None]
    t2 = np.cross(n_in, t1)
    f = n_in[:, None, :] + mu * np.stack([t1, -t1, t2, -t2], axis=1)
    tq = np.cross((points[hit] - center[owner])[:, None, :], f) / scale[owner][:, None, None]
    cols = np.zeros((*hit.shape, 4, 6))
    cols[hit] = np.concatenate([f, tq], axis=2)
    return cols.reshape(len(hit), -1, 6).transpose(0, 2, 1)


def grasp_success_batch(
    hit: np.ndarray,
    points: np.ndarray,
    normals: np.ndarray,
    mask: np.ndarray,
    envs: list[EnvState],
    mu: float = 0.5,
    eta: float = 0.2,
    *,
    table_collision: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Quasi-static grasp test at the grasp frame of E grasps, given their
    contact tables (detect_contacts) and (E, F) bool contact masks.

    A grasp succeeds with (a) at least two distinct contact-mask fingers
    in contact, (b) friction-pyramid feasibility of the gravity load and
    of six perturbed loads (+-eta along each force axis), torques about
    the contact centroid, and (c) no table collision. The seven loads of
    every grasp that passes (a) and (c) with finite contact geometry run
    as one stacked simplex. Returns (success (E,), degenerate (E,)):
    degenerate marks the grasps past (a) and (c) whose contact points or
    normals are not finite; they are not scored.
    """
    gated = ~np.asarray(table_collision, dtype=bool) & ((hit & mask).sum(axis=1) >= 2)
    finite = np.isfinite(points).all(axis=(1, 2)) & np.isfinite(normals).all(axis=(1, 2))
    degenerate = gated & ~finite
    scored = np.flatnonzero(gated & finite)
    success = np.zeros(len(hit), dtype=bool)
    if not len(scored):
        return success, degenerate
    hit, points = hit[scored], points[scored]
    scale = np.array([envs[i].obj.obj_bb for i in scored]) / 2.0
    pose_t = np.stack([envs[i].object_pose.t for i in scored])
    pose_r = np.stack([envs[i].object_pose.r for i in scored])
    obj_center = quat_rotate(pose_r, np.stack([envs[i].obj.centroid for i in scored])) + pose_t
    g_dir = np.array([0.0, 0.0, -1.0])
    torque = np.cross(obj_center - style_contact_point(points, hit), g_dir) / scale[:, None]
    w = np.concatenate([np.broadcast_to(g_dir, torque.shape), torque], axis=1)[:, None, :]
    # gravity, then gravity perturbed by +eta and -eta along x, y and z
    perts = np.zeros((6, 6))
    perts[np.arange(6), np.arange(6) // 2] = [eta, -eta] * 3
    loads = np.concatenate([-w, -(w + perts)], axis=1)
    gens = wrench_generators(hit, points, normals[scored], scale, mu)
    feasible = feasible_combination_batch(np.repeat(gens, 7, axis=0), loads.reshape(-1, 6))
    success[scored] = feasible.reshape(-1, 7).all(axis=1)
    return success, degenerate


def rollout_batch(
    envs: list[EnvState],
    demo: Demonstration,
    actions: np.ndarray,
    spec: HandSpec,
    styles: list[Style],
    params: SimParams = SimParams(),
) -> list[RolloutRecord]:
    """Execute E edited trajectories, given as (E, 7 + J) action vectors
    (the EditAction.to_vector layout); record i is a pure function of
    (envs[i], actions[i]), bit for bit whatever else is in the batch.

    Target joints, joint trajectories, wrist edits and FK run once over
    all E x (T_D + 1) frames, and d_series once over all of them. The
    contact phase (detect_contacts) maps the sphere centers of frames
    0..T_l into each episode's object frame with one inverse rotation,
    keeps those inside the cloud's grown bounding box (and every
    grasp-frame sphere), queries per object the grasp and last approach
    frames of all its episodes and then the earlier frames of those not
    yet crushed, takes the crush gap in the object frame, and returns the
    (E, F) contact table of each finger's deepest hit, rotated back to
    the world frame. The closure LPs of every grasp that gets that far
    run as one stacked simplex (grasp_success_batch).
    """
    from .demo import edit_wrist_arrays

    mask = np.zeros((len(envs), spec.finger_count), dtype=bool)
    for i, env in enumerate(envs):
        mask[i, list(env.condition.contact_mask)] = True
    pose_t = np.stack([env.object_pose.t for env in envs])
    pose_r = np.stack([env.object_pose.r for env in envs])
    p_afford = quat_rotate(pose_r, np.stack([env.condition.p_afford for env in envs])) + pose_t
    actions = np.asarray(actions, dtype=float)
    q_star = target_joint_config(
        np.stack([env.condition.q_style_used for env in envs]), actions[:, -1:], actions[:, 6:-1], spec
    )
    joints = edited_joint_trajectory(demo, q_star, spec)
    wrist_t, wrist_r = edit_wrist_arrays(demo, actions, pose_t, pose_r)
    e_count, t_count = joints.shape[:2]
    centers, tips = forward_kinematics_batch(
        spec, wrist_t.reshape(-1, 3), wrist_r.reshape(-1, 4), joints.reshape(e_count * t_count, -1)
    )
    centers = centers.reshape(e_count, t_count, *centers.shape[1:])
    tips = tips.reshape(e_count, t_count, *tips.shape[1:])
    radii, finger_index = sphere_metadata(spec)
    tl = demo.grasp_index

    d_series = np.linalg.norm(style_contact_point(tips, mask[:, None]) - p_afford[:, None], axis=-1)
    crushed, hit, points, normals = detect_contacts(envs, centers, radii, finger_index, tl, params)
    table = check_table_collision(centers[:, tl], radii, params.table_tol)
    # a crushed grasp skips the closure test as a table collision does
    success, degenerate = grasp_success_batch(
        hit, points, normals, mask, envs, params.mu, params.eta, table_collision=table | crushed,
    )

    executed_style = classify_style(spec, joints[:, -1], styles).tolist()
    records = []
    for i in range(e_count):
        failure_reason = None
        if crushed[i]:
            failure_reason = "crush"
        elif degenerate[i]:
            failure_reason = "degenerate_contacts: non-finite contact geometry"
            log.warning("episode failed: non-finite contact geometry")
        elif not success[i]:
            failure_reason = "table_collision" if table[i] else "no_closure"
        records.append(RolloutRecord(
            d_series=d_series[i],
            q_final=joints[i, -1],
            q_star=q_star[i],
            executed_style=executed_style[i],
            table_collision=bool(table[i]),
            failure_reason=failure_reason,
        ))
    return records
