"""Quasi-static rollout of an edited trajectory against one object.

There is no rigid-body dynamics here: the object never moves, contacts
are sphere-vs-cloud proximity tests, and "did the grasp work" is an
epsilon-perturbed force-closure feasibility check at the grasp frame.
That trades the lift test a physics engine would run for something
deterministic, fast, and checkable against analytic grasps.

reset_env resets E episodes as one EnvBatch, a column per fact from the
object and its pose to the contact mask, and rollout_batch scores them
at once and returns the RolloutRecord fields as columns (training._results
builds the records); one episode is a batch of one. Joint targets, joint
trajectories, wrist edits and FK run once over all E x (L + 1) frames,
frames 0..L of the demonstration (L its hold_index: every later frame
repeats frame L, and so does the edit's), so the affordance distance's
last value is frame L's and its minimum is over frames 0..L. The
contact phase (detect_contacts) then works in each episode's object
frame: one inverse rotation, in a workspace kept
between calls (_scratch), maps the sphere centers of frames 0..T_l
(nothing reads later frames) into it, and one box test of the chunk
keeps, as one row list, the spheres near enough to the cloud to
matter. Per object, one _nearest call answers its episodes'
rows of the grasp frame and the last approach frame, and a second the
earlier frames of only the episodes that the last approach frame did
not crush, each an index subset of that list. Before either call, an
approach row that its cell of the object's crush-floor table (_may_crush)
proves cannot crush is dropped.
What comes out is one contact table of fixed shape: hit (E, F), points
and normals (E, F, 3), each finger's deepest hit in the world frame and
a zero row where it has none. Everything after it is an array
expression over the chunk, with the (E, F) bool contact masks in place
of finger lists: the style contact point and its distance to the
affordance point, the contact centroid, the gravity wrench and the
friction-pyramid generators (four zero columns per finger without a
hit). A grasp that passes the crush, table and
two-mask-finger gates must be feasible at seven loads: gravity, and
gravity perturbed along each force axis. One stacked simplex solves the
gravity load of every such grasp (grasp_success_batch,
feasible_combination_batch). The final basis of a feasible gravity
tableau certifies most perturbed loads with one (6, 6) product each,
and only the loads it leaves open go through the simplex again; the
verdicts are those of solving all seven.

Determinism: every batched step is element-wise or keeps each row's or
episode's own reductions (each query row's own argmin, each tableau's
own pivots, and the 1-D norm, geometry.row_norms, of each tangent, of
each reset pose's quaternion and of each final joint vector's distance
to each style), and a masked mean adds the left-out fingers as exact
zeros in the order np.mean adds, so every environment and record is bit
for bit what the episode gets alone. _nearest takes its product in fixed
row blocks and never sends a single row to the matrix product, which
numpy would hand to gemv and round differently. The exception: where a
cloud holds a point twice (the bundled clouds' shared edges), which copy
a row picks, at the same distance but with the other normal, can hang on
the rows that share its block, as gemm may round the two columns apart.
The crush-floor cull changes which rows share a block; it is exact, so
this tie stays the one exception whichever rows filled its table.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields

import numpy as np

from .demo import Demonstration, edited_joint_trajectory, target_joint_config
from .geometry import axis_angle_to_quat, normalize_rows, quat_conjugate, quat_rotate, rotate, row_norms
from .hand import HandSpec, Style, clamp_to_limits, classify_style, forward_kinematics_batch
from .objects import AffordanceDistribution, ObjectModel, sample_affordance_index

log = logging.getLogger(__name__)

__all__ = [
    "SimParams",
    "EnvBatch",
    "RolloutRecord",
    "FAILURE_REASONS",
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
class EnvBatch:
    """E reset environments as columns, row i for episode i: its object,
    its object pose in the world frame, its affordance point in the
    object frame, its conditioned style, that style's joints (disturbed
    during training) and its contact mask."""

    objs: list[ObjectModel]
    pose_t: np.ndarray            # (E, 3)
    pose_r: np.ndarray            # (E, 4)
    p_afford: np.ndarray          # (E, 3), object frame
    style: np.ndarray             # (E,)
    q_style: np.ndarray           # (E, J)
    mask: np.ndarray              # (E, F) bool

    def __len__(self) -> int:
        return len(self.objs)

    def __getitem__(self, rows) -> "EnvBatch":
        """The environments of the given rows (a list or array of row
        indices), as a batch."""
        columns = (getattr(self, f.name)[rows] for f in fields(self)[1:])
        return EnvBatch([self.objs[i] for i in rows], *columns)

    @property
    def obj_bb(self) -> np.ndarray:
        return np.array([obj.obj_bb for obj in self.objs])


# why a grasp failed (the approach crushed the object, a sphere touched the table,
# no force closure, non-finite contact geometry), in the order the outputs list them
FAILURE_REASONS = ("crush", "table_collision", "no_closure", "degenerate")


@dataclass(frozen=True)
class RolloutRecord:
    """What one rollout measured, and nothing it was given: the
    affordance-to-contact-centroid distance at the last frame and its
    minimum over the frames, the final and the edited target joints,
    the style the final joints read as, and why the grasp failed, a
    name from FAILURE_REASONS (None on success). Everything else is a
    property of these fields, which are rollout_batch's columns in
    order."""

    d_final: float
    d_min: float
    q_final: np.ndarray
    q_star: np.ndarray
    executed_style: int
    failure_reason: str | None = None

    @property
    def success(self) -> bool:
        return self.failure_reason is None


def reset_env(
    objects: list[ObjectModel],
    dists: dict[str, AffordanceDistribution],
    styles: list[Style],
    rngs: list[np.random.Generator],
    *,
    spec: HandSpec,
    sigma_style: float,
    square_half: float,
    force_style: int | None = None,
) -> EnvBatch:
    """Reset one environment per rng: draw its object and its pose on the
    table, and sample the episode's conditioning.

    The call order on each episode's rng is part of the determinism
    contract: integers for the object, one random(4) for x, y, yaw and
    the affordance uniform, integers for the style, then, when
    sigma_style > 0 (training), normal(0, sigma_style, J) for the style
    disturbance. random(4) takes the four doubles that uniform(-1, 1)
    twice, uniform(0, 2 pi) and random() take one by one. force_style
    replaces the style after these draws, so the environment (object,
    pose, affordance) is the same for every forced style.

    Only the draws run per episode. Then, once over the chunk: x, y and
    yaw as lo + range * u, the bits uniform(lo, lo + range) gives; per
    object, one sample_affordance_index over its episodes' uniforms; and
    one clamp_to_limits of the disturbed joints. The poses are built
    over the batch, each quaternion row divided by its own norm,
    r / np.linalg.norm(r) (normalize_rows), so each row has the bits of
    the episode's pose built alone.
    """
    e_count, joint_count = len(rngs), spec.joint_count
    obj_code, style = np.empty((2, e_count), dtype=np.intp)
    u = np.empty((e_count, 4))                     # x, y, yaw and the affordance uniform
    noise = np.empty((e_count, joint_count)) if sigma_style > 0 else None
    for i, rng in enumerate(rngs):
        obj_code[i] = rng.integers(len(objects))
        rng.random(out=u[i])
        style[i] = rng.integers(len(styles))
        if noise is not None:
            noise[i] = rng.normal(0.0, sigma_style, joint_count)
    objs = [objects[j] for j in obj_code.tolist()]
    p_afford = np.empty((e_count, 3))
    for j, obj in enumerate(objects):
        rows = np.flatnonzero(obj_code == j)
        if len(rows):
            p_afford[rows] = obj.points[sample_affordance_index(dists[obj.name], u[rows, 3])]
    # a forced style keeps its canonical joints, though its draws were made
    if force_style is not None:
        style[:] = force_style
    q_style = np.stack([st.q_canonical for st in styles])[style]
    if noise is not None and force_style is None:
        q_style = clamp_to_limits(spec, q_style + noise)
    draws = np.array([-1.0, -1.0, 0.0]) + np.array([2.0, 2.0, 2.0 * np.pi]) * u[:, :3]
    axis_angle = np.zeros((e_count, 3))
    axis_angle[:, 2] = draws[:, 2] if square_half > 0 else 0.0
    pose_r = normalize_rows(axis_angle_to_quat(axis_angle))
    masks = np.zeros((len(styles), spec.finger_count), dtype=bool)
    for row, st in enumerate(styles):
        masks[row, list(st.contact_mask)] = True
    return EnvBatch(objs, draws * [square_half, square_half, 0.0], pose_r, p_afford, style, q_style, masks[style])


# the closure LP's tolerance: reduced costs, the phase-1 objective and
# the gravity basis's certificate all compare against it
_LP_TOL = 1e-9

# rows per block of _nearest's product: the (block, N) scratch stays small
_ROW_BLOCK = 64

# flat float buffers kept between calls, by use, each as large as the
# largest request so far up to _SCRATCH_MAX floats (_scratch). 8 MiB
# holds the contact workspace of a 96-episode chunk on either bundled
# hand (5.2 MB on shadow_like); a larger one, such as a 200-episode
# evaluation's, is not kept
_SCRATCH: dict[str, np.ndarray] = {}
_SCRATCH_MAX = 1 << 20


def _scratch(use: str, shape: tuple) -> np.ndarray:
    """An uninitialized float array of the given shape over the buffer
    kept for use, grown when too small. Its pages stay mapped from call
    to call, where a new array of that size would be mapped and faulted
    in again each time. A request over _SCRATCH_MAX floats gets a new
    array that is not kept, so one large call does not keep its memory
    for the rest of the process. Nothing may hold the array past the
    next request for the same use."""
    size = int(np.prod(shape))
    if size > _SCRATCH_MAX:
        return np.empty(shape)
    buf = _SCRATCH.get(use)
    if buf is None or buf.size < size:
        buf = _SCRATCH[use] = np.empty(size)
    return buf[:size].reshape(shape)


def _nearest(centers: np.ndarray, obj: ObjectModel):
    """Nearest point of obj's cloud per row of centers: (indices, distances).

    The argmin of |p|^2 - 2 c.p, taken in blocks of _ROW_BLOCK rows with
    the points' terms obj holds (neg2p, p2), into one (_ROW_BLOCK, N)
    block scratch that persists between calls, as wide as the widest
    cloud so far (_scratch); the distance is then the exact |c - p| of
    the chosen point. A row's answer does not depend on
    the other rows: no block has one row, since numpy hands a one-row
    product to gemv, which rounds differently from gemm. The exception
    is a tie between exact duplicates in the cloud: which copy a row
    picks can hang on the rows that share its block (see the module's
    Determinism paragraph). detect_contacts first drops the approach
    rows _may_crush clears.
    """
    pts = obj.points
    rows = centers if len(centers) != 1 else np.repeat(centers, 2, axis=0)
    idx = np.empty(len(rows), dtype=np.intp)
    scratch = _scratch("nearest", (min(_ROW_BLOCK, len(rows)), len(pts)))
    for lo in range(0, len(rows), _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, len(rows))
        lo = min(lo, hi - 2)  # a lone last row is taken with the one before it
        block = scratch[: hi - lo]
        np.matmul(rows[lo:hi], obj.neg2p, out=block)
        block += obj.p2
        idx[lo:hi] = block.argmin(axis=1)
    idx = idx[: len(centers)]
    diff = centers - pts[idx]
    return idx, np.sqrt(np.einsum("ij,ij->i", diff, diff))


# _may_crush's table: cells of side _CELL over the box grown by _GRID_GROW,
# filled a block of _BLOCK**3 cells (offsets _BLOCK_CELLS) at a time
_CELL = 0.004
_GRID_GROW = 0.016
_BLOCK = 4
_BLOCK_CELLS = np.indices((_BLOCK,) * 3).reshape(3, -1).T


def _dots(x: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(B, n) dot products of rows x (B, 3) with columns cols (3, n), element-wise."""
    return (x[:, :1] * cols[0] + x[:, 1:2] * cols[1]) + x[:, 2:] * cols[2]


def _match_candidates(x: np.ndarray, half: float, cols: np.ndarray) -> np.ndarray:
    """(B, n) mask of the cloud points, columns cols (3, n), that can be
    _nearest's match for a c within half of a center x (B, 3) (see
    _may_crush), each entry with the bits of the whole cloud's test."""
    s = (cols**2).sum(axis=0) - 2.0 * _dots(x, cols)
    q = s.argmin(axis=1)[:, None]
    to_q = np.sqrt(sum((col - col[q]) ** 2 for col in cols))
    return s - np.take_along_axis(s, q, axis=1) <= 2.0 * half * to_q + 1e-12


def _may_crush(obj: ObjectModel, rows: np.ndarray, crush_gap: np.ndarray) -> np.ndarray:
    """Which object-frame approach rows c may crush: those outside the
    table or whose cell's floor L is below their crush_gap + 1e-9 (the
    einsum's rounding). No row it drops can crush.

    Of a cell with center x and half-diagonal h, L = min (x - p).n_p -
    (_CELL / 2) |n_p|_1 over the points p with s(p) - s(q) <= 2h |p - q|
    + 1e-12, where s(p) = |p|^2 - 2 x.p and q is the argmin of s. Every
    copy of the point _nearest matches c to is among them: for any q,
    |c - p|^2 - |c - q|^2 = s(p) - s(q) - 2 (c - x).(p - q), which is
    <= 0 for the match, and |c - x| <= h (the 1e-12 covers the rounding
    of the argmin and of s). And (c - p).n_p >= (x - p).n_p - (_CELL / 2)
    |n_p|_1, the exact minimum of (c - x).n_p over the cube, for any n_p.

    A block is filled when a row first lands in it: its center screens
    the cloud with the same test at the block's half-diagonal, and its
    cells test only the points that pass, with q their argmin. That is
    exact: a cell's matches pass, and the bound holds for any q. The
    screen's scratch is a few (N,) rows.
    """
    lo, floors = obj.box[0] - _GRID_GROW, obj.crush_floor
    if not floors:
        blocks = np.ceil((obj.box[1] - obj.box[0] + 2 * _GRID_GROW) / (_BLOCK * _CELL)).astype(int)
        floors.update(table=np.empty(tuple(blocks * _BLOCK)), filled=np.zeros(tuple(blocks), dtype=bool))
    table, filled, cols, normals = floors["table"], floors["filled"], obj.points.T, obj.normals.T
    cell = np.floor((rows - lo) / _CELL).astype(np.intp)
    inside = np.all((cell >= 0) & (cell < table.shape), axis=1)
    cell = cell[inside]
    block = np.ravel_multi_index(tuple(cell.T // _BLOCK), filled.shape)
    half = _CELL * np.sqrt(3.0) / 2.0
    for b in sorted(set(block[~filled.flat[block]].tolist())):  # np.unique would import numpy.ma
        corner = np.array(np.unravel_index(b, filled.shape)) * _BLOCK
        near = np.flatnonzero(_match_candidates(lo + (corner[None] + _BLOCK / 2) * _CELL, _BLOCK * half, cols))
        x = lo + (corner + _BLOCK_CELLS + 0.5) * _CELL
        gap = _dots(x, normals[:, near]) - (cols[:, near] * normals[:, near]).sum(axis=0)  # (x - p).n_p
        gap -= _CELL / 2 * np.abs(normals[:, near]).sum(axis=0)
        gap[~_match_candidates(x, half, cols[:, near])] = np.inf
        table[tuple(slice(c, c + _BLOCK) for c in corner)] = gap.min(axis=1).reshape((_BLOCK,) * 3)
        filled.flat[b] = True
    floor = np.full(len(rows), -np.inf)
    floor[inside] = table[tuple(cell.T)]
    return floor < crush_gap + 1e-9


def _crushing(obj: ObjectModel, rows: np.ndarray, found: np.ndarray, crush_gap: np.ndarray) -> np.ndarray:
    """Which query rows (object-frame sphere centers, their matched cloud
    indices and each one's crush_gap) sit deeper below the matched
    point's surface than their crush_gap allows."""
    return np.einsum("ij,ij->i", rows - obj.points[found], obj.normals[found]) < crush_gap


def detect_contacts(env: EnvBatch, centers: np.ndarray, radii, finger_index, tl: int, params: SimParams):
    """Crush test over frames 0..tl-1 and sphere-vs-cloud contacts at
    frame tl, for the (E, > tl, K, 3) world-frame sphere centers of E
    episodes.

    Returns the contact table (crushed (E,), hit (E, F), points (E, F, 3),
    normals (E, F, 3)): for each finger, the matched cloud point and
    outward normal of its deepest sphere within the shell radius +
    params.delta_c, in the world frame, and a zero row where the finger
    has no hit.

    Only spheres inside the cloud's bounding box grown by the largest
    radius + params.delta_c are queried: one outside it is farther than
    its own radius + delta_c from every point, so it can neither crush
    nor touch. One test of frames 0..tl keeps them as rows (episode,
    frame, sphere, object-frame center) in that order. Per object, a
    first _nearest call takes its episodes' rows of frame tl and of the
    last approach frame, tl-1, where a crushing approach shows most
    often; a second takes frames 0..tl-2 of only the episodes that frame
    left uncrushed. Before each call, approach rows that their cell's
    crush floor proves cannot crush (_may_crush) are dropped, after the
    table's blocks that the rows land in and no earlier call filled are
    filled. A query row's answer does not depend on the other rows, so
    the table is the one a single query of every frame gives.
    """
    e_count = len(env)
    k_count = centers.shape[2]
    pose_t, pose_r = env.pose_t, env.pose_r
    crushed = np.zeros(e_count, dtype=bool)
    # each grasp-frame sphere's distance, its cloud point and that point's
    # normal, object frame; a sphere the box test drops keeps inf and zeros
    dist_tl = np.full((e_count, k_count), np.inf)
    grasp_pts, grasp_nrm = np.zeros((2, e_count, k_count, 3))
    # crush: a sphere center driven past the surface by more than
    # (crush_factor - 1) x radius during the approach
    crush_gap = radii * (1.0 - params.crush_factor)
    # frames 0..tl in each episode's object frame, an (E, tl + 1, K) array per
    # axis; only the spheres in the cloud's box grown by radius + shell matter
    q = quat_conjugate(pose_r).T[..., None, None]
    work = _scratch("contacts", (10, e_count, tl + 1, k_count))  # rotate's seven planes, then the offsets
    for ax in range(3):
        np.subtract(centers[:, : tl + 1, :, ax], pose_t[:, ax, None, None], work[7 + ax])
    local = rotate(*q, *work[7:], work[:7])
    margin = radii.max() + params.delta_c + 1e-9
    objs: dict[int, tuple[int, ObjectModel]] = {}  # (code, object) by id, in order of first appearance
    obj_code = np.array([objs.setdefault(id(obj), (len(objs), obj))[0] for obj in env.objs])
    box = np.array([obj.box for _, obj in objs.values()])[obj_code, :, :, None, None]  # (E, 2, 3, 1, 1)
    near = True
    for ax, c in enumerate(local):
        near = near & (c >= box[:, 0, ax] - margin) & (c <= box[:, 1, ax] + margin)
    e, t, k = np.nonzero(near)
    rows = np.stack([c[near] for c in local], axis=-1)
    row_code, late = obj_code[e], t >= tl - 1
    for j, obj in objs.values():
        # the first pass: frames tl-1 (if any) and tl of the object's episodes
        sel = np.flatnonzero((row_code == j) & late)
        grasp = t[sel] == tl
        keep = grasp.copy()
        keep[~grasp] = _may_crush(obj, rows[sel[~grasp]], crush_gap[k[sel[~grasp]]])
        sel, grasp = sel[keep], grasp[keep]
        found, d = _nearest(rows[sel], obj)
        at = e[sel[grasp]], k[sel[grasp]]
        dist_tl[at] = d[grasp]
        grasp_pts[at] = obj.points[found[grasp]]
        grasp_nrm[at] = obj.normals[found[grasp]]
        app = sel[~grasp]
        crushed[e[app[_crushing(obj, rows[app], found[~grasp], crush_gap[k[app]])]]] = True
        if tl < 2 or crushed[obj_code == j].all():
            continue
        # the second: frames 0..tl-2 of the episodes the first left uncrushed
        sel = np.flatnonzero((row_code == j) & ~late)
        sel = sel[~crushed[e[sel]]]
        keep = _may_crush(obj, rows[sel], crush_gap[k[sel]])
        if keep.any():
            sel = sel[keep]
            found, _ = _nearest(rows[sel], obj)
            crushed[e[sel[_crushing(obj, rows[sel], found, crush_gap[k[sel]])]]] = True

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


def check_table_collision(centers: np.ndarray, radii, tol: float) -> np.ndarray:
    """True where any collision sphere of a (..., K, 3) stack of centers
    reaches the table plane z = 0.

    tol is a conservative margin: a sphere counts as colliding when its
    center is within tol of tangency (z < radius + tol), so grazing
    passes are flagged rather than forgiven.
    """
    return np.any(centers[..., 2] < radii + tol, axis=-1)


def feasible_combination_batch(generators: np.ndarray, loads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Phase-1 simplex feasibility of  generators[i] @ alpha = loads[i],
    alpha >= 0, for a (B, m, n) stack of problems; returns ((B,) bools,
    (B, m, m) final basis inverses).

    The inverse of a feasible tableau whose final basis holds only real
    columns is its artificial block, B^-1 for the rows as the tableau
    holds them (sign-flipped where the load is negative): the basic
    solution of another load b' is inverse @ (sign * b'). Every other
    problem gets NaN, which no certificate accepts.

    Small and self-contained (problems here are 6 rows x <= ~30 columns).
    Every tableau pivots on its own by Bland's rule, which prevents
    cycling, and is feasible when its artificial objective can be driven
    to ~0. Zero columns may sit anywhere, between real columns as well as
    after them (a finger without a hit, or a problem with fewer
    generators): their reduced cost stays -0.0, so they never enter, and
    the real columns keep their order, before the artificial ones, so
    each tableau takes exactly the pivots, and the bits, it takes with
    its zero columns left out. Reduced costs and the phase-1 objective
    compare against _LP_TOL.
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
    inverse = np.full((count, m, m), np.nan)
    for _ in range(1000):
        cand = tab[:, m, : n + m] < -_LP_TOL
        done = ~cand.any(axis=1)
        if done.any():
            fin = np.flatnonzero(done)
            feasible[ids[fin]] = ok = tab[fin, m, -1] >= -_LP_TOL
            fin = fin[ok & (basis[fin] < n).all(axis=1)]
            inverse[ids[fin]] = tab[fin, :m, n : n + m]
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
            return feasible, inverse
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
    feasible[ids] = tab[:, m, -1] >= -_LP_TOL
    return feasible, inverse


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
    env: EnvBatch,
    mu: float,
    eta: float,
    *,
    table_collision: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Quasi-static grasp test at the grasp frame of E grasps, given their
    contact tables (detect_contacts) and their environments' columns.

    A grasp succeeds with (a) at least two distinct contact-mask fingers
    in contact, (b) friction-pyramid feasibility of the gravity load and
    of six perturbed loads (+-eta along each force axis), torques about
    the contact centroid, and (c) no table collision. The grasps that
    pass (a) and (c) with finite contact geometry are scored by
    _closure_batch: one stacked simplex over their gravity loads, the
    gravity basis's certificate for the perturbed loads of the feasible
    ones, and a second stacked simplex over the loads it leaves open.
    Returns (success (E,), degenerate (E,)): degenerate marks the grasps
    past (a) and (c) whose contact points or normals are not finite;
    they are not scored.
    """
    gated = ~np.asarray(table_collision, dtype=bool) & ((hit & env.mask).sum(axis=1) >= 2)
    finite = np.isfinite(points).all(axis=(1, 2)) & np.isfinite(normals).all(axis=(1, 2))
    degenerate = gated & ~finite
    scored = np.flatnonzero(gated & finite)
    success = np.zeros(len(hit), dtype=bool)
    if not len(scored):
        return success, degenerate
    hit, points = hit[scored], points[scored]
    scale = env.obj_bb[scored] / 2.0
    centroid = np.stack([env.objs[i].centroid for i in scored])
    obj_center = quat_rotate(env.pose_r[scored], centroid) + env.pose_t[scored]
    g_dir = np.array([0.0, 0.0, -1.0])
    torque = np.cross(obj_center - style_contact_point(points, hit), g_dir) / scale[:, None]
    w = np.concatenate([np.broadcast_to(g_dir, torque.shape), torque], axis=1)[:, None, :]
    # gravity, then gravity perturbed by +eta and -eta along x, y and z
    perts = np.zeros((6, 6))
    perts[np.arange(6), np.arange(6) // 2] = [eta, -eta] * 3
    loads = np.concatenate([-w, -(w + perts)], axis=1)
    gens = wrench_generators(hit, points, normals[scored], scale, mu)
    success[scored] = _closure_batch(gens, loads)[0]
    return success, degenerate


def _closure_batch(generators: np.ndarray, loads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Force closure of G grasps: (G, 6, n) generators and (G, 7, 6)
    loads, gravity first. Returns ((G,) closed, (G, 6) certified): closed
    where all seven loads are feasible, the verdict the seven-load stack
    of feasible_combination_batch gives; certified marks the perturbed
    loads the gravity basis settled without a solve.

    The stacked simplex solves the gravity load alone; a grasp it finds
    infeasible there is not closed. A perturbed load b' whose basic solution in the
    final gravity basis, inverse @ (sign * b'), has every component above
    _LP_TOL is a nonnegative combination of that basis's generators, so
    feasible (sensitivity analysis of an optimal basis). Only the
    perturbed loads of gravity-feasible grasps that this leaves
    uncertified go through the simplex again, each with its grasp's
    generators.
    """
    gravity = loads[:, 0]
    feasible, inverse = feasible_combination_batch(generators, gravity)
    sign = np.where(gravity < 0, -1.0, 1.0)[:, :, None]
    certified = (inverse @ (sign * loads[:, 1:].transpose(0, 2, 1)) > _LP_TOL).all(axis=1)
    g, j = np.nonzero(feasible[:, None] & ~certified)
    closed = feasible.copy()
    if len(g):
        closed[g[~feasible_combination_batch(generators[g], loads[g, j + 1])[0]]] = False
    return closed, certified


def rollout_batch(
    env: EnvBatch,
    demo: Demonstration,
    actions: np.ndarray,
    spec: HandSpec,
    styles: list[Style],
    params: SimParams,
) -> tuple:
    """Execute E edited trajectories, given as (E, 7 + J) action vectors
    laid out [dt(3), dr(3), dq(J), k] (EditBounds.intervals). Returns
    RolloutRecord's fields as columns: d_final and d_min (E,), q_final
    and q_star (E, J), and lists of executed styles and failure reasons;
    row i is a pure function of (row i of env, actions[i]), bit for bit
    whatever else is in the batch.

    Target joints, joint trajectories, wrist edits, FK and the
    affordance distance run once over all E x (L + 1) frames 0..L, L the
    demo's hold_index; the frames past L repeat frame L, so d_final and
    q_final are frame L's and d_min is the minimum over frames 0..L. The
    contact phase (detect_contacts) maps the sphere centers of frames
    0..T_l into each episode's object frame with one inverse rotation,
    into a workspace kept between calls, keeps those inside the cloud's
    grown bounding box, queries per object the grasp and last approach
    frames of all its episodes and
    then the earlier frames of those not yet crushed, less the approach
    rows the crush-floor table proves cannot crush, takes the crush
    gap in the object frame, and returns the (E, F) contact table of
    each finger's deepest hit, rotated back to the world frame. Every
    grasp that gets that far is scored at once (grasp_success_batch):
    the gravity load by one stacked simplex, the perturbed loads by the
    gravity basis where it certifies them and by a second stacked
    simplex where it does not.
    """
    # read from demo at each call, where perfbench's tracer and the tests' oracle replace it
    from .demo import edit_wrist_arrays

    pose_t, pose_r = env.pose_t, env.pose_r
    p_afford = quat_rotate(pose_r, env.p_afford) + pose_t
    actions = np.asarray(actions, dtype=float)
    q_star = target_joint_config(env.q_style, actions[:, -1:], actions[:, 6:-1], spec)
    # frames 0..L only: every later frame repeats frame L
    joints = edited_joint_trajectory(demo.head, q_star, spec)
    wrist_t, wrist_r = edit_wrist_arrays(demo.head, actions, pose_t, pose_r)
    e_count, t_count = joints.shape[:2]
    centers, tips = forward_kinematics_batch(
        spec, wrist_t.reshape(-1, 3), wrist_r.reshape(-1, 4), joints.reshape(e_count * t_count, -1)
    )
    centers = centers.reshape(e_count, t_count, *centers.shape[1:])
    tips = tips.reshape(e_count, t_count, *tips.shape[1:])
    tl = demo.grasp_index

    d = np.linalg.norm(style_contact_point(tips, env.mask[:, None]) - p_afford[:, None], axis=-1)
    crushed, hit, points, normals = detect_contacts(env, centers, spec.radii, spec.finger_index, tl, params)
    table = check_table_collision(centers[:, tl], spec.radii, params.table_tol)
    # a crushed grasp skips the closure test as a table collision does
    success, degenerate = grasp_success_batch(
        hit, points, normals, env, params.mu, params.eta, table_collision=table | crushed,
    )

    # the first mask that holds names the outcome, else no_closure; indexed so episodes share each str
    names = np.array(["crush", "degenerate", None, "table_collision", "no_closure"], dtype=object)
    reasons = names[np.select([crushed, degenerate, success, table], [0, 1, 2, 3], 4)].tolist()
    if degenerate.any():
        log.warning("%d episode(s) failed: non-finite contact geometry", degenerate.sum())
    q_final = joints[:, -1].copy()  # frame L's; a view would keep the whole (E, L + 1, J) trajectory alive
    return d[:, -1], d.min(axis=1), q_final, q_star, classify_style(spec, q_final, styles).tolist(), reasons
