"""Reference contact phase: the per-episode, world-frame implementation
that sim.detect_contacts replaced, kept as an oracle.

Each episode transforms its whole cloud into the world frame, quick-
rejects sphere centers against the world bounding box of that cloud,
and runs one dense |c|^2 + |p|^2 - 2 c.p product over every frame.
reference_contact_phase has detect_contacts' signature and returns its
contact table, so a test can swap it into sim and compare whole rollout
records. two_pass_crushed keeps detect_contacts' earlier per-object row
selection, so a test can compare the rows of every query call, and
recomputing_nearest the nearest-point query that computed the points'
terms on each call.
"""

import numpy as np

from fungrasp import sim
from fungrasp.geometry import quat_conjugate, quat_rotate


def dense_nearest(centers, pts):
    """Nearest cloud point per row of centers: (indices, distances)."""
    d2 = (
        (centers**2).sum(axis=1)[:, None]
        + (pts**2).sum(axis=1)[None, :]
        - 2.0 * centers @ pts.T
    )
    idx = d2.argmin(axis=1)
    d = np.sqrt(np.maximum(d2[np.arange(len(idx)), idx], 0.0))
    return idx, d


def crush_floor_oracle(obj, centers, cell):
    """The crush floor of cubic cells of side cell centered at centers
    (B, 3), each by one test over every cloud point: the min of
    (x.n_p - p.n_p) - (cell / 2) |n_p|_1 over the points p with
    s(p) - s(q) <= 2 h |p - q| + 1e-12, where s(p) = |p|^2 - 2 x.p, q is
    the argmin of s and h the cell's half-diagonal."""
    pts, nrm = obj.points, obj.normals
    h = cell * np.sqrt(3.0) / 2.0
    p2, pn, slack = (pts**2).sum(axis=1), (pts * nrm).sum(axis=1), cell / 2.0 * np.abs(nrm).sum(axis=1)

    def dots(x, v):  # (B, N) x.v, summed in coordinate order
        return (x[:, :1] * v[:, 0] + x[:, 1:2] * v[:, 1]) + x[:, 2:] * v[:, 2]

    out = np.empty(len(centers))
    for lo in range(0, len(centers), 256):
        x = centers[lo : lo + 256]
        s = p2 - 2.0 * dots(x, pts)
        q = s.argmin(axis=1)
        to_q = np.sqrt(sum((pts[:, k] - pts[q, k][:, None]) ** 2 for k in range(3)))
        near = s - s[np.arange(len(x)), q][:, None] <= 2.0 * h * to_q + 1e-12
        out[lo : lo + 256] = np.where(near, dots(x, nrm) - pn - slack, np.inf).min(axis=1)
    return out


def _select_contacts(dist, nearest_idx, pts, nrm, radii, finger_index, delta_c):
    """Per finger, the deepest sphere-vs-cloud contact within the shell,
    as one row of the contact table: (hit (F,), points (F, 3), normals
    (F, 3)), zero rows where a finger has no hit."""
    f_count = finger_index.max() + 1
    hit, points, normals = np.zeros(f_count, dtype=bool), np.zeros((f_count, 3)), np.zeros((f_count, 3))
    depth = radii - dist
    hits = dist <= radii + delta_c
    for f in np.unique(finger_index):
        cand = np.where(hits & (finger_index == f))[0]
        if cand.size == 0:
            continue
        best = cand[np.argmax(depth[cand])]
        j = nearest_idx[best]
        hit[f], points[f], normals[f] = True, pts[j], nrm[j]
    return hit, points, normals


def approach_contacts(obj, pose_t, pose_r, centers, radii, finger_index, tl, params):
    """Crush test over the approach and contacts at the grasp frame, for
    one episode's (T + 1, K, 3) sphere centers, on obj at the pose
    (pose_t, pose_r)."""
    pts = quat_rotate(pose_r, obj.points) + pose_t
    nrm = quat_rotate(pose_r, obj.normals)
    t_count, k_count = centers.shape[0], centers.shape[1]
    flat = centers.reshape(-1, 3)
    margin = radii.max() + params.delta_c + 1e-9
    lo = pts.min(axis=0) - margin
    hi = pts.max(axis=0) + margin
    near = np.all((flat >= lo) & (flat <= hi), axis=1)
    near = near.reshape(t_count, k_count)
    near[tl, :] = True
    flat_near = flat[near.ravel()]
    dist = np.full((t_count, k_count), np.inf)
    gap = np.full((t_count, k_count), np.inf)
    idx = np.zeros((t_count, k_count), dtype=int)
    if flat_near.shape[0]:
        idx_n, d_n = dense_nearest(flat_near, pts)
        gap_n = np.einsum("ij,ij->i", flat_near - pts[idx_n], nrm[idx_n])
        dist[near] = d_n
        gap[near] = gap_n
        idx[near] = idx_n
    crushed = bool(np.any(gap[:tl] < radii * (1.0 - params.crush_factor)))
    return (crushed, *_select_contacts(dist[tl], idx[tl], pts, nrm, radii, finger_index, params.delta_c))


def recomputing_nearest(centers, pts):
    """sim._nearest as it was before each object held the points' terms:
    the same blocked argmin, with -2 p^T and |p|^2 recomputed per call."""
    rows = centers if len(centers) != 1 else np.repeat(centers, 2, axis=0)
    neg2p = -2.0 * pts.T
    p2 = np.einsum("ij,ij->i", pts, pts)
    idx = np.empty(len(rows), dtype=np.intp)
    scratch = np.empty((min(sim._ROW_BLOCK, len(rows)), len(pts)))
    for lo in range(0, len(rows), sim._ROW_BLOCK):
        hi = min(lo + sim._ROW_BLOCK, len(rows))
        lo = min(lo, hi - 2)
        block = scratch[: hi - lo]
        np.matmul(rows[lo:hi], neg2p, out=block)
        block += p2
        idx[lo:hi] = block.argmin(axis=1)
    idx = idx[: len(centers)]
    diff = centers - pts[idx]
    return idx, np.sqrt(np.einsum("ij,ij->i", diff, diff))


def reference_contact_phase(env, centers, radii, finger_index, tl, params):
    """The contact phase one episode at a time, over all its frames."""
    out = [approach_contacts(obj, t, r, c, radii, finger_index, tl, params)
           for obj, t, r, c in zip(env.objs, env.pose_t, env.pose_r, centers)]
    return tuple(np.array(column) for column in zip(*out))


def two_pass_crushed(env, centers, radii, tl, params):
    """detect_contacts' crush flags by its earlier row selection, kept
    as the reference for the rows of each sim._may_crush and
    sim._nearest call: objects in order of first appearance; per object,
    one box test of frames tl-1 and tl of its episodes, then another of
    frames 0..tl-2 of those the first pass left uncrushed, each followed
    by its _may_crush and _nearest calls."""
    e_count = len(env)
    pose_t, pose_r = env.pose_t, env.pose_r
    local = quat_rotate(quat_conjugate(pose_r)[:, None, None], centers[:, : tl + 1] - pose_t[:, None, None])
    crushed = np.zeros(e_count, dtype=bool)
    crush_gap = radii * (1.0 - params.crush_factor)
    margin = radii.max() + params.delta_c + 1e-9
    groups = {}
    for i, obj in enumerate(env.objs):
        groups.setdefault(id(obj), []).append(i)
    for members in groups.values():
        obj = env.objs[members[0]]
        members = np.asarray(members)
        lo, hi = obj.box[0] - margin, obj.box[1] + margin
        first = max(tl - 1, 0)
        sph = local[members, first:]
        near = np.all((sph >= lo) & (sph <= hi), axis=-1)
        rows = sph[near]
        a, t, k = np.nonzero(near)
        grasp = t == tl - first
        keep = grasp.copy()
        keep[~grasp] = sim._may_crush(obj, rows[~grasp], crush_gap[k[~grasp]])
        a, k, rows, grasp = a[keep], k[keep], rows[keep], grasp[keep]
        found, _ = sim._nearest(rows, obj)
        app = ~grasp
        crushed[members[a[app][sim._crushing(obj, rows[app], found[app], crush_gap[k[app]])]]] = True
        rest = members[~crushed[members]]
        if tl < 2 or not rest.size:
            continue
        sph = local[rest, : tl - 1]
        near = np.all((sph >= lo) & (sph <= hi), axis=-1)
        rows = sph[near]
        a, _, k = np.nonzero(near)
        keep = sim._may_crush(obj, rows, crush_gap[k])
        if keep.any():
            rows, a, k = rows[keep], a[keep], k[keep]
            found, _ = sim._nearest(rows, obj)
            crushed[rest[a[sim._crushing(obj, rows, found, crush_gap[k])]]] = True
    return crushed


def hand_assets(hand):
    """A bundled hand with its styles, demo and the bundled objects."""
    from fungrasp.assets import default_demo_path, default_hand_path, default_objects_dir, default_styles_path
    from fungrasp.training import load_assets

    return load_assets(default_hand_path(hand), default_styles_path(hand),
                       default_demo_path(hand), default_objects_dir())


def seeded_rollout_inputs(assets, n, seed):
    """An EnvBatch of n seeded environments, each reset on one shared rng
    in turn, and their (n, 7 + J) action vectors: every fourth action
    uniform within the bounds, the rest small edits of the replay, which
    often grasp."""
    from conftest import concat_envs
    from fungrasp.demo import EditBounds
    from fungrasp.sim import reset_env

    spec = assets.spec
    lo, hi = EditBounds().intervals(spec.joint_count)
    rng = np.random.default_rng(seed)
    envs, actions = [], []
    for i in range(n):
        envs.append(reset_env(assets.objects, assets.afford_dists, assets.styles, [rng], spec=spec,
                              sigma_style=0.05 if i % 2 else 0.0, square_half=0.25))
        if i % 4 == 0:
            vec = rng.uniform(lo, hi)
        else:
            vec = np.clip(np.r_[np.zeros(6 + spec.joint_count), 1.0] + rng.normal(0.0, 0.01, lo.shape), lo, hi)
        actions.append(vec)
    return concat_envs(envs), np.stack(actions)
