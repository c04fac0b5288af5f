"""Reference kernels: the (n, 4)-slice forward kinematics, the np.where
simplex pivot and the seven-load closure stack that
hand.forward_kinematics_batch, sim.feasible_combination_batch and the
gravity-basis certificate of sim._closure_batch replaced, the (N, 3)-row
farthest-point sampling that objects.farthest_point_sample replaced, and
the whole-matrix neighbor search that objects.estimate_normals' row
blocks replaced, kept as oracles.

The FK chains each finger with whole-array quaternion products built by
np.stack, one (n, 4) joint quaternion per segment, and writes each
sphere center into a C-order (n, K, 3) array. It carries its own copies
of the stacked quaternion product and rotation, so it checks geometry's
component formulas too. The simplex rebuilds its whole tableau with
np.where at every pivot. The closure stack solves all seven loads of
every grasp from scratch. Each function has the signature of the one it
replaced, so a test can compare outputs by bytes; the simplex returns
only the verdicts, not the basis inverses sim's returns next to them.
"""

import numpy as np


def stacked_quat_mul(a, b):
    """Hamilton product a*b on (..., 4) arrays, stacked on the last axis."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def _stacked_cross(a, b):
    return np.stack(
        [
            a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1],
            a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2],
            a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0],
        ],
        axis=-1,
    )


def stacked_quat_rotate(q, v):
    """v + 2w(u x v) + 2 u x (u x v) on (..., 4) and (..., 3) arrays."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    u = np.broadcast_to(q[..., 1:], np.broadcast_shapes(q[..., 1:].shape, v.shape))
    v = np.broadcast_to(v, u.shape)
    w = q[..., :1]
    uv = _stacked_cross(u, v)
    return v + 2.0 * (w * uv + _stacked_cross(u, uv))


def _segment_angles(spec, q):
    """Per-finger (B, n_segments) arrays of segment angles, each
    segment's scale times its source joint."""
    return [np.stack([seg.scale * q[:, seg.source] for seg in finger.segments], axis=1) for finger in spec.fingers]


def reference_forward_kinematics(spec, wrist_t, wrist_r, q):
    """(centers (B, K, 3), fingertips (B, F, 3)), one finger and one
    segment at a time on (B, 4) quaternion slices."""
    wrist_t = np.asarray(wrist_t, dtype=float)
    wrist_r = np.asarray(wrist_r, dtype=float)
    q = np.asarray(q, dtype=float)
    n = wrist_t.shape[0]
    angles = _segment_angles(spec, q)
    centers = np.empty((n, spec.sphere_count, 3))
    fingertips = np.empty((n, spec.finger_count, 3))
    k = 0
    for fi, finger in enumerate(spec.fingers):
        cur_r = stacked_quat_mul(wrist_r, finger.base_r)
        cur_t = wrist_t + stacked_quat_rotate(wrist_r, finger.base_t)
        for si, seg in enumerate(finger.segments):
            half = 0.5 * angles[fi][:, si]
            joint_q = np.empty((n, 4))
            joint_q[:, 0] = np.cos(half)
            joint_q[:, 1:] = np.sin(half)[:, None] * seg.axis
            cur_r = stacked_quat_mul(cur_r, joint_q)
            cur_t = cur_t + stacked_quat_rotate(cur_r, np.array([seg.length, 0.0, 0.0]))
            centers[:, k] = cur_t
            k += 1
        fingertips[:, fi] = cur_t
    return centers, fingertips


def reference_feasible_combination(generators, loads, tol=1e-9):
    """Phase-1 simplex feasibility of generators[i] @ alpha = loads[i],
    alpha >= 0, for a (B, m, n) stack; each pivot rebuilds the tableau."""
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


def reference_closure(generators, loads):
    """Force closure of G grasps, (G, 6, n) generators and (G, 7, 6)
    loads, by one stacked simplex over all seven loads of every grasp;
    (G,) bools, True where all seven are feasible."""
    feasible = reference_feasible_combination(np.repeat(generators, 7, axis=0), loads.reshape(-1, 6))
    return feasible.reshape(-1, 7).all(axis=1)


def reference_farthest_point_sample(points, m, seed):
    """Greedy farthest-point subsampling over (N, 3) rows, a fresh
    distance array per chosen point."""
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    rng = np.random.default_rng(seed)
    start = int(rng.integers(n))
    chosen = np.empty(m, dtype=int)
    first = int(np.argmax(((points - points[start]) ** 2).sum(axis=1)))
    chosen[0] = first
    dist = ((points - points[first]) ** 2).sum(axis=1)
    dist[first] = -np.inf
    for i in range(1, m):
        nxt = int(np.argmax(dist))
        chosen[i] = nxt
        d = ((points - points[nxt]) ** 2).sum(axis=1)
        dist = np.minimum(dist, d)
        dist[nxt] = -np.inf
    return chosen


def reference_estimate_normals(points):
    """Plane-fit normals from the 8 nearest neighbors, oriented outward,
    with the neighbors found in one (N, N) matrix of squared distances."""
    n = points.shape[0]
    d2 = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    k = min(8, n - 1)
    nbr = np.argpartition(d2, k - 1, axis=1)[:, :k]
    centroid = points.mean(axis=0)
    normals = np.empty_like(points)
    for i in range(n):
        local = points[nbr[i]] - points[nbr[i]].mean(axis=0)
        _, _, vt = np.linalg.svd(local, full_matrices=False)
        nrm = vt[-1]
        outward = points[i] - centroid
        if np.dot(nrm, outward) < 0:
            nrm = -nrm
        normals[i] = nrm
    return normals
