"""Reference contact phase: the per-episode, world-frame implementation
that sim._contact_phase replaced, kept as an oracle.

Each episode transforms its whole cloud into the world frame, quick-
rejects sphere centers against the world bounding box of that cloud,
and runs one dense |c|^2 + |p|^2 - 2 c.p product over every frame.
reference_contact_phase has _contact_phase's signature, so a test can
swap it into sim and compare whole rollout records.
"""

import numpy as np

from fungrasp.geometry import quat_rotate, transform_points
from fungrasp.sim import Contact


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


def _select_contacts(dist, nearest_idx, pts, nrm, radii, finger_index, delta_c):
    """Per finger, the deepest sphere-vs-cloud contact within the shell."""
    contacts = []
    depth = radii - dist
    hits = dist <= radii + delta_c
    for f in np.unique(finger_index):
        cand = np.where(hits & (finger_index == f))[0]
        if cand.size == 0:
            continue
        best = cand[np.argmax(depth[cand])]
        j = nearest_idx[best]
        contacts.append(
            Contact(
                finger=int(f),
                point=pts[j].copy(),
                normal=nrm[j].copy(),
                penetration=float(max(0.0, depth[best])),
            )
        )
    return contacts


def approach_contacts(env, centers, radii, finger_index, tl, params):
    """Crush test over the approach and contacts at the grasp frame, for
    one episode's (T + 1, K, 3) sphere centers."""
    pts = transform_points(env.object_pose, env.obj.points)
    nrm = quat_rotate(env.object_pose.r, env.obj.normals)
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
    contacts = _select_contacts(dist[tl], idx[tl], pts, nrm, radii, finger_index, params.delta_c)
    return crushed, contacts


def reference_contact_phase(envs, centers, radii, finger_index, tl, params):
    """The contact phase one episode at a time, over all its frames."""
    out = [approach_contacts(env, c, radii, finger_index, tl, params)
           for env, c in zip(envs, centers)]
    return [crushed for crushed, _ in out], [contacts for _, contacts in out]


def hand_assets(hand):
    """A bundled hand with its styles, demo and the bundled objects."""
    from fungrasp.assets import default_demo_path, default_hand_path, default_objects_dir, default_styles_path
    from fungrasp.training import load_assets

    return load_assets(default_hand_path(hand), default_styles_path(hand),
                       default_demo_path(hand), default_objects_dir())


def seeded_rollout_inputs(assets, n, seed):
    """n seeded (env, action) pairs: every fourth action uniform within
    the bounds, the rest small edits of the replay, which often grasp."""
    from fungrasp.demo import EditAction, EditBounds
    from fungrasp.sim import reset_env

    spec = assets.spec
    lo, hi = EditBounds().intervals(spec.joint_count)
    rng = np.random.default_rng(seed)
    envs, actions = [], []
    for i in range(n):
        obj = assets.objects[int(rng.integers(len(assets.objects)))]
        envs.append(reset_env(obj, assets.afford_dists[obj.name], assets.styles, rng, bool(i % 2), spec=spec))
        if i % 4 == 0:
            vec = rng.uniform(lo, hi)
        else:
            vec = np.clip(np.r_[np.zeros(6 + spec.joint_count), 1.0] + rng.normal(0.0, 0.01, lo.shape), lo, hi)
        actions.append(EditAction.from_vector(vec, spec.joint_count))
    return envs, actions
