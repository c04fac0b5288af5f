import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.spatial import cKDTree

from contact_reference import dense_nearest, hand_assets, reference_contact_phase, seeded_rollout_inputs
from fungrasp import sim
from fungrasp.demo import EditAction
from fungrasp.geometry import (
    Pose,
    axis_angle_to_quat,
    compose_pose,
    identity_pose,
    invert_pose,
    quat_rotate,
    transform_point,
    transform_points,
)
from fungrasp.hand import HandFrames
from fungrasp.objects import make_cylinder, make_sphere
from fungrasp.sim import (
    Contact,
    ContactError,
    EnvCondition,
    EnvState,
    SimParams,
    check_table_collision,
    detect_contacts,
    feasible_combination,
    feasible_combination_batch,
    grasp_success,
    grasp_success_batch,
    reset_env,
    rollout,
    rollout_batch,
    style_contact_point,
    wrench_generators,
)


def _env_for(obj, mask=(0, 1), pose=None):
    return EnvState(
        obj=obj,
        object_pose=pose or identity_pose(),
        condition=EnvCondition(
            p_afford=obj.points[0].copy(),
            style_index=0,
            q_style_used=np.zeros(6),
            contact_mask=tuple(mask),
        ),
    )


def _frames(centers, radii=None, fingers=None):
    centers = np.asarray(centers, dtype=float)
    k = centers.shape[0]
    radii = np.full(k, 0.01) if radii is None else np.asarray(radii, float)
    fingers = np.arange(k) if fingers is None else np.asarray(fingers)
    return HandFrames(
        wrist=identity_pose(),
        centers=centers,
        radii=radii,
        finger_index=fingers,
        segment_index=np.zeros(k, dtype=int),
        fingertips=centers,
    )


# ---------------------------------------------------------------------------
# reset_env
# ---------------------------------------------------------------------------

def test_reset_deterministic(assets):
    obj = assets.objects[0]
    dist = assets.afford_dists[obj.name]
    a = reset_env(obj, dist, assets.styles, np.random.default_rng(9), True, spec=assets.spec)
    b = reset_env(obj, dist, assets.styles, np.random.default_rng(9), True, spec=assets.spec)
    assert np.array_equal(a.object_pose.t, b.object_pose.t)
    assert np.array_equal(a.object_pose.r, b.object_pose.r)
    assert np.array_equal(a.condition.p_afford, b.condition.p_afford)
    assert a.condition.style_index == b.condition.style_index
    assert np.array_equal(a.condition.q_style_used, b.condition.q_style_used)


def test_reset_zero_square_pins_pose(assets):
    obj = assets.objects[0]
    dist = assets.afford_dists[obj.name]
    env = reset_env(obj, dist, assets.styles, np.random.default_rng(1), False,
                    spec=assets.spec, square_half=0.0)
    assert np.allclose(env.object_pose.t, 0.0)
    assert np.allclose(env.object_pose.r, [1, 0, 0, 0])


def test_reset_object_rests_on_table(assets):
    obj = assets.objects[0]
    dist = assets.afford_dists[obj.name]
    for seed in range(10):
        env = reset_env(obj, dist, assets.styles, np.random.default_rng(seed), True, spec=assets.spec)
        pts = transform_points(env.object_pose, obj.points)
        assert pts[:, 2].min() >= -1e-6


def test_reset_xy_uniform_ks(assets):
    obj = assets.objects[0]
    dist = assets.afford_dists[obj.name]
    n = 10_000
    rng = np.random.default_rng(123)
    xs = np.empty(n)
    ys = np.empty(n)
    for i in range(n):
        env = reset_env(obj, dist, assets.styles, rng, False, spec=assets.spec, square_half=0.25)
        xs[i], ys[i] = env.object_pose.t[0], env.object_pose.t[1]
    for vals in (xs, ys):
        u = np.sort((vals + 0.25) / 0.5)
        grid = np.arange(1, n + 1) / n
        ks = max(np.max(np.abs(u - grid)), np.max(np.abs(u - (grid - 1.0 / n))))
        assert ks < 0.02


# ---------------------------------------------------------------------------
# contacts, style point, table
# ---------------------------------------------------------------------------

def test_contacts_far_away_empty(objects):
    env = _env_for(objects["box"])
    frames = _frames([[1.0, 1.0, 1.0], [1.1, 1.0, 1.0]])
    assert detect_contacts(frames, env) == []


def test_contact_center_on_cloud_point(objects):
    obj = objects["box"]
    env = _env_for(obj)
    target = obj.points[100]
    frames = _frames([target])
    contacts = detect_contacts(frames, env)
    assert len(contacts) == 1
    assert contacts[0].penetration == pytest.approx(0.01, abs=1e-12)
    assert np.allclose(contacts[0].point, target)
    assert np.allclose(contacts[0].normal, obj.normals[100])


def test_contacts_straddling_cylinder_oppose():
    obj = make_cylinder(radius=0.03, height=0.08)
    env = _env_for(obj)
    frames = _frames([[0.038, 0.0, 0.04], [-0.038, 0.0, 0.04]], fingers=[0, 1])
    contacts = detect_contacts(frames, env)
    assert len(contacts) == 2
    n0, n1 = contacts[0].normal, contacts[1].normal
    assert float(n0 @ n1) < -0.9


def test_deepest_contact_per_finger(objects):
    obj = objects["box"]
    env = _env_for(obj)
    shallow = obj.points[10] + obj.normals[10] * 0.008
    deep = obj.points[50] + obj.normals[50] * 0.001
    frames = _frames([shallow, deep], fingers=[0, 0])
    contacts = detect_contacts(frames, env)
    assert len(contacts) == 1
    assert contacts[0].penetration == pytest.approx(0.009, abs=1e-4)


def test_style_contact_point_cases():
    frames = _frames([[1.0, 0, 0], [-1.0, 0, 0], [0, 3.0, 0]])
    assert np.allclose(style_contact_point(frames, [0]), [1.0, 0, 0])
    assert np.allclose(style_contact_point(frames, [0, 1]), [0, 0, 0])
    assert np.allclose(style_contact_point(frames, [0, 1, 2]), [0, 1.0, 0])
    with pytest.raises(ValueError):
        style_contact_point(frames, [])


def test_table_collision_cases():
    assert not check_table_collision(_frames([[0, 0, 0.5]]))
    assert check_table_collision(_frames([[0, 0, 0.0]]))
    # grazing: z = radius - tol/2 is still a collision (conservative margin)
    tol = 0.002
    assert check_table_collision(_frames([[0, 0, 0.01 - tol / 2]]), tol=tol)
    assert not check_table_collision(_frames([[0, 0, 0.01 + 2 * tol]]), tol=tol)


# ---------------------------------------------------------------------------
# force closure
# ---------------------------------------------------------------------------

def _antipodal_sphere_contacts(obj):
    c = obj.centroid
    return [
        Contact(finger=0, point=c + [-obj.obj_bb / 2, 0, 0], normal=np.array([-1.0, 0, 0]), penetration=0.001),
        Contact(finger=1, point=c + [obj.obj_bb / 2, 0, 0], normal=np.array([1.0, 0, 0]), penetration=0.001),
    ]


def test_antipodal_sphere_succeeds():
    obj = make_sphere(radius=0.032)
    env = _env_for(obj)
    assert grasp_success(_antipodal_sphere_contacts(obj), env, mu=0.5, eta=0.2)


def test_single_contact_fails():
    obj = make_sphere(radius=0.032)
    env = _env_for(obj)
    assert not grasp_success(_antipodal_sphere_contacts(obj)[:1], env, mu=0.5)


def test_parallel_same_direction_normals_fail():
    obj = make_sphere(radius=0.032)
    env = _env_for(obj)
    c = obj.centroid
    contacts = [
        Contact(finger=0, point=c + [-0.032, 0, 0], normal=np.array([1.0, 0, 0]), penetration=0.001),
        Contact(finger=1, point=c + [0.032, 0, 0], normal=np.array([1.0, 0, 0]), penetration=0.001),
    ]
    assert not grasp_success(contacts, env, mu=0.1)


def test_mu_monotonicity():
    obj = make_sphere(radius=0.032)
    env = _env_for(obj)
    contacts = _antipodal_sphere_contacts(obj)
    grid = [0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.2]
    results = [grasp_success(contacts, env, mu=m, eta=0.2) for m in grid]
    # once successful, stays successful as mu grows
    first_true = results.index(True) if True in results else len(results)
    assert all(results[first_true:])


def test_table_collision_fails_grasp():
    obj = make_sphere(radius=0.032)
    env = _env_for(obj)
    assert not grasp_success(_antipodal_sphere_contacts(obj), env, mu=0.5, table_collision=True)


def test_mask_fingers_requirement():
    obj = make_sphere(radius=0.032)
    env = _env_for(obj, mask=(2, 3))  # contacts carry fingers 0 and 1
    assert not grasp_success(_antipodal_sphere_contacts(obj), env, mu=0.5)


def test_degenerate_normals_raise():
    obj = make_sphere(radius=0.032)
    env = _env_for(obj)
    contacts = _antipodal_sphere_contacts(obj)
    bad = Contact(finger=1, point=contacts[1].point, normal=np.array([np.nan, 0, 0]), penetration=0.0)
    with pytest.raises(ContactError):
        grasp_success([contacts[0], bad], env, mu=0.5)


def test_feasibility_against_scipy_oracle():
    rng = np.random.default_rng(4)
    agree = 0
    for trial in range(60):
        m_gen = rng.integers(3, 25)
        w = rng.normal(size=(6, m_gen))
        if trial % 2 == 0:
            b = w @ np.abs(rng.normal(size=m_gen))  # feasible by construction
        else:
            b = rng.normal(size=6)
        mine = feasible_combination(w, b)
        ref = linprog(np.zeros(m_gen), A_eq=w, b_eq=b,
                      bounds=[(0, None)] * m_gen, method="highs").status == 0
        assert mine == ref
        agree += 1
    assert agree == 60


def _random_wrench_set(rng, n_contacts, feasible):
    """Pyramid generators of random contacts on a unit-scale object,
    and a load that is feasible by construction or drawn at random."""
    pts = rng.normal(scale=0.03, size=(n_contacts, 3))
    normals = rng.normal(size=(n_contacts, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    contacts = [Contact(finger=i, point=p, normal=n, penetration=0.0)
                for i, (p, n) in enumerate(zip(pts, normals))]
    env = _env_for(make_sphere(radius=0.032))
    w = wrench_generators(contacts, env, mu=float(rng.uniform(0.1, 1.0)))
    if feasible:
        return w, w @ rng.uniform(0.05, 1.0, size=w.shape[1])
    return w, rng.normal(size=6)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    shapes=st.lists(st.tuples(st.integers(2, 7), st.booleans()), min_size=1, max_size=8),
)
def test_stacked_feasibility_matches_single_and_scipy(seed, shapes):
    """One stacked simplex over ragged, zero-padded wrench sets gives
    each problem's own answer, and scipy's."""
    rng = np.random.default_rng(seed)
    problems = [_random_wrench_set(rng, n, feasible) for n, feasible in shapes]
    width = max(w.shape[1] for w, _ in problems)
    padded = np.zeros((len(problems), 6, width))
    for i, (w, _) in enumerate(problems):
        padded[i, :, : w.shape[1]] = w
    stacked = feasible_combination_batch(padded, np.array([b for _, b in problems]))
    alone = [feasible_combination(w, b) for w, b in problems]
    ref = [
        linprog(np.zeros(w.shape[1]), A_eq=w, b_eq=b, bounds=[(0, None)] * w.shape[1],
                method="highs").status == 0
        for w, b in problems
    ]
    assert list(stacked) == alone == ref
    for (n, feasible), ok in zip(shapes, alone):
        assert ok or not feasible


def _per_contact_generators(contacts, env, mu):
    """Reference: the friction-pyramid wrenches built one contact and one
    edge at a time."""
    pts = np.array([c.point for c in contacts])
    center = pts.mean(axis=0)
    scale = env.obj.obj_bb / 2.0
    cols = []
    for c in contacts:
        n_in = -c.normal
        ref = np.array([0.0, 0.0, 1.0]) if abs(n_in[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
        t1 = np.cross(n_in, ref)
        t1 /= np.linalg.norm(t1)
        t2 = np.cross(n_in, t1)
        for t in (t1, -t1, t2, -t2):
            f = n_in + mu * t
            cols.append(np.concatenate([f, np.cross(c.point - center, f) / scale]))
    return np.array(cols).T


def test_vectorized_wrench_generators_match_per_contact_reference():
    rng = np.random.default_rng(11)
    env = _env_for(make_sphere(radius=0.032))
    for trial in range(200):
        n = int(rng.integers(1, 8))
        normals = rng.normal(size=(n, 3))
        # steep normals take the other tangent reference
        normals[rng.random(n) < 0.3, :2] *= 0.01
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        contacts = [Contact(finger=i, point=p, normal=nrm, penetration=0.0)
                    for i, (p, nrm) in enumerate(zip(rng.normal(scale=0.03, size=(n, 3)), normals))]
        mu = float(rng.uniform(0.1, 1.0))
        assert np.array_equal(wrench_generators(contacts, env, mu), _per_contact_generators(contacts, env, mu))


def test_grasp_success_batch_matches_one_grasp_calls(objects):
    """Grasps scored together get the answers they get alone, whatever
    their object, pose, mask or contact count."""
    rng = np.random.default_rng(8)
    contact_lists, envs = [], []
    for i in range(150):
        obj = list(objects.values())[i % len(objects)]
        pose = Pose(t=np.r_[rng.uniform(-0.2, 0.2, 2), 0.0],
                    r=axis_angle_to_quat(np.array([0.0, 0.0, rng.uniform(0, 2 * np.pi)])))
        env = _env_for(obj, mask=tuple(rng.choice(5, size=int(rng.integers(1, 4)), replace=False)), pose=pose)
        pick = rng.choice(len(obj.points), size=int(rng.integers(1, 6)), replace=False)
        pts = transform_points(env.object_pose, obj.points)
        nrm = quat_rotate(env.object_pose.r, obj.normals)
        contact_lists.append([Contact(finger=int(f), point=pts[j], normal=nrm[j], penetration=0.0)
                              for f, j in zip(rng.permutation(5), pick)])
        envs.append(env)
    table = list(rng.random(len(envs)) < 0.1)
    batch = grasp_success_batch(contact_lists, envs, mu=0.5, eta=0.2, table_collision=table)
    alone = [grasp_success(c, e, mu=0.5, eta=0.2, table_collision=t)
             for c, e, t in zip(contact_lists, envs, table)]
    assert batch == alone
    assert 10 <= sum(alone) <= len(alone) - 10


def test_grasp_success_batch_reports_degenerate_grasp_alone():
    obj = make_sphere(radius=0.032)
    env = _env_for(obj)
    good = _antipodal_sphere_contacts(obj)
    bad = [good[0], Contact(finger=1, point=good[1].point, normal=np.array([np.nan, 0, 0]), penetration=0.0)]
    out = grasp_success_batch([good, bad, good[:1]], [env, env, env], mu=0.5, eta=0.2,
                              table_collision=[False] * 3)
    assert out[0] is True and out[2] is False
    assert isinstance(out[1], ContactError)


def test_wrench_generator_shape_and_torque_scale(objects):
    obj = objects["box"]
    env = _env_for(obj)
    contacts = [
        Contact(finger=0, point=np.array([-0.03, 0.0, 0.03]), normal=np.array([-1.0, 0, 0]), penetration=0.0),
        Contact(finger=1, point=np.array([0.03, 0.0, 0.03]), normal=np.array([1.0, 0, 0]), penetration=0.0),
    ]
    gens = wrench_generators(contacts, env, mu=0.5)
    assert gens.shape == (6, 8)
    # force rows are pyramid edges of unit normals: norm <= 1 + mu
    assert np.all(np.linalg.norm(gens[:3], axis=0) <= 1.0 + 0.5 + 1e-9)


# ---------------------------------------------------------------------------
# rollout
# ---------------------------------------------------------------------------

def _fixture_env(assets, style_index=0):
    obj = assets.objects[0]  # box (single-object bundle sorts to box)
    style = assets.styles[style_index]
    return EnvState(
        obj=obj,
        object_pose=identity_pose(),
        condition=EnvCondition(
            p_afford=obj.points[42].copy(),
            style_index=style_index,
            q_style_used=style.q_canonical.copy(),
            contact_mask=style.contact_mask,
        ),
    )


def test_identity_rollout_succeeds_on_fixture(box_assets, demo, spec, styles):
    env = _fixture_env(box_assets)
    rec = rollout(env, demo, EditAction.identity(spec.joint_count), spec, styles)
    assert rec.success
    assert np.all(np.isfinite(rec.d_series))
    assert rec.executed_style == 0
    assert not rec.table_collision and not rec.crushed


def test_rollout_far_action_fails(box_assets, demo, spec, styles):
    env = _fixture_env(box_assets)
    # largest allowed offset pushes the approach off the object
    from fungrasp.geometry import AxisAngle

    action = EditAction(dt=np.array([0.10, 0.10, 0.10]), dr=AxisAngle(np.zeros(3)),
                        dq=np.zeros(6), k=1.0)
    rec = rollout(env, demo, action, spec, styles)
    assert not rec.success
    assert rec.contacts_at_grasp == [] or not rec.success


def test_rollout_purity(box_assets, demo, spec, styles):
    env1 = _fixture_env(box_assets)
    env2 = _fixture_env(box_assets)
    a = EditAction(dt=np.array([0.01, -0.01, 0.0]), dr=EditAction.identity(6).dr,
                   dq=np.full(6, 0.02), k=1.1)
    r1 = rollout(env1, demo, a, spec, styles)
    r2 = rollout(env2, demo, a, spec, styles)
    assert r1.success == r2.success
    assert np.array_equal(r1.d_series, r2.d_series)
    assert np.array_equal(r1.q_final, r2.q_final)


def test_rollout_record_invariants(box_assets, demo, spec, styles):
    rng = np.random.default_rng(6)
    from fungrasp.demo import EditBounds

    lo, hi = EditBounds().intervals(spec.joint_count)
    for i in range(15):
        env = _fixture_env(box_assets, style_index=int(rng.integers(4)))
        action = EditAction.from_vector(rng.uniform(lo, hi), spec.joint_count)
        rec = rollout(env, demo, action, spec, styles)
        assert rec.d_series.shape == (demo.horizon + 1,)
        assert rec.d_min <= rec.d_final + 1e-15
        assert np.all(rec.d_series >= 0.0)
        assert rec.d_min == pytest.approx(rec.d_series.min())
        assert rec.obj_bb == box_assets.objects[0].obj_bb


def test_rollout_yaw_equivariance(box_assets, demo, spec, styles):
    """Rigidly transforming the object pose (table-preserving yaw + xy)
    leaves success, d_series, and object-frame contacts unchanged."""
    obj = box_assets.objects[0]
    style = styles[1]
    base_cond = EnvCondition(
        p_afford=obj.points[77].copy(), style_index=1,
        q_style_used=style.q_canonical.copy(), contact_mask=style.contact_mask,
    )
    action = EditAction(dt=np.array([0.01, 0.0, -0.005]),
                        dr=EditAction.identity(6).dr, dq=np.full(6, -0.01), k=0.95)
    env_a = EnvState(obj=obj, object_pose=identity_pose(), condition=base_cond)
    g = Pose(t=np.array([0.12, -0.3, 0.0]), r=axis_angle_to_quat(np.array([0, 0, 1.1])))
    env_b = EnvState(obj=obj, object_pose=g, condition=base_cond)
    ra = rollout(env_a, demo, action, spec, styles)
    rb = rollout(env_b, demo, action, spec, styles)
    assert ra.success == rb.success
    assert np.allclose(ra.d_series, rb.d_series, atol=1e-9)
    assert len(ra.contacts_at_grasp) == len(rb.contacts_at_grasp)
    from fungrasp.geometry import invert_pose

    # contact matching snaps to the sampled cloud: transformed near-ties can
    # resolve to a neighboring grid point, so points match up to the grid
    # pitch while normals (same face) and fingers match exactly
    g_inv = invert_pose(g)
    for ca, cb in zip(ra.contacts_at_grasp, rb.contacts_at_grasp):
        assert ca.finger == cb.finger
        assert np.allclose(ca.point, transform_point(g_inv, cb.point), atol=6e-3)
        assert np.allclose(ca.normal, quat_rotate(g_inv.r, cb.normal), atol=1e-9)
        assert abs(ca.penetration - cb.penetration) < 6e-3


def test_crush_rule_triggers(box_assets, spec, styles, demo):
    env = _fixture_env(box_assets)
    # shift the finger approach line over the box center: the descending
    # fingertips sink through the top face before the grasp frame
    from fungrasp.geometry import AxisAngle

    action = EditAction(dt=np.array([-0.06, 0.0, 0.0]), dr=AxisAngle(np.zeros(3)),
                        dq=np.zeros(6), k=1.0)
    rec = rollout(env, demo, action, spec, styles)
    assert not rec.success
    assert rec.crushed
    assert rec.failure_reason == "crush"


@pytest.mark.parametrize("hand", ["inspire_like", "shadow_like"])
def test_rollout_batch_matches_one_item_rollouts(hand):
    """A batch rollout gives every episode the bits it gets alone."""
    assets = hand_assets(hand)
    spec = assets.spec
    envs, actions = seeded_rollout_inputs(assets, 60, seed=3)
    batch = rollout_batch(envs, assets.demo, actions, spec, assets.styles)
    reasons = set()
    for env, action, got in zip(envs, actions, batch):
        want = rollout(env, assets.demo, action, spec, assets.styles)
        assert np.array_equal(got.d_series, want.d_series)
        assert np.array_equal(got.q_final, want.q_final)
        assert got.failure_reason == want.failure_reason
        assert got.executed_style == want.executed_style
        assert got.success == want.success
        assert len(got.contacts_at_grasp) == len(want.contacts_at_grasp)
        for a, b in zip(got.contacts_at_grasp, want.contacts_at_grasp):
            assert a.finger == b.finger and a.penetration == b.penetration
            assert np.array_equal(a.point, b.point) and np.array_equal(a.normal, b.normal)
        reasons.add(want.failure_reason or "ok")
    # the batch reaches the closure LP both ways, and the crush test
    assert {"ok", "no_closure", "crush"} <= reasons


# ---------------------------------------------------------------------------
# nearest-point query and the object-frame contact phase
# ---------------------------------------------------------------------------

def _random_cloud(rng, n):
    return rng.normal(scale=0.04, size=(n, 3)) + [0.0, 0.0, 0.05]


def test_nearest_matches_kdtree_and_dense_formula():
    rng = np.random.default_rng(21)
    for n_pts, n_rows in ((800, 1), (1536, 63), (2250, 700)):
        pts = _random_cloud(rng, n_pts)
        centers = _random_cloud(rng, n_rows) * 1.5
        idx, d = sim._nearest(centers, pts)
        kd_d, kd_idx = cKDTree(pts).query(centers)
        dense_idx, dense_d = dense_nearest(centers, pts)
        assert np.array_equal(idx, kd_idx) and np.array_equal(idx, dense_idx)
        assert np.allclose(d, kd_d, rtol=0, atol=1e-15)
        assert np.allclose(d, dense_d, rtol=0, atol=1e-12)
        # the distance is the exact one of the chosen point
        assert np.allclose(d, np.linalg.norm(centers - pts[idx], axis=1), rtol=1e-15, atol=0)


def test_nearest_row_does_not_depend_on_its_block():
    """A row gets the same bits alone, in two rows, and at either side of
    a block boundary (257 rows leave a lone last row)."""
    rng = np.random.default_rng(5)
    pts = _random_cloud(rng, 1839)
    centers = _random_cloud(rng, 257) * 1.2
    idx, d = sim._nearest(centers, pts)
    for row in (0, 1, sim._ROW_BLOCK - 1, sim._ROW_BLOCK, 255, 256):
        one_idx, one_d = sim._nearest(centers[row : row + 1], pts)
        two_idx, two_d = sim._nearest(centers[[row, (row + 7) % 257]], pts)
        assert one_idx[0] == two_idx[0] == idx[row]
        assert one_d[0] == two_d[0] == d[row]
    for n in (2, 3, sim._ROW_BLOCK + 1, 2 * sim._ROW_BLOCK + 1):
        sub_idx, sub_d = sim._nearest(centers[:n], pts)
        assert np.array_equal(sub_idx, idx[:n]) and np.array_equal(sub_d, d[:n])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    axis_angle=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
    shift=st.tuples(*[st.floats(-0.5, 0.5)] * 3),
)
def test_contacts_invariant_under_a_rigid_move(seed, axis_angle, shift):
    """Moving the object pose and the sphere centers by one rigid
    transform picks the same cloud points, fingers and depths."""
    rng = np.random.default_rng(seed)
    obj = make_sphere(radius=0.032)
    pose = Pose(t=np.r_[rng.uniform(-0.2, 0.2, 2), 0.0],
                r=axis_angle_to_quat(np.array([0.0, 0.0, rng.uniform(0, 2 * np.pi)])))
    move = Pose(t=np.array(shift), r=axis_angle_to_quat(np.array(axis_angle)))
    # sphere centers in a shell around the object, near enough to touch
    pick = rng.choice(len(obj.points), size=12, replace=False)
    local = obj.points[pick] + obj.normals[pick] * rng.uniform(-0.004, 0.014, (12, 1))
    radii = np.full(12, 0.01)
    fingers = np.repeat(np.arange(4), 3)
    base = _frames(transform_points(pose, local), radii, fingers)
    moved = _frames(transform_points(compose_pose(move, pose), local), radii, fingers)
    a = detect_contacts(base, _env_for(obj, pose=pose))
    b = detect_contacts(moved, _env_for(obj, pose=compose_pose(move, pose)))
    assert [c.finger for c in a] == [c.finger for c in b]
    assert a, "the shell puts some sphere in contact"
    back_a = transform_points(invert_pose(pose), np.array([c.point for c in a]))
    back_b = transform_points(invert_pose(compose_pose(move, pose)), np.array([c.point for c in b]))
    idx_a, gap_a = sim._nearest(back_a, obj.points)
    idx_b, gap_b = sim._nearest(back_b, obj.points)
    assert np.array_equal(idx_a, idx_b) and gap_a.max() < 1e-12 and gap_b.max() < 1e-12
    assert np.allclose([c.penetration for c in a], [c.penetration for c in b], rtol=0, atol=1e-12)


def _assert_same_record(got, want, penetration_tol):
    """Every RolloutRecord field bit for bit, except contact depths."""
    for f in dataclasses.fields(want):
        g, w = getattr(got, f.name), getattr(want, f.name)
        if f.name == "contacts_at_grasp":
            assert len(g) == len(w)
            for a, b in zip(g, w):
                assert a.finger == b.finger
                assert np.array_equal(a.point, b.point) and np.array_equal(a.normal, b.normal)
                assert abs(a.penetration - b.penetration) <= penetration_tol
        elif f.name == "trajectory":
            for t in dataclasses.fields(w):
                assert np.array_equal(getattr(g, t.name), getattr(w, t.name)), t.name
        elif isinstance(w, np.ndarray):
            assert np.array_equal(g, w), f.name
        else:
            assert g == w, f.name


@pytest.mark.parametrize("hand", ["inspire_like", "shadow_like"])
def test_contact_phase_matches_per_episode_world_frame_reference(hand, monkeypatch):
    """The object-frame contact phase gives the records of the
    per-episode world-frame one on 640 seeded rollouts; only contact
    depths may differ, by the rounding of the old expanded distance."""
    assets = hand_assets(hand)
    envs, actions = seeded_rollout_inputs(assets, 640, seed=12)
    got = rollout_batch(envs, assets.demo, actions, assets.spec, assets.styles)
    monkeypatch.setattr(sim, "_contact_phase", reference_contact_phase)
    want = rollout_batch(envs, assets.demo, actions, assets.spec, assets.styles)
    for g, w in zip(got, want):
        _assert_same_record(g, w, penetration_tol=1e-12)
    reasons = {w.failure_reason or "ok" for w in want}
    assert {"ok", "no_closure", "crush", "table_collision"} <= reasons
    assert sum(len(w.contacts_at_grasp) for w in want) > 640


def test_detect_contacts_is_the_one_frame_case_of_the_phase(objects):
    obj = objects["mug"]
    pose = Pose(t=np.array([0.1, -0.05, 0.0]), r=axis_angle_to_quat(np.array([0.0, 0.0, 0.7])))
    env = _env_for(obj, pose=pose)
    rng = np.random.default_rng(2)
    pick = rng.choice(len(obj.points), size=8, replace=False)
    local = obj.points[pick] + obj.normals[pick] * rng.uniform(-0.004, 0.01, (8, 1))
    frames = _frames(transform_points(pose, local), fingers=np.repeat(np.arange(4), 2))
    _, (want,) = reference_contact_phase([env], frames.centers[None, None], frames.radii, frames.finger_index, 0,
                                         SimParams())
    got = detect_contacts(frames, env)
    assert len(got) == len(want) > 0
    for a, b in zip(got, want):
        assert a.finger == b.finger
        assert np.array_equal(a.point, b.point) and np.array_equal(a.normal, b.normal)
        assert a.penetration == pytest.approx(b.penetration, abs=1e-12)


@pytest.mark.parametrize("field, value", [
    ("delta_c", -0.001), ("table_tol", -1e-3), ("eta", -0.1), ("mu", 0.0), ("mu", -0.5), ("crush_factor", 0.0),
])
def test_sim_params_reject_out_of_range(field, value):
    with pytest.raises(ValueError, match=field):
        SimParams(**{field: value})
