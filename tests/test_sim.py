import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.spatial import cKDTree

from contact_reference import dense_nearest, hand_assets, reference_contact_phase, seeded_rollout_inputs
from kernel_reference import reference_feasible_combination
from fungrasp import sim
from fungrasp.demo import EditAction, EditBounds
from fungrasp.geometry import (
    Pose,
    axis_angle_to_quat,
    compose_pose,
    identity_pose,
    invert_pose,
    quat_rotate,
    transform_point,
)
from fungrasp.objects import make_cylinder, make_sphere
from fungrasp.rewards import RewardConfig
from fungrasp.sim import (
    EnvCondition,
    EnvState,
    SimParams,
    check_table_collision,
    detect_contacts,
    feasible_combination_batch,
    grasp_success_batch,
    reset_env,
    rollout_batch,
    style_contact_point,
    wrench_generators,
)
from fungrasp.training import OUTCOMES


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


def _spheres(centers, radii=None, fingers=None):
    """detect_contacts' sphere arguments for one episode's one frame:
    (1, 1, K, 3) centers, radii (default 1 cm) and finger indices."""
    centers = np.asarray(centers, dtype=float)
    k = centers.shape[0]
    radii = np.full(k, 0.01) if radii is None else np.asarray(radii, float)
    fingers = np.arange(k) if fingers is None else np.asarray(fingers)
    return centers[None, None], radii, fingers


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
        pts = transform_point(env.object_pose, obj.points)
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
    crushed, hit, points, normals = detect_contacts([env], *_spheres([[1.0, 1.0, 1.0], [1.1, 1.0, 1.0]]), 0,
                                                    SimParams())
    assert hit.tolist() == [[False, False]] and crushed.tolist() == [False]
    assert not points.any() and not normals.any()


def test_contact_center_on_cloud_point(objects):
    obj = objects["box"]
    env = _env_for(obj)
    target = obj.points[100]
    _, hit, points, normals = detect_contacts([env], *_spheres([target]), 0, SimParams())
    assert hit.tolist() == [[True]]
    assert np.allclose(points[0, 0], target)
    assert np.allclose(normals[0, 0], obj.normals[100])


def test_contacts_straddling_cylinder_oppose():
    obj = make_cylinder(radius=0.03, height=0.08)
    env = _env_for(obj)
    spheres = _spheres([[0.038, 0.0, 0.04], [-0.038, 0.0, 0.04]], fingers=[0, 1])
    _, hit, _, normals = detect_contacts([env], *spheres, 0, SimParams())
    assert hit.tolist() == [[True, True]]
    assert float(normals[0, 0] @ normals[0, 1]) < -0.9


def test_deepest_contact_per_finger(objects):
    obj = objects["box"]
    env = _env_for(obj)
    shallow = obj.points[10] + obj.normals[10] * 0.008
    deep = obj.points[50] + obj.normals[50] * 0.001
    _, hit, points, _ = detect_contacts([env], *_spheres([shallow, deep], fingers=[0, 0]), 0, SimParams())
    assert hit.tolist() == [[True]]
    assert np.allclose(points[0, 0], obj.points[50])


def test_style_contact_point_cases():
    tips = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 3.0, 0]])
    assert np.allclose(style_contact_point(tips, [True, False, False]), [1.0, 0, 0])
    assert np.allclose(style_contact_point(tips, [True, True, False]), [0, 0, 0])
    assert np.allclose(style_contact_point(tips, [True, True, True]), [0, 1.0, 0])
    # a (T, F, 3) series of fingertips gives one point per frame
    series = np.stack([tips, tips + [0, 0, 1.0]])
    assert np.allclose(style_contact_point(series, [True, True, False]), [[0, 0, 0], [0, 0, 1.0]])
    # and (E, F) masks one point per row
    assert np.allclose(style_contact_point(series, [[True, False, False], [False, False, True]]),
                       [[1.0, 0, 0], [0, 3.0, 1.0]])
    with pytest.raises(ValueError):
        style_contact_point(tips, [False, False, False])


def test_table_collision_cases():
    radii = np.array([0.01])
    assert not check_table_collision(np.array([[0, 0, 0.5]]), radii)
    assert check_table_collision(np.array([[0, 0, 0.0]]), radii)
    # grazing: z = radius - tol/2 is still a collision (conservative margin)
    tol = 0.002
    stack = np.array([[[0, 0, 0.01 - tol / 2]], [[0, 0, 0.01 + 2 * tol]]])
    assert check_table_collision(stack, radii, tol).tolist() == [True, False]


# ---------------------------------------------------------------------------
# force closure
# ---------------------------------------------------------------------------

def _table(fingers, points, normals, f_count=4):
    """One grasp's contact table, (hit (1, F), points (1, F, 3), normals
    (1, F, 3)), with the given contacts on the given fingers."""
    hit, pts, nrm = np.zeros((1, f_count), dtype=bool), np.zeros((1, f_count, 3)), np.zeros((1, f_count, 3))
    hit[0, fingers], pts[0, fingers], nrm[0, fingers] = True, points, normals
    return hit, pts, nrm


def _scores(tables, envs, mu=0.5, eta=0.2, table_collision=None):
    """grasp_success_batch over stacked one-grasp tables, each with its
    env's contact mask: (success (G,), degenerate (G,))."""
    hit, pts, nrm = (np.concatenate(column) for column in zip(*tables))
    mask = np.array([np.isin(np.arange(hit.shape[1]), env.condition.contact_mask) for env in envs])
    table = np.zeros(len(envs), dtype=bool) if table_collision is None else np.array(table_collision)
    return grasp_success_batch(hit, pts, nrm, mask, envs, mu, eta, table_collision=table)


def _antipodal_sphere_table(obj, fingers=(0, 1)):
    c = obj.centroid
    points = [c + [-obj.obj_bb / 2, 0, 0], c + [obj.obj_bb / 2, 0, 0]]
    normals = [[-1.0, 0, 0], [1.0, 0, 0]]
    return _table(list(fingers), points[: len(fingers)], normals[: len(fingers)])


def test_antipodal_sphere_succeeds():
    obj = make_sphere(radius=0.032)
    env = _env_for(obj)
    assert _scores([_antipodal_sphere_table(obj)], [env])[0].tolist() == [True]


def test_single_contact_fails():
    obj = make_sphere(radius=0.032)
    env = _env_for(obj)
    assert _scores([_antipodal_sphere_table(obj, fingers=[0])], [env])[0].tolist() == [False]


def test_parallel_same_direction_normals_fail():
    obj = make_sphere(radius=0.032)
    env = _env_for(obj)
    c = obj.centroid
    table = _table([0, 1], [c + [-0.032, 0, 0], c + [0.032, 0, 0]], [[1.0, 0, 0], [1.0, 0, 0]])
    assert _scores([table], [env], mu=0.1)[0].tolist() == [False]


def test_mu_monotonicity():
    obj = make_sphere(radius=0.032)
    env = _env_for(obj)
    grid = [0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.2]
    results = [bool(_scores([_antipodal_sphere_table(obj)], [env], mu=m)[0][0]) for m in grid]
    # once successful, stays successful as mu grows
    first_true = results.index(True) if True in results else len(results)
    assert all(results[first_true:])


def test_table_collision_fails_grasp():
    obj = make_sphere(radius=0.032)
    env = _env_for(obj)
    assert _scores([_antipodal_sphere_table(obj)], [env], table_collision=[True])[0].tolist() == [False]


def test_mask_fingers_requirement():
    obj = make_sphere(radius=0.032)
    env = _env_for(obj, mask=(2, 3))  # contacts carry fingers 0 and 1
    assert _scores([_antipodal_sphere_table(obj)], [env])[0].tolist() == [False]


def test_degenerate_normals_are_reported():
    obj = make_sphere(radius=0.032)
    env = _env_for(obj)
    hit, pts, nrm = _antipodal_sphere_table(obj)
    nrm[0, 1] = [np.nan, 0, 0]
    success, degenerate = _scores([(hit, pts, nrm)], [env])
    assert success.tolist() == [False] and degenerate.tolist() == [True]


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
        mine = feasible_combination_batch(w[None], b[None])[0]
        ref = linprog(np.zeros(m_gen), A_eq=w, b_eq=b,
                      bounds=[(0, None)] * m_gen, method="highs").status == 0
        assert mine == ref
        agree += 1
    assert agree == 60


def _random_wrench_set(rng, n_contacts, feasible):
    """Pyramid generators of random contacts on a unit-scale object,
    and a load that is feasible by construction or drawn at random."""
    pts = rng.normal(scale=0.03, size=(1, n_contacts, 3))
    normals = rng.normal(size=(1, n_contacts, 3))
    normals /= np.linalg.norm(normals, axis=2, keepdims=True)
    hit = np.ones((1, n_contacts), dtype=bool)
    scale = np.array([make_sphere(radius=0.032).obj_bb / 2.0])
    (w,) = wrench_generators(hit, pts, normals, scale, mu=float(rng.uniform(0.1, 1.0)))
    if feasible:
        return w, w @ rng.uniform(0.05, 1.0, size=w.shape[1])
    return w, rng.normal(size=6)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    shapes=st.lists(st.tuples(st.integers(2, 7), st.booleans()), min_size=1, max_size=8),
    layout=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 8), st.booleans()),
)
def test_stacked_feasibility_matches_single_and_scipy(seed, shapes, layout):
    """One stacked simplex over ragged wrench sets, with zero columns
    anywhere (between real columns, or after them all), gives each
    problem its own unpadded answer, and scipy's, and the bytes of the
    np.where-pivot reference on the same stack."""
    rng = np.random.default_rng(seed)
    problems = [_random_wrench_set(rng, n, feasible) for n, feasible in shapes]
    layout_seed, extra, trailing = layout
    width = max(w.shape[1] for w, _ in problems) + extra
    place = np.random.default_rng(layout_seed)
    padded = np.zeros((len(problems), 6, width))
    for i, (w, _) in enumerate(problems):
        # the real columns keep their order; zero columns fill the rest
        cols = np.arange(w.shape[1]) if trailing else np.sort(place.choice(width, w.shape[1], replace=False))
        padded[i][:, cols] = w
    loads = np.array([b for _, b in problems])
    stacked = feasible_combination_batch(padded, loads)
    assert stacked.tobytes() == reference_feasible_combination(padded, loads).tobytes()
    alone = [feasible_combination_batch(w[None], b[None])[0] for w, b in problems]
    ref = [
        linprog(np.zeros(w.shape[1]), A_eq=w, b_eq=b, bounds=[(0, None)] * w.shape[1],
                method="highs").status == 0
        for w, b in problems
    ]
    assert list(stacked) == alone == ref
    for (n, feasible), ok in zip(shapes, alone):
        assert ok or not feasible


def _per_contact_generators(hit, points, normals, scale, mu):
    """Reference: one grasp's friction-pyramid wrenches built one contact
    and one edge at a time, four zero columns for a finger without a hit."""
    center = points[hit].mean(axis=0)
    cols = []
    for h, p, nrm in zip(hit, points, normals):
        if not h:
            cols.extend([np.zeros(6)] * 4)
            continue
        n_in = -nrm
        ref = np.array([0.0, 0.0, 1.0]) if abs(n_in[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
        t1 = np.cross(n_in, ref)
        t1 /= np.linalg.norm(t1)
        t2 = np.cross(n_in, t1)
        for t in (t1, -t1, t2, -t2):
            f = n_in + mu * t
            cols.append(np.concatenate([f, np.cross(p - center, f) / scale]))
    return np.array(cols).T


def test_vectorized_wrench_generators_match_per_contact_reference():
    """All grasps' generators at once equal the per-contact reference,
    grasp by grasp."""
    rng = np.random.default_rng(11)
    g_count, f_count = 200, 7
    hit = rng.random((g_count, f_count)) < 0.5
    hit[np.arange(g_count), rng.integers(f_count, size=g_count)] = True
    normals = rng.normal(size=(g_count, f_count, 3))
    # steep normals take the other tangent reference
    normals[rng.random((g_count, f_count)) < 0.3, :2] *= 0.01
    normals /= np.linalg.norm(normals, axis=2, keepdims=True)
    points = rng.normal(scale=0.03, size=(g_count, f_count, 3))
    points[~hit], normals[~hit] = 0.0, 0.0
    scale = rng.uniform(0.01, 0.1, g_count)
    mu = float(rng.uniform(0.1, 1.0))
    gens = wrench_generators(hit, points, normals, scale, mu)
    assert gens.shape == (g_count, 6, 4 * f_count)
    for g in range(g_count):
        assert np.array_equal(gens[g], _per_contact_generators(hit[g], points[g], normals[g], scale[g], mu))


def test_grasp_success_batch_matches_one_grasp_calls(objects):
    """Grasps scored together get the answers they get alone, whatever
    their object, pose, mask or contact count."""
    rng = np.random.default_rng(8)
    tables, envs = [], []
    for i in range(150):
        obj = list(objects.values())[i % len(objects)]
        pose = Pose(t=np.r_[rng.uniform(-0.2, 0.2, 2), 0.0],
                    r=axis_angle_to_quat(np.array([0.0, 0.0, rng.uniform(0, 2 * np.pi)])))
        env = _env_for(obj, mask=tuple(rng.choice(5, size=int(rng.integers(1, 4)), replace=False)), pose=pose)
        pick = rng.choice(len(obj.points), size=int(rng.integers(1, 6)), replace=False)
        pts = transform_point(env.object_pose, obj.points[pick])
        nrm = quat_rotate(env.object_pose.r, obj.normals[pick])
        tables.append(_table(rng.permutation(5)[: len(pick)], pts, nrm, f_count=5))
        envs.append(env)
    table = rng.random(len(envs)) < 0.1
    success, degenerate = _scores(tables, envs, table_collision=table)
    alone = [_scores([c], [e], table_collision=[t]) for c, e, t in zip(tables, envs, table)]
    assert success.tolist() == [bool(s[0]) for s, _ in alone]
    assert not degenerate.any() and not any(d[0] for _, d in alone)
    assert 10 <= success.sum() <= len(envs) - 10


def test_grasp_success_batch_reports_degenerate_grasp_alone():
    obj = make_sphere(radius=0.032)
    env = _env_for(obj)
    good = _antipodal_sphere_table(obj)
    hit, pts, nrm = (a.copy() for a in good)
    nrm[0, 1] = [np.nan, 0, 0]
    success, degenerate = _scores([good, (hit, pts, nrm), _antipodal_sphere_table(obj, fingers=[0])], [env] * 3)
    assert success.tolist() == [True, False, False]
    assert degenerate.tolist() == [False, True, False]


def test_wrench_generator_shape_and_torque_scale(objects):
    obj = objects["box"]
    hit, pts, nrm = _table([0, 1], [[-0.03, 0.0, 0.03], [0.03, 0.0, 0.03]], [[-1.0, 0, 0], [1.0, 0, 0]], f_count=2)
    gens = wrench_generators(hit, pts, nrm, np.array([obj.obj_bb / 2]), mu=0.5)
    assert gens.shape == (1, 6, 8)
    # force rows are pyramid edges of unit normals: norm <= 1 + mu
    assert np.all(np.linalg.norm(gens[0, :3], axis=0) <= 1.0 + 0.5 + 1e-9)


# ---------------------------------------------------------------------------
# rollout
# ---------------------------------------------------------------------------

def _rollout_with_tables(phase, *args):
    """rollout_batch's records, and the contact table that phase (the
    real detect_contacts or a reference) gave it."""
    tables = []

    def capture(*a):
        tables.append(phase(*a))
        return tables[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "detect_contacts", capture)
        records = rollout_batch(*args)
    return records, tables[0]


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
    (rec,) = rollout_batch([env], demo, [EditAction.identity(spec.joint_count).to_vector()], spec, styles)
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
    (rec,) = rollout_batch([env], demo, [action.to_vector()], spec, styles)
    assert not rec.success


def test_rollout_purity(box_assets, demo, spec, styles):
    env1 = _fixture_env(box_assets)
    env2 = _fixture_env(box_assets)
    a = EditAction(dt=np.array([0.01, -0.01, 0.0]), dr=EditAction.identity(6).dr,
                   dq=np.full(6, 0.02), k=1.1)
    (r1,) = rollout_batch([env1], demo, [a.to_vector()], spec, styles)
    (r2,) = rollout_batch([env2], demo, [a.to_vector()], spec, styles)
    assert r1.success == r2.success
    assert np.array_equal(r1.d_series, r2.d_series)
    assert np.array_equal(r1.q_final, r2.q_final)


def test_rollout_record_invariants(box_assets, demo, spec, styles):
    rng = np.random.default_rng(6)
    lo, hi = EditBounds().intervals(spec.joint_count)
    envs, actions = [], []
    for i in range(15):
        envs.append(_fixture_env(box_assets, style_index=int(rng.integers(4))))
        actions.append(rng.uniform(lo, hi))
    for rec in rollout_batch(envs, demo, actions, spec, styles):
        assert rec.d_series.shape == (demo.horizon + 1,)
        assert rec.d_min <= rec.d_final + 1e-15
        assert np.all(rec.d_series >= 0.0)
        assert rec.d_min == rec.d_series.min() and rec.d_final == rec.d_series[-1]
        assert rec.success == (rec.failure_reason is None) and rec.crushed == (rec.failure_reason == "crush")
        # the outcome is the failure reason's leading word, "ok" on success
        assert rec.outcome in OUTCOMES
        assert rec.outcome == (rec.failure_reason or "ok").split(":")[0].removesuffix("_contacts")
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.failure_reason = "no_closure"


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
    (ra, rb), (_, hit, points, normals) = _rollout_with_tables(
        sim.detect_contacts, [env_a, env_b], demo, [action.to_vector()] * 2, spec, styles)
    assert ra.success == rb.success
    assert np.allclose(ra.d_series, rb.d_series, atol=1e-9)
    assert np.array_equal(hit[0], hit[1]) and hit[0].any()
    # contact matching snaps to the sampled cloud: transformed near-ties can
    # resolve to a neighboring grid point, so points match up to the grid
    # pitch while normals (same face) and fingers match exactly
    g_inv = invert_pose(g)
    assert np.allclose(points[0][hit[0]], transform_point(g_inv, points[1][hit[1]]), atol=6e-3)
    assert np.allclose(normals[0][hit[0]], quat_rotate(g_inv.r, normals[1][hit[1]]), atol=1e-9)


def test_crush_rule_triggers(box_assets, spec, styles, demo):
    env = _fixture_env(box_assets)
    # shift the finger approach line over the box center: the descending
    # fingertips sink through the top face before the grasp frame
    from fungrasp.geometry import AxisAngle

    action = EditAction(dt=np.array([-0.06, 0.0, 0.0]), dr=AxisAngle(np.zeros(3)),
                        dq=np.zeros(6), k=1.0)
    (rec,) = rollout_batch([env], demo, [action.to_vector()], spec, styles)
    assert not rec.success
    assert rec.crushed
    assert rec.failure_reason == "crush"


@pytest.mark.parametrize("hand", ["inspire_like", "shadow_like"])
def test_rollout_batch_matches_one_item_rollouts(hand):
    """A batch rollout gives every episode the bits it gets alone."""
    assets = hand_assets(hand)
    spec = assets.spec
    envs, actions = seeded_rollout_inputs(assets, 60, seed=3)
    batch, tables = _rollout_with_tables(sim.detect_contacts, envs, assets.demo, actions, spec,
                                         assets.styles)
    reasons = set()
    for i, (env, action, got) in enumerate(zip(envs, actions, batch)):
        (want,), want_tables = _rollout_with_tables(sim.detect_contacts, [env], assets.demo,
                                                    [action], spec, assets.styles)
        _assert_same_record(got, want)
        for column, want_column in zip(tables, want_tables):
            assert np.array_equal(column[i], want_column[0])
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
    poses = [pose, compose_pose(move, pose)]
    centers = np.stack([transform_point(p, local) for p in poses])[:, None]
    _, hit, points, _ = detect_contacts([_env_for(obj, pose=p) for p in poses], centers, radii, fingers, 0,
                                        SimParams())
    assert np.array_equal(hit[0], hit[1])
    assert hit.any(), "the shell puts some sphere in contact"
    back_a = transform_point(invert_pose(pose), points[0][hit[0]])
    back_b = transform_point(invert_pose(compose_pose(move, pose)), points[1][hit[1]])
    idx_a, gap_a = sim._nearest(back_a, obj.points)
    idx_b, gap_b = sim._nearest(back_b, obj.points)
    assert np.array_equal(idx_a, idx_b) and gap_a.max() < 1e-12 and gap_b.max() < 1e-12


def _assert_same_record(got, want):
    """Every RolloutRecord field bit for bit."""
    for f in dataclasses.fields(want):
        g, w = getattr(got, f.name), getattr(want, f.name)
        if isinstance(w, np.ndarray):
            assert np.array_equal(g, w), f.name
        else:
            assert g == w, f.name


@pytest.mark.parametrize("hand", ["inspire_like", "shadow_like"])
def test_contact_phase_matches_per_episode_world_frame_reference(hand):
    """The object-frame contact phase gives the contact tables and the
    records of the per-episode world-frame one on 640 seeded rollouts."""
    assets = hand_assets(hand)
    envs, actions = seeded_rollout_inputs(assets, 640, seed=12)
    args = (envs, assets.demo, actions, assets.spec, assets.styles)
    got, got_tables = _rollout_with_tables(sim.detect_contacts, *args)
    want, want_tables = _rollout_with_tables(reference_contact_phase, *args)
    for g, w in zip(got, want):
        _assert_same_record(g, w)
    for g, w in zip(got_tables, want_tables):
        assert np.array_equal(g, w)
    reasons = {w.failure_reason or "ok" for w in want}
    assert {"ok", "no_closure", "crush", "table_collision"} <= reasons
    assert want_tables[1].sum() > 640


@pytest.mark.parametrize("hand", ["inspire_like", "shadow_like"])
def test_crushed_episodes_skip_their_early_approach_frames(hand):
    """Episodes that crush at the last approach frame send no earlier
    frame to _nearest, so a chunk with crushed episodes sends fewer rows
    than it does when nothing can crush; the contact tables and records
    stay those of the per-episode reference."""
    assets = hand_assets(hand)
    envs, actions = seeded_rollout_inputs(assets, 96, seed=31)
    rows = []
    real = sim._nearest

    def counted(centers, pts):
        rows.append(len(centers))
        return real(centers, pts)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_nearest", counted)
        got, got_tables = _rollout_with_tables(sim.detect_contacts, envs, assets.demo, actions, assets.spec,
                                               assets.styles)
        sent = sum(rows)
        rows.clear()
        rollout_batch(envs, assets.demo, actions, assets.spec, assets.styles, SimParams(crush_factor=np.inf))
        every_frame = sum(rows)
    want, want_tables = _rollout_with_tables(reference_contact_phase, envs, assets.demo, actions, assets.spec,
                                             assets.styles)
    for g, w in zip(got, want):
        _assert_same_record(g, w)
    for g, w in zip(got_tables, want_tables):
        assert np.array_equal(g, w)
    assert want_tables[0].sum() >= 5
    assert sent < every_frame


def test_detect_contacts_is_the_one_frame_case_of_the_phase(objects):
    obj = objects["mug"]
    pose = Pose(t=np.array([0.1, -0.05, 0.0]), r=axis_angle_to_quat(np.array([0.0, 0.0, 0.7])))
    env = _env_for(obj, pose=pose)
    rng = np.random.default_rng(2)
    pick = rng.choice(len(obj.points), size=8, replace=False)
    local = obj.points[pick] + obj.normals[pick] * rng.uniform(-0.004, 0.01, (8, 1))
    spheres = _spheres(transform_point(pose, local), fingers=np.repeat(np.arange(4), 2))
    want = reference_contact_phase([env], *spheres, 0, SimParams())
    got = detect_contacts([env], *spheres, 0, SimParams())
    assert want[1].any()
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("field, value", [
    ("delta_c", -0.001), ("table_tol", -1e-3), ("eta", -0.1), ("mu", 0.0), ("mu", -0.5), ("crush_factor", 0.0),
])
def test_sim_params_reject_out_of_range(field, value):
    with pytest.raises(ValueError, match=field):
        SimParams(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("b_t", -0.01), ("b_r", -0.1), ("b_q", -1e-9), ("k_min", 1.5), ("k_max", 0.5),
])
def test_edit_bounds_reject_out_of_range(field, value):
    with pytest.raises(ValueError, match=field):
        EditBounds(**{field: value})


@pytest.mark.parametrize("value", [0.0, -0.1])
def test_reward_config_rejects_non_positive_fixed_clip_radius(value):
    with pytest.raises(ValueError, match="fixed_clip_radius"):
        RewardConfig(fixed_clip_radius=value)
