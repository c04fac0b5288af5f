import dataclasses
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.spatial import cKDTree

from conftest import _load_script, bits, concat_envs, env_of
from contact_reference import (
    crush_floor_oracle,
    dense_nearest,
    hand_assets,
    recomputing_nearest,
    reference_contact_phase,
    seeded_rollout_inputs,
    two_pass_crushed,
)
from episode_reference import reference_affordance_series, reference_reset
from kernel_reference import reference_feasible_combination
from pose_reference import compose_pose, invert_pose, pose, transform_point
from fungrasp import sim
from fungrasp.demo import Demonstration, EditBounds
from fungrasp.geometry import axis_angle_to_quat, quat_rotate
from fungrasp.assets import default_hand_path
from fungrasp.hand import Style, load_hand_spec
from fungrasp.objects import ObjectModel
from fungrasp.rewards import RewardConfig
from fungrasp.sim import (
    RolloutRecord,
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


def _env_for(obj, mask=(0, 1), pose=None, f_count=4):
    """An EnvBatch of one on obj whose contact mask names the given
    fingers of f_count."""
    return env_of(obj, obj.points[0], np.zeros(6), np.isin(np.arange(f_count), mask), pose=pose)


def _action(dt=(0.0, 0.0, 0.0), dr=(0.0, 0.0, 0.0), dq=0.0, k=1.0, joint_count=6):
    """The (7 + J,) action vector [dt, dr, dq, k]; the default is the
    identity edit."""
    return np.r_[dt, dr, np.broadcast_to(dq, joint_count), k]


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

def _reset(assets, objects, rngs, sigma_style, square_half=0.25, **kwargs):
    return reset_env(objects, assets.afford_dists, assets.styles, rngs, spec=assets.spec, sigma_style=sigma_style,
                     square_half=square_half, **kwargs)


def _columns(env):
    return [(f.name, getattr(env, f.name)) for f in dataclasses.fields(env)]


def test_reset_deterministic(assets):
    a = _reset(assets, assets.objects, [np.random.default_rng(9)], 0.05)
    b = _reset(assets, assets.objects, [np.random.default_rng(9)], 0.05)
    assert a.objs == b.objs
    for (name, x), (_, y) in zip(_columns(a)[1:], _columns(b)[1:]):
        assert np.array_equal(x, y), name


@pytest.mark.parametrize("train_mode, force_style", [(True, None), (False, None), (True, 2), (False, 1)])
def test_reset_rows_match_the_per_episode_reset(assets, train_mode, force_style):
    """Every column of a batched reset, by bytes, against each episode's
    own reset on its own rng, with its pose built on its own."""
    seeds = range(40)
    # the reference draws the disturbance in training, at its default sigma_style of 0.05
    env = _reset(assets, assets.objects, [np.random.default_rng(s) for s in seeds], 0.05 if train_mode else 0.0,
                 force_style=force_style)
    for i, seed in enumerate(seeds):
        want, (t, r) = reference_reset(assets.objects, assets.afford_dists, assets.styles, np.random.default_rng(seed),
                                       train_mode, spec=assets.spec, force_style=force_style)
        assert env.objs[i] is want.objs[0]
        assert env.pose_t[i].tobytes() == t.tobytes() and env.pose_r[i].tobytes() == r.tobytes()
        for name, column in _columns(env)[1:]:
            assert column[i].tobytes() == getattr(want, name)[0].tobytes(), (i, name)
    assert len({o.name for o in env.objs}) > 1 and len(set(env.style.tolist())) == (1 if force_style else 4)


def test_reset_without_disturbance_keeps_the_canonical_joints(assets):
    """sigma_style = 0 (evaluation) draws no disturbance: each episode's
    q_style is its style's canonical joints."""
    env = _reset(assets, assets.objects, [np.random.default_rng(s) for s in range(20)], 0.0)
    for style, q in zip(env.style, env.q_style):
        assert np.array_equal(q, assets.styles[style].q_canonical)


@pytest.mark.parametrize("sigma_style", [0.0, 0.05, 0.4])
@pytest.mark.parametrize("force_style", [None, 2], ids=["sampled_style", "forced_style"])
def test_reset_leaves_each_rng_where_the_per_episode_reset_does(assets, sigma_style, force_style):
    """After reset_env, each episode's next draw is the next draw of its
    rng after reference_reset, whose uniform, random and disturbance
    calls random(4) and normal replaced; the joints, disturbed or forced,
    are the reference's too. sigma_style 0.4 makes the clamp bite."""
    seeds = range(40)
    rngs = [np.random.default_rng(s) for s in seeds]
    env = _reset(assets, assets.objects, rngs, sigma_style, force_style=force_style)
    for i, (seed, rng) in enumerate(zip(seeds, rngs)):
        ref = np.random.default_rng(seed)
        want, _ = reference_reset(assets.objects, assets.afford_dists, assets.styles, ref, sigma_style > 0,
                                  spec=assets.spec, sigma_style=sigma_style, force_style=force_style)
        assert rng.standard_normal(3).tobytes() == ref.standard_normal(3).tobytes(), (seed, sigma_style)
        assert env.q_style[i].tobytes() == want.q_style[0].tobytes()
    if sigma_style == 0.4 and force_style is None:
        limits = assets.spec.limits_lo, assets.spec.limits_hi
        assert any(np.any(env.q_style == limit) for limit in limits)


def test_reset_disturbs_the_canonical_joints(assets):
    """sigma_style > 0 (training) moves every episode's joints off its
    style's canonical joints, within the hand's limits."""
    env = _reset(assets, assets.objects, [np.random.default_rng(s) for s in range(20)], 0.05)
    for style, q in zip(env.style, env.q_style):
        assert not np.array_equal(q, assets.styles[style].q_canonical)
        assert np.all((assets.spec.limits_lo <= q) & (q <= assets.spec.limits_hi))


def test_reset_disturbance_empirical_std(assets, tmp_path):
    """The disturbance is normal(0, sigma_style) per joint: on a hand with
    wide limits, where the clamp never bites, 100,000 draws have its std."""
    segment = {"length": 0.02, "axis": [0, 1, 0], "limits": [-50.0, 50.0]}
    payload = {"name": "wide", "fingers": [{"base": {"t": [0, 0, 0], "r": [1, 0, 0, 0]}, "tip_radius": 0.01,
                                            "segments": [segment] * 5}]}
    p = tmp_path / "wide.json"
    p.write_text(json.dumps(payload))
    wide = load_hand_spec(p)
    styles = [Style("open", np.zeros(wide.joint_count), (0,))]
    rng = np.random.default_rng(11)
    env = reset_env(assets.objects, assets.afford_dists, styles, [rng] * 20_000, spec=wide, sigma_style=0.05,
                    square_half=0.25)
    assert env.q_style.size == 100_000 and abs(env.q_style.std() - 0.05) / 0.05 < 0.02


def test_reset_zero_square_pins_pose(assets):
    env = _reset(assets, assets.objects[:1], [np.random.default_rng(1)], 0.0, square_half=0.0)
    assert np.allclose(env.pose_t, 0.0)
    assert np.allclose(env.pose_r, [1, 0, 0, 0])


def test_reset_object_rests_on_table(assets):
    obj = assets.objects[0]
    env = _reset(assets, [obj], [np.random.default_rng(seed) for seed in range(10)], 0.05)
    for t, r in zip(env.pose_t, env.pose_r):
        pts = quat_rotate(r, obj.points) + t
        assert pts[:, 2].min() >= -1e-6


def test_reset_xy_uniform_ks(assets):
    n = 10_000
    rng = np.random.default_rng(123)
    # one rng shared by all episodes: each episode draws from it in turn
    env = _reset(assets, assets.objects[:1], [rng] * n, 0.0, square_half=0.25)
    for vals in env.pose_t[:, :2].T:
        u = np.sort((vals + 0.25) / 0.5)
        grid = np.arange(1, n + 1) / n
        ks = max(np.max(np.abs(u - grid)), np.max(np.abs(u - (grid - 1.0 / n))))
        assert ks < 0.02


# ---------------------------------------------------------------------------
# contacts, style point, table
# ---------------------------------------------------------------------------

def test_contacts_far_away_empty(objects):
    env = _env_for(objects["box"])
    crushed, hit, points, normals = detect_contacts(env, *_spheres([[1.0, 1.0, 1.0], [1.1, 1.0, 1.0]]), 0,
                                                    SimParams())
    assert hit.tolist() == [[False, False]] and crushed.tolist() == [False]
    assert not points.any() and not normals.any()


def test_contact_center_on_cloud_point(objects):
    obj = objects["box"]
    env = _env_for(obj)
    target = obj.points[100]
    _, hit, points, normals = detect_contacts(env, *_spheres([target]), 0, SimParams())
    assert hit.tolist() == [[True]]
    assert np.allclose(points[0, 0], target)
    assert np.allclose(normals[0, 0], obj.normals[100])


def test_contacts_straddling_cylinder_oppose():
    obj = _load_script().make_cylinder(radius=0.03, height=0.08)
    env = _env_for(obj)
    spheres = _spheres([[0.038, 0.0, 0.04], [-0.038, 0.0, 0.04]], fingers=[0, 1])
    _, hit, _, normals = detect_contacts(env, *spheres, 0, SimParams())
    assert hit.tolist() == [[True, True]]
    assert float(normals[0, 0] @ normals[0, 1]) < -0.9


def test_deepest_contact_per_finger(objects):
    obj = objects["box"]
    env = _env_for(obj)
    shallow = obj.points[10] + obj.normals[10] * 0.008
    deep = obj.points[50] + obj.normals[50] * 0.001
    _, hit, points, _ = detect_contacts(env, *_spheres([shallow, deep], fingers=[0, 0]), 0, SimParams())
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
    radii, tol = np.array([0.01]), SimParams().table_tol
    assert not check_table_collision(np.array([[0, 0, 0.5]]), radii, tol)
    assert check_table_collision(np.array([[0, 0, 0.0]]), radii, tol)
    # grazing: z = radius - tol/2 is still a collision (conservative margin)
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
    env (an EnvBatch of one): (success (G,), degenerate (G,))."""
    hit, pts, nrm = (np.concatenate(column) for column in zip(*tables))
    table = np.zeros(len(envs), dtype=bool) if table_collision is None else np.array(table_collision)
    return grasp_success_batch(hit, pts, nrm, concat_envs(envs), mu, eta, table_collision=table)


def _antipodal_sphere_table(obj, fingers=(0, 1)):
    c = obj.centroid
    points = [c + [-obj.obj_bb / 2, 0, 0], c + [obj.obj_bb / 2, 0, 0]]
    normals = [[-1.0, 0, 0], [1.0, 0, 0]]
    return _table(list(fingers), points[: len(fingers)], normals[: len(fingers)])


def test_antipodal_sphere_succeeds(objects):
    obj = objects["sphere"]
    env = _env_for(obj)
    assert _scores([_antipodal_sphere_table(obj)], [env])[0].tolist() == [True]


def test_single_contact_fails(objects):
    obj = objects["sphere"]
    env = _env_for(obj)
    assert _scores([_antipodal_sphere_table(obj, fingers=[0])], [env])[0].tolist() == [False]


def test_parallel_same_direction_normals_fail(objects):
    obj = objects["sphere"]
    env = _env_for(obj)
    c = obj.centroid
    table = _table([0, 1], [c + [-0.032, 0, 0], c + [0.032, 0, 0]], [[1.0, 0, 0], [1.0, 0, 0]])
    assert _scores([table], [env], mu=0.1)[0].tolist() == [False]


def test_mu_monotonicity(objects):
    obj = objects["sphere"]
    env = _env_for(obj)
    grid = [0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.2]
    results = [bool(_scores([_antipodal_sphere_table(obj)], [env], mu=m)[0][0]) for m in grid]
    # once successful, stays successful as mu grows
    first_true = results.index(True) if True in results else len(results)
    assert all(results[first_true:])


def test_table_collision_fails_grasp(objects):
    obj = objects["sphere"]
    env = _env_for(obj)
    assert _scores([_antipodal_sphere_table(obj)], [env], table_collision=[True])[0].tolist() == [False]


def test_mask_fingers_requirement(objects):
    obj = objects["sphere"]
    env = _env_for(obj, mask=(2, 3))  # contacts carry fingers 0 and 1
    assert _scores([_antipodal_sphere_table(obj)], [env])[0].tolist() == [False]


def test_degenerate_normals_are_reported(objects):
    obj = objects["sphere"]
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
        mine = feasible_combination_batch(w[None], b[None])[0][0]
        ref = linprog(np.zeros(m_gen), A_eq=w, b_eq=b,
                      bounds=[(0, None)] * m_gen, method="highs").status == 0
        assert mine == ref
        agree += 1
    assert agree == 60


def _random_wrench_set(rng, n_contacts, feasible, sphere):
    """Pyramid generators of random contacts, torques scaled by the
    sphere's half extent, and a load that is feasible by construction or
    drawn at random."""
    pts = rng.normal(scale=0.03, size=(1, n_contacts, 3))
    normals = rng.normal(size=(1, n_contacts, 3))
    normals /= np.linalg.norm(normals, axis=2, keepdims=True)
    hit = np.ones((1, n_contacts), dtype=bool)
    scale = np.array([sphere.obj_bb / 2.0])
    (w,) = wrench_generators(hit, pts, normals, scale, mu=float(rng.uniform(0.1, 1.0)))
    if feasible:
        return w, w @ rng.uniform(0.05, 1.0, size=w.shape[1])
    return w, rng.normal(size=6)


# problems built at a stack's own width and height beside the wrench sets:
# zero (zero generators and load: feasible after 0 pivots), negative (no
# column can enter: infeasible after 0 pivots), one (e_0 and 2 e_0:
# feasible after 1 pivot), and unbounded0 and unbounded1 (an entering
# column of 1e-11 in every row, after 0 and after 1 pivot). No entry of
# that column passes the ratio test's 1e-11, yet over the 128 rows of a
# stack that holds one its reduced cost passes -_LP_TOL; the objective is
# 0 when it enters, so only the unbounded verdict makes it infeasible
EXTRA_KINDS = ("zero", "negative", "one", "unbounded0", "unbounded1")


def _extra_problem(rng, kind, m, width):
    a, b = np.zeros((m, width)), np.zeros(m)
    if kind == "negative":
        a[:6] = -np.abs(rng.normal(size=(6, width)))
        b[:6] = np.abs(rng.normal(size=6))
    elif kind in ("one", "unbounded1"):
        a[0, 0], b[0] = 1.0, 2.0
    if kind.startswith("unbounded"):
        a[:, int(kind == "unbounded1")] = 1e-11
    return a, b


def _phase1_stack(rng, layout, sphere, shapes, extras):
    """A stack of wrench sets (_random_wrench_set) in its top rows, their
    real columns in order, at random positions or first, and the extra
    problems, all in a random order; 128 rows when an extra is unbounded,
    else 6. Returns (generators, loads, one entry per problem: an extra's
    kind, or a wrench set, its load, its column positions and whether the
    load is feasible by construction)."""
    layout_seed, extra_cols, trailing = layout
    sets = [_random_wrench_set(rng, n, feasible, sphere) for n, feasible in shapes]
    width = max(w.shape[1] for w, _ in sets) + extra_cols
    m = 128 if any(k.startswith("unbounded") for k in extras) else 6
    place = np.random.default_rng(layout_seed)
    problems, own = [], []
    for (w, b), (_, feasible) in zip(sets, shapes):
        # the real columns keep their order; zero columns fill the rest
        cols = np.arange(w.shape[1]) if trailing else np.sort(place.choice(width, w.shape[1], replace=False))
        a, load = np.zeros((m, width)), np.zeros(m)
        a[:6, cols], load[:6] = w, b
        problems.append((a, load))
        own.append((w, b, cols, feasible))
    problems += [_extra_problem(rng, kind, m, width) for kind in extras]
    own += extras
    order = place.permutation(len(problems))
    return (np.array([problems[i][0] for i in order]), np.array([problems[i][1] for i in order]),
            [own[i] for i in order])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    shapes=st.lists(st.tuples(st.integers(2, 7), st.booleans()), min_size=1, max_size=8),
    extras=st.lists(st.sampled_from(EXTRA_KINDS), max_size=4),
    layout=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 8), st.booleans()),
)
@example(seed=3, shapes=[(4, True), (3, False)], extras=list(EXTRA_KINDS), layout=(5, 2, False))
@example(seed=4, shapes=[(5, True)], extras=["zero", "negative", "one"], layout=(6, 0, True))
def test_stacked_feasibility_matches_single_and_scipy(objects, seed, shapes, extras, layout):
    """One stacked simplex over ragged wrench sets, with zero columns
    anywhere (between real columns, or after them all), and problems that
    finish after 0, 1 or many pivots, feasible, infeasible or unbounded,
    gives each problem the three returns, by bytes, that it gets solved
    alone, and the verdicts of the np.where-pivot reference on the same
    stack, with no invalid float operation. A wrench set gets its own
    unpadded answer, and scipy's: if feasible, its final basis and
    constraint rows are those it gets alone, at the padded column
    positions, with exact zeros in the zero columns and an exact unit
    column at each basic column; if infeasible, -1 and NaN."""
    padded, loads, own = _phase1_stack(np.random.default_rng(seed), layout, objects["sphere"], shapes, extras)
    m, width = padded.shape[1:]
    with np.errstate(invalid="raise"):
        stacked = feasible_combination_batch(padded, loads)
    assert stacked[0].tobytes() == reference_feasible_combination(padded, loads).tobytes()
    for i in range(len(padded)):
        alone = feasible_combination_batch(padded[i : i + 1], loads[i : i + 1])
        assert [x[i].tobytes() for x in stacked] == [x[0].tobytes() for x in alone]
    ok, basis, rows = stacked
    for i, problem in enumerate(own):
        if isinstance(problem, str):
            assert ok[i] == (problem in ("zero", "one"))
            continue
        w, b, cols, feasible = problem
        assert ok[i] or not feasible
        a, load = np.zeros((m, w.shape[1])), np.zeros(m)
        a[:6], load[:6] = w, b
        ok_1, basis_1, rows_1 = feasible_combination_batch(a[None], load[None])
        assert ok[i] == ok_1[0] == _feasible_by_scipy(w, b)
        if not ok[i]:
            assert (basis[i] == -1).all() and np.isnan(rows[i]).all()
            continue
        cols = np.r_[cols, width + np.arange(m)]  # the padded position of each of its columns
        assert basis[i].tolist() == cols[basis_1[0]].tolist()
        assert rows[i][:, cols].tobytes() == rows_1[0].tobytes()
        assert not np.delete(rows[i], cols, axis=1).any()
        assert np.array_equal(rows[i][:, basis[i]], np.eye(m)) and np.array_equal(rows_1[0][:, basis_1[0]], np.eye(m))


def _final_stack(generators, loads):
    """The (tableaus, bases) stack feasible_combination_batch pivots, as
    its last pivot leaves it: the stack keeps its shape, so every pivot
    gets the same arrays."""
    seen = []

    def spy(tab, basis, leave, enter):
        seen[:] = tab, basis
        pivot(tab, basis, leave, enter)

    pivot = sim._pivot
    with mock.patch.object(sim, "_pivot", spy):
        feasible_combination_batch(generators, loads)
    assert seen, "no tableau of the stack pivoted"
    return seen


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    shapes=st.lists(st.tuples(st.integers(2, 7), st.booleans()), min_size=1, max_size=6),
    extras=st.lists(st.sampled_from(EXTRA_KINDS), max_size=3),
    layout=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 8), st.booleans()),
)
@example(seed=3, shapes=[(4, True), (3, False)], extras=list(EXTRA_KINDS), layout=(5, 2, False))
def test_a_pivot_on_its_own_basic_column_leaves_a_final_tableau_as_it_is(objects, seed, shapes, extras, layout):
    """The freeze of a finished tableau: in the final phase-1 stack of
    feasible, infeasible, unbounded and zero-padded problems, a pivot of
    every tableau at any row r on its basic column basis[:, r] leaves the
    tableaus and the bases byte-identical."""
    padded, loads, _ = _phase1_stack(np.random.default_rng(seed), layout, objects["sphere"], shapes, extras)
    tab, basis = _final_stack(padded, loads)
    for r in range(basis.shape[1]):
        frozen, kept = tab.copy(), basis.copy()
        sim._pivot(frozen, kept, np.full(len(tab), r), basis[:, r])
        assert frozen.tobytes() == tab.tobytes() and kept.tobytes() == basis.tobytes()


def _closure_loads(rng, w, gravity_kind, kinds, eta):
    """Seven loads of one wrench set, gravity first: a load inside the
    cone, a random one, or one on a face of it (a combination of part of
    the generators) pushed off by as little as 1e-12 either way; each
    perturbed load is gravity moved by eta along one axis or by a tiny
    step, or a fresh face load."""
    def face():
        alpha = rng.uniform(0.05, 1.0, w.shape[1]) * (rng.random(w.shape[1]) < 0.5)
        return w @ alpha + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12, -6) * rng.normal(size=6)

    gravity = {"inside": lambda: w @ rng.uniform(0.05, 1.0, w.shape[1]), "random": lambda: rng.normal(size=6),
               "face": face}[gravity_kind]()
    loads = [gravity]
    for j, kind in enumerate(kinds):
        if kind == "axis":
            loads.append(gravity + np.eye(6)[j // 2] * eta * (1.0 if j % 2 == 0 else -1.0))
        elif kind == "tiny":
            loads.append(gravity + 10.0 ** rng.uniform(-12, -3) * rng.normal(size=6))
        else:
            loads.append(face())
    return np.array(loads)


def _feasible_by_scipy(w, b) -> bool:
    return linprog(np.zeros(w.shape[1]), A_eq=w, b_eq=b, bounds=[(0, None)] * w.shape[1],
                   method="highs").status == 0


def test_certified_closure_matches_the_seven_load_stack(objects, monkeypatch):
    """Over ragged wrench sets, rank-deficient ones among them (two
    contacts: the gravity basis keeps an artificial column), and loads on
    the cone's faces pushed off by 1e-12 to 1e-6, _closure_batch gives
    every grasp the verdict of the full seven-load stack, and every
    perturbed load the dual pivots settle gets their answer from the
    stack and from scipy. Over the examples, the pivots settle loads from
    a basis that keeps an artificial, prove some loads infeasible, and
    leave some to the stacked simplex, so every path runs."""
    solve = feasible_combination_batch
    sizes, seen = [], {"artificial": 0, "infeasible": 0, "fallback": 0}

    def counting(generators, loads):
        sizes.append(len(loads))
        return solve(generators, loads)

    monkeypatch.setattr(sim, "feasible_combination_batch", counting)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        grasps=st.lists(st.tuples(st.integers(2, 7), st.sampled_from(["inside", "random", "face"]),
                                  st.lists(st.sampled_from(["axis", "tiny", "face"]), min_size=6, max_size=6)),
                        min_size=1, max_size=8),
        eta=st.floats(0.0, 0.5),
        extra=st.integers(0, 8),
    )
    def check(seed, grasps, eta, extra):
        rng = np.random.default_rng(seed)
        sets = [_random_wrench_set(rng, n, True, objects["sphere"])[0] for n, _, _ in grasps]
        width = max(w.shape[1] for w in sets) + extra
        generators = np.zeros((len(sets), 6, width))
        for g, w in zip(generators, sets):
            g[:, np.sort(rng.choice(width, w.shape[1], replace=False))] = w
        loads = np.stack([_closure_loads(rng, w, kind, kinds, eta) for w, (_, kind, kinds) in zip(sets, grasps)])
        sizes.clear()
        closed, settled = sim._closure_batch(generators, loads)
        stack = solve(np.repeat(generators, 7, axis=0), loads.reshape(-1, 6))[0].reshape(-1, 7)
        assert closed.tolist() == stack.all(axis=1).tolist()
        assert (settled == 0)[~stack[:, 0]].all()
        assert stack[:, 1:][settled == 1].all() and not stack[:, 1:][settled == -1].any()
        for g, j in zip(*np.nonzero(settled)):
            assert _feasible_by_scipy(sets[g], loads[g, j + 1]) == (settled[g, j] == 1)
        basis = solve(generators, loads[:, 0])[1]
        seen["artificial"] += int(((basis >= width).any(axis=1)[:, None] & (settled != 0)).sum())
        seen["infeasible"] += int((settled == -1).sum())
        seen["fallback"] += sum(sizes[1:])

    check()
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize("basic, entry, x, binv, verdict", [
    (0, 0.3, -0.5, 1.0, -1),      # no column lifts the row, and phase 1 must end at 0.5 or more
    (0, -2e-10, -0.5, 1.0, 0),    # an entry too small to pivot on, but not rounding: undecided
    (0, -0.3, -0.5, 1.0, 1),      # one pivot: the column enters at 0.5 / 0.3
    (0, 0.3, -1e-4, 1e3, 0),      # off its bound, but phase 1 could end at 1e-7
    (0, 0.3, -1e-13, 1.0, 1),     # within _SLACK of its bound
    (2, -0.3, 0.5, 1.0, -1),      # a basic artificial that no column can drive to zero
    (2, 0.3, 0.5, 1.0, 1),        # ... and one that a column can
    (2, -0.3, -1e-13, 1.0, 1),    # a basic artificial within _SLACK of zero
], ids=["lift_none", "lift_tiny", "lift_pivot", "within_margin", "within_slack",
        "artificial_stuck", "artificial_pivot", "artificial_zero"])
def test_dual_pivots_decide_by_their_certificates(basic, entry, x, binv, verdict):
    """One row [real 0, real 1 | artificial | x]: the basic column is a
    unit column, the other real column holds entry, and a basic real
    column's row has binv in the artificial (basis-inverse) column."""
    tab = np.zeros((1, 1, 4))
    other = 1 if basic == 0 else 0
    tab[0, 0, [2, basic, other, 3]] = [binv, 1.0, entry, x]
    assert sim._dual_pivots(tab, np.array([[basic]]), 2).tolist() == [verdict]


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
        g = pose(np.r_[rng.uniform(-0.2, 0.2, 2), 0.0],
                 axis_angle_to_quat(np.array([0.0, 0.0, rng.uniform(0, 2 * np.pi)])))
        env = _env_for(obj, mask=rng.choice(5, size=int(rng.integers(1, 4)), replace=False), pose=g, f_count=5)
        pick = rng.choice(len(obj.points), size=int(rng.integers(1, 6)), replace=False)
        pts = transform_point(g, obj.points[pick])
        nrm = quat_rotate(g[1], obj.normals[pick])
        tables.append(_table(rng.permutation(5)[: len(pick)], pts, nrm, f_count=5))
        envs.append(env)
    table = rng.random(len(envs)) < 0.1
    success, degenerate = _scores(tables, envs, table_collision=table)
    alone = [_scores([c], [e], table_collision=[t]) for c, e, t in zip(tables, envs, table)]
    assert success.tolist() == [bool(s[0]) for s, _ in alone]
    assert not degenerate.any() and not any(d[0] for _, d in alone)
    assert 10 <= success.sum() <= len(envs) - 10


def test_grasp_success_batch_reports_degenerate_grasp_alone(objects):
    obj = objects["sphere"]
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

def _records(rollout):
    """rollout_batch's columns as one RolloutRecord per episode."""
    return [RolloutRecord(*row) for row in zip(*rollout)]


def _rollout_with_tables(phase, *args):
    """rollout_batch's columns, and the contact table that phase (the
    real detect_contacts or a reference) gave it."""
    tables = []

    def capture(*a):
        tables.append(phase(*a))
        return tables[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "detect_contacts", capture)
        rollout = rollout_batch(*args)
    return rollout, tables[0]


def _fixture_env(assets, style_index=0, pose=None, point=42):
    obj = assets.objects[0]  # box (single-object bundle sorts to box)
    style = assets.styles[style_index]
    mask = np.isin(np.arange(assets.spec.finger_count), style.contact_mask)
    return env_of(obj, obj.points[point], style.q_canonical, mask, style_index, pose)


def test_identity_rollout_succeeds_on_fixture(box_assets, demo, spec, styles):
    env = _fixture_env(box_assets)
    (rec,) = _records(rollout_batch(env, demo, [_action()], spec, styles, SimParams()))
    assert rec.success
    assert np.isfinite(rec.d_final) and np.isfinite(rec.d_min)
    assert rec.executed_style == 0


def test_rollout_far_action_fails(box_assets, demo, spec, styles):
    env = _fixture_env(box_assets)
    # largest allowed offset pushes the approach off the object
    (rec,) = _records(rollout_batch(env, demo, [_action(dt=(0.10, 0.10, 0.10))], spec, styles, SimParams()))
    assert not rec.success


def test_rollout_purity(box_assets, demo, spec, styles):
    env1 = _fixture_env(box_assets)
    env2 = _fixture_env(box_assets)
    a = _action(dt=(0.01, -0.01, 0.0), dq=0.02, k=1.1)
    (r1,) = _records(rollout_batch(env1, demo, [a], spec, styles, SimParams()))
    (r2,) = _records(rollout_batch(env2, demo, [a], spec, styles, SimParams()))
    assert r1.success == r2.success
    assert r1.d_final == r2.d_final and r1.d_min == r2.d_min
    assert np.array_equal(r1.q_final, r2.q_final)


def test_rollout_record_invariants(box_assets, demo, spec, styles):
    rng = np.random.default_rng(6)
    lo, hi = EditBounds().intervals(spec.joint_count)
    envs, actions = [], []
    for i in range(15):
        envs.append(_fixture_env(box_assets, style_index=int(rng.integers(4))))
        actions.append(rng.uniform(lo, hi))
    records = _records(rollout_batch(concat_envs(envs), demo, actions, spec, styles, SimParams()))
    for env, action, rec in zip(envs, actions, records):
        # the last value and the minimum of the distance at every frame 0..T_D, each frame run on its own
        series = reference_affordance_series(env, action, demo, spec)
        assert len(series) == demo.horizon + 1 > demo.hold_index + 1
        assert rec.d_final == series[-1] and rec.d_min == series.min() >= 0.0
        assert rec.success == (rec.failure_reason is None)
        # the failure reason is an outcome name as it stands
        assert rec.failure_reason in (None, *sim.FAILURE_REASONS)
        assert (rec.failure_reason or "ok") in OUTCOMES
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.failure_reason = "no_closure"


def test_rollout_yaw_equivariance(box_assets, demo, spec, styles):
    """Rigidly transforming the object pose (table-preserving yaw + xy)
    leaves success, d_final, d_min and object-frame contacts unchanged."""
    action = _action(dt=(0.01, 0.0, -0.005), dq=-0.01, k=0.95)
    g = pose([0.12, -0.3, 0.0], axis_angle_to_quat(np.array([0, 0, 1.1])))
    env = concat_envs([_fixture_env(box_assets, 1, point=77), _fixture_env(box_assets, 1, pose=g, point=77)])
    rollout, (_, hit, points, normals) = _rollout_with_tables(
        sim.detect_contacts, env, demo, [action] * 2, spec, styles, SimParams())
    ra, rb = _records(rollout)
    assert ra.success == rb.success
    assert np.allclose([ra.d_final, ra.d_min], [rb.d_final, rb.d_min], atol=1e-9)
    assert np.array_equal(hit[0], hit[1]) and hit[0].any()
    # contact matching snaps to the sampled cloud: transformed near-ties can
    # resolve to a neighboring grid point, so points match up to the grid
    # pitch while normals (same face) and fingers match exactly
    g_inv = invert_pose(g)
    assert np.allclose(points[0][hit[0]], transform_point(g_inv, points[1][hit[1]]), atol=6e-3)
    assert np.allclose(normals[0][hit[0]], quat_rotate(g_inv[1], normals[1][hit[1]]), atol=1e-9)


def test_crush_rule_triggers(box_assets, spec, styles, demo):
    env = _fixture_env(box_assets)
    # shift the finger approach line over the box center: the descending
    # fingertips sink through the top face before the grasp frame
    (rec,) = _records(rollout_batch(env, demo, [_action(dt=(-0.06, 0.0, 0.0))], spec, styles, SimParams()))
    assert not rec.success
    assert rec.failure_reason == "crush"


@pytest.mark.parametrize("hand", ["inspire_like", "shadow_like"])
def test_rollout_batch_matches_one_item_rollouts(hand):
    """A batch rollout gives every episode the bits it gets alone."""
    assets = hand_assets(hand)
    spec = assets.spec
    envs, actions = seeded_rollout_inputs(assets, 60, seed=3)
    batch, tables = _rollout_with_tables(sim.detect_contacts, envs, assets.demo, actions, spec,
                                         assets.styles, SimParams())
    reasons = set()
    for i, (action, got) in enumerate(zip(actions, zip(*batch))):
        alone, want_tables = _rollout_with_tables(sim.detect_contacts, envs[[i]], assets.demo,
                                                  [action], spec, assets.styles, SimParams())
        (want,) = zip(*alone)
        assert bits(got) == bits(want)
        for column, want_column in zip(tables, want_tables):
            assert np.array_equal(column[i], want_column[0])
        reasons.add(want[-1] or "ok")
    # the batch reaches the closure LP both ways, and the crush test
    assert {"ok", "no_closure", "crush"} <= reasons


def _unmerged(demo):
    """demo with no frame merged: its hold_index is T_D, so a rollout of it
    runs every frame, as rollout_batch did before frames past L merged."""
    full = Demonstration(demo.pose_t, demo.pose_r, demo.joints, demo.grasp_index)
    object.__setattr__(full, "hold_index", full.horizon)
    return full


def _held_demos(demo):
    """(name, demonstration, its L) of synthetic demonstrations built on a
    bundled one, whose frames T_l..T_D are one pose and one joint vector."""
    td, tl = demo.horizon, demo.grasp_index
    pose_t, pose_r, joints = (np.array(a) for a in (demo.pose_t, demo.pose_r, demo.joints))
    assert (pose_t[tl:] == pose_t[tl]).all() and (joints[tl:] == joints[tl]).all()
    past = np.maximum(np.arange(td + 1) - tl, 0)[:, None]          # 0 up to T_l, then 1, 2, ...
    moved = np.minimum(past, 1)                                      # 0 up to T_l, then 1
    static = joints.copy()
    static[:, :2] = joints[0, :2]                                    # two joints the demo never moves
    return [
        ("no_repeated_tail", Demonstration(pose_t + past * [0.0, 0.0, 1e-3], pose_r, joints + past * 1e-3, tl), td),
        ("tail_from_tl_plus_1", Demonstration(pose_t + moved * [0.0, 0.0, 2e-3], pose_r, joints - moved * 1e-3, tl),
         tl + 1),
        ("tl_plus_1_repeats_tl", demo, tl + 1),
        ("static_joints", Demonstration(pose_t, pose_r, static, tl), tl + 1),
        ("tl_is_td_minus_1", Demonstration(pose_t, pose_r, joints, td - 1), td),
    ]


@pytest.mark.parametrize("hand", ["inspire_like", "shadow_like"])
def test_rollout_of_frames_0_to_l_matches_a_full_frame_run(hand):
    """rollout_batch runs the trajectories, the wrist edit, FK and the
    affordance distance over frames 0..L only, and its columns are, bit
    for bit, those of a run over every frame: d_final and q_final are
    frame L's and d_min is the minimum over frames 0..L."""
    assets = hand_assets(hand)
    envs, actions = seeded_rollout_inputs(assets, 24, seed=11)
    args = (envs, assets.demo, actions, assets.spec, assets.styles, SimParams())
    fk_rows = []
    real = sim.forward_kinematics_batch

    def counted(spec, wrist_t, wrist_r, q):
        fk_rows.append(len(q))
        return real(spec, wrist_t, wrist_r, q)

    for name, demo, hold in _held_demos(assets.demo):
        assert demo.hold_index == hold, name
        assert demo.head.horizon == hold and demo.head.grasp_index == demo.grasp_index
        fk_rows.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "forward_kinematics_batch", counted)
            got = rollout_batch(envs, demo, *args[2:])
            want = rollout_batch(envs, _unmerged(demo), *args[2:])
        assert fk_rows == [len(envs) * (hold + 1), len(envs) * (demo.horizon + 1)], name
        assert bits(got) == bits(want), name
        assert got[0].shape == got[1].shape == (len(envs),)


# ---------------------------------------------------------------------------
# nearest-point query and the object-frame contact phase
# ---------------------------------------------------------------------------

def _random_cloud(rng, n):
    return rng.normal(scale=0.04, size=(n, 3)) + [0.0, 0.0, 0.05]


def _cloud_object(pts):
    """An object of the points pts, its normals all +z."""
    return ObjectModel.from_points("cloud", pts, np.tile([0.0, 0.0, 1.0], (len(pts), 1)))


def test_nearest_matches_kdtree_and_dense_formula():
    rng = np.random.default_rng(21)
    for n_pts, n_rows in ((800, 1), (1536, 63), (2250, 700)):
        cloud = _cloud_object(_random_cloud(rng, n_pts))
        pts = cloud.points
        centers = _random_cloud(rng, n_rows) * 1.5
        idx, d = sim._nearest(centers, cloud)
        kd_d, kd_idx = cKDTree(pts).query(centers)
        dense_idx, dense_d = dense_nearest(centers, pts)
        assert np.array_equal(idx, kd_idx) and np.array_equal(idx, dense_idx)
        assert np.allclose(d, kd_d, rtol=0, atol=1e-15)
        assert np.allclose(d, dense_d, rtol=0, atol=1e-12)
        # the distance is the exact one of the chosen point
        assert np.allclose(d, np.linalg.norm(centers - pts[idx], axis=1), rtol=1e-15, atol=0)


def test_nearest_row_does_not_depend_on_its_block():
    """A row gets the same bits alone, in two rows, and at either side of
    a block boundary (257 rows leave a lone last row). The random cloud
    has no duplicate points, where ties may go either way (see _nearest)."""
    rng = np.random.default_rng(5)
    cloud = _cloud_object(_random_cloud(rng, 1839))
    centers = _random_cloud(rng, 257) * 1.2
    idx, d = sim._nearest(centers, cloud)
    for row in (0, 1, sim._ROW_BLOCK - 1, sim._ROW_BLOCK, 255, 256):
        one_idx, one_d = sim._nearest(centers[row : row + 1], cloud)
        two_idx, two_d = sim._nearest(centers[[row, (row + 7) % 257]], cloud)
        assert one_idx[0] == two_idx[0] == idx[row]
        assert one_d[0] == two_d[0] == d[row]
    for n in (2, 3, sim._ROW_BLOCK + 1, 2 * sim._ROW_BLOCK + 1):
        sub_idx, sub_d = sim._nearest(centers[:n], cloud)
        assert np.array_equal(sub_idx, idx[:n]) and np.array_equal(sub_d, d[:n])


def test_nearest_with_the_held_terms_matches_recomputing_them():
    """_nearest, with the -2 p^T and |p|^2 each object holds, gives byte for
    byte the indices and distances of the same blocked query recomputing
    both per call (contact_reference.recomputing_nearest): on every
    bundled cloud (whose shared edges hold duplicate points), at row
    counts around the block size, with rows on cloud points."""
    rng = np.random.default_rng(8)
    for obj in hand_assets("inspire_like").objects:
        assert obj.neg2p.tobytes() == (-2.0 * obj.points.T).tobytes() and obj.neg2p.strides == obj.points.T.strides
        assert obj.p2.tobytes() == np.einsum("ij,ij->i", obj.points, obj.points).tobytes()
        assert len(obj) == len(obj.points)
        lo, hi = obj.box
        for n in (0, 1, 2, sim._ROW_BLOCK - 1, sim._ROW_BLOCK, sim._ROW_BLOCK + 1, 2 * sim._ROW_BLOCK + 1, 300):
            centers = rng.uniform(lo - 0.02, hi + 0.02, (n, 3))
            centers[::3] = obj.points[rng.integers(len(obj.points), size=len(centers[::3]))]
            got, want = sim._nearest(centers, obj), recomputing_nearest(centers, obj.points)
            assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes(), (obj.name, n)


def test_nearest_keeps_one_scratch_as_wide_as_the_widest_cloud(monkeypatch):
    """_nearest's (64, N) block scratch persists between calls as one
    buffer, grown to the widest cloud seen; calls on objects of different
    widths, interleaved, each give recomputing_nearest's bytes."""
    monkeypatch.setattr(sim, "_SCRATCH", {})
    rng = np.random.default_rng(13)
    objs = sorted(hand_assets("inspire_like").objects, key=len)
    narrow, wide = objs[0], objs[-1]
    assert len(narrow) < len(wide)
    for obj, n in ((narrow, 70), (wide, 300), (narrow, 2), (objs[1], 129), (wide, 1), (narrow, 200)):
        lo, hi = obj.box
        centers = rng.uniform(lo - 0.02, hi + 0.02, (n, 3))
        got, want = sim._nearest(centers, obj), recomputing_nearest(centers, obj.points)
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes(), (obj.name, n)
    assert list(sim._SCRATCH) == ["nearest"] and sim._SCRATCH["nearest"].size == sim._ROW_BLOCK * len(wide)


def test_a_chunk_past_the_scratch_cap_keeps_no_buffer(monkeypatch):
    """A workspace request over _SCRATCH_MAX floats gets a temporary array:
    after a large chunk and then a small one, the kept contact buffer is
    the small chunk's, and the large chunk's columns are those of a run
    that kept its workspace."""
    assets = hand_assets("inspire_like")
    envs, actions = seeded_rollout_inputs(assets, 24, seed=5)
    args = (assets.demo, actions, assets.spec, assets.styles, SimParams())
    monkeypatch.setattr(sim, "_SCRATCH", {})
    kept = rollout_batch(envs, *args)
    k_count = assets.spec.sphere_count
    assert sim._SCRATCH["contacts"].size == 10 * 24 * (assets.demo.grasp_index + 1) * k_count
    small = sim._SCRATCH["contacts"].size // 6                       # a 4-episode chunk's workspace
    monkeypatch.setattr(sim, "_SCRATCH", {})
    monkeypatch.setattr(sim, "_SCRATCH_MAX", small)
    large = rollout_batch(envs, *args)
    assert "contacts" not in sim._SCRATCH
    rows = np.arange(4)
    rollout_batch(envs[rows], assets.demo, actions[rows], *args[2:])
    assert sim._SCRATCH["contacts"].size == small
    assert all(buf.size <= small for buf in sim._SCRATCH.values())
    assert bits(large) == bits(kept)

@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    axis_angle=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
    shift=st.tuples(*[st.floats(-0.5, 0.5)] * 3),
)
def test_contacts_invariant_under_a_rigid_move(objects, seed, axis_angle, shift):
    """Moving the object pose and the sphere centers by one rigid
    transform picks the same cloud points, fingers and depths."""
    rng = np.random.default_rng(seed)
    obj = objects["sphere"]
    g = pose(np.r_[rng.uniform(-0.2, 0.2, 2), 0.0],
             axis_angle_to_quat(np.array([0.0, 0.0, rng.uniform(0, 2 * np.pi)])))
    move = pose(shift, axis_angle_to_quat(np.array(axis_angle)))
    # sphere centers in a shell around the object, near enough to touch
    pick = rng.choice(len(obj.points), size=12, replace=False)
    local = obj.points[pick] + obj.normals[pick] * rng.uniform(-0.004, 0.014, (12, 1))
    radii = np.full(12, 0.01)
    fingers = np.repeat(np.arange(4), 3)
    poses = [g, compose_pose(move, g)]
    centers = np.stack([transform_point(p, local) for p in poses])[:, None]
    _, hit, points, _ = detect_contacts(concat_envs([_env_for(obj, pose=p) for p in poses]), centers, radii, fingers, 0,
                                        SimParams())
    assert np.array_equal(hit[0], hit[1])
    assert hit.any(), "the shell puts some sphere in contact"
    back_a, back_b = (transform_point(invert_pose(p), pts[h]) for p, pts, h in zip(poses, points, hit))
    idx_a, gap_a = sim._nearest(back_a, obj)
    idx_b, gap_b = sim._nearest(back_b, obj)
    assert np.array_equal(idx_a, idx_b) and gap_a.max() < 1e-12 and gap_b.max() < 1e-12


@pytest.mark.parametrize("hand", ["inspire_like", "shadow_like"])
def test_contact_phase_matches_per_episode_world_frame_reference(hand):
    """The object-frame contact phase gives the contact tables and the
    records of the per-episode world-frame one on 640 seeded rollouts,
    and sends _nearest no sphere outside the cloud's grown box."""
    assets = hand_assets(hand)
    envs, actions = seeded_rollout_inputs(assets, 640, seed=12)
    args = (envs, assets.demo, actions, assets.spec, assets.styles, SimParams())
    margin = assets.spec.radii.max() + SimParams().delta_c + 1e-9
    real, outside = sim._nearest, []

    def boxed(centers, obj):
        pts = obj.points
        outside.append(np.any((centers < pts.min(axis=0) - margin) | (centers > pts.max(axis=0) + margin)))
        return real(centers, obj)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_nearest", boxed)
        got, got_tables = _rollout_with_tables(sim.detect_contacts, *args)
    assert outside and not any(outside), "a sphere outside the grown box reached _nearest"
    want, want_tables = _rollout_with_tables(reference_contact_phase, *args)
    assert bits(got) == bits(want)
    for g, w in zip(got_tables, want_tables):
        assert np.array_equal(g, w)
    reasons = {reason or "ok" for reason in want[-1]}
    assert {"ok", "no_closure", "crush", "table_collision"} <= reasons
    assert want_tables[1].sum() > 640


def _cull_nothing(obj, rows, crush_gap):
    """sim._may_crush with a table that drops no row."""
    return np.ones(len(rows), dtype=bool)


def _counted_rollout(*args, params=SimParams(), cull=True):
    """rollout_batch's columns and contact table, and the rows it sent to
    _nearest; with cull=False no approach row is dropped."""
    rows = []
    real = sim._nearest

    def counted(centers, obj):
        rows.append(len(centers))
        return real(centers, obj)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_nearest", counted)
        if not cull:
            mp.setattr(sim, "_may_crush", _cull_nothing)
        got, tables = _rollout_with_tables(sim.detect_contacts, *args, params)
    return got, tables, sum(rows)


@pytest.mark.parametrize("hand", ["inspire_like", "shadow_like"])
def test_crushed_episodes_skip_their_early_approach_frames(hand):
    """Episodes that crush at the last approach frame send no earlier
    frame to _nearest. With the crush-floor cull off, a chunk with crushed
    episodes sends fewer rows than it does when nothing can crush (where
    the cull, once its table is filled, drops every approach row); with
    the cull on it sends fewer still. The contact tables and records stay
    those of the per-episode reference."""
    assets = hand_assets(hand)
    envs, actions = seeded_rollout_inputs(assets, 96, seed=31)
    args = envs, assets.demo, actions, assets.spec, assets.styles
    got, got_tables, sent = _counted_rollout(*args)
    unculled, _, sent_unculled = _counted_rollout(*args, cull=False)
    _, _, every_frame = _counted_rollout(*args, params=SimParams(crush_factor=np.inf), cull=False)
    want, want_tables = _rollout_with_tables(reference_contact_phase, *args, SimParams())
    assert bits(got) == bits(unculled) == bits(want)
    for g, w in zip(got_tables, want_tables):
        assert np.array_equal(g, w)
    assert want_tables[0].sum() >= 5
    assert sent < sent_unculled < every_frame


@pytest.mark.parametrize("hand", ["inspire_like", "shadow_like"])
def test_the_crush_floor_table_cannot_change_a_result(hand):
    """One seeded 96-episode chunk gives the same columns and contact
    table, bit for bit, with cold tables, with the tables that chunk
    filled, and with the cull off. The first run fills every block its
    rows land in, so the second fills none and sends _nearest the same
    rows; both send fewer than the run with the cull off."""
    assets = hand_assets(hand)
    envs, actions = seeded_rollout_inputs(assets, 96, seed=47)
    args = envs, assets.demo, actions, assets.spec, assets.styles
    assert not any(obj.crush_floor for obj in assets.objects)

    def filled():
        return [(obj.name, obj.crush_floor["filled"].copy()) for obj in assets.objects if obj.crush_floor]

    cold = _counted_rollout(*args)
    after_cold = filled()
    assert after_cold and all(f.any() for _, f in after_cold)
    warm = _counted_rollout(*args)
    assert bits(filled()) == bits(after_cold)
    off = _counted_rollout(*args, cull=False)
    assert bits(cold[0]) == bits(warm[0]) == bits(off[0])
    for c, w, o in zip(cold[1], warm[1], off[1]):
        assert np.array_equal(c, w) and np.array_equal(c, o)
    assert warm[2] == cold[2] < off[2]


def _query_calls(phase, *args):
    """phase(*args), and the arguments of every sim._may_crush and
    sim._nearest call it made, in order, as bytes."""
    calls = []
    may_crush, nearest = sim._may_crush, sim._nearest

    def spy_may_crush(obj, rows, crush_gap):
        calls.append(("_may_crush", obj.name, rows.shape, rows.tobytes(), crush_gap.tobytes()))
        return may_crush(obj, rows, crush_gap)

    def spy_nearest(centers, obj):
        calls.append(("_nearest", centers.shape, centers.tobytes(), obj.points.tobytes()))
        return nearest(centers, obj)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_may_crush", spy_may_crush)
        mp.setattr(sim, "_nearest", spy_nearest)
        return phase(*args), calls


@pytest.mark.parametrize("hand", ["inspire_like", "shadow_like"])
def test_every_query_call_gets_the_two_pass_rows(hand):
    """Each _may_crush and _nearest call of detect_contacts gets the rows,
    bit for bit and in order, that the per-object two-pass selection
    (contact_reference.two_pass_crushed) sends it, at grasp frames 0, 1,
    2 and the demo's, with cold crush-floor tables and with warm ones;
    and the crush flags are the same. The demo's grasp frame crushes, so
    second passes run."""
    assets = hand_assets(hand)
    envs, actions = seeded_rollout_inputs(assets, 96, seed=31)
    captured = []
    real = sim.detect_contacts
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "detect_contacts", lambda *a: captured.append(a) or real(*a))
        rollout_batch(envs, assets.demo, actions, assets.spec, assets.styles, SimParams())
    env, centers, radii, finger_index, grasp, params = captured[0]
    assert grasp == assets.demo.grasp_index > 2
    for tl in (0, 1, 2, grasp):
        for warm in (False, True):
            if not warm:
                for obj in assets.objects:
                    obj.crush_floor.clear()
            want, want_calls = _query_calls(two_pass_crushed, env, centers, radii, tl, params)
            if not warm:
                for obj in assets.objects:
                    obj.crush_floor.clear()
            got, got_calls = _query_calls(detect_contacts, env, centers, radii, finger_index, tl, params)
            assert got_calls == want_calls, (tl, warm)
            assert np.array_equal(got[0], want)
    assert want.sum() >= 5 and len(got_calls) > 2 * len({id(obj) for obj in env.objs})


def _cell_centers(obj, cells):
    """The centers of the crush-floor table's cells of the given (n, 3)
    indices."""
    return obj.box[0] - sim._GRID_GROW + (cells + 0.5) * sim._CELL


def test_the_crush_floor_table_is_the_one_level_test():
    """On every bundled cloud, a table filled block by block holds, cell
    for cell and bit for bit, the floor that one test over the whole
    cloud gives (contact_reference.crush_floor_oracle): no cell's match
    candidates fail its block's screen."""
    for obj in hand_assets("inspire_like").objects:
        sim._may_crush(obj, np.zeros((0, 3)), np.zeros(0))
        table = obj.crush_floor["table"]
        centers = _cell_centers(obj, np.indices(table.shape).reshape(3, -1).T)
        assert not sim._may_crush(obj, centers, np.full(len(centers), -np.inf)).any()
        assert obj.crush_floor["filled"].all()
        assert np.array_equal(table.ravel(), crush_floor_oracle(obj, centers, sim._CELL)), obj.name


@pytest.mark.parametrize("n", [1, 8])
def test_q_final_does_not_keep_the_trajectory_alive(n):
    """rollout_batch's q_final column owns its (E, J) data: a view into
    the (E, T_D + 1, J) joint trajectory would keep all of it alive for
    as long as any record holds its row."""
    assets = hand_assets("inspire_like")
    envs, actions = seeded_rollout_inputs(assets, n, seed=5)
    q_final = rollout_batch(envs, assets.demo, actions, assets.spec, assets.styles, SimParams())[2]
    assert q_final.shape == (n, assets.spec.joint_count)
    assert q_final.base is None or q_final.base.nbytes <= q_final.nbytes


# every sphere radius of the bundled hands, the smallest first
_RADII = sorted({float(r) for h in ("inspire_like", "shadow_like")
                 for r in load_hand_spec(default_hand_path(h)).radii})


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_points=st.integers(64, 300),
    duplicates=st.integers(0, 40),
    radius=st.sampled_from(_RADII),
    crush_factor=st.floats(1.0, 3.0),
)
def test_rows_the_crush_floor_drops_cannot_crush(seed, n_points, duplicates, radius, crush_factor):
    """On a lumpy cloud with tilted normals and exact duplicate points
    (each copy with its own normal), no approach row that _may_crush drops
    crushes under _crushing with _nearest's match, nor with any cloud
    point at its nearest distance. The rows are random in the table's
    box, near the surface, on cell and block boundaries, and in the
    table's last block. A warm table drops the same rows, and no filled
    cell's floor is below that of one test over the whole cloud."""
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(n_points, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = dirs * rng.uniform(0.02, 0.04, (n_points, 1))
    nrm = dirs + rng.normal(0.0, 0.4, dirs.shape)
    copies = rng.integers(n_points, size=duplicates)
    obj = ObjectModel.from_points("lumpy", np.concatenate([pts, pts[copies]]),
                                  np.concatenate([nrm, rng.normal(size=(duplicates, 3))]))
    lo = obj.box[0] - sim._GRID_GROW
    blocks = np.ceil((obj.box[1] - obj.box[0] + 2 * sim._GRID_GROW) / (sim._BLOCK * sim._CELL)).astype(int)
    shape = blocks * sim._BLOCK
    edges = []
    for step, count in ((sim._CELL, shape), (sim._BLOCK * sim._CELL, blocks)):
        edge = lo + rng.integers(0, count + 1, (200, 3)) * step
        free = rng.integers(0, 2, edge.shape).astype(bool)
        edge[free] = rng.uniform(lo, lo + shape * sim._CELL, edge.shape)[free]
        edges.append(edge)
    pick = rng.integers(len(obj.points), size=200)
    rows = np.concatenate([
        rng.uniform(lo, lo + shape * sim._CELL, (200, 3)),
        obj.points[pick] + obj.normals[pick] * rng.uniform(-2.0 * radius, 3.0 * radius, (200, 1)),
        *edges,
        rng.uniform(lo + (shape - sim._BLOCK) * sim._CELL, lo + shape * sim._CELL, (100, 3)),
    ])
    gap = np.full(len(rows), radius * (1.0 - crush_factor))
    may = sim._may_crush(obj, rows, gap)
    dropped = rows[~may]
    found, _ = sim._nearest(rows, obj)
    assert not sim._crushing(obj, dropped, found[~may], gap[~may]).any()
    diff = dropped[:, None] - obj.points
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    tie = dist <= dist.min(axis=1, keepdims=True) + 1e-12
    assert (np.where(tie, np.einsum("ijk,jk->ij", diff, obj.normals), np.inf) >= gap[~may, None]).all()
    assert np.array_equal(sim._may_crush(obj, rows, gap), may)
    filled = obj.crush_floor["filled"]
    assert filled[tuple(blocks - 1)]
    cells = np.argwhere(filled.repeat(sim._BLOCK, 0).repeat(sim._BLOCK, 1).repeat(sim._BLOCK, 2))
    cells = cells[rng.choice(len(cells), min(len(cells), 1000), replace=False)]
    floor = obj.crush_floor["table"][tuple(cells.T)]
    assert (floor >= crush_floor_oracle(obj, _cell_centers(obj, cells), sim._CELL)).all()


def test_detect_contacts_is_the_one_frame_case_of_the_phase(objects):
    obj = objects["mug"]
    obj_pose = pose([0.1, -0.05, 0.0], axis_angle_to_quat(np.array([0.0, 0.0, 0.7])))
    env = _env_for(obj, pose=obj_pose)
    rng = np.random.default_rng(2)
    pick = rng.choice(len(obj.points), size=8, replace=False)
    local = obj.points[pick] + obj.normals[pick] * rng.uniform(-0.004, 0.01, (8, 1))
    spheres = _spheres(transform_point(obj_pose, local), fingers=np.repeat(np.arange(4), 2))
    want = reference_contact_phase(env, *spheres, 0, SimParams())
    got = detect_contacts(env, *spheres, 0, SimParams())
    assert want[1].any()
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_far_grasp_frame_spheres_skip_the_query(objects, monkeypatch):
    """A grasp-frame sphere outside the cloud's bounding box grown by the
    largest radius + delta_c never reaches _nearest, and the contact table
    stays the reference's; with every sphere that far, _nearest and
    detect_contacts take zero rows and no finger has a hit."""
    obj = objects["mug"]
    obj_pose = pose([0.1, -0.05, 0.0], axis_angle_to_quat(np.array([0.0, 0.0, 0.7])))
    env = _env_for(obj, pose=obj_pose)
    rng = np.random.default_rng(9)
    pick = rng.choice(len(obj.points), size=8, replace=False)
    near = obj.points[pick] + obj.normals[pick] * rng.uniform(-0.004, 0.01, (8, 1))
    margin = 0.01 + SimParams().delta_c
    far = obj.points.max(axis=0) + margin + rng.uniform(1e-6, 0.05, (4, 3)) * [1.0, 0.0, 0.0]
    rows = []
    real = sim._nearest

    def counted(centers, obj):
        rows.append(len(centers))
        return real(centers, obj)

    monkeypatch.setattr(sim, "_nearest", counted)
    for local, sent in ((np.concatenate([near[:4], far[:2], near[4:], far[2:]]), 8), (far, 0)):
        rows.clear()
        spheres = _spheres(transform_point(obj_pose, local), fingers=np.repeat(np.arange(4), len(local) // 4))
        with np.errstate(all="raise"):
            got = detect_contacts(env, *spheres, 0, SimParams())
        assert sum(rows) == sent
        want = reference_contact_phase(env, *spheres, 0, SimParams())
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        assert got[1].any() == (sent > 0)
    idx, d = real(np.empty((0, 3)), obj)
    assert idx.shape == d.shape == (0,) and idx.dtype == np.intp


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
