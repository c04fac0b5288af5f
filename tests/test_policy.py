import dataclasses
import pickle

import numpy as np
import pytest

from fungrasp.assets import default_hand_path, default_styles_path
from fungrasp.demo import EditBounds
from fungrasp.hand import load_hand_spec, load_styles
from fungrasp.objects import ObjectModel
from fungrasp.policy import (
    ACTOR,
    LOG_STD_MIN,
    POINT_BRANCH,
    VALUE,
    ObsBatch,
    PolicyError,
    PolicyParams,
    encode_observation,
    entropy,
    gaussian_log_prob,
    init_params,
    log_prob_of_raw,
    param_shapes,
    param_views,
    policy_backward,
    policy_forward,
    random_obs,
    sample_action,
    squash,
    squash_correction,
)
from fungrasp.sim import reset_env
from fungrasp.training import episode_rng, finite_diff_check

from conftest import with_arrays
from episode_reference import concat_obs
from policy_reference import reference_backward, reference_forward


def _random_obs(rng, m=16, s=4):
    """One random observation, as a batch of one."""
    return random_obs(rng, 1, m, s)


def _encode(env, assets, m_points, fps_seed, cache):
    """encode_observation over an EnvBatch of reset environments."""
    return encode_observation(env.objs, env.pose_t, env.pose_r, env.p_afford, env.style, assets.demo, assets.styles,
                              m_points, fps_seed, cache)


def _reset(assets, objects, rngs, square_half=0.25):
    return reset_env(objects, assets.afford_dists, assets.styles, rngs, spec=assets.spec, sigma_style=0.0,
                     square_half=square_half)


@pytest.fixture(scope="module")
def small_params():
    return init_params(np.random.default_rng(0), m_points=16, style_count=4, joint_count=6)


# ---------------------------------------------------------------------------
# observation encoding
# ---------------------------------------------------------------------------

def test_encode_affordance_at_centroid(assets):
    obj = assets.objects[0]
    env = _reset(assets, [obj], [np.random.default_rng(0)], square_half=0.0)
    env = dataclasses.replace(env, p_afford=obj.centroid[None].copy())
    cache = {}
    obs = _encode(env, assets, 32, 0, cache)
    assert obs.size == 1
    assert np.allclose(obs.p_afford_rel, 0.0, atol=1e-12)
    assert obs.l_style.sum() == 1.0
    assert obs.l_style[0, env.style[0]] == 1.0
    assert obs.clouds.shape == (1, 32, 6) and obs.cloud_index.tolist() == [0]


def test_encode_scale_invariance(assets):
    # scale by 2.0: exact in floating point, so FPS argmax tie-breaking on
    # the regular box grid resolves identically on both clones
    obj = assets.objects[0]
    scaled = ObjectModel.from_points("scaled", obj.points * 2.0, obj.normals)
    env = _reset(assets, [obj], [np.random.default_rng(1)], square_half=0.0)
    env2 = dataclasses.replace(env, objs=[scaled], p_afford=env.p_afford * 2.0)
    cache = {}
    a = _encode(env, assets, 32, 0, cache)
    b = _encode(env2, assets, 32, 0, cache)
    assert np.allclose(a.clouds, b.clouds, atol=1e-12)
    assert np.allclose(a.p_afford_rel, b.p_afford_rel, atol=1e-12)
    assert b.obj_bb[0, 0] == pytest.approx(2.0 * a.obj_bb[0, 0])


def test_encode_fps_cache_reused(assets):
    obj = assets.objects[0]
    env = _reset(assets, [obj], [np.random.default_rng(2)])
    cache = {}
    a = _encode(env[[0, 0]], assets, 32, 7, cache)
    assert list(cache) == [(obj.name, 32, 7)]
    first = cache[(obj.name, 32, 7)]
    b = _encode(env, assets, 32, 7, cache)
    # one encoded, read-only cloud, which every batch's table holds once
    assert list(cache) == [(obj.name, 32, 7)] and cache[(obj.name, 32, 7)] is first
    assert a.cloud_index.tolist() == [0, 0] and np.array_equal(a.clouds, first[None])
    assert np.array_equal(b.clouds, first[None]) and np.array_equal(a.s_r[1:], b.s_r)
    assert not first.flags.writeable


def test_encode_rows_do_not_depend_on_their_chunk(assets):
    """A chunk's row has the bits of the env's chunk of one, over a table
    that holds each object's entry once, first seen first."""
    rng = np.random.default_rng(3)
    # one rng shared by the nine episodes: each draws from it in turn
    env = reset_env(assets.objects, assets.afford_dists, assets.styles, [rng] * 9, spec=assets.spec, sigma_style=0.05,
                    square_half=0.25)
    cache = {}
    chunk = _encode(env, assets, 32, 0, cache)
    names = list(dict.fromkeys(obj.name for obj in env.objs))
    assert [names[k] for k in chunk.cloud_index] == [obj.name for obj in env.objs]
    for k in range(len(env)):
        alone = _encode(env[[k]], assets, 32, 0, cache)
        for field in dataclasses.fields(ObsBatch):
            if field.name != "cloud_index":
                got = getattr(chunk[np.array([k])], field.name)
                assert np.array_equal(got, getattr(alone, field.name)) and got.dtype == getattr(alone, field.name).dtype


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

def test_zero_heads_give_zero_outputs(small_params):
    p = with_arrays(small_params, mean_w=0.0, mean_b=0.0, v_w3=0.0, v_b3=0.0)
    rng = np.random.default_rng(3)
    batch = random_obs(rng, 5, 16, 4)
    mean, _, value, _ = policy_forward(p, batch)
    assert np.all(mean == 0.0)
    assert np.all(value == 0.0)


def _five_cloud_batch(rng, rows=32):
    """`rows` observations over 5 distinct clouds, the shape of a training
    minibatch: each row repeats one of 5 random observations."""
    base = random_obs(rng, 5, 16, 4)
    return base[rng.permutation(np.arange(rows) % 5)]


def _permute_points(rng, batch):
    """batch with the points of every cloud-table entry shuffled apart."""
    clouds = np.stack([c[rng.permutation(len(c))] for c in batch.clouds])
    return dataclasses.replace(batch, clouds=clouds)


def test_point_permutation_invariance(small_params):
    rng = np.random.default_rng(4)
    for batch in (_random_obs(rng), _five_cloud_batch(rng)):
        ma, _, va, _ = policy_forward(small_params, batch)
        mb, _, vb, _ = policy_forward(small_params, _permute_points(rng, batch))
        assert np.array_equal(ma, mb)
        assert np.array_equal(va, vb)


def test_point_permutation_invariant_gradients(small_params):
    rng = np.random.default_rng(5)
    for batch in (_random_obs(rng), _five_cloud_batch(rng)):
        d_mean = rng.normal(size=(batch.size, small_params.action_dim))
        d_value = rng.normal(size=batch.size)
        d_ls = rng.normal(size=small_params.action_dim)
        grads = []
        for o in (batch, _permute_points(rng, batch)):
            _, _, _, cache = policy_forward(small_params, o)
            grads.append(policy_backward(small_params, cache, d_mean, d_value, d_ls))
        assert np.allclose(grads[0], grads[1], atol=1e-12)


def test_forward_regression_pinned(small_params):
    # golden values frozen from the first verified run of this architecture
    obs = _random_obs(np.random.default_rng(2024))
    mean, log_std, value, _ = policy_forward(small_params, obs)
    fingerprint = np.array([
        float(mean[0, :3].sum()),
        float(mean[0].std()),
        float(value[0]),
        float(log_std.sum()),
    ])
    expected = np.array(GOLDEN_FINGERPRINT)
    assert np.allclose(fingerprint, expected, atol=1e-12), fingerprint.tolist()


def test_forward_shape_validation(small_params):
    rng = np.random.default_rng(6)
    bad = _random_obs(rng, m=8)
    with pytest.raises(PolicyError, match="cloud"):
        policy_forward(small_params, bad)
    bad2 = _random_obs(rng, m=16, s=2)
    with pytest.raises(PolicyError, match="one-hot|S="):
        policy_forward(small_params, bad2)


def test_forward_nonfinite_rejected(small_params):
    rng = np.random.default_rng(7)
    obs = _random_obs(rng)
    p = with_arrays(small_params, a_w1=small_params.a_w1 * np.inf)
    with np.errstate(invalid="ignore"), pytest.raises(PolicyError, match="actor_trunk"):
        policy_forward(p, obs)


# ---------------------------------------------------------------------------
# squashing and log-probs
# ---------------------------------------------------------------------------

def test_squash_within_bounds_bulk():
    bounds = EditBounds()
    lo, hi = bounds.intervals(6)
    rng = np.random.default_rng(8)
    raw = rng.normal(scale=30.0, size=(1_000_000, 13))
    a = squash(raw, lo, hi)
    assert np.all(a > lo - 1e-12) and np.all(a < hi + 1e-12)
    dr_norm = np.linalg.norm(a[:, 3:6], axis=1)
    assert np.all(dr_norm <= bounds.b_r + 1e-9)


def test_sample_action_deterministic_limit(small_params):
    bounds = EditBounds()
    mean = np.random.default_rng(10).normal(size=(3, 13)) * 0.3
    _, action, _ = sample_action(mean, np.full(13, -40.0), bounds, 6, np.random.default_rng(0).standard_normal((3, 13)))
    lo, hi = bounds.intervals(6)
    assert np.allclose(action, squash(mean, lo, hi), atol=1e-12)


def test_sample_action_empirical_mean():
    bounds = EditBounds()
    rng = np.random.default_rng(11)
    n = 100_000
    mean = np.full((n, 13), 0.2)
    log_std = np.full(13, -1.0)
    raws, _, _ = sample_action(mean, log_std, bounds, 6, rng.standard_normal((n, 13)))
    err = np.abs(raws.mean(axis=0) - mean[0])
    assert np.all(err < 3 * np.exp(-1.0) / np.sqrt(n))


def test_log_prob_self_consistency(small_params, assets):
    bounds = EditBounds()
    rng = np.random.default_rng(12)
    obs = _random_obs(rng)
    mean, log_std, _, _ = policy_forward(small_params, obs)
    raw, action, log_prob = sample_action(mean, log_std, bounds, 6, rng.standard_normal(mean.shape))
    lo, hi = bounds.intervals(6)
    assert np.array_equal(action, squash(raw, lo, hi))
    # the update's batched log-prob of the stored raw sample, from a fresh forward pass
    mean2, log_std2, _, _ = policy_forward(small_params, obs[np.array([0, 0])])
    raw2 = np.concatenate([raw] * 2)
    recomputed, _, _ = log_prob_of_raw(mean2, log_std2, raw2, squash_correction(raw2, lo, hi))
    assert recomputed == pytest.approx([log_prob[0]] * 2, abs=1e-9)


def test_log_prob_closed_form():
    bounds = EditBounds()
    lo, hi = bounds.intervals(6)
    mean = np.zeros(13)
    log_std = np.zeros(13)  # unit sigma
    raw = mean.copy()
    logp, _, _ = gaussian_log_prob(mean, log_std, raw)
    expected_gauss = -0.5 * 13 * np.log(2 * np.pi)
    assert logp == pytest.approx(expected_gauss)
    half = 0.5 * (hi - lo)
    corr = squash_correction(raw, lo, hi)
    assert corr == pytest.approx(np.sum(np.log(half)))  # tanh'(0) = 1


def test_log_prob_decreases_away_from_mean(small_params):
    bounds = EditBounds()
    rng = np.random.default_rng(13)
    obs = _random_obs(rng)
    mean, log_std, _, _ = policy_forward(small_params, obs)
    lo, hi = bounds.intervals(6)
    direction = rng.normal(size=13)
    direction /= np.linalg.norm(direction)
    vals = []
    for step in (0.0, 0.5, 1.0, 2.0):
        raw = mean[0] + step * direction
        lp, _, _ = log_prob_of_raw(mean[0], log_std, raw, squash_correction(raw, lo, hi))
        vals.append(lp)
    assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))


def test_raw_gaussian_shift_invariance():
    rng = np.random.default_rng(14)
    mean = rng.normal(size=13)
    raw = rng.normal(size=13)
    shift = rng.normal(size=13)
    a, _, _ = gaussian_log_prob(mean, np.zeros(13), raw)
    b, _, _ = gaussian_log_prob(mean + shift, np.zeros(13), raw + shift)
    assert a == pytest.approx(b, abs=1e-12)


def test_entropy_formula():
    log_std = np.array([-1.0, 0.0, 0.5])
    expected = log_std.sum() + 1.5 * np.log(2 * np.pi * np.e)
    assert entropy(log_std) == pytest.approx(expected)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def test_zero_upstream_grad_gives_zero_params(small_params):
    rng = np.random.default_rng(15)
    batch = random_obs(rng, 3, 16, 4)
    _, _, _, cache = policy_forward(small_params, batch)
    g = policy_backward(small_params, cache, np.zeros((3, 13)), np.zeros(3), np.zeros(13))
    assert np.all(g == 0.0)


def test_duplicated_row_doubles_gradient(small_params):
    rng = np.random.default_rng(16)
    obs = _random_obs(rng)
    d_mean = rng.normal(size=(1, 13))
    d_value = rng.normal(size=1)
    _, _, _, c1 = policy_forward(small_params, obs)
    g1 = policy_backward(small_params, c1, d_mean, d_value, np.zeros(13))
    _, _, _, c2 = policy_forward(small_params, obs[np.array([0, 0])])
    # the two rows share one table entry, so the point branch runs once
    assert c2.point[0][-1].shape[0] == 1
    g2 = policy_backward(small_params, c2, np.repeat(d_mean, 2, axis=0), np.repeat(d_value, 2), np.zeros(13))
    assert np.allclose(g2, 2.0 * g1, atol=1e-12)


def _reference_batches(rng):
    """A 32-row minibatch over 5 clouds and random batches of distinct clouds."""
    yield _five_cloud_batch(rng)
    for size in (1, 3, 12):
        yield random_obs(rng, size, 16, 4)


def test_forward_matches_the_per_row_reference(small_params):
    rng = np.random.default_rng(19)
    for batch in _reference_batches(rng):
        assert batch.size == 32 and len(batch.clouds) == 5 or batch.size == len(batch.clouds)
        mean, log_std, value, cache = policy_forward(small_params, batch)
        r_mean, r_log_std, r_value, _ = reference_forward(small_params, batch)
        assert np.array_equal(mean, r_mean) and np.array_equal(value, r_value)
        assert np.array_equal(log_std, r_log_std)
        # the point branch ran once per distinct cloud
        assert cache.point[0][-1].shape[0] == len(batch.clouds) == len(np.unique(batch.cloud_index))


def test_backward_matches_the_per_row_reference(small_params):
    rng = np.random.default_rng(20)
    for batch in _reference_batches(rng):
        _, _, _, cache = policy_forward(small_params, batch)
        _, _, _, r_cache = reference_forward(small_params, batch)
        d_mean = rng.normal(size=(batch.size, 13))
        d_value = rng.normal(size=batch.size)
        d_ls = rng.normal(size=13)
        got = param_views(policy_backward(small_params, cache, d_mean, d_value, d_ls), 4, 6)
        want = param_views(reference_backward(small_params, r_cache, d_mean, d_value, d_ls), 4, 6)
        for name, w in want.items():
            if name.startswith("pb_"):
                # only the point-branch sums run in another order
                assert np.max(np.abs(got[name] - w)) <= 1e-12 * np.max(np.abs(w)), name
            else:
                assert np.array_equal(got[name], w), name


def test_backward_into_a_reused_vector_assigns_every_slot(small_params):
    """Into the views of a NaN-filled vector, and again into the same
    vector for another batch, the gradient has the bytes of a fresh
    call's: every slot is assigned, none is accumulated."""
    rng = np.random.default_rng(21)
    out = np.full_like(small_params.flat, np.nan)
    views = param_views(out, 4, 6)
    for batch in _reference_batches(rng):
        _, _, _, cache = policy_forward(small_params, batch)
        d_mean = rng.normal(size=(batch.size, 13))
        d_value = rng.normal(size=batch.size)
        d_ls = rng.normal(size=13)
        fresh = policy_backward(small_params, cache, d_mean, d_value, d_ls)
        assert policy_backward(small_params, cache, d_mean, d_value, d_ls, out=views) is None
        assert out.tobytes() == fresh.tobytes()


@pytest.mark.parametrize("hand", ["inspire_like", "shadow_like"])
def test_backward_assigns_every_slot_on_the_bundled_layouts(hand):
    """On each bundled hand's layout, a NaN-filled gradient vector holds
    no NaN after one policy_backward into it."""
    spec = load_hand_spec(default_hand_path(hand))
    style_count = len(load_styles(default_styles_path(hand), spec))
    rng = np.random.default_rng(23)
    params = init_params(rng, 16, style_count, spec.joint_count)
    batch = random_obs(rng, 3, 16, style_count)[np.array([0, 2, 2, 1, 0])]
    _, _, _, cache = policy_forward(params, batch)
    out = np.full_like(params.flat, np.nan)
    d_mean = rng.normal(size=(batch.size, params.action_dim))
    policy_backward(params, cache, d_mean, rng.normal(size=batch.size), rng.normal(size=params.action_dim),
                    out=param_views(out, style_count, spec.joint_count))
    assert not np.isnan(out).any()


def test_every_dense_array_is_in_exactly_one_stack_table():
    names = [name for stack in (POINT_BRANCH, ACTOR, VALUE) for layer in stack for name in layer]
    assert sorted(names) == sorted(set(param_shapes(4, 6)) - {"log_std"})


def test_log_std_clamp_masks_gradient(small_params):
    p = with_arrays(small_params, log_std=LOG_STD_MIN - 1.0)
    rng = np.random.default_rng(17)
    batch = _random_obs(rng)
    _, log_std, _, cache = policy_forward(p, batch)
    assert np.all(log_std == LOG_STD_MIN)
    g = policy_backward(p, cache, np.zeros((1, 13)), np.zeros(1), np.ones(13))
    assert np.all(param_views(g, 4, 6)["log_std"] == 0.0)


def test_finite_difference_gate(small_params):
    rng = episode_rng(123, 7)
    obs = random_obs(rng, 4, 16, 4)
    err = finite_diff_check(small_params, obs, rng, n_params=200)
    assert err < 1e-4


def test_finite_difference_zero_obs(small_params):
    # zero inputs park activations exactly on the ReLU kink; the contract
    # here is only that the check stays finite, not that it passes the gate
    zero = ObsBatch.build(
        s_r=np.zeros((1, 7)), s_o=np.zeros((1, 7)), p_afford_rel=np.zeros((1, 3)),
        l_style=np.eye(4)[:1], obj_bb=np.ones((1, 1)), cloud_index=np.zeros(1, dtype=int),
        clouds=np.zeros((1, 16, 6)),
    )
    err = finite_diff_check(small_params, zero, episode_rng(5, 7), n_params=50)
    assert np.isfinite(err)


def test_obs_batch_rows_and_concat():
    """Indexing rows keeps only the table entries they use, remapped;
    the oracle concat (concat_obs) keeps each distinct cloud once, first
    seen first."""
    rng = np.random.default_rng(18)
    rows = [_random_obs(rng) for _ in range(4)]
    batch = concat_obs(rows + [rows[1], rows[3]])
    # six rows over the four distinct clouds, each held once, in first-seen order
    assert batch.size == 6 and batch.clouds.shape == (4, 16, 6) and batch.obj_bb.shape == (6, 1)
    assert batch.cloud_index.tolist() == [0, 1, 2, 3, 1, 3]
    for i, row in enumerate(rows):
        assert np.array_equal(batch.clouds[i], row.clouds[0])
    picked = batch[np.array([2, 0, 5])]
    expected = [rows[2], rows[0], rows[3]]
    for name in ("s_r", "s_o", "p_afford_rel", "l_style", "obj_bb"):
        assert np.array_equal(getattr(picked, name), np.concatenate([getattr(r, name) for r in expected]))
    # the picked rows keep only the entries they use, remapped
    assert picked.clouds.shape == (3, 16, 6)
    assert np.array_equal(picked.clouds[picked.cloud_index], np.concatenate([r.clouds for r in expected]))
    one = batch[4:5]
    assert one.cloud_index.tolist() == [0] and np.array_equal(one.clouds, rows[1].clouds)
    # glueing batches that already share clouds does not grow the table
    twice = concat_obs([batch, picked])
    assert twice.clouds.shape == (4, 16, 6)
    assert np.array_equal(twice.clouds[twice.cloud_index][6:], picked.clouds[picked.cloud_index])


def test_flatten_round_trip(small_params):
    # the named arrays, raveled in layout order, are the flat vector itself
    views = param_views(small_params.flat, 4, 6)
    assert np.array_equal(np.concatenate([v.ravel() for v in views.values()]), small_params.flat)
    back = PolicyParams(small_params.flat.copy(), 16, 4, 6)
    assert np.array_equal(back.flat, small_params.flat)
    assert np.array_equal(back.a_w1, small_params.a_w1)
    with pytest.raises(PolicyError):
        PolicyParams(small_params.flat[:-1], 16, 4, 6)


def test_named_arrays_are_views_of_flat(small_params):
    offset = 0
    for name, shape in param_shapes(4, 6).items():
        arr = getattr(small_params, name)
        assert arr.shape == shape and arr.base is not None
        assert np.shares_memory(arr, small_params.flat)
        assert np.array_equal(arr.ravel(), small_params.flat[offset : offset + arr.size])
        offset += arr.size
    assert offset == small_params.flat.size


def test_writing_through_a_view_raises(small_params):
    with pytest.raises(ValueError, match="read-only"):
        small_params.a_w1[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        small_params.log_std[...] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        small_params.flat[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        small_params.a_w1 = np.zeros_like(small_params.a_w1)


def test_pickle_carries_the_floats_once(spec, styles):
    params = init_params(np.random.default_rng(0), 64, len(styles), spec.joint_count)
    blob = pickle.dumps(params, protocol=pickle.HIGHEST_PROTOCOL)
    # 409,845 bytes with one array per field; a pickled view would add its floats again
    assert len(blob) <= 409_845
    assert len(blob) < params.flat.nbytes + 1024
    back = pickle.loads(blob)
    assert np.array_equal(back.flat, params.flat)
    assert np.shares_memory(back.a_w1, back.flat) and not back.a_w1.flags.writeable
    assert (back.m_points, back.style_count, back.joint_count) == (64, len(styles), spec.joint_count)


GOLDEN_FINGERPRINT = [
    0.015744783221397923,
    0.006126557663521899,
    0.0033231559523389433,
    -6.5,
]
