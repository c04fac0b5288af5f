"""Phase 1 as arrays against the per-episode engine it replaced
(episode_reference), and the row independence it rests on."""

import dataclasses

import numpy as np
import pytest

from conftest import assert_same_results, assert_same_typed_results, bits, poison_cloud_of, with_arrays
from contact_reference import hand_assets
from episode_reference import (
    reference_axis_angle_to_quat,
    reference_batch_obs,
    reference_edit_wrist_arrays,
    reference_run_episodes,
)
from fungrasp import training as tr
from fungrasp.demo import EditBounds, edit_wrist_arrays
from fungrasp.geometry import axis_angle_to_quat
from fungrasp.policy import (
    ObsBatch,
    PolicyError,
    activation_checks,
    init_params,
    observation_checks,
    policy_forward,
    random_obs,
    row_errors,
)
from fungrasp.training import EpisodePool, TrainConfig, collect_batch, episode_rng, run_episodes
from pose_reference import pose

MODES = ("policy", "mean", "random")


@pytest.fixture(scope="module", params=["inspire_like", "shadow_like"])
def hand_setup(request):
    """(assets, cfg, params) of a bundled hand, with action heads scaled
    up from the near-identity initial policy so that edits vary."""
    assets = hand_assets(request.param)
    cfg = TrainConfig(envs_per_iter=96, minibatch=32, m_points=64, seed=23)
    params = init_params(episode_rng(cfg.seed, 4), cfg.m_points, len(assets.styles), assets.spec.joint_count)
    params = with_arrays(params, mean_w=params.mean_w * 40.0, mean_b=0.05)
    return assets, cfg, params


@pytest.mark.parametrize("mode", MODES + ("identity",))
@pytest.mark.parametrize("force_style", [None, 2], ids=["sampled_style", "forced_style"])
def test_chunk_matches_the_per_episode_engine(hand_setup, mode, force_style):
    """Every field of every result, by bytes, against the per-episode
    engine: a chunk of 96, a strided chunk, and chunks of 2 and 1. The
    identity case is random mode under zero-width bounds, whose every
    action is the identity edit."""
    assets, cfg, params = hand_setup
    identity = mode == "identity"
    if identity:
        cfg, mode = dataclasses.replace(cfg, bounds=EditBounds(0.0, 0.0, 0.0, 1.0, 1.0)), "random"
    if mode != "policy":
        cfg = dataclasses.replace(cfg, sigma_style=0.0)     # as evaluate runs them
    kwargs = dict(mode=mode, force_style=force_style)
    key = (1, 7)
    want = reference_run_episodes(params, cfg, assets, cfg.seed, key, range(96), **kwargs)
    assert all(r.error is None for r in want)
    if not identity:
        assert len({r.record.failure_reason for r in want}) > 1
    assert_same_results(tr._results(run_episodes(params, cfg, assets, cfg.seed, key, range(96), **kwargs)), want)
    for chunk in ([5, 90], [41], list(range(3, 96, 7))):
        got = tr._results(run_episodes(params, cfg, assets, cfg.seed, key, chunk, **kwargs))
        assert_same_results(got, [want[i] for i in chunk])


@pytest.mark.parametrize("workers", [1, 2])
def test_ppo_batch_obs_matches_the_batches_of_one(hand_setup, workers):
    """collect_batch's observations, all 7 fields by bytes, against the
    episodes' batches of one glued by concat_obs, with a fresh cloud
    cache in the main process; and with the first episode, the first on
    its object, errored, so that the cloud table starts elsewhere."""
    assets, cfg, params = hand_setup
    (first,) = tr._results(run_episodes(params, cfg, assets, cfg.seed, (tr.STREAM_TRAIN, 0), [0]))
    for skip in ((), (0,)):
        with pytest.MonkeyPatch.context() as mp:
            if skip:
                mp.setattr(tr, "encode_observation", poison_cloud_of(tr.encode_observation, first))
            fresh = dataclasses.replace(assets)
            with EpisodePool(workers, fresh) as pool:
                batch = collect_batch(params, cfg, fresh, 0, pool)
        assert [i for i, r in enumerate(batch.results) if r.error is not None] == list(skip)
        want = reference_batch_obs(params, cfg, assets, 0, skip)
        for f in dataclasses.fields(ObsBatch):
            assert bits(getattr(batch.obs, f.name)) == bits(getattr(want, f.name)), (skip, f.name)


def test_pool_results_match_the_engine_in_this_process(hand_setup):
    """Every field of every result a two-worker pool returns, by type,
    dtype, shape and bytes, against run_episodes over the same indices in
    this process: each mode, sampled and forced styles, a chunk with an
    errored row (no raw, record or terms), and one episode, which leaves
    the second worker without a chunk."""
    assets, cfg, params = hand_setup
    key = (1, 7)
    (third,) = tr._results(run_episodes(params, cfg, assets, cfg.seed, key, [3]))
    with pytest.MonkeyPatch.context() as mp:
        # patched before the pool forks its workers, so that they run it too
        mp.setattr(tr, "encode_observation", poison_cloud_of(tr.encode_observation, third))
        with EpisodePool(2, assets) as pool:
            for mode in MODES:
                for force_style in (None, 2):
                    run_cfg = cfg if mode == "policy" else dataclasses.replace(cfg, sigma_style=0.0)
                    kwargs = dict(mode=mode, force_style=force_style)
                    for n in (24, 1):
                        want = tr._results(run_episodes(params, run_cfg, assets, cfg.seed, key, range(n), **kwargs))
                        assert_same_typed_results(pool.run(params, run_cfg, cfg.seed, key, n, **kwargs), want)
                        if mode == "policy" and n > 1:
                            assert [i for i, r in enumerate(want) if r.error is not None] == [3]
                            assert want[3].raw is None and want[3].record is None and want[3].terms is None


def test_pool_runs_each_call_under_its_own_params(hand_setup):
    """Runs through one pool with different params each return the
    results of their own params: the block a run writes is the one its
    chunks read."""
    assets, cfg, params = hand_setup
    other = with_arrays(params, mean_b=-0.05)
    key = (1, 7)
    with EpisodePool(2, assets) as pool:
        runs = [(p, pool.run(p, cfg, cfg.seed, key, 16)) for p in (params, other, params)]
    for p, got in runs:
        want = tr._results(run_episodes(p, cfg, assets, cfg.seed, key, range(16)))
        assert_same_typed_results(got, want)
    assert all(a.raw.tobytes() != b.raw.tobytes() for a, b in zip(runs[0][1], runs[1][1]))


def test_pool_raises_the_engine_message_when_every_episode_errors(hand_setup):
    assets, cfg, params = hand_setup
    a_w1 = params.a_w1.copy()
    a_w1[0, 0] = np.nan
    broken = with_arrays(params, a_w1=a_w1)
    messages = []
    for workers in (1, 2):
        with EpisodePool(workers, assets) as pool, pytest.raises(PolicyError) as raised:
            pool.run(broken, cfg, cfg.seed, (1, 7), 9)
        messages.append(str(raised.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("all 9 episodes failed; the first: PolicyError: non-finite activations")


def test_pool_raises_the_forward_shape_error_when_params_do_not_fit(hand_setup):
    """Params laid out for another M fit no batch: the forward pass's
    PolicyError, which names the cloud shape, comes out of run itself,
    in this process and from a worker."""
    assets, cfg, params = hand_setup
    other_m = dataclasses.replace(params, m_points=cfg.m_points // 2)
    for workers in (1, 2):
        with EpisodePool(workers, assets) as pool, pytest.raises(PolicyError, match=r"cloud shape \(64, 6\)"):
            pool.run(other_m, cfg, cfg.seed, (1, 7), 9)


def test_edit_wrist_arrays_matches_the_per_episode_composition(demo):
    """Identity offsets, offsets under the first-order threshold and
    ordinary ones, on random object poses."""
    rng = np.random.default_rng(8)
    n = 300
    lo, hi = EditBounds().intervals(6)
    actions = rng.uniform(lo, hi, size=(n, 13))
    actions[::5, 3:6] = 0.0
    actions[1::5, 3:6] *= 1e-9
    actions[2::5, 3:6] *= rng.uniform(0.5, 2.0, size=(len(actions[2::5]), 1)) * 1e-8 / 0.46
    poses = [pose(rng.normal(size=3), axis_angle_to_quat(rng.normal(size=3))) for _ in range(n)]
    pose_t, pose_r = (np.stack(c) for c in zip(*poses))
    got = edit_wrist_arrays(demo, actions, pose_t, pose_r)
    want = reference_edit_wrist_arrays(demo, actions, pose_t, pose_r)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    # and each row alone
    for i in (0, 1, 2, 3, n - 1):
        one = edit_wrist_arrays(demo, actions[i : i + 1], pose_t[i : i + 1], pose_r[i : i + 1])
        assert np.array_equal(one[0][0], got[0][i]) and np.array_equal(one[1][0], got[1][i])


def test_axis_angle_rows_match_one_vector_at_a_time():
    rng = np.random.default_rng(9)
    v = rng.uniform(-1.0, 1.0, size=(2000, 3))
    v[::4] *= 1e-9
    v[1::4] = 0.0
    rows = axis_angle_to_quat(v)
    for x, q in zip(v, rows):
        assert np.array_equal(reference_axis_angle_to_quat(x), q)
        assert np.array_equal(axis_angle_to_quat(x), q)


# ---------------------------------------------------------------------------
# the row-alone forward pass
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def forward_setup():
    params = init_params(np.random.default_rng(1), m_points=16, style_count=4, joint_count=6)
    params = with_arrays(params, mean_w=params.mean_w * 30.0, v_w3=params.v_w3 * 30.0)
    base = random_obs(np.random.default_rng(2), 7, 16, 4)
    rng = np.random.default_rng(3)
    batch = base[rng.integers(7, size=257)]
    batch = dataclasses.replace(batch, s_r=batch.s_r + rng.normal(scale=0.1, size=batch.s_r.shape))
    return params, batch


def test_row_alone_forward_does_not_depend_on_its_batch(forward_setup):
    """A row gets the bits of its batch of one (the B=1 policy_forward)
    alone, in two rows and in 257 rows."""
    params, batch = forward_setup
    mean, log_std, value, _ = policy_forward(params, batch, row_alone=True)
    for row in (0, 1, 63, 64, 255, 256):
        m1, ls1, v1, _ = policy_forward(params, batch[np.array([row])])
        m_alone, _, v_alone, _ = policy_forward(params, batch[np.array([row])], row_alone=True)
        two = batch[np.array([row, (row + 7) % 257])]
        m2, _, v2, _ = policy_forward(params, two, row_alone=True)
        assert np.array_equal(m1[0], mean[row]) and np.array_equal(m_alone[0], mean[row])
        assert np.array_equal(m2[0], mean[row])
        assert v1[0] == value[row] == v_alone[0] == v2[0]
        assert np.array_equal(ls1, log_std)


def test_nan_row_errors_alone(hand_setup):
    """A NaN in one row's observation errors that episode alone, with the
    message it gets in a chunk of one; every other row keeps its bits."""
    assets, cfg, params = hand_setup
    key = (1, 3)
    reference = tr._results(run_episodes(params, cfg, assets, cfg.seed, key, range(12)))
    real = tr.encode_observation

    def poisoned(objs, pose_t, *args):
        obs = real(objs, pose_t, *args)
        s_o = obs.s_o.copy()
        for k, t in enumerate(pose_t):
            if np.array_equal(t, reference[4].pose_t):
                s_o[k, 2] = np.nan
        return dataclasses.replace(obs, s_o=s_o)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tr, "encode_observation", poisoned)
        got = tr._results(run_episodes(params, cfg, assets, cfg.seed, key, range(12)))
        (alone,) = tr._results(run_episodes(params, cfg, assets, cfg.seed, key, [4]))
    assert got[4].error == alone.error == "PolicyError: non-finite observation field s_o"
    assert got[4].record is None and got[4].raw is None
    assert_same_results(got[:4] + got[5:], reference[:4] + reference[5:])


def test_row_errors_keep_the_batch_of_one_order(forward_setup):
    """row_errors gives each row the first message a batch of one of it
    meets: the observation fields first, then the activations, whose
    message is the one the B=1 policy_forward raises."""
    params, batch = forward_setup
    batch = batch[np.arange(6)]
    s_r, l_style, obj_bb = batch.s_r.copy(), batch.l_style.copy(), batch.obj_bb.copy()
    s_r[1, 0] = np.inf
    l_style[1, 0] = np.nan                    # s_r is checked first
    l_style[3, 0] = np.nan
    obj_bb[5, 0] = np.inf                     # not an observation check: the trunk meets it
    batch = dataclasses.replace(batch, s_r=s_r, l_style=l_style, obj_bb=obj_bb)
    with np.errstate(invalid="ignore"):
        mean, _, value, cache = policy_forward(params, batch, check=False, row_alone=True)
        errors = row_errors(observation_checks(batch) + activation_checks(mean, value, cache), batch.size)
        with pytest.raises(PolicyError) as alone:
            policy_forward(params, batch[np.array([5])])
    assert errors == [None, "non-finite observation field s_r", None, "non-finite observation field l_style",
                      None, str(alone.value)]
    assert str(alone.value).startswith("non-finite activations in")
    for i in (0, 2, 4):
        policy_forward(params, batch[np.array([i])])
