import dataclasses
import json

import numpy as np
import pytest

from fungrasp.policy import init_params, flatten_params
from fungrasp.rewards import total_reward
from fungrasp.training import (
    OUTCOMES,
    AdamState,
    Batch,
    EpisodePool,
    TrainConfig,
    adam_step,
    clipped_surrogate,
    collect_batch,
    config_from_dict,
    config_to_dict,
    episode_rng,
    outcome_counts,
    ppo_update,
    run_bandit,
    run_episode,
    train,
)


@pytest.fixture(scope="module")
def tiny_cfg():
    return TrainConfig(envs_per_iter=8, minibatch=4, epochs=2, iterations=2,
                       m_points=32, seed=17, learning_rate=1e-3)


@pytest.fixture(scope="module")
def tiny_params(assets, tiny_cfg):
    return init_params(episode_rng(tiny_cfg.seed, 4), tiny_cfg.m_points,
                       len(assets.styles), assets.spec.joint_count)


def test_single_episode_deterministic(assets, tiny_cfg, tiny_params):
    a = run_episode(tiny_params, tiny_cfg, assets, {}, 17, (1, 0), 0, train_mode=True)
    b = run_episode(tiny_params, tiny_cfg, assets, {}, 17, (1, 0), 0, train_mode=True)
    assert a.object_name == b.object_name
    assert np.array_equal(a.raw, b.raw)
    assert a.log_prob == b.log_prob
    assert a.reward == b.reward
    assert np.array_equal(a.record.d_series, b.record.d_series)


def test_batch_reward_matches_reward_engine(assets, tiny_cfg, tiny_params):
    batch = collect_batch(tiny_params, tiny_cfg, assets, 0)
    for res in batch.results:
        if res.record is None:
            continue
        terms = total_reward(res.record, tiny_cfg.reward)
        assert res.reward == pytest.approx(terms.total, abs=1e-12)


def test_advantage_normalization(assets, tiny_cfg, tiny_params):
    batch = collect_batch(tiny_params, tiny_cfg, assets, 0)
    assert batch.advantages.mean() == pytest.approx(0.0, abs=1e-9)
    assert batch.advantages.std() == pytest.approx(1.0, abs=1e-6) or batch.rewards.std() < 1e-12
    assert np.allclose(
        batch.advantages * (batch.rewards - batch.values_old).std() + 0,
        (batch.rewards - batch.values_old) - (batch.rewards - batch.values_old).mean(),
        atol=1e-6,
    )


def test_collect_worker_determinism(assets, tiny_cfg, tiny_params):
    serial = collect_batch(tiny_params, tiny_cfg, assets, 3)
    with EpisodePool(2, assets) as pool:
        parallel = collect_batch(tiny_params, tiny_cfg, assets, 3, pool)
    assert np.array_equal(serial.raw, parallel.raw)
    assert np.array_equal(serial.rewards, parallel.rewards)
    assert np.array_equal(serial.log_prob_old, parallel.log_prob_old)
    assert np.array_equal(serial.advantages, parallel.advantages)


def test_clipped_surrogate_hand_computed():
    eps = 0.2
    # at the clip boundary, both branches agree
    s, coef = clipped_surrogate(np.array([1.2]), np.array([2.0]), eps)
    assert s[0] == pytest.approx(min(1.2 * 2.0, 1.2 * 2.0))
    # beyond the boundary with positive advantage: clipped branch wins
    s, coef = clipped_surrogate(np.array([1.5]), np.array([2.0]), eps)
    assert s[0] == pytest.approx(1.2 * 2.0)
    assert coef[0] == 0.0  # gradient blocked
    # negative advantage, ratio above band: unclipped is the min, grad flows
    s, coef = clipped_surrogate(np.array([1.5]), np.array([-2.0]), eps)
    assert s[0] == pytest.approx(1.5 * -2.0)
    assert coef[0] == pytest.approx(1.5 * -2.0)
    # inside the band both agree and gradient flows
    s, coef = clipped_surrogate(np.array([1.1]), np.array([3.0]), eps)
    assert s[0] == pytest.approx(1.1 * 3.0)
    assert coef[0] == pytest.approx(1.1 * 3.0)


def test_surrogate_never_exceeds_clip_bound(assets, tiny_cfg):
    rng = np.random.default_rng(0)
    ratio = np.exp(rng.normal(size=1000))
    adv = rng.normal(size=1000)
    s, _ = clipped_surrogate(ratio, adv, 0.2)
    pos = adv > 0
    assert np.all(s[pos] <= np.clip(ratio[pos], 0.8, 1.2) * adv[pos] + 1e-12)


def test_zero_advantage_only_moves_value_and_logstd(assets, tiny_cfg, tiny_params):
    batch = collect_batch(tiny_params, tiny_cfg, assets, 1)
    batch.advantages[:] = 0.0
    params2, _, _ = ppo_update(tiny_params, batch, tiny_cfg, AdamState.init(tiny_params),
                               episode_rng(0, 3, 0))
    assert np.array_equal(params2.mean_w, tiny_params.mean_w)
    assert np.array_equal(params2.a_w1, tiny_params.a_w1)
    assert not np.array_equal(params2.v_w1, tiny_params.v_w1)
    assert not np.array_equal(params2.log_std, tiny_params.log_std)


def test_ppo_update_deterministic(assets, tiny_cfg, tiny_params):
    batch = collect_batch(tiny_params, tiny_cfg, assets, 2)
    a, _, _ = ppo_update(tiny_params, batch, tiny_cfg, AdamState.init(tiny_params), episode_rng(0, 3, 1))
    b, _, _ = ppo_update(tiny_params, batch, tiny_cfg, AdamState.init(tiny_params), episode_rng(0, 3, 1))
    assert np.array_equal(flatten_params(a), flatten_params(b))


def test_ppo_update_aborts_on_nonfinite(assets, tiny_cfg, tiny_params):
    batch = collect_batch(tiny_params, tiny_cfg, assets, 0)
    batch.advantages[0] = np.nan
    params2, _, stats = ppo_update(tiny_params, batch, tiny_cfg, AdamState.init(tiny_params),
                                   episode_rng(0, 3, 2))
    assert "aborted" in stats
    assert np.array_equal(flatten_params(params2), flatten_params(tiny_params))


def test_ppo_update_restores_on_nonfinite_activations(assets, tiny_cfg, tiny_params):
    from dataclasses import replace

    batch = collect_batch(tiny_params, tiny_cfg, assets, 0)
    a_w1 = tiny_params.a_w1.copy()
    a_w1[0, 0] = np.nan
    broken = replace(tiny_params, a_w1=a_w1)
    adam = AdamState.init(broken)
    params2, adam2, stats = ppo_update(broken, batch, tiny_cfg, adam, episode_rng(0, 3, 2))
    assert "non-finite activations" in stats["aborted"]
    assert params2 is broken and adam2 is adam


def test_adam_zero_gradient_is_noop(tiny_params):
    from fungrasp.policy import zeros_like_params

    state = AdamState.init(tiny_params)
    new, state2 = adam_step(tiny_params, zeros_like_params(tiny_params), state, 1e-3)
    assert np.array_equal(flatten_params(new), flatten_params(tiny_params))
    assert state2.step == 1


def test_train_writes_metrics_and_checkpoint(assets, tmp_path):
    cfg = TrainConfig(envs_per_iter=8, minibatch=8, epochs=1, iterations=3,
                      m_points=32, seed=23)
    out = train(cfg, assets, tmp_path / "run")
    lines = [json.loads(l) for l in out["metrics_path"].read_text().splitlines()]
    assert len(lines) == 3
    assert all(np.isfinite(l["mean_reward"]) for l in lines)
    assert all(l["kind"] == "train" for l in lines)
    for line in lines:
        assert tuple(line["outcomes"]) == OUTCOMES
        assert sum(line["outcomes"].values()) == cfg.envs_per_iter
        assert line["outcomes"]["error"] == line["episode_errors"]
        assert line["outcomes"]["ok"] == round(line["gsr"] * cfg.envs_per_iter)
    assert out["checkpoint_path"].exists()
    from fungrasp.dataio import load_checkpoint

    params, meta = load_checkpoint(out["checkpoint_path"], expect_hand=assets.spec.name)
    assert meta["iteration"] == 3


def test_config_round_trip():
    cfg = TrainConfig(seed=9, envs_per_iter=32, minibatch=16)
    back = config_from_dict(config_to_dict(cfg))
    assert back == cfg


@pytest.mark.parametrize("field, value", [("iterations", -3), ("workers", 0)])
def test_train_config_rejects_out_of_range(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})


def test_m_points_beyond_the_smallest_cloud_fails_before_any_episode(assets, tmp_path, monkeypatch):
    import fungrasp.training as tr
    from fungrasp.evaluation import evaluate

    smallest = min(len(o.points) for o in assets.objects)
    cfg = TrainConfig(envs_per_iter=8, minibatch=8, iterations=1, m_points=smallest + 1, seed=3)

    def no_episodes(*a, **k):
        raise AssertionError("an episode ran")

    monkeypatch.setattr(tr, "run_episodes", no_episodes)
    with pytest.raises(ValueError, match="m_points"):
        train(cfg, assets, tmp_path / "run")
    params = init_params(episode_rng(3, 4), cfg.m_points, len(assets.styles), assets.spec.joint_count)
    with pytest.raises(ValueError, match="m_points"):
        evaluate(params, cfg, assets, 4, seed=3)
    assert not (tmp_path / "run").exists()


def test_outcome_counts_cover_every_result(assets, tiny_cfg, tiny_params):
    batch = collect_batch(tiny_params, tiny_cfg, assets, 0)
    broken = dataclasses.replace(batch.results[0], record=None, error="synthetic")
    degenerate = dataclasses.replace(
        batch.results[1],
        record=dataclasses.replace(batch.results[1].record, success=False,
                                   failure_reason="degenerate_contacts: non-finite contact geometry"),
    )
    counts = outcome_counts([broken, degenerate, *batch.results[2:]])
    assert tuple(counts) == OUTCOMES
    assert counts["error"] == 1 and counts["degenerate"] >= 1
    assert sum(counts.values()) == len(batch.results)


def test_episode_error_becomes_zero_reward(assets, tiny_cfg, tiny_params, monkeypatch):
    import fungrasp.training as tr

    def boom(*a, **k):
        raise RuntimeError("synthetic geometry failure")

    monkeypatch.setattr(tr, "rollout_batch", boom)
    res = tr.run_episode(tiny_params, tiny_cfg, assets, {}, 17, (1, 0), 0, train_mode=True)
    assert res.error is not None
    assert res.reward == 0.0
    assert res.record is None
    assert np.all(np.isfinite(res.raw))


def test_batched_rollout_failure_is_contained(assets, tiny_cfg, tiny_params, monkeypatch):
    """When a batched rollout raises, the chunk is rerun one episode at a
    time and only the episode that raises becomes an error."""
    import fungrasp.training as tr
    from fungrasp.geometry import transform_point

    def run(indices):
        return tr.run_episodes(tiny_params, tiny_cfg, assets, {}, 17, (1, 0), indices, train_mode=True)

    reference = run(range(6))
    poisoned = reference[2].p_afford_world
    real = tr.rollout_batch

    def fragile(envs, *args):
        if any(np.array_equal(transform_point(e.object_pose, e.condition.p_afford), poisoned) for e in envs):
            raise RuntimeError("synthetic geometry failure")
        return real(envs, *args)

    monkeypatch.setattr(tr, "rollout_batch", fragile)
    got = run(range(6))
    assert [r.index for r in got] == list(range(6))
    assert got[2].error is not None and got[2].record is None and got[2].reward == 0.0
    for want, res in zip(reference[:2] + reference[3:], got[:2] + got[3:]):
        assert res.error is None
        assert res.reward == want.reward and res.log_prob == want.log_prob
        assert np.array_equal(res.raw, want.raw)
        assert np.array_equal(res.record.d_series, want.record.d_series)


def test_engine_chunking_does_not_change_results(assets, tiny_cfg, tiny_params):
    import fungrasp.training as tr

    def run(indices):
        return tr.run_episodes(tiny_params, tiny_cfg, assets, {}, 17, (1, 0), indices, train_mode=True)

    whole = run(range(8))
    split = run([5, 1, 7]) + run([0, 2, 3, 4, 6])
    by_index = {r.index: r for r in split}
    for r in whole:
        other = by_index[r.index]
        assert r.reward == other.reward and r.log_prob == other.log_prob
        assert np.array_equal(r.record.d_series, other.record.d_series)
        assert r.record.failure_reason == other.record.failure_reason


def test_pool_worker_keeps_its_fps_cache(assets, tiny_cfg, tiny_params, monkeypatch):
    import fungrasp.policy as policy
    import fungrasp.training as tr

    calls = []
    real = policy.farthest_point_sample

    def counted(*args):
        calls.append(args[1:])
        return real(*args)

    monkeypatch.setattr(policy, "farthest_point_sample", counted)
    monkeypatch.setattr(tr, "_WORKER_ASSETS", assets)
    monkeypatch.setattr(tr, "_WORKER_FPS_CACHE", {})
    task = (tiny_params, tiny_cfg, 17, (1, 0), list(range(8)), True, "policy")
    first = tr._pool_chunk(task)
    n_first = len(calls)
    second = tr._pool_chunk(task)
    assert n_first == len({r.object_name for r in first}) and len(calls) == n_first
    assert [r.reward for r in first] == [r.reward for r in second]


def test_pin_blas_threads_sets_one_thread():
    import subprocess
    import sys

    code = (
        "import ctypes, logging\n"
        "logging.basicConfig(level=logging.DEBUG)\n"
        "from fungrasp.training import _pin_blas_threads\n"
        "_pin_blas_threads(1)\n"
        "libs = {l.split()[-1] for l in open('/proc/self/maps') if 'openblas' in l.lower() and '/' in l}\n"
        "get = [getattr(ctypes.CDLL(p), 'scipy_openblas_get_num_threads64_', None) for p in libs]\n"
        "get = [g for g in get if g is not None]\n"
        "print(get[0]() if get else 'absent')\n"
    )
    import os
    from pathlib import Path

    import fungrasp

    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": str(Path(fungrasp.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() in ("1", "absent"), out.stderr


def test_bandit_learns_fast():
    hist = run_bandit(seed=3, iterations=40)
    assert hist[-1] > hist[0] + 0.1
    assert max(hist) > -0.1


def test_one_step_contract(assets, tiny_cfg, tiny_params):
    # advantage is exactly reward - value_old before normalization
    batch = collect_batch(tiny_params, tiny_cfg, assets, 5)
    raw_adv = batch.rewards - batch.values_old
    normalized = (raw_adv - raw_adv.mean()) / (raw_adv.std() + 1e-8)
    assert np.allclose(batch.advantages, normalized, atol=1e-12)
