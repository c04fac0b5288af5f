import dataclasses
import json
import os
import pickle
import shutil
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fungrasp import training as tr
from fungrasp.policy import PolicyError, init_params
from fungrasp.rewards import total_reward
from episode_reference import reference_reward_terms
from fungrasp.training import (
    COUNT_MAX,
    OUTCOMES,
    AdamState,
    EpisodePool,
    TrainConfig,
    adam_step,
    clipped_surrogate,
    collect_batch,
    config_from_dict,
    episode_rng,
    episode_rngs,
    load_objects,
    outcome_counts,
    ppo_update,
    run_episodes,
    train,
)

from bandit_reference import run_bandit
from conftest import bits, poison_cloud_of, with_arrays
from contact_reference import hand_assets
from update_reference import reference_adam_step, reference_ppo_update


@pytest.fixture(scope="module")
def tiny_cfg():
    return TrainConfig(envs_per_iter=8, minibatch=4, epochs=2, iterations=2,
                       m_points=32, seed=17, learning_rate=1e-3)


@pytest.fixture(scope="module")
def tiny_params(assets, tiny_cfg):
    return init_params(episode_rng(tiny_cfg.seed, 4), tiny_cfg.m_points,
                       len(assets.styles), assets.spec.joint_count)


def test_single_episode_deterministic(assets, tiny_cfg, tiny_params):
    (a,) = tr._results(run_episodes(tiny_params, tiny_cfg, assets, 17, (1, 0), [0]))
    (b,) = tr._results(run_episodes(tiny_params, tiny_cfg, assets, 17, (1, 0), [0]))
    assert a.object_name == b.object_name
    assert np.array_equal(a.raw, b.raw)
    assert a.log_prob == b.log_prob
    assert a.reward == b.reward
    assert a.record.d_final == b.record.d_final and a.record.d_min == b.record.d_min


def test_batch_reward_matches_reward_engine(assets, tiny_cfg, tiny_params):
    """Each result's terms are its row of total_reward over the batch's
    records, and the per-episode reference terms, by bytes."""
    batch = collect_batch(tiny_params, tiny_cfg, assets, 0)
    objects = {o.name: o for o in assets.objects}
    ran = [res for res in batch.results if res.record is not None]
    q_style = np.stack([assets.styles[res.conditioned_style].q_canonical for res in ran])
    obj_bb = [objects[res.object_name].obj_bb for res in ran]
    table = total_reward([r.record.success for r in ran], [r.record.d_final for r in ran],
                         [r.record.d_min for r in ran], [r.record.q_final for r in ran], q_style, obj_bb,
                         tiny_cfg.reward)
    for res, row, q, bb in zip(ran, table, q_style, obj_bb):
        assert res.terms.tobytes() == row.tobytes() == reference_reward_terms(res.record, bb, q, tiny_cfg.reward).tobytes()
        assert res.reward == row[-1]


def _values_old(batch) -> np.ndarray:
    """The value each PPO batch row was collected with."""
    return np.array([r.value for r in batch.results if r.error is None])


def test_advantage_normalization(assets, tiny_cfg, tiny_params):
    batch = collect_batch(tiny_params, tiny_cfg, assets, 0)
    assert batch.advantages.mean() == pytest.approx(0.0, abs=1e-9)
    assert batch.advantages.std() == pytest.approx(1.0, abs=1e-6) or batch.rewards.std() < 1e-12
    raw_adv = batch.rewards - _values_old(batch)
    assert np.allclose(batch.advantages * raw_adv.std() + 0, raw_adv - raw_adv.mean(), atol=1e-6)


def test_collect_worker_determinism(assets, tiny_cfg, tiny_params):
    serial = collect_batch(tiny_params, tiny_cfg, assets, 3)
    with EpisodePool(2, assets) as pool:
        parallel = collect_batch(tiny_params, tiny_cfg, assets, 3, pool)
    assert np.array_equal(serial.raw, parallel.raw)
    assert np.array_equal(serial.rewards, parallel.rewards)
    assert np.array_equal(serial.log_prob_old, parallel.log_prob_old)
    assert np.array_equal(serial.advantages, parallel.advantages)
    # the batch is encoded once in the main process: one cloud per object
    objects = sorted({r.object_name for r in serial.results})
    for batch in (serial, parallel):
        assert len(batch.obs.clouds) == len(objects)
        assert np.array_equal(batch.obs.clouds[batch.obs.cloud_index], serial.obs.clouds[serial.obs.cloud_index])


def test_chunk_pickle_carries_no_observation():
    """A pool chunk's results, pickled as the columns a worker returns,
    hold no cloud: a 48-episode inspire_like chunk (the share of one of
    two workers of a 96-episode batch) stays under 850 B per episode."""
    assets = hand_assets("inspire_like")
    cfg = TrainConfig(envs_per_iter=96, minibatch=32, m_points=64, seed=2026)
    params = init_params(episode_rng(cfg.seed, 4), cfg.m_points, len(assets.styles), assets.spec.joint_count)
    columns = run_episodes(params, cfg, assets, cfg.seed, (1, 0), range(0, 96, 2))
    errors = columns[0][-1]
    assert errors == [None] * 48
    blob = pickle.dumps(columns, protocol=pickle.HIGHEST_PROTOCOL)
    assert not any(c.tobytes() in blob for c in assets.cloud_cache.values())
    assert len(blob) / len(errors) <= 850


def test_pool_tasks_carry_no_params(assets, tiny_cfg, tiny_params):
    """A pool run writes its params into the shared block; what it submits
    per task is a small fraction of one params vector."""
    sizes = []
    with EpisodePool(2, assets) as pool:
        submit = pool._ex.submit

        def spy(fn, *args):
            sizes.append(len(pickle.dumps(args, protocol=pickle.HIGHEST_PROTOCOL)))
            return submit(fn, *args)

        pool._ex.submit = spy
        pool.run(tiny_params, tiny_cfg, 17, (1, 0), 8)
    assert len(sizes) == 2 and max(sizes) < tiny_params.flat.nbytes / 20


def test_pool_leaves_no_process_and_closes_its_block(assets, tiny_cfg, tiny_params):
    """Leaving a two-worker pool, normally or by an exception, joins its
    workers and closes its params block."""
    import multiprocessing

    for fail in (False, True):
        with pytest.raises(RuntimeError, match="inside the pool") if fail else nullcontext():
            with EpisodePool(2, assets) as pool:
                pool.run(tiny_params, tiny_cfg, 17, (1, 0), 4)
                assert len(multiprocessing.active_children()) == min(2, os.cpu_count() or 1)
                assert not pool._block.closed
                if fail:
                    raise RuntimeError("inside the pool")
        assert multiprocessing.active_children() == [] and pool._block.closed


def test_pool_forks_at_most_one_process_per_cpu(assets, monkeypatch):
    """A pool of more workers than CPUs sizes its executor at the CPU
    count. The pool is only built, never run, so nothing forks."""
    import multiprocessing

    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    with EpisodePool(64, assets) as pool:
        assert pool.workers == 64 and pool._ex._max_workers == 3
        assert multiprocessing.active_children() == []


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
    assert np.array_equal(a.flat, b.flat)


def test_ppo_update_aborts_on_nonfinite(assets, tiny_cfg, tiny_params):
    batch = collect_batch(tiny_params, tiny_cfg, assets, 0)
    batch.advantages[0] = np.nan
    params2, _, stats = ppo_update(tiny_params, batch, tiny_cfg, AdamState.init(tiny_params),
                                   episode_rng(0, 3, 2))
    assert "aborted" in stats
    assert np.array_equal(params2.flat, tiny_params.flat)


def test_ppo_update_restores_on_nonfinite_activations(assets, tiny_cfg, tiny_params):
    batch = collect_batch(tiny_params, tiny_cfg, assets, 0)
    a_w1 = tiny_params.a_w1.copy()
    a_w1[0, 0] = np.nan
    broken = with_arrays(tiny_params, a_w1=a_w1)
    adam = AdamState.init(broken)
    params2, adam2, stats = ppo_update(broken, batch, tiny_cfg, adam, episode_rng(0, 3, 2))
    assert "non-finite activations" in stats["aborted"]
    assert params2 is broken and adam2 is adam


def test_adam_zero_gradient_is_noop(tiny_params):
    flat = tiny_params.flat.copy()
    state = AdamState.init(tiny_params)
    adam_step(flat, np.zeros_like(flat), state, 1e-3, (np.empty_like(flat), np.empty_like(flat)))
    assert np.array_equal(flat, tiny_params.flat)
    assert state.step == 1 and not state.m.any() and not state.v.any()


def test_adam_step_matches_the_allocating_reference(tiny_params):
    """Five in-place steps, into NaN-filled scratch, give the bytes of
    the allocating step's params and moments."""
    rng = np.random.default_rng(5)
    want_params, want = tiny_params, AdamState.init(tiny_params)
    flat, state = tiny_params.flat.copy(), AdamState.init(tiny_params)
    scratch = (np.full_like(flat, np.nan), np.full_like(flat, np.nan))
    for k in range(5):
        grads = rng.normal(size=flat.size) * 10.0 ** rng.integers(-6, 2, flat.size)
        want_params, want = reference_adam_step(want_params, grads, want, 3e-4)
        adam_step(flat, grads, state, 3e-4, scratch)
        assert flat.tobytes() == want_params.flat.tobytes()
        assert state.m.tobytes() == want.m.tobytes() and state.v.tobytes() == want.v.tobytes()
        assert state.step == want.step == k + 1


@pytest.mark.parametrize("size", ["tiny", "96"])
def test_ppo_update_matches_the_allocating_reference(assets, tiny_cfg, tiny_params, size):
    """Two consecutive updates give the reference's params, moments,
    step and stats; the params and state passed in are never written,
    and the returned vector is read-only."""
    cfg, params = tiny_cfg, tiny_params
    if size == "96":
        cfg = TrainConfig(envs_per_iter=96, minibatch=32, epochs=6, learning_rate=1e-3, entropy_coef=5e-4,
                          m_points=64, seed=2026, init_log_std=-2.0)
        params = init_params(episode_rng(cfg.seed, 4), cfg.m_points, len(assets.styles),
                             assets.spec.joint_count, cfg.init_log_std)
    adam = want_adam = AdamState.init(params)
    want_params = params
    for it in range(2):
        batch = collect_batch(params, cfg, assets, it)
        incoming = (params.flat.tobytes(), adam.m.tobytes(), adam.v.tobytes(), adam.step)
        got = ppo_update(params, batch, cfg, adam, episode_rng(cfg.seed, 3, it))
        want = reference_ppo_update(want_params, batch, cfg, want_adam, episode_rng(cfg.seed, 3, it))
        assert "aborted" not in got[2] and got[2] == want[2]
        assert got[0].flat.tobytes() == want[0].flat.tobytes()
        assert got[1].m.tobytes() == want[1].m.tobytes() and got[1].v.tobytes() == want[1].v.tobytes()
        assert got[1].step == want[1].step == adam.step + cfg.epochs * -(-len(batch.raw) // cfg.minibatch)
        assert (params.flat.tobytes(), adam.m.tobytes(), adam.v.tobytes(), adam.step) == incoming
        assert got[0] is not params and got[1] is not adam
        assert not got[0].flat.flags.writeable
        with pytest.raises(ValueError):
            got[0].flat[0] = 0.0
        params, adam, _ = got
        want_params, want_adam, _ = want


def test_ppo_update_abort_after_in_place_steps_returns_the_incoming_state(assets, tiny_cfg, tiny_params,
                                                                         monkeypatch):
    """A non-finite loss in the last minibatch of the first epoch aborts
    after Adam has stepped the private buffers in place: the incoming
    params and state come back unwritten, as the reference returns them."""

    params, adam, _ = ppo_update(tiny_params, collect_batch(tiny_params, tiny_cfg, assets, 0), tiny_cfg,
                                 AdamState.init(tiny_params), episode_rng(0, 3, 0))
    batch = collect_batch(params, tiny_cfg, assets, 1)
    order = np.arange(len(batch.raw))
    episode_rng(0, 3, 1).shuffle(order)
    batch.advantages[order[-1]] = np.nan        # in the first epoch's last minibatch
    steps = []
    monkeypatch.setattr(tr, "adam_step", lambda *a, **k: steps.append(a[2].step) or adam_step(*a, **k))
    incoming = (params.flat.tobytes(), adam.m.tobytes(), adam.v.tobytes(), adam.step)
    got = ppo_update(params, batch, tiny_cfg, adam, episode_rng(0, 3, 1))
    want = reference_ppo_update(params, batch, tiny_cfg, adam, episode_rng(0, 3, 1))
    assert steps == [adam.step]                 # one in-place step ran before the abort
    assert got[0] is params and got[1] is adam
    assert got[2] == want[2] and "non-finite loss" in got[2]["aborted"]
    assert (params.flat.tobytes(), adam.m.tobytes(), adam.v.tobytes(), adam.step) == incoming


@pytest.mark.parametrize("periodic", [{}, {"eval_every": 2, "checkpoint_every": 2, "eval_episodes": 6}],
                         ids=["final_only", "periodic"])
def test_train_writes_metrics_and_checkpoint(assets, tmp_path, monkeypatch, periodic):
    import fungrasp.dataio as dataio

    saved = []
    real_save = dataio.save_checkpoint

    def recording_save(params, meta, path):
        saved.append(meta["iteration"])
        real_save(params, meta, path)

    monkeypatch.setattr(dataio, "save_checkpoint", recording_save)
    cfg = TrainConfig(envs_per_iter=8, minibatch=8, epochs=1, iterations=3,
                      m_points=32, seed=23, **periodic)
    out = train(cfg, assets, tmp_path / "run")
    lines = [json.loads(l) for l in out["metrics_path"].read_text().splitlines()]
    kinds = [(l["kind"], l["iteration"]) for l in lines]
    if periodic:
        # eval after every second iteration; a checkpoint then too, and one at the end
        assert kinds == [("train", 0), ("train", 1), ("eval", 1), ("train", 2)]
        assert saved == [2, 3]
    else:
        assert kinds == [("train", 0), ("train", 1), ("train", 2)]
        assert saved == [3]
    for line in lines:
        n = cfg.envs_per_iter if line["kind"] == "train" else cfg.eval_episodes
        assert tuple(line["outcomes"]) == OUTCOMES
        assert sum(line["outcomes"].values()) == n
        if line["kind"] == "train":
            assert np.isfinite(line["mean_reward"])
            assert line["log_std"]["min"] <= line["log_std"]["mean"] <= line["log_std"]["max"]
            terms = line["reward_terms"]
            assert list(terms) == ["r_afford", "r_close", "r_qpos", "r_success", "total"]
            assert terms["total"] == pytest.approx(line["mean_reward"], abs=1e-12)
            assert terms["r_success"] == pytest.approx(line["gsr"], abs=1e-12)
            assert line["outcomes"]["error"] == line["episode_errors"]
            assert line["outcomes"]["ok"] == round(line["gsr"] * n)
        else:
            assert line["n_episodes"] == n and line["outcomes"]["ok"] == line["n_success"]
            assert line["reward_terms"]["r_success"] == pytest.approx(line["gsr"], abs=1e-12)
        assert line["errors"] == {}
    assert out["checkpoint_path"].exists()
    params, meta = dataio.load_checkpoint(out["checkpoint_path"], expect_hand=assets.spec.name)
    assert meta["iteration"] == 3
    if periodic:
        pooled = train(dataclasses.replace(cfg, workers=2), assets, tmp_path / "run_w2")
        assert pooled["metrics_path"].read_bytes() == out["metrics_path"].read_bytes()


def test_load_objects_directory_and_bundled_default(tmp_path, objects):
    from fungrasp.assets import default_objects_dir

    for name in ("mug", "box"):
        shutil.copy(default_objects_dir() / f"{name}.ply", tmp_path)
    (tmp_path / "notes.txt").write_text("not a cloud")
    loaded = load_objects(tmp_path)
    assert [o.name for o in loaded] == ["box", "mug"]
    assert np.array_equal(loaded[1].points, objects["mug"].points)
    default, bundled = load_objects(None), load_objects(default_objects_dir())
    assert [o.name for o in default] == [o.name for o in bundled] == sorted(objects)
    assert bits([(o.points, o.normals) for o in default]) == bits([(o.points, o.normals) for o in bundled])
    (tmp_path / "empty").mkdir()
    with pytest.raises(FileNotFoundError, match="no .ply objects"):
        load_objects(tmp_path / "empty")


def test_config_round_trip():
    cfg = TrainConfig(seed=9, envs_per_iter=32, minibatch=16)
    back = config_from_dict(dataclasses.asdict(cfg))
    assert back == cfg
    # JSON has one number type: an integer is a valid float value
    assert config_from_dict({"learning_rate": 1, "sim": {"mu": 1}}).sim.mu == 1


@pytest.mark.parametrize("d, named", [
    ({"epochs": True}, "'train.epochs': must be an integer, got True"),
    ({"epochs": 2.0}, "'train.epochs': must be an integer, got 2.0"),
    ({"reward": {"afford_on": 1}}, "'train.reward.afford_on' must be bool, got 1"),
    ({"sim": {"mu": False}}, "'train.sim.mu': must be a finite number, got False"),
    ({"bounds": []}, "'train.bounds' must be an object, got []"),
])
def test_config_from_dict_checks_value_types(d, named):
    with pytest.raises(ValueError) as err:
        config_from_dict(d)
    assert named in str(err.value)


@pytest.mark.parametrize("field, value", [
    ("iterations", -3), ("workers", 0), ("minibatch", 0), ("sigma_style", -0.01),
    ("eval_every", -1), ("checkpoint_every", -1), ("eval_episodes", 0), ("m_points", 0), ("m_points", -1),
    ("epochs", -1), ("seed", -1),
    *((name, COUNT_MAX + 1) for name in ("envs_per_iter", "iterations", "minibatch", "epochs", "m_points", "workers",
                                         "eval_every", "eval_episodes", "checkpoint_every")),
])
def test_train_config_rejects_out_of_range(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})


# key ints of each width SeedSequence reads: 0, and one, two and three uint32 words
KEY_INTS = st.one_of(st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, 2**64 - 1), st.integers(2**64, 2**96))


def assert_seed_sequence_streams(got, prefix, indices):
    """Each generator of got has the bit_generator state and the first
    draws of default_rng(SeedSequence((*prefix, i))) for its index."""
    assert len(got) == len(indices)
    for g, i in zip(got, indices):
        want = np.random.default_rng(np.random.SeedSequence((*prefix, i)))
        assert g.bit_generator.state == want.bit_generator.state, (prefix, i)
        assert g.integers(1000, size=3).tobytes() == want.integers(1000, size=3).tobytes()
        assert g.random(4).tobytes() == want.random(4).tobytes()
        assert g.standard_normal(5).tobytes() == want.standard_normal(5).tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(prefix=st.lists(KEY_INTS, max_size=5), indices=st.lists(KEY_INTS, min_size=1, max_size=6))
def test_episode_rngs_match_numpys_seed_sequence(prefix, indices):
    """The oracle is numpy itself: for keys of 1 to 18 words, below, at and
    above SeedSequence's 4-word pool, and rows of different widths in one
    call, every generator is default_rng(SeedSequence(key))'s."""
    assert_seed_sequence_streams(episode_rngs(prefix, indices), prefix, indices)


@pytest.mark.parametrize("words", range(1, 7))
def test_episode_rngs_cover_each_entropy_width(words):
    """Keys of exactly 1 to 6 one-word ints, each row of the same width;
    episode_rng, the one-key case, gives the same generators."""
    prefix = [3 * w + 1 for w in range(words - 1)]
    indices = [0, 1, 2**31 - 1, 2**32 - 1]
    assert_seed_sequence_streams(episode_rngs(prefix, indices), prefix, indices)
    if words > 1:
        assert_seed_sequence_streams([episode_rng(*prefix, i) for i in indices], prefix, indices)


@pytest.mark.parametrize("prefix, indices", [((-1, 2), [0]), ((3, 2), [4, -5, 6]), ((), [-(2**40)]), ((1, -2**70), [3])])
def test_a_negative_key_raises_seed_sequences_error(prefix, indices):
    with pytest.raises(ValueError) as want:
        [np.random.SeedSequence((*prefix, i)) for i in indices]
    with pytest.raises(ValueError) as got:
        episode_rngs(prefix, indices)
    assert str(got.value) == str(want.value) == "expected non-negative integer"


def test_episode_rngs_of_no_indices_is_empty():
    assert episode_rngs((1, 2), []) == [] and episode_rngs((1, 2), range(0)) == []


def test_m_points_beyond_the_smallest_cloud_fails_before_any_episode(assets, tmp_path, monkeypatch):
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
    broken = dataclasses.replace(batch.results[0], record=None, terms=None, error="synthetic")
    degenerate = dataclasses.replace(
        batch.results[1],
        record=dataclasses.replace(batch.results[1].record, failure_reason="degenerate"),
    )
    counts = outcome_counts([broken, degenerate, *batch.results[2:]])
    assert tuple(counts) == OUTCOMES
    assert counts["error"] == 1 and counts["degenerate"] >= 1
    assert sum(counts.values()) == len(batch.results)


def test_episode_error_becomes_zero_reward(assets, tiny_cfg, tiny_params, monkeypatch):
    """A PolicyError in phase 1 errors that episode alone: it keeps the
    error type and the facts of its reset, gets zero reward, adds no
    sample to the PPO batch, and leaves every other episode unchanged bit
    for bit."""

    def run(indices):
        return tr._results(run_episodes(tiny_params, tiny_cfg, assets, 17, (1, 0), indices))

    # run() draws the same episodes as the batch of iteration 0 (seed 17, stream 1)
    reference = collect_batch(tiny_params, tiny_cfg, assets, 0)
    monkeypatch.setattr(tr, "encode_observation", poison_cloud_of(tr.encode_observation, reference.results[2]))
    got = run(range(6))
    bad = got[2]
    assert bad.error == "PolicyError: non-finite observation field clouds"
    assert bad.reward == 0.0 and bad.record is None and bad.terms is None
    assert bad.raw is None and bad.action_vec is None
    ref = reference.results[2]
    assert bad.object_name == ref.object_name and bad.conditioned_style == ref.conditioned_style
    assert np.array_equal(bad.p_afford, ref.p_afford)
    assert np.array_equal(bad.pose_t, ref.pose_t)
    assert np.array_equal(bad.pose_r, ref.pose_r)
    for want, res in zip(reference.results[:2] + reference.results[3:6], got[:2] + got[3:]):
        assert res.error is None
        assert res.reward == want.reward and res.log_prob == want.log_prob
        assert np.array_equal(res.raw, want.raw)
        assert res.record.d_final == want.record.d_final and res.record.d_min == want.record.d_min
    batch = collect_batch(tiny_params, tiny_cfg, assets, 0)
    assert len(batch.results) == tiny_cfg.envs_per_iter and len(batch.rewards) == len(batch.results) - 1
    assert batch.results[2].error is not None
    assert np.array_equal(batch.raw, np.delete(reference.raw, 2, axis=0))
    assert np.array_equal(batch.rewards, np.delete(reference.rewards, 2))
    assert batch.obs.size == tiny_cfg.envs_per_iter - 1
    keep = np.arange(tiny_cfg.envs_per_iter) != 2
    assert np.array_equal(batch.obs.s_o, reference.obs.s_o[keep])


def test_batched_rollout_failure_is_contained(assets, tiny_cfg, tiny_params, monkeypatch):
    """Only a PolicyError in phase 1 is scored per episode: any other
    exception, from the batched rollout or from phase 1, propagates."""

    def boom(*args):
        raise RuntimeError("synthetic geometry failure")

    monkeypatch.setattr(tr, "rollout_batch", boom)
    with pytest.raises(RuntimeError, match="synthetic geometry failure"):
        tr.run_episodes(tiny_params, tiny_cfg, assets, 17, (1, 0), range(6))
    with pytest.raises(RuntimeError, match="synthetic geometry failure"):
        collect_batch(tiny_params, tiny_cfg, assets, 0)
    monkeypatch.undo()
    monkeypatch.setattr(tr, "encode_observation", boom)
    with pytest.raises(RuntimeError, match="synthetic geometry failure"):
        collect_batch(tiny_params, tiny_cfg, assets, 0)


def test_every_episode_failing_raises(assets, tiny_cfg, tiny_params):
    from fungrasp.evaluation import evaluate

    a_w1 = tiny_params.a_w1.copy()
    a_w1[0, 0] = np.nan
    broken = with_arrays(tiny_params, a_w1=a_w1)
    first = r"all 8 episodes failed; the first: PolicyError: non-finite activations in actor_trunk"
    with pytest.raises(PolicyError, match=first):
        collect_batch(broken, tiny_cfg, assets, 0)
    with EpisodePool(2, assets) as pool:
        with pytest.raises(PolicyError, match=first):
            evaluate(broken, tiny_cfg, assets, 8, seed=1, pool=pool)
        with pytest.raises(PolicyError, match=first):
            evaluate(broken, tiny_cfg, assets, 8, seed=1, pool=pool, exhaustive_styles=True)


def test_engine_chunking_does_not_change_results(assets, tiny_cfg, tiny_params):
    def run(indices):
        return tr._results(run_episodes(tiny_params, tiny_cfg, assets, 17, (1, 0), indices))

    whole = run(range(8))
    split = run([5, 1, 7]) + run([0, 2, 3, 4, 6])
    by_index = {r.index: r for r in split}
    for r in whole:
        other = by_index[r.index]
        assert r.reward == other.reward and r.log_prob == other.log_prob
        assert r.record.d_final == other.record.d_final and r.record.d_min == other.record.d_min
        assert r.record.failure_reason == other.record.failure_reason


def test_pool_worker_keeps_its_fps_cache(assets, tiny_cfg, tiny_params, monkeypatch):
    """FPS runs once per (object, M, seed) per Assets, into the encoded
    cloud the Assets cache; a pool worker's copy of the assets is its
    cache for the worker's lifetime."""
    import fungrasp.policy as policy

    calls = []
    real = policy.farthest_point_sample

    def counted(*args):
        calls.append(args[1:])
        return real(*args)

    monkeypatch.setattr(policy, "farthest_point_sample", counted)
    monkeypatch.setattr(tr, "_WORKER_ASSETS", dataclasses.replace(assets))
    monkeypatch.setattr(tr, "_WORKER_FLAT", tiny_params.flat)
    counts = (tiny_params.m_points, tiny_params.style_count, tiny_params.joint_count)
    task = (counts, tiny_cfg, 17, (1, 0), list(range(8)), "policy", None)
    first = tr._results(tr._pool_chunk(task))
    n_first = len(calls)
    second = tr._results(tr._pool_chunk(task))
    assert n_first == len({r.object_name for r in first}) and len(calls) == n_first
    assert [r.reward for r in first] == [r.reward for r in second]
    cache = tr._WORKER_ASSETS.cloud_cache
    assert sorted(cache) == sorted((name, 32, tiny_cfg.seed) for name in {r.object_name for r in first})
    assert all(not c.flags.writeable for c in cache.values())
    # another Assets bundle starts with an empty cache
    third = tr._results(run_episodes(tiny_params, tiny_cfg, dataclasses.replace(assets), 17, (1, 0), range(8)))
    assert len(calls) == 2 * n_first
    assert [r.reward for r in third] == [r.reward for r in first]


# Run in a fresh interpreter with OPENBLAS_NUM_THREADS=2, after numpy has
# loaded OpenBLAS: blas_threads() reads its thread count (None when no
# OpenBLAS is mapped), and the script prints one JSON object.
_BLAS_PRELUDE = (
    "import ctypes, json\n"
    "import fungrasp.training as tr\n"
    "libs = {l.split()[-1] for l in open('/proc/self/maps') if 'openblas' in l.lower() and '/' in l}\n"
    "gets = [getattr(ctypes.CDLL(p), 'scipy_openblas_get_num_threads64_', None) for p in libs]\n"
    "gets = [g for g in gets if g is not None]\n"
    "def blas_threads():\n"
    "    return gets[0]() if gets else None\n"
)


def _run_with_two_blas_threads(code: str) -> dict:
    import os
    import subprocess
    import sys
    from pathlib import Path

    import fungrasp

    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": str(Path(fungrasp.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", _BLAS_PRELUDE + code], capture_output=True, text=True, check=True, env=env, timeout=120,
    )
    seen = json.loads(out.stdout.strip().splitlines()[-1])
    if seen.pop("absent"):
        pytest.skip("no OpenBLAS get-num-threads entry point mapped")
    return seen


def test_pin_blas_threads_sets_one_thread():
    """The helper returns the count it found and sets n only when that
    count differs: a second call with the same n calls no set."""
    seen = _run_with_two_blas_threads(
        "sets = []\n"
        "real_cdll = ctypes.CDLL\n"
        "class SpyCDLL:\n"
        "    def __init__(self, path):\n"
        "        self.lib = real_cdll(path)\n"
        "    def __getattr__(self, name):\n"
        "        fn = getattr(self.lib, name)\n"
        "        if 'set_num_threads' not in name:\n"
        "            return fn\n"
        "        def spy(n):\n"
        "            sets.append(n)\n"
        "            return fn(n)\n"
        "        return spy\n"
        "ctypes.CDLL = SpyCDLL\n"
        "first = tr._pin_blas_threads(1)\n"
        "after_first = blas_threads()\n"
        "second = tr._pin_blas_threads(1)\n"
        "print(json.dumps({'absent': not gets, 'first': first, 'after_first': after_first,\n"
        "                  'second': second, 'now': blas_threads(), 'sets': sets}))\n"
    )
    assert seen == {"first": 2, "after_first": 1, "second": 1, "now": 1, "sets": [1]}


def test_process_pool_pins_the_main_process_to_one_blas_thread():
    """While a process pool is open the main process and each worker run
    OpenBLAS on one thread; close restores the caller's count, also when
    the with-block raised; a one-worker pool leaves the count alone."""
    seen = _run_with_two_blas_threads(
        "from fungrasp.assets import default_demo_path, default_hand_path, default_styles_path\n"
        "assets = tr.load_assets(default_hand_path(), default_styles_path(), default_demo_path())\n"
        "seen = {'absent': not gets, 'before': blas_threads()}\n"
        "with tr.EpisodePool(2, assets) as pool:\n"
        "    seen['open'] = blas_threads()\n"
        "    seen['worker'] = pool._ex.submit(tr._pin_blas_threads, 1).result()\n"
        "seen['closed'] = blas_threads()\n"
        "try:\n"
        "    with tr.EpisodePool(2, assets):\n"
        "        seen['open_again'] = blas_threads()\n"
        "        raise RuntimeError('inside the pool')\n"
        "except RuntimeError:\n"
        "    pass\n"
        "seen['after_raise'] = blas_threads()\n"
        "with tr.EpisodePool(1, assets):\n"
        "    seen['one_worker'] = blas_threads()\n"
        "print(json.dumps(seen))\n"
    )
    assert seen == {
        "before": 2, "open": 1, "worker": 1, "closed": 2, "open_again": 1, "after_raise": 2, "one_worker": 2,
    }


def test_one_blas_thread_restores_the_count():
    """Inside _one_blas_thread OpenBLAS runs on one thread; the caller's
    count is back after the block, also when the block raised."""
    seen = _run_with_two_blas_threads(
        "seen = {'absent': not gets, 'before': blas_threads()}\n"
        "with tr._one_blas_thread():\n"
        "    seen['inside'] = blas_threads()\n"
        "seen['after'] = blas_threads()\n"
        "try:\n"
        "    with tr._one_blas_thread():\n"
        "        raise RuntimeError('inside the block')\n"
        "except RuntimeError:\n"
        "    pass\n"
        "seen['after_raise'] = blas_threads()\n"
        "print(json.dumps(seen))\n"
    )
    assert seen == {"before": 2, "inside": 1, "after": 2, "after_raise": 2}


def test_bandit_learns_fast():
    hist = run_bandit(seed=3, iterations=40)
    assert hist[-1] > hist[0] + 0.1
    assert max(hist) > -0.1


def test_one_step_contract(assets, tiny_cfg, tiny_params):
    # advantage is exactly reward - value_old before normalization
    batch = collect_batch(tiny_params, tiny_cfg, assets, 5)
    raw_adv = batch.rewards - _values_old(batch)
    normalized = (raw_adv - raw_adv.mean()) / (raw_adv.std() + 1e-8)
    assert np.allclose(batch.advantages, normalized, atol=1e-12)
