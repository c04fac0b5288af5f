import dataclasses
import tracemalloc

import numpy as np
import pytest

from fungrasp import evaluation
from fungrasp.demo import EditBounds
from fungrasp.evaluation import (
    ABLATION_COMPONENTS,
    _ablate_config,
    compute_metrics,
    evaluate,
    pairwise_style_diversity,
    write_episode_rows,
    write_report,
)
from fungrasp.policy import init_params
from fungrasp.rewards import TERMS
from fungrasp.sim import RolloutRecord
from fungrasp.training import EpisodePool, EpisodeResult, TrainConfig, collect_batch, episode_rng

import metrics_oracle
from conftest import poison_cloud_of


@pytest.fixture(scope="module")
def eval_cfg():
    return TrainConfig(envs_per_iter=8, minibatch=8, m_points=32, seed=31)


@pytest.fixture(scope="module")
def identity_cfg(eval_cfg):
    """eval_cfg with zero-width bounds: random mode's uniform actions are
    then all the identity edit (no wrist offset, no joint residual,
    scale 1)."""
    return dataclasses.replace(eval_cfg, bounds=EditBounds(b_t=0.0, b_r=0.0, b_q=0.0, k_min=1.0, k_max=1.0))


@pytest.fixture(scope="module")
def eval_params(assets, eval_cfg):
    return init_params(episode_rng(eval_cfg.seed, 4), eval_cfg.m_points,
                       len(assets.styles), assets.spec.joint_count)


def _row(success, d_final=0.02, q=(), cond=0, exe=0):
    """An episode result whose record measured d_final at the last frame
    and at its closest, with q_final q padded with zeros to the hand's
    six joints."""
    q = np.pad(np.asarray(q, dtype=float), (0, 6 - len(q)))
    record = RolloutRecord(d_final=d_final, d_min=d_final, q_final=q, q_star=q, executed_style=exe,
                           failure_reason=None if success else "no_closure")
    return EpisodeResult(0, "box", np.zeros(3), np.array([1.0, 0, 0, 0]), np.zeros(3), cond, record=record)


def test_pairwise_diversity_cases():
    assert pairwise_style_diversity([]) == 0.0
    assert pairwise_style_diversity([[1.0, 2.0]]) == 0.0
    assert pairwise_style_diversity([np.zeros(3), np.zeros(3)]) == 0.0
    assert pairwise_style_diversity([[0.0, 0.0], [2.0, 0.0]]) == pytest.approx(2.0)
    qs = [np.array([0.0, 0.0]), np.array([3.0, 0.0]), np.array([0.0, 4.0])]
    expected = (3.0 + 4.0 + 5.0) / 3.0
    assert pairwise_style_diversity(qs) == pytest.approx(expected)


def _pairwise_oracle(qs):
    """The mean pairwise distance through the (n, n, J) difference
    tensor, the form pairwise_style_diversity replaced."""
    qs = np.asarray(qs, dtype=float)
    d = np.sqrt(((qs[:, None, :] - qs[None, :, :]) ** 2).sum(axis=2))
    return float(d[np.triu_indices(len(qs), k=1)].mean())


@pytest.mark.parametrize("joints", [6, 22])
@pytest.mark.parametrize("n", [2, 3, 9, 130, 400])
def test_pairwise_diversity_has_the_bits_of_the_difference_tensor(n, joints):
    qs = np.random.default_rng(n * joints).normal(size=(n, joints))
    assert pairwise_style_diversity(qs).hex() == _pairwise_oracle(qs).hex()


def _pairwise_by_rows(qs):
    """The mean pairwise distance with each row's distances to the later
    rows taken in turn, the form the blockwise passes replaced."""
    qs = np.asarray(qs, dtype=float)
    n = len(qs)
    if n < 2:
        return 0.0
    dists = np.empty(n * (n - 1) // 2)
    start = 0
    for i in range(n - 1):
        np.sqrt(((qs[i + 1 :] - qs[i]) ** 2).sum(axis=1), out=dists[start : start + n - 1 - i])
        start += n - 1 - i
    return float(dists.mean())


@pytest.mark.parametrize("pass_floats", [None, 64], ids=["default_passes", "one_row_passes"])
@pytest.mark.parametrize("joints", [1, 6, 22])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 28, 500])
def test_pairwise_diversity_has_the_bits_of_the_row_loop(n, joints, pass_floats, monkeypatch):
    """Whole blocks of rows per pass, or (at 64 floats a pass) one row's
    pairs, give the row loop's bytes."""
    if pass_floats is not None:
        monkeypatch.setattr(evaluation, "_PAIR_FLOATS", pass_floats)
    qs = np.random.default_rng(n * joints + 1).normal(size=(n, joints))
    assert pairwise_style_diversity(qs).hex() == _pairwise_by_rows(qs).hex()


def test_pairwise_diversity_never_builds_the_difference_tensor():
    """At n = 1,500 and J = 22 the (n, n, J) form allocates about 800 MB;
    the distances themselves are 9 MB, and they are held once: two
    copies (a per-row list and its concatenation) peak at 18 MB."""
    n = 1500
    qs = np.random.default_rng(5).normal(size=(n, 22))
    tracemalloc.start()
    try:
        pairwise_style_diversity(qs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * (n * (n - 1) // 2) * 8


def test_pairwise_diversity_translation_invariant():
    rng = np.random.default_rng(0)
    qs = rng.normal(size=(10, 6))
    shift = rng.normal(size=6)
    assert pairwise_style_diversity(qs + shift) == pytest.approx(pairwise_style_diversity(qs))


def test_metrics_all_failures(spec):
    m = compute_metrics([_row(False) for _ in range(10)], spec, False)
    assert m.gsr == 0.0
    assert m.sad is None
    assert m.sa is None
    assert m.sd == 0.0
    assert m.n_success == 0


def test_metrics_formulas(spec):
    rows = [
        _row(True, d_final=0.01, q=[0.0, 0.0], cond=0, exe=0),
        _row(True, d_final=0.03, q=[1.0, 0.0], cond=1, exe=0),
        _row(False, d_final=0.5),
    ]
    m = compute_metrics(rows, spec, False)
    assert m.gsr == pytest.approx(2 / 3)
    assert m.sad == pytest.approx(0.02)
    assert m.sa == pytest.approx(0.5)
    assert m.sd == pytest.approx(1.0)
    # the same gap in the hand's limit-normalized joint coordinates
    assert m.sd_normalized == pytest.approx(1.0 / (spec.limits_hi[0] - spec.limits_lo[0]))
    assert m.n_episodes == 3 and m.n_success == 2


def test_strict_success_filter(spec):
    rows = [
        _row(True, d_final=0.01, cond=0, exe=0),   # strict pass
        _row(True, d_final=0.09, cond=0, exe=0),   # too far
        _row(True, d_final=0.01, cond=1, exe=0),   # style mismatch
    ]
    loose = compute_metrics(rows, spec, False)
    strict = compute_metrics(rows, spec, True)
    assert loose.gsr == 1.0
    assert strict.gsr == pytest.approx(1 / 3)
    assert strict.sa == 1.0


def test_evaluate_deterministic(assets, eval_cfg, eval_params):
    a, _ = evaluate(eval_params, eval_cfg, assets, 20, seed=7)
    b, _ = evaluate(eval_params, eval_cfg, assets, 20, seed=7)
    assert a == b


def test_evaluate_rejects_bad_args(assets, eval_cfg, eval_params):
    with pytest.raises(ValueError):
        evaluate(eval_params, eval_cfg, assets, 0, seed=1)
    empty = dataclasses.replace(assets, objects=[])
    with pytest.raises(ValueError, match="empty object set"):
        evaluate(eval_params, eval_cfg, empty, 5, seed=1)


def test_identity_policy_on_box_fixture(box_assets, identity_cfg, eval_params):
    m, results = evaluate(eval_params, identity_cfg, box_assets, 30, seed=3, mode="random")
    assert m.gsr == 1.0
    assert m.sa == 1.0
    assert m.sad is not None and m.sad < 0.12


def test_metrics_match_independent_oracle(assets, eval_cfg, eval_params, tmp_path):
    m, results = evaluate(eval_params, eval_cfg, assets, 40, seed=13, mode="policy")
    path = tmp_path / "rows.jsonl"
    write_episode_rows(results, path)
    ref = metrics_oracle.recompute(metrics_oracle.read_rows(path))
    assert ref["gsr"] == pytest.approx(m.gsr, abs=1e-9)
    assert ref["n_success"] == m.n_success
    if m.sad is None:
        assert ref["sad"] is None
    else:
        assert ref["sad"] == pytest.approx(m.sad, abs=1e-9)
    assert ref["sd"] == pytest.approx(m.sd, abs=1e-9)
    if m.sa is not None:
        assert ref["sa"] == pytest.approx(m.sa, abs=1e-9)


def test_exhaustive_styles_at_least_as_good(box_assets, identity_cfg, eval_params):
    base, _ = evaluate(eval_params, identity_cfg, box_assets, 15, seed=5, mode="random")
    best, _ = evaluate(eval_params, identity_cfg, box_assets, 15, seed=5, mode="random",
                       exhaustive_styles=True)
    assert best.gsr >= base.gsr - 1e-12


def test_exhaustive_styles_run_on_the_pool(box_assets, eval_cfg, eval_params, tmp_path):
    serial_m, serial = evaluate(eval_params, eval_cfg, box_assets, 9, seed=5, exhaustive_styles=True)
    with EpisodePool(2, box_assets) as pool:
        pooled_m, pooled = evaluate(eval_params, eval_cfg, box_assets, 9, seed=5, exhaustive_styles=True,
                                    pool=pool)
    assert pooled_m == serial_m
    write_episode_rows(serial, tmp_path / "serial.jsonl")
    write_episode_rows(pooled, tmp_path / "pooled.jsonl")
    assert (tmp_path / "pooled.jsonl").read_bytes() == (tmp_path / "serial.jsonl").read_bytes()


def test_random_baseline_determinism(assets, eval_cfg, eval_params):
    a, _ = evaluate(eval_params, eval_cfg, assets, 25, seed=2, mode="random")
    b, _ = evaluate(eval_params, eval_cfg, assets, 25, seed=2, mode="random")
    assert a == b
    # random actions ignore the policy: other parameters give the same metrics
    other = init_params(episode_rng(99, 4), eval_cfg.m_points, len(assets.styles), assets.spec.joint_count)
    c, _ = evaluate(other, eval_cfg, assets, 25, seed=2, mode="random")
    assert c == a


def test_random_baseline_zero_bounds_equals_identity(box_assets, identity_cfg, eval_params):
    """Under zero-width bounds every random action is, by bytes, the
    identity edit [0] * (6 + J) + [1]."""
    _, results = evaluate(eval_params, identity_cfg, box_assets, 20, seed=9, mode="random")
    identity = np.r_[np.zeros(6 + box_assets.spec.joint_count), 1.0]
    assert [r.action_vec.tobytes() for r in results] == [identity.tobytes()] * 20


def test_ablate_config_flags(eval_cfg):
    assert not _ablate_config(eval_cfg, "afford").reward.afford_on
    assert not _ablate_config(eval_cfg, "clip").reward.clip_on
    assert not _ablate_config(eval_cfg, "close").reward.close_on
    assert not _ablate_config(eval_cfg, "qpos").reward.qpos_on
    assert _ablate_config(eval_cfg, "disturbance").sigma_style == 0.0
    with pytest.raises(ValueError, match="unknown ablation"):
        _ablate_config(eval_cfg, "nope")
    assert set(ABLATION_COMPONENTS) == {"afford", "clip", "close", "qpos", "disturbance"}


def test_qpos_ablation_zeroes_term_in_batches(assets, eval_cfg, eval_params):
    cfg = _ablate_config(eval_cfg, "qpos")
    batch = collect_batch(eval_params, cfg, assets, 0)
    assert any(res.terms is not None for res in batch.results)
    for res in batch.results:
        if res.terms is not None:
            assert res.terms[TERMS.index("r_qpos")] == 0.0


def test_disturbance_ablation_uses_canonical_styles(assets, eval_cfg, eval_params):
    cfg = _ablate_config(eval_cfg, "disturbance")
    batch = collect_batch(eval_params, cfg, assets, 0)
    for res in batch.results:
        if res.record is None:
            continue
        style = assets.styles[res.conditioned_style]
        # q_star = k * q_canonical + dq exactly, no disturbance in between
        k = res.action_vec[-1]
        dq = res.action_vec[6:12]
        expected = np.clip(k * style.q_canonical + dq, assets.spec.limits_lo, assets.spec.limits_hi)
        assert np.allclose(res.record.q_star, expected, atol=1e-12)


def test_report_explains_its_episodes(assets, eval_cfg, eval_params, tmp_path, monkeypatch):
    """report.json counts the outcomes, averages each reward term over the
    episodes that ran and groups the errors by message."""
    import json

    import fungrasp.training as tr
    from fungrasp.rewards import total_reward

    _, reference = evaluate(eval_params, eval_cfg, assets, 10, seed=4)
    monkeypatch.setattr(tr, "encode_observation", poison_cloud_of(tr.encode_observation, reference[3]))
    metrics, results = evaluate(eval_params, eval_cfg, assets, 10, seed=4)
    write_report(metrics, eval_cfg, tmp_path / "episodes.jsonl", tmp_path / "report.json", results)
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["errors"] == {"PolicyError: non-finite observation field clouds": 1}
    assert report["outcomes"]["error"] == 1 and sum(report["outcomes"].values()) == 10
    objects = {o.name: o for o in assets.objects}
    ran = [r for r in results if r.record is not None]
    recount = total_reward(
        [r.record.success for r in ran], [r.record.d_final for r in ran], [r.record.d_min for r in ran],
        [r.record.q_final for r in ran], [assets.styles[r.conditioned_style].q_canonical for r in ran],
        [objects[r.object_name].obj_bb for r in ran], eval_cfg.reward,
    )
    assert len(recount) == 9
    for j, name in enumerate(TERMS):
        assert report["reward_terms"][name] == np.mean([row[j] for row in recount])


def test_episode_rows_of_an_errored_episode_are_strict_json(assets, eval_cfg, eval_params, tmp_path, monkeypatch):
    """An errored episode has no distances: its row writes them as null,
    never as the non-JSON token Infinity, and the metrics still match
    the oracle's."""
    import json

    import fungrasp.training as tr

    _, reference = evaluate(eval_params, eval_cfg, assets, 4, seed=4)
    monkeypatch.setattr(tr, "encode_observation", poison_cloud_of(tr.encode_observation, reference[1]))
    metrics, results = evaluate(eval_params, eval_cfg, assets, 4, seed=4)
    assert [r.record is None for r in results] == [False, True, False, False]
    path = tmp_path / "episodes.jsonl"
    write_episode_rows(results, path)

    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    rows = [json.loads(line, parse_constant=reject) for line in path.read_text().splitlines()]
    assert rows[1]["d_final"] is None and rows[1]["d_min"] is None and not rows[1]["success"]
    assert all(isinstance(r["d_final"], float) for i, r in enumerate(rows) if i != 1)
    ref = metrics_oracle.recompute(metrics_oracle.read_rows(path))
    assert ref["gsr"] == metrics.gsr and ref["n_success"] == metrics.n_success
