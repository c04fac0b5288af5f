"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import MIN_COVERED_SHARE  # noqa: E402
from stats import percentile, samples_beyond, tail_percentile  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
UPDATE_METRICS = (
    "policy.policy_forward.update_ms", "policy.policy_backward.ms", "policy.log_prob_of_raw.ms",
    "training.ppo_update.self_ms", "training.adam_step.ms",
)
POOL_METRICS = ("training.pool.wait_ms", "training.pool.result_bytes_per_episode")


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
     (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_rule_picks_highest_percentile_with_ten_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert samples_beyond(n, expected) >= 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert samples_beyond(100, 90) == 10
    assert percentile([3.0], 99) == 3.0


def test_host_adjustment_scales_by_the_reference_on_either_side():
    from hostspeed import REFERENCE_MS, adjust

    slow = 2 * REFERENCE_MS
    assert adjust([100.0, 100.0], [REFERENCE_MS, REFERENCE_MS, slow]) == [100.0, 100.0 / 1.5]
    with pytest.raises(ValueError):
        adjust([100.0], [REFERENCE_MS])


def test_declared_metrics_have_units_and_directions():
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert m["unit"] and m["better"] in ("lower", "higher"), m
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])


def test_every_layer_metric_has_a_prediction():
    preds = json.loads((HERE / "predictions.json").read_text())["predictions"]
    covered = {name for p in preds for name in p["metrics"]}
    assert covered == {m["name"] for m in SPEC["per_layer"]}
    e2e = {m["name"] for m in SPEC["end_to_end"]} | covered
    for p in preds:
        assert set(p["moves"]) <= e2e, p
        assert set(p["most_on"]) | set(p["no_change_on"]) <= set(WORKLOADS), p


@pytest.fixture(scope="module")
def results():
    out = {}
    for w in WORKLOADS:
        for trace in ("0", "1"):
            proc = run_bench("--workload", w, "--seed", "3", "--seconds", "0.5",
                             "--trace", trace, "--tiny")
            assert proc.returncode == 0, proc.stderr
            out[w, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_present_with_unit(results, trace, kind):
    declared = {m["name"]: m for m in SPEC[kind]}
    for w in WORKLOADS:
        r = results[w, trace]
        assert set(r) == {"correct", "attempted", "failed", "metrics"}
        assert r["correct"] is True and r["attempted"] >= 1 and r["failed"] == 0
        assert set(r["metrics"]) == set(declared), w
        for name, m in r["metrics"].items():
            assert m["unit"] == declared[name]["unit"]
            assert isinstance(m["value"], float)


def test_traced_runs_separate_the_layers(results):
    for w in WORKLOADS:
        m = {k: v["value"] for k, v in results[w, "1"]["metrics"].items()}
        train = w.startswith("train")
        for name in UPDATE_METRICS:
            assert (m[name] > 0) == train, (w, name)
        for name in POOL_METRICS:
            assert (m[name] > 0) == (w == "train_inspire_w2"), (w, name)
        assert m["hand.forward_kinematics_batch.ms"] > 0, w
        assert m["trace.overhead_share"] > 0, w
        assert m["trace.covered_share"] >= MIN_COVERED_SHARE, w


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_missing_entry_point_is_reported_absent():
    from tracer import Tracer

    class Sim:
        pass

    tr = Tracer()
    tr._patch(Sim, "_nearest", lambda orig: orig, "sim.nearest")
    assert tr.absent == ["sim.nearest"] and not hasattr(Sim, "_nearest")
