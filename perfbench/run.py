"""The fungrasp benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

A run sets up the workload, checks its first steps at a fixed seed
against the reference values in golden.json, then times steps at the
given seed for the given seconds, then times fresh-process set-ups.
Step times are adjusted for the host's speed (hostspeed.py).
With --trace 1 it afterwards runs a fixed number of steps again with
spans around every layer and reports the per-layer metrics.

Every metric is printed as `<name> = <value> <unit>`; the last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics` (the end-to-end metrics of BENCHMARK.json with --trace 0,
the per-layer ones with --trace 1). Results, the run environment, the
spans and the self-time table go to perfbench/out/.

    python3 perfbench/run.py --write-golden

records this commit's reference values in golden.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import asdict
from statistics import median
from pathlib import Path

import _paths
import hostspeed
from envinfo import run_environment
from stats import percentile, samples_beyond, tail_percentile
from tracer import HARVEST, POOL_RUN, SETUP, STEP, Tracer, format_table, self_time_table
from workloads import OUTCOMES, WORKLOADS, Session, consistency_errors

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
GOLDEN_SEED = 2026
GOLDEN_STEPS = 3          # one step of each training stream
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60
# spans that only pass work on to the layers; their self time is step time
# no layer claims (the tracer's own harvest of worker spans counts too)
GLUE = (STEP, "training.collect_batch", "evaluation.evaluate", HARVEST)
MIN_COVERED_SHARE = 0.9


def load_declared() -> dict:
    """Metric names, units and directions, from BENCHMARK.json."""
    spec = json.loads((_paths.ROOT / "BENCHMARK.json").read_text())
    return {
        "workloads": [w["name"] for w in spec["workloads"]],
        "end_to_end": {m["name"]: m for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m for m in spec["per_layer"]},
    }


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------

def check_golden(session, golden: list[dict], errors: list[str]):
    for k, want in enumerate(golden):
        got = session.step(GOLDEN_SEED, k).check_values()
        if got != want:
            errors.append(f"golden step {k} at seed {GOLDEN_SEED}: got {got}, want {want}")


def timed_steps(session, seed: int, seconds: float, errors: list[str]) -> tuple[list, list]:
    """The steps run in `seconds`, and the host-speed reference times
    measured before the first and after each one."""
    steps, refs = [], [hostspeed.reference_ms()]
    t0 = time.perf_counter()
    while not steps or time.perf_counter() - t0 < seconds:
        res = session.step(seed, len(steps))
        refs.append(hostspeed.reference_ms())
        errors.extend(
            f"step {len(steps)}: {e}"
            for e in consistency_errors(res, session.episodes_per_step(), session.wl.kind)
        )
        steps.append(res)
    return steps, refs


def peak_rss_mb(workers: int, kb_at_fork: int) -> tuple[float, dict]:
    """Peak RSS of this process plus, for a process pool, what each
    worker added: the largest worker's peak less the `kb_at_fork` it
    inherited from this process, which a forked worker's ru_maxrss
    counts again. Read after the pool has been shut down and before
    any other child process has run."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workers == 1:
        return own / 1024.0, {"parent_peak_mb": own / 1024.0}
    kid = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    added = max(0, kid - kb_at_fork)
    return (own + workers * added) / 1024.0, {
        "parent_peak_mb": own / 1024.0,
        "worker_peak_mb": kid / 1024.0,
        "worker_added_mb": added / 1024.0,
    }


def setup_seconds(workload: str, tiny: bool, n: int) -> list[float]:
    """Host-adjusted times of n fresh-process set-ups."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload] + (["--tiny"] if tiny else [])
    out, refs = [], [hostspeed.reference_ms()]
    for _ in range(n):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.stdout.read()
                code = proc.wait(timeout=PROBE_TIMEOUT_S)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe {cmd} failed (exit {code}, said {line!r})")
        out.append(elapsed)
        refs.append(hostspeed.reference_ms())
    return hostspeed.adjust(out, refs)


def pin_blas_threads(wl, argv: list[str]) -> None:
    """Run a single-worker workload with OpenBLAS on one thread.

    By default OpenBLAS starts one thread per core, and on a small shared
    host a step then needs every core at once, which makes its time
    follow the other guests' load. The pool workload keeps the caller's
    setting, so BLAS oversubscription in the pool shows there, and a fix
    for it moves that workload alone. The variable must be set before
    numpy loads, so the run starts over in a new image of this process.
    """
    if wl.workers == 1 and os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, __file__, *argv],
                  dict(os.environ, OPENBLAS_NUM_THREADS="1"))


def episodes_per_s(steps, step_ms=None) -> float:
    if step_ms is None:
        step_ms = [s.step_ms for s in steps]
    return sum(s.episodes for s in steps) / (sum(step_ms) / 1e3)


def end_to_end(steps, refs, setups, rss, rss_notes) -> tuple[dict, dict]:
    raw_ms = [s.step_ms for s in steps]
    step_ms = hostspeed.adjust(raw_ms, refs)
    collect_ms = hostspeed.adjust([s.collect_ms for s in steps], refs)
    tail_p = tail_percentile(len(step_ms))
    episodes = sum(s.episodes for s in steps)
    metrics = {
        "setup_s": median(setups),
        "episodes_per_s": episodes_per_s(steps, step_ms),
        "step_ms_p50": percentile(step_ms, 50.0),
        "step_ms_tail": percentile(step_ms, tail_p if tail_p is not None else 50.0),
        "collect_ms_p50": percentile(collect_ms, 50.0),
        "mean_reward": median([s.mean_reward for s in steps]),
        "peak_rss_mb": rss,
    }
    updates = ([] if steps[0].update_ms is None
               else hostspeed.adjust([s.update_ms for s in steps], refs))
    errors = sum(s.errors for s in steps)
    notes = {
        "steps": len(steps),
        "episodes": episodes,
        "tail_percentile": tail_p,
        "tail_samples_beyond": samples_beyond(len(step_ms), tail_p) if tail_p else None,
        "setup_samples_s": setups,
        **rss_notes,
        "update_ms_p50": percentile(updates, 50.0) if updates else None,
        "wall_episodes_per_s": episodes_per_s(steps),
        "wall_step_ms_p50": percentile(raw_ms, 50.0),
        "reference_ms_p50": median(refs),
        "gsr": sum(s.successes for s in steps) / episodes,
        "failed_share": errors / episodes,
        "step_ms": raw_ms,
        "adjusted_step_ms": step_ms,
        "reference_ms": refs,
        "step_gsr": [s.gsr for s in steps],
        "step_mean_reward": [s.mean_reward for s in steps],
    }
    return metrics, notes


def traced_run(fg, wl, seed, tiny, untimed_steps, errors):
    """Repeat the first steps of the timed sequence with spans on."""
    n_steps = min(wl.trace_steps if not tiny else 2, len(untimed_steps))
    with Tracer() as tr:
        tr.install(fg)
        session = Session(fg, wl, tiny)
        tr.call(SETUP, session.open)
        try:
            steps = []
            for k in range(n_steps):
                tr.step = k
                steps.append(tr.call(STEP, session.step, seed, k))
                tr.step = None
        finally:
            session.close()
    for k, (traced, plain) in enumerate(zip(steps, untimed_steps)):
        if traced.check_values() != plain.check_values():
            errors.append(f"traced step {k} differs from the untraced one")
    table = self_time_table(tr.spans, os.getpid())
    return tr, steps, table, table[STEP].total_ms


def covered_share(table, root_ms) -> float:
    """Share of the traced step time spent inside a layer's span."""
    return 1.0 - sum(table[g].self_ms for g in GLUE if g in table) / root_ms


def layer_metrics(wl, tr, table, steps, untraced_eps, update_p50, root_ms) -> dict:
    episodes = sum(s.episodes for s in steps)
    successes = sum(s.successes for s in steps)

    def total(key):
        return table[key].total_ms if key in table else 0.0

    def own(key):
        return table[key].self_ms if key in table else 0.0

    def attr(key, name):
        return table[key].attrs.get(name, 0) if key in table else 0

    def calls(key):
        return table[key].calls if key in table else 0

    per_ep = lambda x: x / episodes  # noqa: E731
    outcomes = {o: sum(s.outcomes.get(o, 0) for s in steps) for o in OUTCOMES}
    # the first traced step pays for a cold pool and FPS cache; leave it out
    traced_eps = episodes_per_s(steps[1:] or steps)
    m = {
        "hand.forward_kinematics_batch.ms": per_ep(total("hand.forward_kinematics_batch")),
        "hand.forward_kinematics_batch.rows_per_episode": per_ep(attr("hand.forward_kinematics_batch", "rows")),
        "hand.classify_style.ms": per_ep(total("hand.classify_style")),
        "sim.nearest.ms": per_ep(total("sim.nearest")),
        "sim.nearest.rows_per_episode": per_ep(attr("sim.nearest", "rows")),
        "sim.nearest.pairs_per_episode": per_ep(attr("sim.nearest", "pairs")),
        "sim.rollout.self_ms": per_ep(own("sim.rollout")),
        "sim.reset_env.ms": per_ep(total("sim.reset_env")),
        "sim.grasp_success.self_ms": per_ep(own("sim.grasp_success")),
        "sim.feasible_combination.ms": per_ep(total("sim.feasible_combination")),
        "sim.feasible_combination.calls_per_episode": per_ep(calls("sim.feasible_combination")),
        "sim.feasible_combination.calls_per_success": (
            calls("sim.feasible_combination") / successes if successes else 0.0
        ),
        **{f"sim.outcome.{o}_share": per_ep(outcomes[o]) for o in OUTCOMES},
        "demo.edit_wrist_arrays.ms": per_ep(total("demo.edit_wrist_arrays")),
        "demo.edited_joint_trajectory.ms": per_ep(total("demo.edited_joint_trajectory")),
        "demo.target_joint_config.ms": per_ep(total("demo.target_joint_config")),
        "policy.encode_observation.ms": per_ep(total("policy.encode_observation")),
        "policy.sample_action.ms": per_ep(total("policy.sample_action")),
        "policy.policy_forward.episode_ms": per_ep(total("policy.policy_forward.episode")),
        "policy.log_prob_of_raw.episode_ms": per_ep(total("policy.log_prob_of_raw.episode")),
        "policy.policy_forward.update_ms": per_ep(total("policy.policy_forward.update")),
        "policy.policy_backward.ms": per_ep(total("policy.policy_backward")),
        "policy.log_prob_of_raw.ms": per_ep(total("policy.log_prob_of_raw.update")),
        "training.run_episode.self_ms": per_ep(own("training.run_episode")),
        "training.ppo_update.self_ms": per_ep(own("training.ppo_update")),
        "training.ppo_update.step_ms_p50": update_p50 or 0.0,
        "training.adam_step.ms": per_ep(total("training.adam_step")),
        "training.pool.wait_ms": total(POOL_RUN) / len(steps) if wl.workers > 1 else 0.0,
        "training.pool.result_bytes_per_episode": (
            tr.result_bytes / tr.pool_episodes if tr.pool_episodes else 0.0
        ),
        "rewards.total_reward.ms": per_ep(total("rewards.total_reward")),
        "evaluation.compute_metrics.ms": per_ep(total("evaluation.compute_metrics")),
        "objects.load_object.ms": total("objects.load_object"),
        "objects.affordance_distribution.ms": total("objects.affordance_distribution"),
        "objects.farthest_point_sample.calls": float(calls("objects.farthest_point_sample")),
        "trace.overhead_share": traced_eps / untraced_eps,
        "trace.covered_share": covered_share(table, root_ms),
    }
    return m


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def report(metrics: dict, declared: dict) -> dict:
    if set(metrics) != set(declared):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(declared))} differ from BENCHMARK.json"
        )
    return {k: {"value": float(metrics[k]), "unit": declared[k]["unit"]} for k in declared}


def print_metrics(title: str, metrics: dict):
    print(f"# {title}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")


def write_golden():
    fg = _paths.import_fungrasp()
    golden = {}
    for scale, tiny in (("full", False), ("tiny", True)):
        golden[scale] = {}
        for name in sorted({w.golden for w in WORKLOADS.values()}):
            with Session(fg, WORKLOADS[name], tiny) as s:
                golden[scale][name] = [s.step(GOLDEN_SEED, k).check_values() for k in range(GOLDEN_STEPS)]
    GOLDEN.write_text(json.dumps({"seed": GOLDEN_SEED, **golden}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    p.add_argument("--write-golden", action="store_true")
    args = p.parse_args(argv)
    if not args.write_golden and args.workload is None:
        p.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_golden:
        write_golden()
        return 0
    declared = load_declared()
    if args.workload not in declared["workloads"]:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {declared['workloads']}")
    wl = WORKLOADS[args.workload]
    pin_blas_threads(wl, sys.argv[1:] if argv is None else argv)
    fg = _paths.import_fungrasp()
    env = run_environment(_paths.ROOT)
    golden = json.loads(GOLDEN.read_text())["tiny" if args.tiny else "full"][wl.golden]
    print(f"# {wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# environment {json.dumps(env, sort_keys=True)}")

    errors: list[str] = []
    with Session(fg, wl, args.tiny) as session:
        # the pool forks its workers on the first step
        kb_at_fork = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        check_golden(session, golden, errors)
        steps, refs = timed_steps(session, args.seed, args.seconds, errors)
    rss, rss_notes = peak_rss_mb(wl.workers, kb_at_fork)
    setups = setup_seconds(wl.name, args.tiny, 1 if args.tiny else SETUP_PROBES)
    e2e, notes = end_to_end(steps, refs, setups, rss, rss_notes)
    e2e_out = report(e2e, declared["end_to_end"])
    print_metrics("end-to-end (untraced)", e2e_out)
    tail = (f"p{notes['tail_percentile']:g} with {notes['tail_samples_beyond']} samples beyond"
            if notes["tail_percentile"] else "fell back to p50, fewer than 20 steps")
    print(f"# {notes['steps']} steps, {notes['episodes']} episodes; step_ms_tail: {tail}")
    update = notes["update_ms_p50"]
    print(f"update_ms_p50 = {'absent' if update is None else f'{update:.6g} ms'}")
    print(f"gsr = {notes['gsr']:.6g} ratio")
    print(f"failed_share = {notes['failed_share']:.6g} ratio")
    print(f"# wall clock, not host-adjusted: episodes_per_s = {notes['wall_episodes_per_s']:.6g} 1/s, "
          f"step_ms_p50 = {notes['wall_step_ms_p50']:.6g} ms; reference loop p50 "
          f"{notes['reference_ms_p50']:.4g} ms (nominal {hostspeed.REFERENCE_MS:g})")

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    result = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "environment": env, "end_to_end": e2e_out, "notes": notes}
    metrics_out = e2e_out
    if args.trace:
        tr, tsteps, table, root_ms = traced_run(fg, wl, args.seed, args.tiny, steps, errors)
        layers = layer_metrics(wl, tr, table, tsteps, notes["wall_episodes_per_s"], notes["update_ms_p50"],
                               root_ms)
        metrics_out = report(layers, declared["per_layer"])
        text = format_table(table, len(tsteps), root_ms)
        print_metrics("per-layer (traced)", metrics_out)
        print(f"# self-time table, {len(tsteps)} traced steps, {root_ms:.1f} ms in steps")
        print(text)
        if layers["trace.covered_share"] < MIN_COVERED_SHARE:
            print(f"# WARNING: layer spans cover {layers['trace.covered_share']:.1%} of the traced "
                  f"step time, under {MIN_COVERED_SHARE:.0%}: a layer is entered outside the "
                  f"wrapped functions")
        if tr.absent:
            print(f"# absent entry points: {', '.join(tr.absent)}")
        with open(f"{stem}-spans.jsonl", "w") as fh:
            for s in tr.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
        Path(f"{stem}-selftime.txt").write_text(text + "\n")
        result.update(per_layer=metrics_out, absent=tr.absent)

    attempted = sum(s.episodes for s in steps)
    failed = sum(s.errors for s in steps)
    result.update(correct=not errors, errors=errors)
    Path(f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    for e in errors:
        print(f"# CHECK FAILED: {e}")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics_out}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except _paths.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
