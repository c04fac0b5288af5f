"""The benchmark's workloads and the step each one times.

A workload drives fungrasp only through its public calls: load_assets,
load_checkpoint, EpisodePool, collect_batch, ppo_update and evaluate.
Every step's inputs are a pure function of (seed, step index), so a run
at a given seed repeats exactly, whatever the worker count.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass

import snapshots

# rng stream of the policy initialisation, as fungrasp.training.train uses it
STREAM_INIT = 4
# the criterion-6 training seed; eval_shadow evaluates this seed's init policy
POLICY_SEED = 2026
# a train workload runs one training stream per snapshot, in turn; each
# stream restarts from its snapshot every CYCLE iterations, so a run
# measures the same mix of training stages however many steps fit in it
STREAMS = len(snapshots.ITERATIONS)
CYCLE = 8
OUTCOMES = ("ok", "crush", "table_collision", "no_closure", "degenerate")


@dataclass(frozen=True)
class Workload:
    name: str
    hand: str
    workers: int
    kind: str              # train | eval
    episodes: int          # episodes per step
    trace_steps: int       # steps in the traced run
    golden: str            # workload whose reference values this one must reproduce


# the reason for each workload is its `why` in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload("train_inspire", "inspire_like", 1, "train", 96, 2 * STREAMS, "train_inspire"),
        Workload("train_inspire_w2", "inspire_like", 2, "train", 96, 2 * STREAMS, "train_inspire"),
        Workload("eval_shadow", "shadow_like", 1, "eval", 32, 8, "eval_shadow"),
    )
}

TINY = {"train": 8, "eval": 4}


@dataclass
class StepResult:
    step_ms: float
    collect_ms: float
    update_ms: float | None
    episodes: int
    successes: int
    errors: int
    mean_reward: float
    gsr: float
    outcomes: dict

    def check_values(self) -> dict:
        """What must repeat exactly for the same (seed, step)."""
        return {
            "episodes": self.episodes,
            "successes": self.successes,
            "errors": self.errors,
            "gsr": self.gsr,
            "mean_reward": self.mean_reward,
            "outcomes": dict(self.outcomes),
        }


def outcome_of(result) -> str:
    rec = result.record
    if rec is None:
        return "error"
    if rec.success:
        return "ok"
    # a reason outside OUTCOMES fails the outcome-count check
    reason = rec.failure_reason or "unknown"
    return "degenerate" if reason.startswith("degenerate") else reason


def load_assets(fg, hand: str):
    """The hand's bundled assets and objects."""
    a = fg.assets
    return fg.training.load_assets(
        a.default_hand_path(hand), a.default_styles_path(hand),
        a.default_demo_path(hand), a.default_objects_dir(),
    )


class Session:
    """One workload's assets and pool, and the state of its step sequence."""

    def __init__(self, fg, workload: Workload, tiny: bool = False):
        self.fg = fg
        self.wl = workload
        self.tiny = tiny
        self.cycle = 2 if tiny else CYCLE
        self.assets = None
        self.pool = None
        self.snapshots = []   # train: the policy each stream starts from
        self.eval_params = None
        self._streams = {}   # stream -> (seed, last step run, params, adam)

    def episodes_per_step(self) -> int:
        return TINY[self.wl.kind] if self.tiny else self.wl.episodes

    def config(self, seed: int):
        e = self.episodes_per_step()
        return self.fg.training.TrainConfig(
            envs_per_iter=e,
            minibatch=min(e, 32),
            epochs=1 if self.tiny else 6,
            learning_rate=1e-3,
            entropy_coef=0.0005,
            m_points=64,
            seed=seed,
            init_log_std=-2.0,
            workers=self.wl.workers,
        )

    def open(self):
        self.assets = load_assets(self.fg, self.wl.hand)
        if self.wl.kind == "train":
            self.snapshots = [snapshots.load(self.fg, self.wl.hand, it) for it in snapshots.ITERATIONS]
        else:
            self.eval_params = self.init_params(POLICY_SEED)
        self.pool = self.fg.training.EpisodePool(self.wl.workers, self.assets)
        return self

    def close(self):
        if self.pool is not None:
            self.pool.close()
            self.pool = None

    def __enter__(self):
        return self.open()

    def __exit__(self, *exc):
        self.close()

    def init_params(self, seed: int):
        cfg = self.config(seed)
        return self.fg.policy.init_params(
            self.fg.training.episode_rng(seed, STREAM_INIT), cfg.m_points,
            len(self.assets.styles), self.assets.spec.joint_count, cfg.init_log_std,
        )

    def step(self, seed: int, k: int) -> StepResult:
        """Run step k of the sequence that `seed` defines; train steps
        must come in order."""
        if self.wl.kind == "train":
            return self._train_step(seed, k)
        return self._eval_step(seed, k)

    def _train_step(self, seed: int, k: int) -> StepResult:
        """Step k runs iteration `start + i` of stream k % STREAMS, which
        continues training from the snapshot taken at iteration `start`."""
        tr = self.fg.training
        stream = k % STREAMS
        cycle, i = divmod(k // STREAMS, self.cycle)
        iteration = snapshots.ITERATIONS[stream] + i
        cfg = self.config(seed * 1000 + cycle)
        if i == 0:
            params = self.snapshots[stream]
            adam = tr.AdamState.init(params)
        else:
            last_seed, last_k, params, adam = self._streams[stream]
            if (last_seed, last_k) != (seed, k - STREAMS):
                raise RuntimeError(f"train step {k} run out of order")
        t0 = time.perf_counter()
        batch = tr.collect_batch(params, cfg, self.assets, iteration, self.pool)
        t1 = time.perf_counter()
        params, adam, stats = tr.ppo_update(
            params, batch, cfg, adam, tr.episode_rng(cfg.seed, tr.STREAM_UPDATE, iteration)
        )
        t2 = time.perf_counter()
        self._streams[stream] = (seed, k, params, adam)
        if "aborted" in stats:
            raise RuntimeError(f"ppo_update aborted: {stats['aborted']}")
        return _summarise(
            batch.results, (t2 - t0) * 1e3, (t1 - t0) * 1e3, (t2 - t1) * 1e3,
            gsr=stats["gsr"], mean_reward=stats["mean_reward"],
        )

    def _eval_step(self, seed: int, k: int) -> StepResult:
        cfg = self.config(POLICY_SEED)
        t0 = time.perf_counter()
        metrics, results = self.fg.evaluation.evaluate(
            self.eval_params, cfg, self.assets, self.episodes_per_step(), seed=seed * 1000 + k, pool=self.pool
        )
        t1 = time.perf_counter()
        rewards = [r.reward for r in results]
        return _summarise(
            results, (t1 - t0) * 1e3, (t1 - t0) * 1e3, None,
            gsr=metrics.gsr, mean_reward=sum(rewards) / len(rewards),
        )


def _summarise(results, step_ms, collect_ms, update_ms, *, gsr, mean_reward) -> StepResult:
    outcomes = Counter(outcome_of(r) for r in results)
    return StepResult(
        step_ms=step_ms,
        collect_ms=collect_ms,
        update_ms=update_ms,
        episodes=len(results),
        successes=outcomes.get("ok", 0),
        errors=outcomes.get("error", 0),
        mean_reward=float(mean_reward),
        gsr=float(gsr),
        outcomes={o: outcomes[o] for o in OUTCOMES + ("error",) if outcomes.get(o)},
    )


def consistency_errors(res: StepResult, expected_episodes: int, kind: str) -> list[str]:
    """Checks every step must pass, whatever its seed."""
    out = []
    if res.episodes != expected_episodes:
        out.append(f"{res.episodes} episodes returned, {expected_episodes} asked for")
    if sum(res.outcomes.values()) != res.episodes:
        out.append(f"outcome counts {res.outcomes} do not sum to {res.episodes}")
    if not math.isfinite(res.mean_reward):
        out.append(f"mean_reward {res.mean_reward} is not finite")
    # independent recount of the success rate the library reported; training
    # divides by the episodes that ran, evaluation by all episodes
    base = res.episodes - res.errors if kind == "train" else res.episodes
    if res.gsr != res.successes / max(1, base):
        out.append(f"gsr {res.gsr} != {res.successes}/{base}")
    return out
