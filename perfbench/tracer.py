"""Spans around the module functions each fungrasp layer is entered through.

The tracer replaces a function on the module its caller looks it up in
(sim.rollout calls `forward_kinematics_batch` through the sim module, so
that is where the wrapper goes) and restores every original on
`uninstall`. Spans are kept in memory; the caller writes them out.

Pool workers forked after `install` inherit the wrappers. A worker
attaches the spans of each episode to the EpisodeResult it returns, and
the EpisodePool.run wrapper in the parent moves them into its own list,
under the pool span that waited for them.
"""

from __future__ import annotations

import functools
import os
import pickle
import time
from collections import defaultdict
from dataclasses import dataclass

_SPANS_ATTR = "_perfbench_spans"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    step: int | None
    episode: int | None
    pid: int
    attrs: dict | None = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


def _fk_rows(spec, wrist_t, wrist_r, q):
    return {"rows": int(len(q))}


def _nearest_rows(centers, pts):
    return {"rows": int(len(centers)), "pairs": int(len(centers)) * int(len(pts))}


# (module, attribute the caller looks up, span name, counter of the arguments)
WRAPPED = (
    ("training", "load_object", "objects.load_object", None),
    ("training", "affordance_distribution", "objects.affordance_distribution", None),
    ("training", "collect_batch", "training.collect_batch", None),
    ("training", "ppo_update", "training.ppo_update", None),
    ("training", "adam_step", "training.adam_step", None),
    ("training", "reset_env", "sim.reset_env", None),
    ("training", "encode_observation", "policy.encode_observation", None),
    ("training", "policy_forward", "policy.policy_forward", None),
    ("training", "sample_action", "policy.sample_action", None),
    ("training", "log_prob_of_raw", "policy.log_prob_of_raw", None),
    ("training", "policy_backward", "policy.policy_backward", None),
    ("training", "rollout", "sim.rollout", None),
    ("training", "total_reward", "rewards.total_reward", None),
    ("policy", "farthest_point_sample", "objects.farthest_point_sample", None),
    ("sim", "target_joint_config", "demo.target_joint_config", None),
    ("sim", "edited_joint_trajectory", "demo.edited_joint_trajectory", None),
    ("demo", "edit_wrist_arrays", "demo.edit_wrist_arrays", None),
    ("sim", "forward_kinematics_batch", "hand.forward_kinematics_batch", _fk_rows),
    ("sim", "_nearest", "sim.nearest", _nearest_rows),
    ("sim", "grasp_success", "sim.grasp_success", None),
    ("sim", "feasible_combination", "sim.feasible_combination", None),
    ("sim", "classify_style", "hand.classify_style", None),
    ("evaluation", "evaluate", "evaluation.evaluate", None),
    ("evaluation", "compute_metrics", "evaluation.compute_metrics", None),
)
RUN_EPISODE = "training.run_episode"
POOL_RUN = "training.EpisodePool.run"
HARVEST = "trace.harvest"
STEP = "bench.step"
SETUP = "bench.setup"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.result_bytes = 0
        self.pool_episodes = 0
        self.step: int | None = None
        self._episode: int | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._pid = os.getpid()
        self._worker_pid: int | None = None
        self._patches: list = []

    # -- recording -------------------------------------------------------

    def _open(self) -> tuple[int, int | None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, t0, attrs=None):
        t1 = time.perf_counter()
        self._stack.pop()
        self.spans.append(
            Span(sid, name, t0, t1, parent, self.step, self._episode, os.getpid(), attrs)
        )

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span named `name`."""
        sid, parent = self._open()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid, parent, name, t0)

    def _wrapper(self, orig, name, counter):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            attrs = counter(*args, **kwargs) if counter is not None else None
            sid, parent = self._open()
            t0 = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                self._close(sid, parent, name, t0, attrs)

        return wrapper

    def _run_episode_wrapper(self, orig):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            in_worker = os.getpid() != self._pid
            if in_worker and self._worker_pid != os.getpid():
                # first episode in a forked worker: drop what the fork copied
                self._worker_pid = os.getpid()
                self.spans, self._stack = [], []
            mark = len(self.spans)
            self._episode = kwargs["index"] if "index" in kwargs else args[6]
            sid, parent = self._open()
            t0 = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                self._close(sid, parent, RUN_EPISODE, t0)
                self._episode = None
            if in_worker:
                result.__dict__[_SPANS_ATTR] = self.spans[mark:]
                del self.spans[mark:]
            return result

        return wrapper

    def _pool_run_wrapper(self, orig):
        @functools.wraps(orig)
        def wrapper(pool, *args, **kwargs):
            sid, parent = self._open()
            t0 = time.perf_counter()
            try:
                out = orig(pool, *args, **kwargs)
            finally:
                self._close(sid, parent, POOL_RUN, t0)
            if pool.workers > 1:
                self.call(HARVEST, self._harvest, out, sid)
            return out

        return wrapper

    def _harvest(self, results, pool_span: int):
        """Adopt the workers' spans under the pool span, then size the
        results as the workers pickled them."""
        for r in results:
            spans = r.__dict__.pop(_SPANS_ATTR, None) or []
            ids = {}
            for s in spans:
                ids[s.id] = self._next_id
                self._next_id += 1
            for s in spans:
                s.id = ids[s.id]
                s.parent = ids.get(s.parent, pool_span)
                s.step = self.step
            self.spans.extend(spans)
        self.result_bytes += len(pickle.dumps(results, protocol=pickle.HIGHEST_PROTOCOL))
        self.pool_episodes += len(results)

    # -- installing ------------------------------------------------------

    def install(self, fg):
        for mod_name, attr, name, counter in WRAPPED:
            make = functools.partial(self._wrapper, name=name, counter=counter)
            self._patch(getattr(fg, mod_name), attr, make, name)
        self._patch(fg.training, "run_episode", self._run_episode_wrapper, RUN_EPISODE)
        self._patch(fg.training.EpisodePool, "run", self._pool_run_wrapper, POOL_RUN)

    def _patch(self, owner, attr, make, name):
        orig = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if orig is None:
            # a later change may remove a private entry point: report it absent
            self.absent.append(name)
            return
        setattr(owner, attr, make(orig))
        self._patches.append((owner, attr, orig))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

# spans whose cost is reported apart for the episode and for the update
SPLIT_BY_CONTEXT = ("policy.policy_forward", "policy.log_prob_of_raw")


def span_keys(spans: list[Span]) -> dict[int, str]:
    """Span name, with `.update` or `.episode` appended for the
    SPLIT_BY_CONTEXT spans according to whether ppo_update called them."""
    by_id = {s.id: s for s in spans}
    keys = {}
    for s in spans:
        key = s.name
        if s.name in SPLIT_BY_CONTEXT:
            p, ctx = s.parent, "episode"
            while p is not None:
                if by_id[p].name == "training.ppo_update":
                    ctx = "update"
                    break
                p = by_id[p].parent
            key = f"{s.name}.{ctx}"
        keys[s.id] = key
    return keys


def self_ms(spans: list[Span]) -> dict[int, float]:
    """Span time minus the time its children in the same process cover."""
    kids = defaultdict(list)
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent is not None and by_id[s.parent].pid == s.pid:
            kids[s.parent].append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(kids[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start - covered) * 1e3
    return out


@dataclass
class Row:
    key: str
    calls: int = 0
    total_ms: float = 0.0
    self_ms: float = 0.0
    attrs: dict = None
    where: str = "step"        # step (main process) | worker | setup


def self_time_table(spans: list[Span], main_pid: int) -> dict[str, Row]:
    keys = span_keys(spans)
    selfs = self_ms(spans)
    rows: dict[str, Row] = {}
    for s in spans:
        row = rows.setdefault(keys[s.id], Row(keys[s.id], attrs=defaultdict(int)))
        row.calls += 1
        row.total_ms += s.ms
        row.self_ms += selfs[s.id]
        row.where = "setup" if s.step is None else ("worker" if s.pid != main_pid else "step")
        for k, v in (s.attrs or {}).items():
            row.attrs[k] += v
    return rows


def format_table(rows: dict[str, Row], steps: int, root_ms: float) -> str:
    """Rows by self time; `share` is of the traced step time and is given
    only for spans of the main process inside steps, which add up to it."""
    lines = [
        f"{'span':40s} {'calls':>8s} {'total ms':>11s} {'self ms':>11s} "
        f"{'self ms/step':>12s} {'share':>7s}  where"
    ]
    for row in sorted(rows.values(), key=lambda r: (r.where != "step", -r.self_ms)):
        share = f"{row.self_ms / root_ms:7.1%}" if row.where == "step" and root_ms else f"{'-':>7s}"
        lines.append(
            f"{row.key:40s} {row.calls:8d} {row.total_ms:11.2f} {row.self_ms:11.2f} "
            f"{row.self_ms / max(1, steps):12.3f} {share}  {row.where}"
        )
    return "\n".join(lines)
