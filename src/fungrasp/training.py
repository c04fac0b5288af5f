"""One-step PPO over parallel demonstration-editing rollouts.

Each episode is a pure function of (assets, policy snapshot, seed,
episode index): the per-episode rng is derived by seed-splitting, so a
batch collected with 8 workers is bit-identical to one collected with 1.
There is no discounting and no bootstrapping anywhere — the advantage is
exactly reward minus the learned value of the conditioned observation,
normalized once per batch.

The episode engine (run_episodes) takes a chunk of episodes — all of
them with one worker, every workers-th index in each pool worker —
through three phases:

1. The chunk as arrays. One episode_rngs call builds the episodes'
   generators: numpy's SeedSequence hash runs once over the keys' word
   columns, and each generator has the state of
   default_rng(SeedSequence((seed, *stream_key, i))). One reset_env
   over them gives the chunk's EnvBatch. Only the rng draws run per
   episode, each on the episode's own rng in the contract order: the
   reset's four draws (object, the pose and affordance uniforms, style,
   and at sigma_style > 0 the style disturbance), then the action draw
   (standard_normal noise in policy mode, uniform actions in random
   mode), which does not depend on the forward pass. What the reset's
   draws become (the pose, the affordance point, the clamped joints) is
   computed once over the chunk. Then one encode_observation over the
   batch's columns, one row-alone policy_forward (each trunk product a
   stacked (1, D) @ (D, H) gemv per row, so every row has the bits of a
   batch of one) and one sample_action (or the mean or random action)
   over the rows.
2. One sim.rollout_batch over the chunk: joint targets, trajectories,
   wrist edits and FK at once; one contact phase in the object frame,
   with per object one nearest-point query of the grasp frame and the
   last approach frame for every episode of the chunk on it, and one of
   the earlier approach frames for the episodes that frame did not
   crush, that yields one (E, F) contact table (each finger's deepest
   hit, or a zero row); the wrenches and gravity loads as array
   expressions over that table; one stacked closure LP (see sim).
3. One rewards.total_reward over the rollout's columns gives the
   chunk's (E, 5) table of reward terms. The chunk stays columns to the
   end: run_episodes returns them, and _results alone builds
   EpisodeResults and RolloutRecords from them.

Every batched step is element-wise or independent per episode or per
query row (the forward pass takes its trunk products row by row; the
nearest-point product runs in fixed row blocks and never as a one-row
product), so an episode's result does not depend on which chunk it ran
in, nor on which episodes share its object; one episode is
a chunk of one. metrics.jsonl stays byte-identical across worker
counts: its lines, outcome counts included, depend only on the
episodes' results.

A result carries no observation. collect_batch encodes the PPO batch's
from the results that ran, by one observe call in the main process; the
encoding is row-wise and orders its cloud table by first appearance, so
that batch has the bits of the rows the chunks saw, whichever workers
ran them.

One error rule: a PolicyError in phase 1 (a non-finite observation or
activation) ends that episode alone as an error that keeps the type in
its text. The checks run per row, in the order a batch of one meets
them (policy.row_errors), so each errored row gets the message it gets
alone and every other row keeps its bits. The result keeps the
episode's object, pose, affordance point and style, and gets zero
reward and no sample in the PPO batch.
Degenerate contact geometry is the rollout's own "degenerate" outcome,
not an error. Any other exception propagates, the PolicyError of
params that do not fit the batch's shapes too, and a run in which every
episode errors raises PolicyError.

The update (ppo_update) owns its buffers. It copies the incoming
parameter vector and Adam moments once, steps those copies in place
minibatch by minibatch (adam_step) and hands them back as a new
PolicyParams and AdamState; policy_backward fills one gradient vector
that the update allocates once. The caller's params and state are never
written, so an aborted update simply returns them.

The pool (EpisodePool, workers > 1) forks its workers. Its run writes
the params once into an anonymous shared block that the workers read
through a read-only PolicyParams view, so a task carries only small
arguments, and each worker sends back run_episodes' columns, from
which run builds the EpisodeResults (_results) as for one worker.

BLAS threads: each pool worker runs OpenBLAS on one thread, since the
workers already share the cores between them. While a process pool
(workers > 1) is open, the main process runs on one thread too, so that
no idle BLAS helper of the update spins on a core a worker needs; close
restores the count that was in force when the pool opened
(_one_blas_thread). With workers == 1 there is no pool process, and the
caller's setting is left alone.
"""

from __future__ import annotations

import ctypes
import dataclasses
import json
import logging
import mmap
import multiprocessing
import operator
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor, wait
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .assets import UserError, default_objects_dir, json_number
from .demo import Demonstration, EditBounds, load_demo
from .hand import HandSpec, Style, load_hand_spec, load_styles
from .objects import AffordanceDistribution, ObjectModel, affordance_distribution, load_object
from .policy import (
    LOG_STD_MAX,
    LOG_STD_MIN,
    ObsBatch,
    PolicyError,
    PolicyParams,
    activation_checks,
    encode_observation,
    entropy,
    init_params,
    log_prob_of_raw,
    observation_checks,
    param_shapes,
    param_views,
    policy_backward,
    policy_forward,
    row_errors,
    sample_action,
    squash,
)
from .rewards import TERMS, RewardConfig, total_reward
from .sim import FAILURE_REASONS, RolloutRecord, SimParams, reset_env, rollout_batch

log = logging.getLogger(__name__)

__all__ = [
    "TrainConfig",
    "Assets",
    "Batch",
    "EpisodeResult",
    "AdamState",
    "load_assets",
    "load_objects",
    "observe",
    "run_episodes",
    "collect_batch",
    "ppo_update",
    "train",
    "finite_diff_check",
    "episode_rng",
    "episode_rngs",
    "check_m_points",
    "outcome_counts",
    "episode_summary",
    "OUTCOMES",
    "config_from_dict",
]

# rng stream tags; changing these invalidates recorded runs
STREAM_TRAIN = 1
STREAM_EVAL = 2
STREAM_UPDATE = 3
STREAM_INIT = 4


# the largest count a config may set: a C int, so that every array size
# and range built from one fits the platform's index type
COUNT_MAX = 2**31 - 1


@dataclass(frozen=True)
class TrainConfig:
    envs_per_iter: int = 512
    iterations: int = 200
    minibatch: int = 128
    epochs: int = 4
    clip_eps: float = 0.2
    entropy_coef: float = 0.005
    value_coef: float = 0.5
    learning_rate: float = 3e-4
    sigma_style: float = 0.05
    seed: int = 0
    m_points: int = 128
    square_half: float = 0.25
    init_log_std: float = -0.5
    workers: int = 1
    eval_every: int = 0              # 0 disables periodic evaluation
    eval_episodes: int = 200
    checkpoint_every: int = 0        # 0: only final checkpoint
    reward: RewardConfig = field(default_factory=RewardConfig)
    bounds: EditBounds = field(default_factory=EditBounds)
    sim: SimParams = field(default_factory=SimParams)

    def __post_init__(self):
        for name, low in (("minibatch", 1), ("workers", 1), ("eval_episodes", 1), ("m_points", 1), ("iterations", 0),
                          ("epochs", 0), ("sigma_style", 0), ("eval_every", 0), ("checkpoint_every", 0), ("seed", 0)):
            if getattr(self, name) < low:
                raise UserError(f"{name} must be >= {low}, got {getattr(self, name)}")
        for name in ("envs_per_iter", "iterations", "minibatch", "epochs", "m_points", "workers", "eval_every",
                     "eval_episodes", "checkpoint_every"):
            if getattr(self, name) > COUNT_MAX:
                raise UserError(f"{name} must be <= {COUNT_MAX}, got {getattr(self, name)}")
        if self.envs_per_iter < self.minibatch:
            raise UserError("envs_per_iter must be >= minibatch")
        for name in ("learning_rate", "clip_eps"):
            if getattr(self, name) <= 0:
                raise UserError(f"{name} must be positive")


def _section(d, cls, section: str) -> dict:
    """d, checked as the config section `section` of dataclass cls: an
    object whose keys are fields of cls and whose values fit each
    field's default (an object for a section, json_number's number or
    integer for a float or an int, else the default's type), as is."""
    if not isinstance(d, dict):
        raise UserError(f"config '{section}' must be an object, got {d!r}")
    unknown = sorted(set(d) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise UserError(f"unknown config key(s) in '{section}': {', '.join(map(repr, unknown))}")
    defaults = cls()
    for name, value in d.items():
        default = getattr(defaults, name)
        nested = dataclasses.is_dataclass(default)
        if type(default) in (int, float):
            json_number(value, f"config '{section}.{name}'", integer=type(default) is int)
        elif not isinstance(value, dict if nested else type(default)):
            kind = "an object" if nested else type(default).__name__
            raise UserError(f"config '{section}.{name}' must be {kind}, got {value!r}")
    return d


def config_from_dict(d: dict) -> TrainConfig:
    """TrainConfig from nested dicts. A section that is not an object,
    an unknown key in any section, or a value whose type does not fit
    the field's default is a UserError that names it."""
    d = dict(_section(d, TrainConfig, "train"))
    reward = RewardConfig(**_section(d.pop("reward", {}), RewardConfig, "train.reward"))
    bounds = EditBounds(**_section(d.pop("bounds", {}), EditBounds, "train.bounds"))
    sim = SimParams(**_section(d.pop("sim", {}), SimParams, "train.sim"))
    return TrainConfig(**d, reward=reward, bounds=bounds, sim=sim)


@dataclass
class Assets:
    """Bundle shared (read-only) by every rollout worker, plus each
    object's encoded observation cloud, by (object, M, FPS seed), filled
    on first use by encode_observation. A pool worker's copy of the
    bundle is its cache for the worker's lifetime."""

    spec: HandSpec
    styles: list[Style]
    demo: Demonstration
    objects: list[ObjectModel]
    afford_dists: dict[str, AffordanceDistribution]
    cloud_cache: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def build(cls, spec, styles, demo, objects) -> "Assets":
        objects = sorted(objects, key=lambda o: o.name)
        dists = {o.name: affordance_distribution(o) for o in objects}
        return cls(spec=spec, styles=styles, demo=demo, objects=objects, afford_dists=dists)


def load_objects(objects_dir=None) -> list[ObjectModel]:
    """Every *.ply cloud in objects_dir, by file name; None reads the
    bundled objects (assets.default_objects_dir)."""
    objects_dir = default_objects_dir() if objects_dir is None else objects_dir
    paths = sorted(Path(objects_dir).glob("*.ply"))
    if not paths:
        raise FileNotFoundError(f"no .ply objects found in {objects_dir}")
    return [load_object(p) for p in paths]


def load_assets(hand_path, styles_path, demo_path, objects_dir=None) -> Assets:
    """Load a hand, its styles, its demo, and an object set
    (load_objects)."""
    spec = load_hand_spec(hand_path)
    styles = load_styles(styles_path, spec)
    demo = load_demo(demo_path, spec)
    return Assets.build(spec, styles, demo, load_objects(objects_dir))


def check_m_points(cfg: TrainConfig, assets: Assets) -> None:
    """Reject an m_points larger than the smallest cloud, naming that
    cloud, before any episode runs. Without this check the first episode
    on that cloud would raise farthest_point_sample's error, which names
    no object, only after the pool has started and metrics.jsonl has
    opened."""
    smallest = min(assets.objects, key=lambda o: len(o.points))
    if cfg.m_points > len(smallest.points):
        raise UserError(
            f"m_points {cfg.m_points} exceeds the {len(smallest.points)} points of the smallest cloud "
            f"({smallest.name!r})"
        )


def episode_rng(seed: int, stream: int, *key) -> np.random.Generator:
    """Deterministic per-episode generator from (seed, stream, key...):
    the one-key case of episode_rngs."""
    *prefix, last = (seed, stream, *key)
    return episode_rngs(prefix, [last])[0]


# numpy's SeedSequence (O'Neill's seed_seq_fe) over a pool of four uint32
# words: its hash constants, whose value at each step depends on the step alone
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


@cache
def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The hash constant before each of count steps and after the last,
    init * mult**k mod 2**32 for k = 0..count: step k multiplies by
    entry k + 1 after mixing in entry k."""
    return np.array([init * pow(mult, k, 2**32) & _MASK32 for k in range(count + 1)], dtype=np.uint32)


def _hashmix(value: np.ndarray, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of uint32 values, at steps whose hash
    constant is before, and after once the step has advanced it."""
    value = (value ^ before) * after
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = _MIX_L * x - _MIX_R * y
    return value ^ (value >> np.uint32(16))


def _int_words(n: int) -> list[int]:
    """A non-negative int as SeedSequence reads one: its little-endian
    32-bit words, [0] for 0."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n >> 32:
        n >>= 32
        words.append(n & _MASK32)
    return words


class _Seeded(ISeedSequence):
    """A SeedSequence stand-in that holds the words generate_state(4,
    uint64) gives: a PCG64 seeded by it has the state of one seeded by
    the SeedSequence."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype):
        return self.words


def episode_rngs(prefix, indices) -> list[np.random.Generator]:
    """Generators for the keys (*prefix, i), i in indices, each with the
    state of default_rng(SeedSequence((*prefix, i))), built together:
    SeedSequence's pool hash and generate_state(4, uint64) run once over
    the keys' (E,) word columns, and each PCG64 takes its four words
    through a _Seeded stand-in. A negative key int raises
    SeedSequence's ValueError."""
    head = [w for k in prefix for w in _int_words(k)]
    tails = [_int_words(i) for i in indices]
    if not tails:
        return []
    lengths = np.array([len(t) for t in tails]) + len(head)
    width = int(lengths.max())
    # a row's words past its length are zeros: the pool reads a short key's
    # missing words as zeros, and only a row's own words mix in past the pool
    words = np.zeros((len(tails), max(width, _POOL)), dtype=np.uint32)
    words[:, : len(head)] = head
    words[:, len(head) : width] = [t + [0] * (width - len(head) - len(t)) for t in tails]
    # the pool: the first four words hashed, then each pool word mixed into
    # every other, then each further word into every one
    extra = max(width - _POOL, 0)
    const = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * extra)
    pool = _hashmix(words[:, :_POOL], const[:_POOL], const[1 : _POOL + 1])
    step = _POOL
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src, None], const[step : step + 3], const[step + 1 : step + 4]))
        step += 3
    for src in range(_POOL, width):
        mixed = _mix(pool, _hashmix(words[:, src, None], const[step : step + _POOL], const[step + 1 : step + _POOL + 1]))
        pool = np.where((lengths > src)[:, None], mixed, pool)
        step += _POOL
    # generate_state(4, uint64): eight uint32 words over the pool twice, as little-endian pairs
    const = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)
    state = _hashmix(np.tile(pool, 2), const[:-1], const[1:]).astype(np.uint64)
    seeds = state[:, 0::2] | (state[:, 1::2] << np.uint64(32))
    return [np.random.Generator(np.random.PCG64(_Seeded(row))) for row in seeds]


@dataclass
class EpisodeResult:
    """One episode, built by _results from its row of run_episodes'
    columns: the facts of its reset, its action, the rollout's record
    and its row of the reward table. An errored episode keeps the facts
    of its reset and has no raw, action_vec, record or terms."""

    index: int
    object_name: str
    pose_t: np.ndarray             # (3,) object pose, world frame
    pose_r: np.ndarray             # (4,)
    p_afford: np.ndarray           # (3,) affordance point, object frame
    conditioned_style: int
    raw: np.ndarray | None = None
    action_vec: np.ndarray | None = None
    log_prob: float = 0.0
    value: float = 0.0
    record: RolloutRecord | None = None
    terms: np.ndarray | None = None    # (5,), the columns of rewards.TERMS
    error: str | None = None

    @property
    def reward(self) -> float:
        """The reward terms' total; 0.0 for an errored episode."""
        return 0.0 if self.terms is None else float(self.terms[-1])


@dataclass
class Batch:
    """The PPO batch: E' rows, one per episode that ran; results holds
    all E episodes, errored ones included."""

    obs: ObsBatch
    raw: np.ndarray                # (E', A)
    log_prob_old: np.ndarray       # (E',)
    rewards: np.ndarray            # (E',)
    advantages: np.ndarray         # (E',) normalized
    results: list[EpisodeResult]


ACTION_MODES = ("policy", "mean", "random")


def observe(results: list[EpisodeResult], cfg: TrainConfig, assets: Assets) -> ObsBatch:
    """The observations of the results' episodes, row i for results[i],
    by one encode_observation call over their objects, poses,
    affordance points and conditioned styles."""
    objects = {obj.name: obj for obj in assets.objects}
    return encode_observation(
        [objects[r.object_name] for r in results],
        np.stack([r.pose_t for r in results]),
        np.stack([r.pose_r for r in results]),
        np.stack([r.p_afford for r in results]),
        [r.conditioned_style for r in results],
        assets.demo, assets.styles, cfg.m_points, cfg.seed, assets.cloud_cache,
    )


def run_episodes(
    params: PolicyParams,
    cfg: TrainConfig,
    assets: Assets,
    seed: int,
    stream_key: tuple,
    indices,
    *,
    mode: str = "policy",          # one of ACTION_MODES
    force_style: int | None = None,
) -> tuple:
    """Full conditioned episodes, in the order of `indices`, as one chunk
    through the engine's three phases and its error rule (see the module
    docstring). Returns its columns for _results, arrays stacked and the
    rest listed: every episode's (index, object_name, pose_t, pose_r,
    p_afford, conditioned_style, log_prob, value, error), then the raw,
    action_vec and terms and the rollout_batch columns of those that
    ran, both empty when none did. Each row is bit for bit what the
    episode gets in a chunk of its own.

    cfg.sigma_style sets the reset's style disturbance; evaluation runs
    at 0, which draws none.

    force_style overrides the sampled style *after* the reset draws, so
    the environment (object, pose, affordance) is identical across the
    forced candidates of a best-style sweep.
    """
    if mode not in ACTION_MODES:
        raise ValueError(f"unknown action mode {mode!r}")
    if not len(indices):
        return [], [], []
    joint_count = assets.spec.joint_count
    lo, hi = cfg.bounds.intervals(joint_count)
    rngs = episode_rngs((seed, *stream_key), indices)
    env = reset_env(
        assets.objects, assets.afford_dists, assets.styles, rngs, spec=assets.spec,
        square_half=cfg.square_half, sigma_style=cfg.sigma_style, force_style=force_style,
    )
    if mode == "policy":
        draws = np.stack([rng.standard_normal(params.action_dim) for rng in rngs])
    elif mode == "random":
        draws = np.stack([rng.uniform(lo, hi) for rng in rngs])

    obs = encode_observation(
        env.objs, env.pose_t, env.pose_r, env.p_afford, env.style,
        assets.demo, assets.styles, cfg.m_points, cfg.seed, assets.cloud_cache,
    )
    mean, log_std, value, cache = policy_forward(params, obs, check=False, row_alone=True)
    errors = row_errors(observation_checks(obs) + activation_checks(mean, value, cache), len(env))
    for i, error in zip(indices, errors):
        if error is not None:
            log.warning("episode %d failed (%s); scored as zero reward", i, error)
    live = [k for k, error in enumerate(errors) if error is None]
    policy_out = np.zeros((2, len(env)))      # log_prob and value, zero where an episode errored
    ran, rollout = [], []
    if live:
        if mode == "policy":
            raw, actions, logp = sample_action(mean[live], log_std, cfg.bounds, joint_count, draws[live])
        elif mode == "mean":
            raw = mean[live]
            actions = squash(raw, lo, hi)
            logp, _, _ = log_prob_of_raw(raw, log_std, raw, cfg.bounds, joint_count)
        else:
            actions = draws[live]
            raw = np.zeros_like(actions)
            logp = np.zeros(len(live))
        policy_out[:, live] = logp, value[live]
        played = env[live]
        rollout = rollout_batch(played, assets.demo, actions, assets.spec, assets.styles, cfg.sim)
        d_final, d_min, q_final, _, _, reasons = rollout
        canonical = np.stack([style.q_canonical for style in assets.styles])
        terms = total_reward([reason is None for reason in reasons], d_final, d_min, q_final,
                             canonical[played.style], played.obj_bb, cfg.reward)
        ran = [raw, actions, terms]
    errors = [None if error is None else f"PolicyError: {error}" for error in errors]
    every = [list(indices), [obj.name for obj in env.objs], env.pose_t, env.pose_r, env.p_afford,
             env.style.tolist(), *policy_out.tolist(), errors]
    return every, ran, rollout


# ---------------------------------------------------------------------------
# Worker pool: chunked episodes in subprocesses, results in index order
# ---------------------------------------------------------------------------

_WORKER_ASSETS: Assets | None = None
_WORKER_FLAT: np.ndarray | None = None      # the pool's params block


# (prefix, suffix) of the OpenBLAS builds' get/set_num_threads entry points
_OPENBLAS_NAMINGS = (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", ""))


def _pin_blas_threads(n: int) -> int | None:
    """Run the OpenBLAS that numpy loaded on n threads, through its own
    get/set-num-threads entry points, and return the count it had. The
    set runs only when that count differs from n: setting the count
    restarts OpenBLAS's thread server. Returns None, and logs at debug
    level, when no such library or entry point is mapped in this
    process."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in _OPENBLAS_NAMINGS:
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is None or set_ is None:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            previous = get()
            if previous != n:
                set_(n)
            return previous
    log.debug("no OpenBLAS get/set-num-threads entry points found; BLAS threads left as they are")
    return None


@contextmanager
def _one_blas_thread():
    """OpenBLAS on one thread inside the block; on leaving it, also by an
    exception, the count that was in force when it was entered."""
    previous = _pin_blas_threads(1)
    try:
        yield
    finally:
        if previous is not None:
            _pin_blas_threads(previous)


def _pool_init(assets: Assets, block: mmap.mmap):
    """Worker set-up: the shared assets (and with them the worker's cloud
    cache) and the pool's params block as an array. The worker is forked
    from the pinned main process, so OpenBLAS already runs on one thread."""
    global _WORKER_ASSETS, _WORKER_FLAT
    _WORKER_ASSETS = assets
    _WORKER_FLAT = np.frombuffer(block, dtype=float)


def _results(columns: tuple) -> list[EpisodeResult]:
    """run_episodes' columns as its episodes' results, in the chunk's
    order, each field with its bits; the one place where results and
    records are built."""
    every, ran_cols, rollout = columns
    results = [EpisodeResult(i, name, t, r, p, style, log_prob=logp, value=value, error=error)
               for i, name, t, r, p, style, logp, value, error in zip(*every)]
    ran = [res for res in results if res.error is None]
    for res, (raw, action_vec, terms), row in zip(ran, zip(*ran_cols), zip(*rollout)):
        res.raw, res.action_vec, res.terms, res.record = raw, action_vec, terms, RolloutRecord(*row)
    return results


def _pool_chunk(args):
    """One worker's chunk, as run_episodes' columns, under the params in
    the pool's block, laid out by the counts the task carries."""
    counts, cfg, seed, stream_key, indices, mode, force_style = args
    return run_episodes(
        PolicyParams(_WORKER_FLAT, *counts), cfg, _WORKER_ASSETS, seed, stream_key, indices,
        mode=mode, force_style=force_style,
    )


class EpisodePool:
    """Bulk-synchronous episode runner; workers share read-only assets.
    Every episode of training and evaluation runs through `run`.

    With workers > 1 the strided chunks c, c + workers, ... run in
    forked processes, at most one per CPU (the executor forks them all
    at its first submit). `run` returns or raises only once
    every chunk has ended, so no worker reads the params block while the
    next `run` writes it. Each worker runs OpenBLAS on one thread, and so
    does the main process from here until `close`, which restores the
    count in force when the pool opened. With workers == 1 the episodes
    run in the calling process, and its BLAS threads are left as the
    caller set them."""

    def __init__(self, workers: int, assets: Assets):
        self.workers = workers
        self.assets = assets
        self._ex = None
        self._open = ExitStack()       # closed in reverse: the executor, the block, then the pin
        if self.workers > 1:
            self._open.enter_context(_one_blas_thread())
            size = sum(map(np.prod, param_shapes(len(assets.styles), assets.spec.joint_count).values()))
            self._block = self._open.enter_context(mmap.mmap(-1, int(size) * np.dtype(float).itemsize))
            self._flat = np.frombuffer(self._block, dtype=float)
            self._ex = self._open.enter_context(ProcessPoolExecutor(
                max_workers=min(self.workers, os.cpu_count() or 1), mp_context=multiprocessing.get_context("fork"),
                initializer=_pool_init, initargs=(assets, self._block),
            ))

    def run(
        self, params, cfg, seed, stream_key, n_episodes, *, mode="policy", force_style=None,
    ) -> list[EpisodeResult]:
        """Episodes 0..n_episodes-1 in index order; raises PolicyError
        if every one of them errored."""
        indices = list(range(n_episodes))
        if self._ex is None:
            out = _results(run_episodes(
                params, cfg, self.assets, seed, stream_key, indices, mode=mode, force_style=force_style,
            ))
        else:
            self._flat[:] = params.flat
            counts = (params.m_points, params.style_count, params.joint_count)
            tasks = [(counts, cfg, seed, stream_key, indices[c :: self.workers], mode, force_style)
                     for c in range(min(self.workers, n_episodes))]
            futures = [self._ex.submit(_pool_chunk, task) for task in tasks]
            wait(futures)
            out = [None] * n_episodes
            for c, future in enumerate(futures):
                out[c :: self.workers] = _results(future.result())
        if out and all(r.error is not None for r in out):
            raise PolicyError(f"all {len(out)} episodes failed; the first: {out[0].error}")
        return out

    def close(self):
        self._ex = self._flat = None    # the block closes only when no view of it is left
        self._open.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def collect_batch(
    params: PolicyParams,
    cfg: TrainConfig,
    assets: Assets,
    iteration: int,
    pool: EpisodePool | None = None,
) -> Batch:
    """E independent training episodes in episode-index order. The PPO
    batch stacks the episodes that ran, with their observations encoded
    here (observe); errored ones stay in results only."""
    with nullcontext(pool) if pool else EpisodePool(cfg.workers, assets) as pool:
        results = pool.run(params, cfg, cfg.seed, (STREAM_TRAIN, iteration), cfg.envs_per_iter)
    ran = [r for r in results if r.error is None]
    rewards = np.array([r.reward for r in ran])
    adv = rewards - np.array([r.value for r in ran])
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    return Batch(
        obs=observe(ran, cfg, assets),
        raw=np.stack([r.raw for r in ran]),
        log_prob_old=np.array([r.log_prob for r in ran]),
        rewards=rewards,
        advantages=adv,
        results=results,
    )


# ---------------------------------------------------------------------------
# Adam and the PPO update
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """Adam's moments, in the layout of PolicyParams.flat, and its step
    count. adam_step updates a state in place; ppo_update works on its
    own copy of the moments and hands back that copy, so the state a
    caller passes in is never written."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def init(cls, params: PolicyParams) -> "AdamState":
        n = params.flat.size
        return cls(m=np.zeros(n), v=np.zeros(n), step=0)


# Adam's moment decay rates and its denominator's floor
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def adam_step(
    flat: np.ndarray, grads: np.ndarray, state: AdamState, lr: float, scratch: tuple[np.ndarray, np.ndarray],
) -> None:
    """One Adam step in place: flat (a parameter vector), state.m and
    state.v are updated and state.step is counted up; grads is a gradient
    vector in the same layout (policy_backward's), and scratch a pair of
    vectors of that size for the temporaries. The operations run in this
    order, each rounded once (b1, b2, eps: ADAM_BETA1, ADAM_BETA2, ADAM_EPS):
    m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g, m^ = m/(1-b1^t),
    v^ = v/(1-b2^t), flat -= (lr*m^) / (sqrt(v^) + eps)."""
    s0, s1 = scratch
    state.step += 1
    m, v = state.m, state.v
    np.multiply(m, ADAM_BETA1, out=m)
    np.multiply(grads, 1 - ADAM_BETA1, out=s0)
    np.add(m, s0, out=m)
    np.multiply(grads, 1 - ADAM_BETA2, out=s0)
    np.multiply(s0, grads, out=s0)
    np.multiply(v, ADAM_BETA2, out=v)
    np.add(v, s0, out=v)
    np.divide(m, 1 - ADAM_BETA1**state.step, out=s0)
    np.divide(v, 1 - ADAM_BETA2**state.step, out=s1)
    np.sqrt(s1, out=s1)
    np.add(s1, ADAM_EPS, out=s1)
    np.multiply(s0, lr, out=s0)
    np.divide(s0, s1, out=s0)
    np.subtract(flat, s0, out=flat)


def clipped_surrogate(ratio: np.ndarray, adv: np.ndarray, clip_eps: float):
    """Element-wise PPO surrogate min(rho*A, clip(rho)*A) and its
    d/d log_prob coefficient (zero where the clip is active and binding)."""
    unclipped = ratio * adv
    clipped = np.clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps) * adv
    surrogate = np.minimum(unclipped, clipped)
    use_unclipped = unclipped <= clipped
    inside = (ratio > 1.0 - clip_eps) & (ratio < 1.0 + clip_eps)
    coef = np.where(use_unclipped | inside, ratio * adv, 0.0)
    return surrogate, coef


def ppo_update(
    params: PolicyParams,
    batch: Batch,
    cfg: TrainConfig,
    adam: AdamState,
    rng: np.random.Generator,
) -> tuple[PolicyParams, AdamState, dict]:
    """Epochs of shuffled-minibatch clipped-surrogate steps.

    The update owns its buffers: one private copy of params.flat, which
    the minibatches read through the views of one PolicyParams and Adam
    steps in place; private copies of adam's moments; one gradient
    vector that every policy_backward call fills; and adam_step's two
    scratch vectors. It returns that PolicyParams (its flat read-only)
    and that AdamState; the params and state passed in are never
    written.

    A non-finite loss or non-finite activations abort the iteration and
    return the incoming params and state (the batch is discarded).
    """
    e = batch.raw.shape[0]
    joint_count = params.joint_count
    work = params.flat.copy()
    current = PolicyParams(work, params.m_points, params.style_count, joint_count)
    state = AdamState(m=adam.m.copy(), v=adam.v.copy(), step=adam.step)
    grads = np.empty_like(work)
    grad_views = param_views(grads, params.style_count, joint_count)
    scratch = (np.empty_like(work), np.empty_like(work))
    order = np.arange(e)
    clip_hits = 0
    clip_total = 0
    value_loss_last = 0.0
    try:
        for _ in range(cfg.epochs):
            rng.shuffle(order)
            for start in range(0, e, cfg.minibatch):
                sel = order[start : start + cfg.minibatch]
                mean, log_std, value, cache = policy_forward(current, batch.obs[sel])
                logp_new, d_mean_lp, d_logstd_lp = log_prob_of_raw(
                    mean, log_std, batch.raw[sel], cfg.bounds, joint_count
                )
                ratio = np.exp(logp_new - batch.log_prob_old[sel])
                adv = batch.advantages[sel]
                surrogate, coef = clipped_surrogate(ratio, adv, cfg.clip_eps)
                n_mb = len(sel)
                value_err = value - batch.rewards[sel]
                loss = (
                    -surrogate.mean()
                    + cfg.value_coef * np.mean(value_err**2)
                    - cfg.entropy_coef * entropy(log_std)
                )
                if not np.isfinite(loss):
                    raise FloatingPointError(f"non-finite loss {loss}")
                d_logp = -coef / n_mb
                d_mean = d_logp[:, None] * d_mean_lp
                d_value = 2.0 * cfg.value_coef * value_err / n_mb
                d_log_std = (d_logp[:, None] * d_logstd_lp).sum(axis=0) - cfg.entropy_coef
                policy_backward(current, cache, d_mean, d_value, d_log_std, out=grad_views)
                adam_step(work, grads, state, cfg.learning_rate, scratch)
                clip_hits += int(np.sum(np.abs(ratio - 1.0) > cfg.clip_eps))
                clip_total += n_mb
                value_loss_last = float(np.mean(value_err**2))
    except (FloatingPointError, PolicyError) as exc:
        log.error("ppo_update aborted, restoring previous parameters: %s", exc)
        return params, adam, {"aborted": str(exc)}
    log_std = np.clip(current.log_std, LOG_STD_MIN, LOG_STD_MAX)
    stats = _batch_stats(batch, log_std)
    stats.update(
        clip_fraction=clip_hits / max(1, clip_total),
        entropy=entropy(log_std),
        value_loss=value_loss_last,
    )
    return current, state, stats


# episode outcomes, in the order metrics.jsonl and the eval report list them
OUTCOMES = ("ok", *FAILURE_REASONS, "error")


def outcome_counts(results: list[EpisodeResult]) -> dict:
    """How many episodes ended in each of OUTCOMES: "error" when the
    episode raised, else its record's failure reason or "ok"."""
    counts = dict.fromkeys(OUTCOMES, 0)
    for r in results:
        counts["error" if r.record is None else r.record.failure_reason or "ok"] += 1
    return counts


def episode_summary(results: list[EpisodeResult]) -> dict:
    """What metrics.jsonl and report.json say of a list of episodes:
    the outcome counts, the mean of each reward term over the episodes
    that ran (None when none did) and how often each error message came
    up."""
    terms = [r.terms for r in results if r.terms is not None]
    table = np.stack(terms) if terms else None
    return {
        "outcomes": outcome_counts(results),
        "reward_terms": {
            name: float(np.mean(table[:, j])) if terms else None for j, name in enumerate(TERMS)
        },
        "errors": dict(Counter(r.error for r in results if r.error is not None)),
    }


def _batch_stats(batch: Batch, log_std: np.ndarray) -> dict:
    """The batch's part of a metrics.jsonl train line, with the
    episode_summary of its results and the range of the updated
    policy's (clamped) log_std."""
    ran = [r for r in batch.results if r.record is not None]
    succ = [r for r in ran if r.record.success]
    matches = [r for r in succ if r.record.executed_style == r.conditioned_style]
    return {
        "mean_reward": float(batch.rewards.mean()),
        "gsr": len(succ) / max(1, len(ran)),
        "sad": float(np.mean([r.record.d_final for r in succ])) if succ else None,
        "sa": len(matches) / len(succ) if succ else None,
        "episode_errors": sum(r.error is not None for r in batch.results),
        **episode_summary(batch.results),
        "log_std": {"min": float(log_std.min()), "mean": float(log_std.mean()), "max": float(log_std.max())},
    }


def train(cfg: TrainConfig, assets: Assets, out_dir) -> dict:
    """collect -> update loop with JSONL metrics and checkpoints.

    Returns {"params": ..., "metrics_path": ..., "checkpoint_path": ...}.
    """
    from .dataio import save_checkpoint
    from .evaluation import evaluate

    check_m_points(cfg, assets)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = out_dir / "metrics.jsonl"
    rng_init = episode_rng(cfg.seed, STREAM_INIT)
    params = init_params(
        rng_init, cfg.m_points, len(assets.styles), assets.spec.joint_count, cfg.init_log_std
    )
    adam = AdamState.init(params)
    ckpt_path = out_dir / "checkpoint.json"

    def checkpoint(iteration: int) -> None:     # params as they are at the call
        save_checkpoint(params, {"hand": assets.spec.name, "iteration": iteration, "rng": {"seed": cfg.seed}}, ckpt_path)

    with metrics_path.open("w") as metrics, EpisodePool(cfg.workers, assets) as pool:
        for it in range(cfg.iterations):
            batch = collect_batch(params, cfg, assets, it, pool)
            rng_update = episode_rng(cfg.seed, STREAM_UPDATE, it)
            params, adam, stats = ppo_update(params, batch, cfg, adam, rng_update)
            line = {"kind": "train", "iteration": it, **stats}
            metrics.write(json.dumps(line) + "\n")
            metrics.flush()
            if cfg.eval_every and (it + 1) % cfg.eval_every == 0:
                m, results = evaluate(
                    params, cfg, assets, cfg.eval_episodes, seed=cfg.seed, pool=pool
                )
                line = {"kind": "eval", "iteration": it, **m.as_dict(), **episode_summary(results)}
                metrics.write(json.dumps(line) + "\n")
                metrics.flush()
            if cfg.checkpoint_every and (it + 1) % cfg.checkpoint_every == 0:
                checkpoint(it + 1)
    checkpoint(cfg.iterations)
    return {"params": params, "metrics_path": metrics_path, "checkpoint_path": ckpt_path}


# ---------------------------------------------------------------------------
# Gradient gate
# ---------------------------------------------------------------------------

def finite_diff_check(
    params: PolicyParams,
    batch: ObsBatch,
    rng: np.random.Generator,
    n_params: int,
) -> float:
    """Max relative error, analytic vs central differences (h = 1e-5).

    The probe objective mixes log-probs of fixed raw actions, values, and
    the entropy so every parameter group is exercised. Relative error is
    |a - f| / max(|a|, |f|, 1e-3); the floor keeps dead-ReLU parameters
    (analytic gradient exactly 0, finite difference pure rounding noise)
    from producing spurious failures.
    """
    bounds = EditBounds()
    joint_count = params.joint_count
    b = batch.size
    raw = rng.standard_normal((b, params.action_dim))
    c_lp = rng.normal(size=b)
    c_v = rng.normal(size=b)
    c_h = float(rng.normal())

    def objective(p: PolicyParams) -> float:
        mean, log_std, value, _ = policy_forward(p, batch, check=False)
        logp, _, _ = log_prob_of_raw(mean, log_std, raw, bounds, joint_count)
        return float((c_lp * logp).sum() + (c_v * value).sum() + c_h * entropy(log_std))

    mean, log_std, value, cache = policy_forward(params, batch, check=False)
    _, d_mean_lp, d_logstd_lp = log_prob_of_raw(mean, log_std, raw, bounds, joint_count)
    d_mean = c_lp[:, None] * d_mean_lp
    d_value = c_v.copy()
    d_log_std = (c_lp[:, None] * d_logstd_lp).sum(axis=0) + c_h
    grads = policy_backward(params, cache, d_mean, d_value, d_log_std)

    h = 1e-5
    flat = params.flat.copy()
    idx = rng.choice(flat.size, size=min(n_params, flat.size), replace=False)
    worst = 0.0
    for i in idx:
        x = flat[i]
        flat[i] = x + h
        f_plus = objective(dataclasses.replace(params, flat=flat))
        flat[i] = x - h
        f_minus = objective(dataclasses.replace(params, flat=flat))
        flat[i] = x
        fd = (f_plus - f_minus) / (2.0 * h)
        an = grads[i]
        rel = abs(an - fd) / max(abs(an), abs(fd), 1e-3)
        worst = max(worst, rel)
    return worst
