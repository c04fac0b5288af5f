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

1. Per episode: the episode rng, the object draw, reset_env,
   encode_observation, a B=1 policy_forward and the action draw. The
   rng draws keep their order (object, reset, action), and the forward
   pass stays B=1 because a stacked forward is a matrix-matrix product
   whose rows round differently from the single-row product.
2. One sim.rollout_batch over the chunk: joint targets, trajectories,
   wrist edits and FK at once; one contact phase in the object frame,
   with one nearest-point query per object for every episode of the
   chunk on it; one stacked closure LP (see sim).
3. Per episode: the reward and the EpisodeResult.

Every batched step is element-wise or independent per episode or per
query row (the nearest-point product runs in fixed row blocks and never
as a one-row product), so an episode's result does not depend on which
chunk it ran in, nor on which episodes share its object; run_episode is
the one-episode case. metrics.jsonl stays byte-identical across worker
counts: its lines, outcome counts included, depend only on the
episodes' results. An episode that raises in phase 1 or 3 is
scored as an error alone; if phase 2 raises, the chunk is rerun one
episode at a time so only the failing episode becomes an error.
"""

from __future__ import annotations

import ctypes
import dataclasses
import json
import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .demo import Demonstration, EditAction, EditBounds, load_demo
from .geometry import transform_point
from .hand import HandSpec, Style, load_hand_spec, load_styles
from .objects import (
    AffordanceDistribution,
    ObjectModel,
    affordance_distribution,
    load_object,
    toy_suite,
)
from .policy import (
    ObsBatch,
    ObservationVector,
    PolicyError,
    PolicyParams,
    encode_observation,
    entropy,
    flatten_params,
    init_params,
    log_prob_of_raw,
    policy_backward,
    policy_forward,
    sample_action,
    squash,
    stack_observations,
    unflatten_params,
)
from .rewards import RewardConfig, total_reward
from .sim import EnvState, SimParams, reset_env, rollout_batch

log = logging.getLogger(__name__)

__all__ = [
    "TrainConfig",
    "Assets",
    "Batch",
    "EpisodeResult",
    "AdamState",
    "load_assets",
    "run_episode",
    "run_episodes",
    "collect_batch",
    "ppo_update",
    "train",
    "finite_diff_check",
    "run_bandit",
    "episode_rng",
    "check_m_points",
    "outcome_counts",
    "OUTCOMES",
    "config_to_dict",
    "config_from_dict",
]

# rng stream tags; changing these invalidates recorded runs
STREAM_TRAIN = 1
STREAM_EVAL = 2
STREAM_UPDATE = 3
STREAM_INIT = 4
STREAM_BANDIT = 5


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
        if self.envs_per_iter < self.minibatch:
            raise ValueError("envs_per_iter must be >= minibatch")
        for name in ("learning_rate", "clip_eps"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


def config_to_dict(cfg: TrainConfig) -> dict:
    from dataclasses import asdict

    return asdict(cfg)


def _known_keys(d: dict, cls, section: str) -> dict:
    unknown = sorted(set(d) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ValueError(f"unknown config key(s) in '{section}': {', '.join(map(repr, unknown))}")
    return d


def config_from_dict(d: dict) -> TrainConfig:
    """TrainConfig from nested dicts; an unknown key in any section is a
    ValueError that names it."""
    d = dict(_known_keys(d, TrainConfig, "train"))
    reward = RewardConfig(**_known_keys(d.pop("reward", {}), RewardConfig, "train.reward"))
    bounds = EditBounds(**_known_keys(d.pop("bounds", {}), EditBounds, "train.bounds"))
    sim = SimParams(**_known_keys(d.pop("sim", {}), SimParams, "train.sim"))
    return TrainConfig(**d, reward=reward, bounds=bounds, sim=sim)


@dataclass
class Assets:
    """Immutable bundle shared (read-only) by every rollout worker."""

    spec: HandSpec
    styles: list[Style]
    demo: Demonstration
    objects: list[ObjectModel]
    afford_dists: dict[str, AffordanceDistribution]

    @classmethod
    def build(cls, spec, styles, demo, objects) -> "Assets":
        objects = sorted(objects, key=lambda o: o.name)
        dists = {o.name: affordance_distribution(o) for o in objects}
        return cls(spec=spec, styles=styles, demo=demo, objects=objects, afford_dists=dists)


def load_assets(hand_path, styles_path, demo_path, objects_dir=None) -> Assets:
    """Load a hand, its styles, its demo, and an object set.

    objects_dir of None falls back to the procedural toy suite.
    """
    spec = load_hand_spec(hand_path)
    styles = load_styles(styles_path, spec)
    demo = load_demo(demo_path, spec)
    if objects_dir is None:
        objects = list(toy_suite().values())
    else:
        paths = sorted(Path(objects_dir).glob("*.ply"))
        if not paths:
            raise FileNotFoundError(f"no .ply objects found in {objects_dir}")
        objects = [load_object(p) for p in paths]
    return Assets.build(spec, styles, demo, objects)


def check_m_points(cfg: TrainConfig, assets: Assets) -> None:
    """Reject an m_points larger than the smallest cloud before any
    episode runs; otherwise every episode's sampling fails on its own."""
    smallest = min(assets.objects, key=lambda o: len(o.points))
    if cfg.m_points > len(smallest.points):
        raise ValueError(
            f"m_points {cfg.m_points} exceeds the {len(smallest.points)} points of the smallest cloud "
            f"({smallest.name!r})"
        )


def episode_rng(seed: int, stream: int, *key) -> np.random.Generator:
    """Deterministic per-episode generator from (seed, stream, key...)."""
    return np.random.default_rng(np.random.SeedSequence((seed, stream) + tuple(int(k) for k in key)))


@dataclass
class EpisodeResult:
    index: int
    object_name: str
    obs: ObservationVector
    raw: np.ndarray
    action_vec: np.ndarray
    log_prob: float
    value: float
    reward: float
    record: object                 # RolloutRecord (None only if the episode errored)
    p_afford_world: np.ndarray
    conditioned_style: int
    error: str | None = None


@dataclass
class Batch:
    obs: ObsBatch
    raw: np.ndarray                # (E, A)
    log_prob_old: np.ndarray       # (E,)
    rewards: np.ndarray            # (E,)
    values_old: np.ndarray         # (E,)
    advantages: np.ndarray         # (E,) normalized
    results: list[EpisodeResult]
    episode_errors: int


def _zero_observation(cfg: TrainConfig, assets: Assets) -> ObservationVector:
    return ObservationVector(
        s_r=np.zeros(7),
        s_o=np.zeros(7),
        cloud=np.zeros((cfg.m_points, 6)),
        p_afford_rel=np.zeros(3),
        l_style=np.eye(len(assets.styles))[0],
        obj_bb=1.0,
    )


@dataclass
class _Draft:
    """An episode after phase 1: its environment, observation and action."""

    index: int
    env: EnvState
    obs: ObservationVector
    raw: np.ndarray
    action: EditAction
    log_prob: float
    value: float


def _act(params, cfg, assets, fps_cache, seed, stream_key, index, train_mode, mode, force_style) -> _Draft:
    """Phase 1 of one episode: reset, observe, a B=1 forward pass, act."""
    rng = episode_rng(seed, *stream_key, index)
    joint_count = assets.spec.joint_count
    obj = assets.objects[int(rng.integers(len(assets.objects)))]
    env = reset_env(
        obj,
        assets.afford_dists[obj.name],
        assets.styles,
        rng,
        train_mode,
        spec=assets.spec,
        square_half=cfg.square_half,
        sigma_style=cfg.sigma_style if train_mode else 0.0,
    )
    if force_style is not None:
        style = assets.styles[force_style]
        env.condition = dataclasses.replace(
            env.condition,
            style_index=force_style,
            q_style_used=style.q_canonical.copy(),
            contact_mask=style.contact_mask,
        )
    obs = encode_observation(
        env, assets.demo, assets.spec, assets.styles, cfg.m_points, cfg.seed, fps_cache
    )
    mean, log_std, value, _ = policy_forward(params, stack_observations([obs]))
    lo, hi = cfg.bounds.intervals(joint_count)
    if mode == "policy":
        sample = sample_action(mean[0], log_std, cfg.bounds, joint_count, rng)
        raw, action, logp = sample.raw, sample.action, sample.log_prob
    elif mode == "mean":
        raw = mean[0]
        vec = squash(raw, lo, hi)
        action = EditAction.from_vector(vec, joint_count)
        logp, _, _ = log_prob_of_raw(mean[0], log_std, raw, cfg.bounds, joint_count)
        logp = float(logp)
    elif mode == "random":
        vec = rng.uniform(lo, hi)
        action = EditAction.from_vector(vec, joint_count)
        raw = np.zeros_like(vec)
        logp = 0.0
    elif mode == "identity":
        action = EditAction.identity(joint_count)
        raw = np.zeros(7 + joint_count)
        logp = 0.0
    else:
        raise ValueError(f"unknown action mode {mode!r}")
    return _Draft(index, env, obs, np.asarray(raw, dtype=float), action, float(logp), float(value[0]))


def _score(draft: _Draft, record, cfg: TrainConfig) -> EpisodeResult:
    """Phase 3 of one episode: reward the rollout record."""
    terms = total_reward(record, cfg.reward)
    env = draft.env
    return EpisodeResult(
        index=draft.index,
        object_name=env.obj.name,
        obs=draft.obs,
        raw=draft.raw,
        action_vec=draft.action.to_vector(),
        log_prob=draft.log_prob,
        value=draft.value,
        reward=float(terms.total),
        record=record,
        p_afford_world=transform_point(env.object_pose, env.condition.p_afford),
        conditioned_style=env.condition.style_index,
    )


def _failed(params, cfg: TrainConfig, assets: Assets, index: int, exc: Exception) -> EpisodeResult:
    log.warning("episode %d failed (%s); scored as zero reward", index, exc)
    joint_count = assets.spec.joint_count
    obs = _zero_observation(cfg, assets)
    mean, log_std, value, _ = policy_forward(params, stack_observations([obs]))
    raw = np.array(mean[0])
    logp, _, _ = log_prob_of_raw(mean[0], log_std, raw, cfg.bounds, joint_count)
    return EpisodeResult(
        index=index,
        object_name="<error>",
        obs=obs,
        raw=raw,
        action_vec=squash(raw, *cfg.bounds.intervals(joint_count)),
        log_prob=float(logp),
        value=float(value[0]),
        reward=0.0,
        record=None,
        p_afford_world=np.zeros(3),
        conditioned_style=0,
        error=str(exc),
    )


def run_episodes(
    params: PolicyParams,
    cfg: TrainConfig,
    assets: Assets,
    fps_cache: dict,
    seed: int,
    stream_key: tuple,
    indices,
    *,
    train_mode: bool,
    mode: str = "policy",          # policy | mean | random | identity
    force_style: int | None = None,
) -> list[EpisodeResult]:
    """Full conditioned episodes, in the order of `indices`, through the
    engine's three phases (see the module docstring).

    An episode that raises in phase 1 or 3 is scored as an error on its
    own. If the batched rollout raises, the episodes are rerun one at a
    time, so only the failing one becomes an error. force_style
    overrides the sampled style *after* the reset draws, so the
    environment (object, pose, affordance) is identical across the
    forced candidates of a best-style sweep.
    """
    episodes: list[_Draft | EpisodeResult] = []
    for index in indices:
        try:
            episodes.append(
                _act(params, cfg, assets, fps_cache, seed, stream_key, index, train_mode, mode, force_style)
            )
        except Exception as e:  # noqa: BLE001 - degenerate geometry must not kill a sweep
            episodes.append(_failed(params, cfg, assets, index, e))
    live = [i for i, ep in enumerate(episodes) if isinstance(ep, _Draft)]
    if not live:
        return episodes  # type: ignore[return-value]
    try:
        records = rollout_batch(
            [episodes[i].env for i in live], assets.demo, [episodes[i].action for i in live],
            assets.spec, assets.styles, cfg.sim,
        )
    except Exception as e:  # noqa: BLE001 - contained to the failing episode below
        if len(live) > 1:
            log.warning("batched rollout failed (%s); rerunning %d episodes one at a time", e, len(live))
        for i in live:
            index = episodes[i].index
            episodes[i] = (
                _failed(params, cfg, assets, index, e) if len(live) == 1 else run_episode(
                    params, cfg, assets, fps_cache, seed, stream_key, index,
                    train_mode=train_mode, mode=mode, force_style=force_style,
                )
            )
        return episodes  # type: ignore[return-value]
    for i, record in zip(live, records):
        try:
            episodes[i] = _score(episodes[i], record, cfg)
        except Exception as e:  # noqa: BLE001
            episodes[i] = _failed(params, cfg, assets, episodes[i].index, e)
    return episodes  # type: ignore[return-value]


def run_episode(
    params: PolicyParams,
    cfg: TrainConfig,
    assets: Assets,
    fps_cache: dict,
    seed: int,
    stream_key: tuple,
    index: int,
    *,
    train_mode: bool,
    mode: str = "policy",          # policy | mean | random | identity
    force_style: int | None = None,
) -> EpisodeResult:
    """One full conditioned episode: reset, observe, act, roll out, score."""
    (result,) = run_episodes(
        params, cfg, assets, fps_cache, seed, stream_key, [index],
        train_mode=train_mode, mode=mode, force_style=force_style,
    )
    return result


# ---------------------------------------------------------------------------
# Worker pool: chunked episodes in subprocesses, results in index order
# ---------------------------------------------------------------------------

_WORKER_ASSETS: Assets | None = None
_WORKER_FPS_CACHE: dict = {}


def _pin_blas_threads(n: int) -> None:
    """Set the thread count of the OpenBLAS that numpy loaded, through
    its own set-num-threads entry point. Logs at debug level and does
    nothing when no such library or symbol is mapped in this process."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_", "openblas_set_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = [ctypes.c_int]
                fn.restype = None
                fn(n)
                return
    log.debug("no OpenBLAS set-num-threads entry point found; BLAS threads left as they are")


def _pool_init(assets: Assets):
    """Worker set-up: shared assets, an FPS cache for the worker's
    lifetime, and one BLAS thread, since the workers already share the
    cores between them."""
    global _WORKER_ASSETS, _WORKER_FPS_CACHE
    _WORKER_ASSETS = assets
    _WORKER_FPS_CACHE = {}
    _pin_blas_threads(1)


def _pool_chunk(args):
    params, cfg, seed, stream_key, indices, train_mode, mode = args
    return run_episodes(
        params, cfg, _WORKER_ASSETS, _WORKER_FPS_CACHE, seed, stream_key, indices,
        train_mode=train_mode, mode=mode,
    )


class EpisodePool:
    """Bulk-synchronous episode runner; workers share read-only assets."""

    def __init__(self, workers: int, assets: Assets):
        self.workers = max(1, int(workers))
        self.assets = assets
        self._fps_cache: dict = {}
        self._ex = None
        if self.workers > 1:
            self._ex = ProcessPoolExecutor(
                max_workers=self.workers, initializer=_pool_init, initargs=(assets,)
            )

    def run(self, params, cfg, seed, stream_key, n_episodes, *, train_mode, mode="policy") -> list[EpisodeResult]:
        indices = list(range(n_episodes))
        if self._ex is None:
            return run_episodes(
                params, cfg, self.assets, self._fps_cache, seed, stream_key, indices,
                train_mode=train_mode, mode=mode,
            )
        chunks = [indices[c :: self.workers] for c in range(self.workers)]
        tasks = [(params, cfg, seed, stream_key, ch, train_mode, mode) for ch in chunks if ch]
        out: list[EpisodeResult | None] = [None] * n_episodes
        for results in self._ex.map(_pool_chunk, tasks):
            for r in results:
                out[r.index] = r
        return out  # type: ignore[return-value]

    def close(self):
        if self._ex is not None:
            self._ex.shutdown()
            self._ex = None

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
    """E independent training episodes assembled in episode-index order."""
    own_pool = pool is None
    if own_pool:
        pool = EpisodePool(cfg.workers, assets)
    try:
        results = pool.run(
            params, cfg, cfg.seed, (STREAM_TRAIN, iteration), cfg.envs_per_iter,
            train_mode=True, mode="policy",
        )
    finally:
        if own_pool:
            pool.close()
    return _assemble_batch(results)


def _assemble_batch(results: list[EpisodeResult]) -> Batch:
    rewards = np.array([r.reward for r in results])
    values = np.array([r.value for r in results])
    adv = rewards - values
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    return Batch(
        obs=stack_observations([r.obs for r in results]),
        raw=np.stack([r.raw for r in results]),
        log_prob_old=np.array([r.log_prob for r in results]),
        rewards=rewards,
        values_old=values,
        advantages=adv,
        results=results,
        episode_errors=sum(1 for r in results if r.error is not None),
    )


# ---------------------------------------------------------------------------
# Adam and the PPO update
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def init(cls, params: PolicyParams) -> "AdamState":
        n = flatten_params(params).size
        return cls(m=np.zeros(n), v=np.zeros(n), step=0)


def adam_step(
    params: PolicyParams, grads: PolicyParams, state: AdamState, lr: float,
    beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
) -> tuple[PolicyParams, AdamState]:
    g = flatten_params(grads)
    p = flatten_params(params)
    step = state.step + 1
    m = beta1 * state.m + (1 - beta1) * g
    v = beta2 * state.v + (1 - beta2) * g * g
    m_hat = m / (1 - beta1**step)
    v_hat = v / (1 - beta2**step)
    p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return unflatten_params(params, p), AdamState(m=m, v=v, step=step)


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

    A non-finite loss or non-finite activations abort the iteration and
    restore the incoming parameters (the batch is discarded).
    """
    snapshot_params, snapshot_adam = params, adam
    e = batch.raw.shape[0]
    joint_count = params.joint_count
    order = np.arange(e)
    clip_hits = 0
    clip_total = 0
    value_loss_last = 0.0
    try:
        for _ in range(cfg.epochs):
            rng.shuffle(order)
            for start in range(0, e, cfg.minibatch):
                sel = order[start : start + cfg.minibatch]
                sub_obs = _index_obs(batch.obs, sel)
                mean, log_std, value, cache = policy_forward(params, sub_obs)
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
                grads = policy_backward(params, cache, d_mean, d_value, d_log_std)
                params, adam = adam_step(params, grads, adam, cfg.learning_rate)
                clip_hits += int(np.sum(np.abs(ratio - 1.0) > cfg.clip_eps))
                clip_total += n_mb
                value_loss_last = float(np.mean(value_err**2))
    except (FloatingPointError, PolicyError) as exc:
        log.error("ppo_update aborted, restoring previous parameters: %s", exc)
        return snapshot_params, snapshot_adam, {"aborted": str(exc)}
    stats = _batch_stats(batch)
    stats.update(
        clip_fraction=clip_hits / max(1, clip_total),
        entropy=entropy(np.clip(params.log_std, -5.0, 1.0)),
        value_loss=value_loss_last,
    )
    return params, adam, stats


def _index_obs(obs: ObsBatch, sel: np.ndarray) -> ObsBatch:
    return ObsBatch(
        s_r=obs.s_r[sel],
        s_o=obs.s_o[sel],
        cloud=obs.cloud[sel],
        p_afford_rel=obs.p_afford_rel[sel],
        l_style=obs.l_style[sel],
        obj_bb=obs.obj_bb[sel],
    )


# episode outcomes, in the order metrics.jsonl and the eval report list them
OUTCOMES = ("ok", "crush", "table_collision", "no_closure", "degenerate", "error")


def outcome_counts(results: list[EpisodeResult]) -> dict:
    """How many episodes ended in each of OUTCOMES: "error" when the
    episode raised, "ok" on success, else its record's failure_reason
    (every "degenerate_contacts: ..." reason counts as "degenerate")."""
    counts = dict.fromkeys(OUTCOMES, 0)
    for r in results:
        rec = r.record
        if rec is None:
            outcome = "error"
        elif rec.success:
            outcome = "ok"
        else:
            outcome = rec.failure_reason.split(":")[0].removesuffix("_contacts")
        counts[outcome] += 1
    return counts


def _batch_stats(batch: Batch) -> dict:
    paired = [(x.record, x.conditioned_style) for x in batch.results if x.record is not None]
    succ = [rec for rec, _ in paired if rec.success]
    matches = [rec for rec, cond in paired if rec.success and rec.executed_style == cond]
    return {
        "mean_reward": float(batch.rewards.mean()),
        "gsr": len(succ) / max(1, len(paired)),
        "sad": float(np.mean([r.d_final for r in succ])) if succ else None,
        "sa": len(matches) / len(succ) if succ else None,
        "episode_errors": batch.episode_errors,
        "outcomes": outcome_counts(batch.results),
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
                line = {"kind": "eval", "iteration": it, **m.as_dict(), "outcomes": outcome_counts(results)}
                metrics.write(json.dumps(line) + "\n")
                metrics.flush()
            if cfg.checkpoint_every and (it + 1) % cfg.checkpoint_every == 0:
                save_checkpoint(
                    params,
                    {"hand": assets.spec.name, "iteration": it + 1, "rng": {"seed": cfg.seed}},
                    ckpt_path,
                )
    save_checkpoint(
        params,
        {"hand": assets.spec.name, "iteration": cfg.iterations, "rng": {"seed": cfg.seed}},
        ckpt_path,
    )
    return {"params": params, "metrics_path": metrics_path, "checkpoint_path": ckpt_path}


# ---------------------------------------------------------------------------
# Gradient gate
# ---------------------------------------------------------------------------

def finite_diff_check(
    params: PolicyParams,
    obs_list: list[ObservationVector],
    rng: np.random.Generator,
    n_params: int = 200,
    h: float = 1e-5,
) -> float:
    """Max relative error, analytic vs central differences.

    The probe objective mixes log-probs of fixed raw actions, values, and
    the entropy so every parameter group is exercised. Relative error is
    |a - f| / max(|a|, |f|, 1e-3); the floor keeps dead-ReLU parameters
    (analytic gradient exactly 0, finite difference pure rounding noise)
    from producing spurious failures.
    """
    bounds = EditBounds()
    joint_count = params.joint_count
    batch = stack_observations(obs_list)
    b = batch.size
    a_dim = params.action_dim
    raw = rng.standard_normal((b, a_dim))
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

    flat_grad = flatten_params(grads)
    flat = flatten_params(params)
    idx = rng.choice(flat.size, size=min(n_params, flat.size), replace=False)
    worst = 0.0
    for i in idx:
        bump = np.zeros_like(flat)
        bump[i] = h
        f_plus = objective(unflatten_params(params, flat + bump))
        f_minus = objective(unflatten_params(params, flat - bump))
        fd = (f_plus - f_minus) / (2.0 * h)
        an = flat_grad[i]
        rel = abs(an - fd) / max(abs(an), abs(fd), 1e-3)
        worst = max(worst, rel)
    return worst


# ---------------------------------------------------------------------------
# Synthetic one-step bandit: sanity harness for the PPO machinery
# ---------------------------------------------------------------------------

def run_bandit(
    seed: int,
    iterations: int = 150,
    envs: int = 256,
    minibatch: int = 64,
    epochs: int = 10,
    learning_rate: float = 1e-2,
    joint_count: int = 2,
) -> list[float]:
    """Quadratic one-step task: reward = -|tanh(raw) - a*|^2, optimum 0.

    The target a* is a fixed interior point in normalized action space.
    Re-uses the real ppo_update; returns per-iteration batch mean rewards.
    """
    cfg = TrainConfig(
        envs_per_iter=envs,
        iterations=iterations,
        minibatch=minibatch,
        epochs=epochs,
        entropy_coef=0.0,
        learning_rate=learning_rate,
        seed=seed,
        m_points=4,
    )
    m_points, style_count = 4, 1
    rng0 = episode_rng(seed, STREAM_BANDIT, 0)
    params = init_params(rng0, m_points, style_count, joint_count, init_log_std=-0.5)
    a_dim = params.action_dim
    a_star = episode_rng(seed, STREAM_BANDIT, 1).uniform(-0.5, 0.5, a_dim)
    obs = ObservationVector(
        s_r=np.zeros(7),
        s_o=np.zeros(7),
        cloud=np.zeros((m_points, 6)),
        p_afford_rel=np.zeros(3),
        l_style=np.ones(1),
        obj_bb=1.0,
    )
    obs_batch = stack_observations([obs] * envs)
    adam = AdamState.init(params)
    history = []
    for it in range(iterations):
        mean, log_std, value, _ = policy_forward(params, obs_batch)
        rng_it = episode_rng(seed, STREAM_BANDIT, 2, it)
        raw = mean + np.exp(log_std) * rng_it.standard_normal(mean.shape)
        a_norm = np.tanh(raw)
        rewards = -np.sum((a_norm - a_star) ** 2, axis=1)
        logp, _, _ = log_prob_of_raw(mean, log_std, raw, cfg.bounds, joint_count)
        adv = rewards - value
        adv = (adv - adv.mean()) / (adv.std() + 1e-8)
        results = [
            EpisodeResult(
                index=i, object_name="bandit", obs=obs, raw=raw[i],
                action_vec=np.tanh(raw[i]), log_prob=float(logp[i]), value=float(value[i]),
                reward=float(rewards[i]), record=None, p_afford_world=np.zeros(3),
                conditioned_style=0,
            )
            for i in range(envs)
        ]
        batch = Batch(
            obs=obs_batch, raw=raw, log_prob_old=logp, rewards=rewards,
            values_old=value, advantages=adv, results=results, episode_errors=0,
        )
        params, adam, _ = ppo_update(params, batch, cfg, adam, episode_rng(seed, STREAM_UPDATE, it))
        history.append(float(rewards.mean()))
    return history
