"""Metrics (GSR, SAD, SD, SA), ablations, and the random-action baseline.

Evaluation is deterministic given its seed: actions are taken at the
squashed policy mean unless the stochastic flag is set, and episodes are
keyed by (seed, episode index) exactly like training rollouts.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .hand import normalize_joints
from .policy import PolicyParams, init_params
from .rewards import RewardConfig
from .training import (
    STREAM_EVAL,
    Assets,
    EpisodePool,
    EpisodeResult,
    TrainConfig,
    check_m_points,
    config_to_dict,
    episode_rng,
    outcome_counts,
    run_episodes,
    train,
)

log = logging.getLogger(__name__)

__all__ = [
    "Metrics",
    "EpisodeRow",
    "evaluate",
    "pairwise_style_diversity",
    "compute_metrics",
    "ablation_run",
    "random_baseline",
    "ABLATION_COMPONENTS",
    "STRICT_AFFORD_RADIUS",
    "write_episode_rows",
]

# strict composite success: affordance distance < 4 cm and style match
STRICT_AFFORD_RADIUS = 0.04

ABLATION_COMPONENTS = ("afford", "clip", "close", "qpos", "disturbance")


@dataclass(frozen=True)
class Metrics:
    gsr: float
    sad: float | None            # None when there are no successes
    sd: float
    sd_normalized: float
    sa: float | None
    n_episodes: int
    n_success: int
    sd_ratio: float | None = None

    def as_dict(self) -> dict:
        return {
            "gsr": self.gsr,
            "sad": self.sad,
            "sd": self.sd,
            "sd_normalized": self.sd_normalized,
            "sa": self.sa,
            "n_episodes": self.n_episodes,
            "n_success": self.n_success,
            "sd_ratio": self.sd_ratio,
        }


@dataclass(frozen=True)
class EpisodeRow:
    """The per-episode facts every metric is a function of."""

    episode: int
    object_name: str
    success: bool
    d_final: float
    d_min: float
    q_final: list
    conditioned_style: int
    executed_style: int
    reward_total: float

    def to_json(self) -> dict:
        return {
            "episode": self.episode,
            "object": self.object_name,
            "success": self.success,
            "d_final": self.d_final,
            "d_min": self.d_min,
            "q_final": self.q_final,
            "conditioned_style": self.conditioned_style,
            "executed_style": self.executed_style,
            "reward_total": self.reward_total,
        }


def _row_from_result(res: EpisodeResult) -> EpisodeRow:
    rec = res.record
    if rec is None:
        return EpisodeRow(
            episode=res.index, object_name=res.object_name, success=False,
            d_final=float("inf"), d_min=float("inf"), q_final=[],
            conditioned_style=res.conditioned_style, executed_style=-1,
            reward_total=0.0,
        )
    return EpisodeRow(
        episode=res.index,
        object_name=res.object_name,
        success=bool(rec.success),
        d_final=float(rec.d_final),
        d_min=float(rec.d_min),
        q_final=[float(v) for v in rec.q_final],
        conditioned_style=res.conditioned_style,
        executed_style=int(rec.executed_style),
        reward_total=float(res.reward),
    )


def _effective_success(row: EpisodeRow, strict: bool) -> bool:
    if not strict:
        return row.success
    return (
        row.success
        and row.d_final < STRICT_AFFORD_RADIUS
        and row.executed_style == row.conditioned_style
    )


def pairwise_style_diversity(q_list) -> float:
    """Mean L2 distance over all unordered pairs; 0 below two entries."""
    qs = np.asarray(list(q_list), dtype=float)
    n = qs.shape[0]
    if n < 2:
        return 0.0
    diffs = qs[:, None, :] - qs[None, :, :]
    d = np.sqrt((diffs**2).sum(axis=2))
    iu = np.triu_indices(n, k=1)
    return float(d[iu].mean())


def compute_metrics(rows: list[EpisodeRow], spec=None, strict: bool = False,
                    baseline_sd: float | None = None) -> Metrics:
    """Aggregate per-episode rows into the four headline numbers.

    SD is reported both raw (mixed joint units) and in limit-normalized
    joint coordinates when a hand spec is given; sd_ratio divides raw SD
    by a supplied baseline.
    """
    n = len(rows)
    succ = [r for r in rows if _effective_success(r, strict)]
    gsr = len(succ) / n if n else 0.0
    sad = float(np.mean([r.d_final for r in succ])) if succ else None
    q_succ = [r.q_final for r in succ if r.q_final]
    sd = pairwise_style_diversity(q_succ) if q_succ else 0.0
    if spec is not None and q_succ:
        sd_norm = pairwise_style_diversity([normalize_joints(spec, q) for q in q_succ])
    else:
        sd_norm = 0.0
    sa = (
        sum(1 for r in succ if r.executed_style == r.conditioned_style) / len(succ)
        if succ
        else None
    )
    return Metrics(
        gsr=gsr,
        sad=sad,
        sd=sd,
        sd_normalized=sd_norm,
        sa=sa,
        n_episodes=n,
        n_success=len(succ),
        sd_ratio=(sd / baseline_sd) if (baseline_sd and baseline_sd > 0) else None,
    )


def _best_of_styles(results_by_style: list[EpisodeResult]) -> EpisodeResult:
    # success beats failure, then higher total reward; ties keep low style
    def key(res):
        ok = res.record.success if res.record is not None else False
        return (1 if ok else 0, res.reward)

    best = results_by_style[0]
    for res in results_by_style[1:]:
        if key(res) > key(best):
            best = res
    return best


def evaluate(
    params: PolicyParams,
    cfg: TrainConfig,
    assets: Assets,
    n_episodes: int,
    seed: int,
    *,
    stochastic: bool = False,
    strict: bool = False,
    exhaustive_styles: bool = False,
    mode: str | None = None,
    pool: EpisodePool | None = None,
    baseline_sd: float | None = None,
) -> tuple[Metrics, list[EpisodeResult]]:
    """Run N conditioned evaluation episodes and aggregate metrics.

    With exhaustive_styles each episode replays every style candidate
    (identical environment otherwise) and keeps the best outcome.
    """
    if n_episodes < 1:
        raise ValueError("n_episodes must be >= 1")
    if not assets.objects:
        raise ValueError("empty object set")
    check_m_points(cfg, assets)
    action_mode = mode or ("policy" if stochastic else "mean")
    own_pool = pool is None
    if own_pool:
        pool = EpisodePool(cfg.workers, assets)
    try:
        if not exhaustive_styles:
            results = pool.run(
                params, cfg, seed, (STREAM_EVAL,), n_episodes,
                train_mode=False, mode=action_mode,
            )
        else:
            cache: dict = {}
            by_style = [
                run_episodes(
                    params, cfg, assets, cache, seed, (STREAM_EVAL,), range(n_episodes),
                    train_mode=False, mode=action_mode, force_style=s,
                )
                for s in range(len(assets.styles))
            ]
            results = [_best_of_styles(list(per_style)) for per_style in zip(*by_style)]
    finally:
        if own_pool:
            pool.close()
    rows = [_row_from_result(r) for r in results]
    return compute_metrics(rows, assets.spec, strict, baseline_sd), results


def random_baseline(
    cfg: TrainConfig, assets: Assets, n_episodes: int, seed: int,
    *, strict: bool = False, pool: EpisodePool | None = None,
) -> tuple[Metrics, list[EpisodeResult]]:
    """Uniform-within-bounds actions through the same metrics pipeline."""
    check_m_points(cfg, assets)
    params = init_params(
        episode_rng(seed, STREAM_EVAL, 999), cfg.m_points, len(assets.styles),
        assets.spec.joint_count,
    )
    own_pool = pool is None
    if own_pool:
        pool = EpisodePool(cfg.workers, assets)
    try:
        results = pool.run(
            params, cfg, seed, (STREAM_EVAL,), n_episodes, train_mode=False, mode="random"
        )
    finally:
        if own_pool:
            pool.close()
    rows = [_row_from_result(r) for r in results]
    return compute_metrics(rows, assets.spec, strict), results


@dataclass(frozen=True)
class AblationResult:
    component: str
    full: Metrics
    ablated: Metrics

    def deltas(self) -> dict:
        out = {}
        for k in ("gsr", "sad", "sa", "sd"):
            a = getattr(self.full, k)
            b = getattr(self.ablated, k)
            out[k] = None if (a is None or b is None) else b - a
        return out


def _ablate_config(cfg: TrainConfig, component: str) -> TrainConfig:
    if component == "afford":
        return replace(cfg, reward=replace(cfg.reward, afford_on=False))
    if component == "clip":
        return replace(cfg, reward=replace(cfg.reward, clip_on=False))
    if component == "close":
        return replace(cfg, reward=replace(cfg.reward, close_on=False))
    if component == "qpos":
        return replace(cfg, reward=replace(cfg.reward, qpos_on=False))
    if component == "disturbance":
        return replace(cfg, sigma_style=0.0)
    raise ValueError(f"unknown ablation component {component!r}; pick from {ABLATION_COMPONENTS}")


def ablation_run(
    cfg: TrainConfig, component: str, assets: Assets, out_dir,
    n_eval: int | None = None,
) -> AblationResult:
    """Train the full and the ablated model with identical seeds; compare."""
    out_dir = Path(out_dir)
    n_eval = n_eval or cfg.eval_episodes
    ablated_cfg = _ablate_config(cfg, component)
    full = train(cfg, assets, out_dir / "full")
    ablated = train(ablated_cfg, assets, out_dir / f"ablated_{component}")
    m_full, _ = evaluate(full["params"], cfg, assets, n_eval, seed=cfg.seed)
    m_abl, _ = evaluate(ablated["params"], ablated_cfg, assets, n_eval, seed=cfg.seed)
    return AblationResult(component=component, full=m_full, ablated=m_abl)


def write_episode_rows(rows: list[EpisodeRow], path) -> None:
    """Per-episode JSONL used by the metric-oracle round trip."""
    path = Path(path)
    with path.open("w") as fh:
        for row in rows:
            fh.write(json.dumps(row.to_json()) + "\n")


def write_report(metrics: Metrics, cfg: TrainConfig, rows_path, path, results: list[EpisodeResult]) -> None:
    """report.json: the metrics, the episodes' outcome counts, the
    config digest and where the per-episode rows are."""
    from .dataio import config_digest

    report = {
        "metrics": metrics.as_dict(),
        "outcomes": outcome_counts(results),
        "config_digest": config_digest(config_to_dict(cfg)),
        "per_episode_file": str(rows_path),
    }
    Path(path).write_text(json.dumps(report, indent=1))
