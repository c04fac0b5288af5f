"""Metrics (GSR, SAD, SD, SA) and ablations.

Evaluation is deterministic given its seed: actions are taken at the
squashed policy mean unless a mode says otherwise (mode="policy"
samples them), and episodes are keyed by (seed, episode index) exactly
like training rollouts, through the same EpisodePool. The random-action
baseline is evaluate(..., mode="random"): uniform actions within the
bounds, the same episodes and the same metrics.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .assets import UserError
from .dataio import config_digest
from .hand import HandSpec, normalize_joints
from .policy import PolicyParams
from .training import (
    COUNT_MAX,
    STREAM_EVAL,
    Assets,
    EpisodePool,
    EpisodeResult,
    TrainConfig,
    check_m_points,
    episode_summary,
    train,
)

__all__ = [
    "Metrics",
    "evaluate",
    "pairwise_style_diversity",
    "compute_metrics",
    "ablation_run",
    "ABLATION_COMPONENTS",
    "STRICT_AFFORD_RADIUS",
    "write_episode_rows",
]

# strict composite success: affordance distance < 4 cm and style match
STRICT_AFFORD_RADIUS = 0.04

# the most floats of (pairs, J) differences one pass of pairwise_style_diversity holds
_PAIR_FLOATS = 1 << 15

# each ablation component and the config change that switches it off
_ABLATIONS = {
    "afford": lambda cfg: replace(cfg, reward=replace(cfg.reward, afford_on=False)),
    "clip": lambda cfg: replace(cfg, reward=replace(cfg.reward, clip_on=False)),
    "close": lambda cfg: replace(cfg, reward=replace(cfg.reward, close_on=False)),
    "qpos": lambda cfg: replace(cfg, reward=replace(cfg.reward, qpos_on=False)),
    "disturbance": lambda cfg: replace(cfg, sigma_style=0.0),
}
ABLATION_COMPONENTS = tuple(_ABLATIONS)


@dataclass(frozen=True)
class Metrics:
    gsr: float
    sad: float | None            # None when there are no successes
    sd: float
    sd_normalized: float
    sa: float | None
    n_episodes: int
    n_success: int

    def as_dict(self) -> dict:
        return asdict(self)


def _effective_success(res: EpisodeResult, strict: bool) -> bool:
    rec = res.record
    if rec is None or not rec.success:
        return False
    return not strict or (rec.d_final < STRICT_AFFORD_RADIUS and rec.executed_style == res.conditioned_style)


def pairwise_style_diversity(qs) -> float:
    """Mean L2 distance over all unordered pairs of the rows of qs (n, J);
    0 below two rows. The pairs come in triu_indices order, a block of
    rows at a time: each pass takes (qs[j] - qs[i])**2 summed over the
    joint axis for every pair i < j of its rows, as one (pairs, J) array
    of at most _PAIR_FLOATS floats (or one row's pairs, when they are
    more), so each sum has the bits the row-by-row form gives, no
    (n, n, J) difference tensor is built, and the peak is the
    n (n - 1) / 2 distances, held once, and one pass's scratch."""
    qs = np.asarray(qs, dtype=float)
    n = len(qs)
    if n < 2:
        return 0.0
    counts = np.arange(n - 1, 0, -1)  # row i pairs with the n - 1 - i rows after it
    ends = np.cumsum(counts)
    firsts = ends - counts
    per_pass = max(_PAIR_FLOATS // max(qs.shape[1], 1), 1)
    dists = np.empty(ends[-1])
    lo = 0
    while lo < n - 1:
        hi = max(int(np.searchsorted(ends, firsts[lo] + per_pass, side="right")), lo + 1)
        i = np.repeat(np.arange(lo, hi), counts[lo:hi])
        j = np.arange(firsts[lo], ends[hi - 1]) - firsts[i] + i + 1
        np.sqrt(((qs[j] - qs[i]) ** 2).sum(axis=1), out=dists[firsts[lo] : ends[hi - 1]])
        lo = hi
    return float(dists.mean())


def compute_metrics(results: list[EpisodeResult], spec: HandSpec, strict: bool) -> Metrics:
    """Aggregate episode results into the four headline numbers; an
    errored episode counts as a failure.

    SD is reported both raw (mixed joint units) and in the hand's
    limit-normalized joint coordinates.
    """
    n = len(results)
    succ = [r for r in results if _effective_success(r, strict)]
    gsr = len(succ) / n if n else 0.0
    sad = float(np.mean([r.record.d_final for r in succ])) if succ else None
    q_succ = np.array([r.record.q_final for r in succ], dtype=float).reshape(-1, spec.joint_count)
    sd = pairwise_style_diversity(q_succ)
    sd_norm = pairwise_style_diversity(normalize_joints(spec, q_succ))
    sa = sum(1 for r in succ if r.record.executed_style == r.conditioned_style) / len(succ) if succ else None
    return Metrics(
        gsr=gsr,
        sad=sad,
        sd=sd,
        sd_normalized=sd_norm,
        sa=sa,
        n_episodes=n,
        n_success=len(succ),
    )


def _best_of_styles(results_by_style: list[EpisodeResult]) -> EpisodeResult:
    # success beats failure, then higher total reward; max keeps the
    # first of equal keys, so ties keep the low style
    return max(results_by_style, key=lambda res: (res.record is not None and res.record.success, res.reward))


def evaluate(
    params: PolicyParams,
    cfg: TrainConfig,
    assets: Assets,
    n_episodes: int,
    seed: int,
    *,
    strict: bool = False,
    exhaustive_styles: bool = False,
    mode: str = "mean",
    pool: EpisodePool | None = None,
) -> tuple[Metrics, list[EpisodeResult]]:
    """Run N conditioned evaluation episodes and aggregate metrics.

    mode sets the action choice (mean by default; policy | random);
    with "random" the actions, and so the metrics, do not depend on
    params. With exhaustive_styles each episode replays every style
    candidate (identical environment otherwise) and keeps the best
    outcome. Episodes run at sigma_style 0: no style disturbance.
    """
    if n_episodes < 1:
        raise UserError("n_episodes must be >= 1")
    if n_episodes > COUNT_MAX:
        raise UserError(f"n_episodes must be <= {COUNT_MAX}, got {n_episodes}")
    if not assets.objects:
        raise UserError("empty object set")
    check_m_points(cfg, assets)
    forced = range(len(assets.styles)) if exhaustive_styles else [None]
    undisturbed = replace(cfg, sigma_style=0.0)
    with nullcontext(pool) if pool else EpisodePool(cfg.workers, assets) as pool:
        by_style = [
            pool.run(params, undisturbed, seed, (STREAM_EVAL,), n_episodes, mode=mode, force_style=s)
            for s in forced
        ]
    results = [_best_of_styles(list(per_style)) for per_style in zip(*by_style)]
    return compute_metrics(results, assets.spec, strict), results


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
    if component not in _ABLATIONS:
        raise ValueError(f"unknown ablation component {component!r}; pick from {ABLATION_COMPONENTS}")
    return _ABLATIONS[component](cfg)


def ablation_run(cfg: TrainConfig, component: str, assets: Assets, out_dir) -> AblationResult:
    """Train the full and the ablated model with identical seeds; compare
    them on cfg.eval_episodes evaluation episodes."""
    out_dir = Path(out_dir)
    ablated_cfg = _ablate_config(cfg, component)
    full = train(cfg, assets, out_dir / "full")
    ablated = train(ablated_cfg, assets, out_dir / f"ablated_{component}")
    m_full, _ = evaluate(full["params"], cfg, assets, cfg.eval_episodes, seed=cfg.seed)
    m_abl, _ = evaluate(ablated["params"], ablated_cfg, assets, cfg.eval_episodes, seed=cfg.seed)
    return AblationResult(component=component, full=m_full, ablated=m_abl)


def write_episode_rows(results: list[EpisodeResult], path) -> None:
    """Per-episode JSONL, the facts every metric is a function of, used
    by the metric-oracle round trip. Strict JSON: an errored episode's
    distances are null, its q_final empty and its executed style -1."""
    with Path(path).open("w") as fh:
        for res in results:
            rec = res.record
            row = {
                "episode": res.index,
                "object": res.object_name,
                "success": rec is not None and rec.success,
                "d_final": None if rec is None else rec.d_final,
                "d_min": None if rec is None else rec.d_min,
                "q_final": [] if rec is None else [float(v) for v in rec.q_final],
                "conditioned_style": res.conditioned_style,
                "executed_style": -1 if rec is None else int(rec.executed_style),
                "reward_total": res.reward,
            }
            fh.write(json.dumps(row, allow_nan=False) + "\n")


def write_report(metrics: Metrics, cfg: TrainConfig, rows_path, path, results: list[EpisodeResult]) -> None:
    """report.json: the metrics, the episode_summary of the results,
    the config digest and where the per-episode rows are."""
    report = {
        "metrics": metrics.as_dict(),
        **episode_summary(results),
        "config_digest": config_digest(asdict(cfg)),
        "per_episode_file": str(rows_path),
    }
    Path(path).write_text(json.dumps(report, indent=1))
