"""Reward stack for one-shot grasp edits.

total = lambda_afford * r_afford + lambda_close * r_close
      + lambda_qpos * r_qpos + r_success

r_afford is sparse (needs success and a final affordance distance inside
an object-size-scaled radius), r_close is a dense trajectory-minimum
indicator independent of success, r_qpos keeps the executed joints near
the edited style target. Ablation flags zero individual terms.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

__all__ = ["RewardConfig", "RewardTerms", "qpos_reward", "afford_reward", "close_reward", "total_reward"]


@dataclass(frozen=True)
class RewardConfig:
    lambda_afford: float = 2.0
    lambda_close: float = 0.5
    lambda_qpos: float = 0.5
    gamma: float = 4.0               # afford radius = obj_bb / gamma
    close_threshold: float = 0.03    # meters
    success_reward: float = 1.0
    afford_on: bool = True
    close_on: bool = True
    qpos_on: bool = True
    clip_on: bool = True             # False: fixed radius replaces obj_bb/gamma
    fixed_clip_radius: float = 0.10  # meters, the "no size clipping" ablation

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if self.close_threshold <= 0:
            raise ValueError(f"close_threshold must be > 0, got {self.close_threshold}")
        if self.fixed_clip_radius <= 0:
            raise ValueError(f"fixed_clip_radius must be > 0, got {self.fixed_clip_radius}")


@dataclass(frozen=True)
class RewardTerms:
    r_afford: float
    r_close: float
    r_qpos: float
    r_success: float
    total: float

    def as_dict(self) -> dict:
        return asdict(self)


def qpos_reward(q_final, q_star) -> float:
    """exp(-||q_final - q*||2), in (0, 1]."""
    q_final = np.asarray(q_final, dtype=float)
    q_star = np.asarray(q_star, dtype=float)
    if q_final.shape != q_star.shape:
        raise ValueError(f"shape mismatch: {q_final.shape} vs {q_star.shape}")
    return float(np.exp(-np.linalg.norm(q_final - q_star)))


def afford_reward(success: bool, d_final: float, obj_bb: float, cfg: RewardConfig) -> float:
    """Sparse proximity term, gated on success and a scaled radius.

    Both indicators use a strict '<'; with clip_on the radius is
    obj_bb / gamma, otherwise the fixed ablation radius.
    """
    if d_final < 0:
        raise ValueError(f"d_final must be >= 0, got {d_final}")
    if obj_bb <= 0:
        raise ValueError(f"obj_bb must be > 0, got {obj_bb}")
    if not success:
        return 0.0
    radius = obj_bb / cfg.gamma if cfg.clip_on else cfg.fixed_clip_radius
    if not d_final < radius:
        return 0.0
    return float(np.exp(-d_final))


def close_reward(d_min: float, cfg: RewardConfig) -> float:
    """Dense alignment indicator: 1 iff d_min < threshold (success-independent)."""
    if d_min < 0:
        raise ValueError(f"d_min must be >= 0, got {d_min}")
    return 1.0 if d_min < cfg.close_threshold else 0.0


def total_reward(record, obj_bb: float, q_style, cfg: RewardConfig) -> RewardTerms:
    """The terms of a finished rollout on an object of size obj_bb,
    conditioned on a style whose canonical joints are q_style; the
    record is only read.

    Disabled terms are reported as 0 and excluded from the total, so the
    linear-combination identity holds exactly whatever the flags. The
    style term compares the executed joints against the conditioned
    style's *canonical* configuration: it is the pressure that keeps
    edits from drifting away from the intended style.
    """
    r_afford = afford_reward(record.success, record.d_final, obj_bb, cfg) if cfg.afford_on else 0.0
    r_close = close_reward(record.d_min, cfg) if cfg.close_on else 0.0
    r_qpos = qpos_reward(record.q_final, q_style) if cfg.qpos_on else 0.0
    r_success = cfg.success_reward if record.success else 0.0
    total = (
        cfg.lambda_afford * r_afford
        + cfg.lambda_close * r_close
        + cfg.lambda_qpos * r_qpos
        + r_success
    )
    return RewardTerms(r_afford=r_afford, r_close=r_close, r_qpos=r_qpos, r_success=r_success, total=total)
