"""Reward stack for one-shot grasp edits, one row per episode.

total = lambda_afford * r_afford + lambda_close * r_close
      + lambda_qpos * r_qpos + r_success

r_afford is sparse (needs success and a final affordance distance inside
an object-size-scaled radius), r_close is a dense trajectory-minimum
indicator independent of success, r_qpos keeps the executed joints near
the conditioned style's canonical joints. Ablation flags zero individual
terms. total_reward computes the terms of E episodes as one (E, 5)
table, its columns in the order of TERMS; every expression is
element-wise or a row's own norm, so each row has the bits the episode
gets alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assets import UserError
from .geometry import row_norms

__all__ = ["RewardConfig", "TERMS", "total_reward"]

# the columns of total_reward's table
TERMS = ("r_afford", "r_close", "r_qpos", "r_success", "total")


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
            raise UserError(f"gamma must be > 0, got {self.gamma}")
        if self.close_threshold <= 0:
            raise UserError(f"close_threshold must be > 0, got {self.close_threshold}")
        if self.fixed_clip_radius <= 0:
            raise UserError(f"fixed_clip_radius must be > 0, got {self.fixed_clip_radius}")


def total_reward(success, d_final, d_min, q_final, q_style, obj_bb, cfg: RewardConfig) -> np.ndarray:
    """The (E, 5) table of reward terms (columns TERMS) of E finished
    rollouts: their success flags, final and minimum affordance
    distances, final joints (E, J), the canonical joints (E, J) of the
    style each was conditioned on, and their objects' sizes.

    r_afford uses a strict '<' on a radius of obj_bb / gamma (with
    clip_on; otherwise the fixed ablation radius); r_close is 1 where
    d_min < close_threshold; r_qpos is exp(-||q_final - q_style||), each
    row's norm its own 1-D norm (row_norms). Disabled terms are reported
    as 0 and still enter the total, so the linear-combination identity
    holds exactly whatever the flags.
    """
    success = np.asarray(success, dtype=bool)
    d_final, d_min, obj_bb = (np.asarray(x, dtype=float) for x in (d_final, d_min, obj_bb))
    q_final, q_style = np.asarray(q_final, dtype=float), np.asarray(q_style, dtype=float)
    if q_final.shape != q_style.shape:
        raise ValueError(f"shape mismatch: {q_final.shape} vs {q_style.shape}")
    if (d_final < 0).any() or (d_min < 0).any():
        raise ValueError(f"distances must be >= 0, got d_final {d_final.min()}, d_min {d_min.min()}")
    if (obj_bb <= 0).any():
        raise ValueError(f"obj_bb must be > 0, got {obj_bb.min()}")
    radius = obj_bb / cfg.gamma if cfg.clip_on else cfg.fixed_clip_radius
    table = np.zeros((len(success), len(TERMS)))
    if cfg.afford_on:
        table[:, 0] = np.where(success & (d_final < radius), np.exp(-d_final), 0.0)
    if cfg.close_on:
        table[:, 1] = d_min < cfg.close_threshold
    if cfg.qpos_on:
        table[:, 2] = np.exp(-row_norms(q_final - q_style))
    table[:, 3] = np.where(success, cfg.success_reward, 0.0)
    r_afford, r_close, r_qpos, r_success = table[:, :4].T
    table[:, 4] = cfg.lambda_afford * r_afford + cfg.lambda_close * r_close + cfg.lambda_qpos * r_qpos + r_success
    return table
