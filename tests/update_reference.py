"""Reference update: the allocating Adam step and PPO update that
training.adam_step and training.ppo_update replaced, kept as an oracle.

Every Adam step builds new m, v and parameter vectors from whole-array
expressions and a new PolicyParams over them; every minibatch takes a
fresh gradient vector from policy_backward. reference_ppo_update has
ppo_update's signature and returns its (params, AdamState, stats), so a
test can compare the vectors by bytes and the stats by value.
"""

import dataclasses
import logging

import numpy as np

from fungrasp.policy import (
    LOG_STD_MAX,
    LOG_STD_MIN,
    PolicyError,
    entropy,
    log_prob_of_raw,
    policy_backward,
    policy_forward,
)
from fungrasp.training import AdamState, _batch_stats, clipped_surrogate

log = logging.getLogger(__name__)


def reference_adam_step(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """(new params, new AdamState) after one Adam step on params.flat."""
    step = state.step + 1
    m = beta1 * state.m + (1 - beta1) * grads
    v = beta2 * state.v + (1 - beta2) * grads * grads
    m_hat = m / (1 - beta1**step)
    v_hat = v / (1 - beta2**step)
    flat = params.flat - lr * m_hat / (np.sqrt(v_hat) + eps)
    return dataclasses.replace(params, flat=flat), AdamState(m=m, v=v, step=step)


def reference_ppo_update(params, batch, cfg, adam, rng):
    """Epochs of shuffled-minibatch clipped-surrogate steps, each one a
    new params and AdamState; an abort returns the incoming ones."""
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
                mean, log_std, value, cache = policy_forward(params, batch.obs[sel])
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
                params, adam = reference_adam_step(params, grads, adam, cfg.learning_rate)
                clip_hits += int(np.sum(np.abs(ratio - 1.0) > cfg.clip_eps))
                clip_total += n_mb
                value_loss_last = float(np.mean(value_err**2))
    except (FloatingPointError, PolicyError) as exc:
        log.error("reference update aborted: %s", exc)
        return snapshot_params, snapshot_adam, {"aborted": str(exc)}
    log_std = np.clip(params.log_std, LOG_STD_MIN, LOG_STD_MAX)
    stats = _batch_stats(batch, log_std)
    stats.update(
        clip_fraction=clip_hits / max(1, clip_total),
        entropy=entropy(log_std),
        value_loss=value_loss_last,
    )
    return params, adam, stats
