"""Synthetic one-step bandit, the PPO sanity harness of acceptance
criterion 5: reward = -|tanh(raw) - a*|^2, optimum 0, with the target
a* a fixed interior point in normalized action space. It re-uses the
real ppo_update, with OpenBLAS on one thread for the length of the run.
"""

import numpy as np

from fungrasp.policy import ObsBatch, init_params, log_prob_of_raw, policy_forward
from fungrasp.training import STREAM_UPDATE, AdamState, Batch, TrainConfig, _one_blas_thread, episode_rng, ppo_update

# the bandit's rng stream tag, apart from the training streams
STREAM_BANDIT = 5


def run_bandit(
    seed: int,
    iterations: int = 150,
    envs: int = 256,
    minibatch: int = 64,
    epochs: int = 10,
    learning_rate: float = 1e-2,
    joint_count: int = 2,
) -> list[float]:
    """Per-iteration batch mean rewards of a PPO run on the bandit."""
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
    obs_batch = ObsBatch(
        s_r=np.zeros((envs, 7)),
        s_o=np.zeros((envs, 7)),
        p_afford_rel=np.zeros((envs, 3)),
        l_style=np.ones((envs, 1)),
        obj_bb=np.ones((envs, 1)),
        cloud_index=np.zeros(envs, dtype=np.intp),
        clouds=np.zeros((1, m_points, 6)),
    )
    adam = AdamState.init(params)
    history = []
    with _one_blas_thread():
        for it in range(iterations):
            mean, log_std, value, _ = policy_forward(params, obs_batch)
            rng_it = episode_rng(seed, STREAM_BANDIT, 2, it)
            raw = mean + np.exp(log_std) * rng_it.standard_normal(mean.shape)
            a_norm = np.tanh(raw)
            rewards = -np.sum((a_norm - a_star) ** 2, axis=1)
            logp, _, _ = log_prob_of_raw(mean, log_std, raw, cfg.bounds, joint_count)
            adv = rewards - value
            adv = (adv - adv.mean()) / (adv.std() + 1e-8)
            batch = Batch(
                obs=obs_batch, raw=raw, log_prob_old=logp, rewards=rewards,
                advantages=adv, results=[],
            )
            params, adam, _ = ppo_update(params, batch, cfg, adam, episode_rng(seed, STREAM_UPDATE, it))
            history.append(float(rewards.mean()))
    return history
