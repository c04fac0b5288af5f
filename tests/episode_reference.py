"""Reference engine: the per-episode code that training.run_episodes,
sim.reset_env and rewards.total_reward replaced, kept as an oracle.

Each episode draws its rng and resets on its own, its object pose a
(t, r) pair of pose_reference (reference_reset), encodes its own
observation as a batch of one, runs a B=1 policy_forward (whose one-row
products numpy hands to gemv) that raises its own PolicyError, and
draws and squashes its action one vector at a time. Phase 2 runs
through sim.rollout_batch with the per-episode wrist composition of
pose_reference.compose_pose (reference_edit_wrist_arrays) in place of
demo.edit_wrist_arrays; each record's d_final and d_min are the last
value and the minimum of the episode's own affordance distance at every
frame 0..T_D of the demonstration, with the oracle FK of kernel_reference
(reference_affordance_series), where the rollout runs frames 0..L only.
Phase 3 scores each record on its own with scalar reward terms
(reference_reward_terms).
reference_run_episodes has run_episodes' signature and returns its
results, so a test can compare every field of every result by bytes.

The PPO batch's observations have an oracle too: the batches of one of
the episodes that ran, glued by concat_obs, the ObsBatch.concat that
collect_batch once used (reference_batch_obs).
"""

import numpy as np
import pytest

from conftest import concat_envs, env_of
from fungrasp import demo as demo_module
from fungrasp.demo import edited_joint_trajectory, target_joint_config
from fungrasp.geometry import quat_mul, quat_normalize, quat_rotate
from fungrasp.hand import clamp_to_limits
from fungrasp.objects import farthest_point_sample
from fungrasp.policy import (
    ObsBatch,
    PolicyError,
    gaussian_log_prob,
    log_prob_of_raw,
    policy_forward,
    squash,
    squash_correction,
)
from fungrasp.sim import RolloutRecord, rollout_batch, style_contact_point
from fungrasp.training import STREAM_TRAIN, EpisodeResult, episode_rng
from kernel_reference import reference_forward_kinematics
from pose_reference import compose_pose, pose


def reference_axis_angle_to_quat(v):
    """Unit quaternion of one axis-angle vector, its angle the 1-D norm."""
    v = np.asarray(v, dtype=float)
    angle = float(np.linalg.norm(v))
    if angle < 1e-8:
        return quat_normalize(np.concatenate(([1.0], 0.5 * v)))
    axis = v / angle
    half = 0.5 * angle
    return np.concatenate(([np.cos(half)], np.sin(half) * axis))


def reference_edit_wrist_arrays(demo, actions, pose_t, pose_r):
    """edit_wrist_arrays with each episode's prefix pose composed on its
    own: the object pose o the offset, by compose_pose."""
    prefixes = [compose_pose((t, r), pose(a[:3], reference_axis_angle_to_quat(a[3:6])))
                for a, t, r in zip(actions, pose_t, pose_r)]
    prefix_t, prefix_r = (np.stack(c)[:, None, :] for c in zip(*prefixes))
    t = prefix_t + quat_rotate(prefix_r, demo.pose_t)
    r = quat_normalize(quat_mul(prefix_r, demo.pose_r))
    return t, r


def reference_reset(objects, dists, styles, rng, train_mode, *, spec, square_half=0.25, sigma_style=0.05,
                    force_style=None):
    """One episode's reset on its own rng, in the contract order: object,
    x, y, yaw, affordance index, style index, then (training only) the
    style disturbance; force_style replaces the style after the draws.
    The draws are the ones sim.reset_env's random(4) and normal replaced:
    three uniform calls, random() for an inverse-CDF affordance index, and
    a clamped normal(0, sigma_style, J) disturbance. Returns the episode's
    EnvBatch of one and its (t, r) object pose."""
    obj = objects[int(rng.integers(len(objects)))]
    x = rng.uniform(-1.0, 1.0) * square_half
    y = rng.uniform(-1.0, 1.0) * square_half
    yaw_draw = rng.uniform(0.0, 2.0 * np.pi)
    yaw = yaw_draw if square_half > 0 else 0.0
    obj_pose = pose([x, y, 0.0], reference_axis_angle_to_quat(np.array([0.0, 0.0, yaw])))
    cdf = dists[obj.name].cdf
    p_afford = obj.points[min(int(np.searchsorted(cdf, rng.random(), side="right")), len(cdf) - 1)].copy()
    style_index = int(rng.integers(len(styles)))
    if train_mode and sigma_style > 0:
        q_canonical = styles[style_index].q_canonical
        q_used = clamp_to_limits(spec, q_canonical + rng.normal(0.0, sigma_style, np.shape(q_canonical)))
    else:
        q_used = styles[style_index].q_canonical.copy()
    if force_style is not None:
        style_index, q_used = force_style, styles[force_style].q_canonical.copy()
    mask = np.isin(np.arange(spec.finger_count), styles[style_index].contact_mask)
    return env_of(obj, p_afford, q_used, mask, style_index, obj_pose), obj_pose


def reference_affordance_series(env, action, demo, spec):
    """The distance from the world affordance point to the style contact
    point of an EnvBatch of one under its (7 + J,) action, at each frame
    0..T_D of the demonstration: every frame's joints and wrist pose
    edited on their own and run through kernel_reference's FK."""
    q_star = target_joint_config(env.q_style, action[None, -1:], action[None, 6:-1], spec)
    joints = edited_joint_trajectory(demo, q_star, spec)[0]
    wrist_t, wrist_r = reference_edit_wrist_arrays(demo, action[None], env.pose_t, env.pose_r)
    _, tips = reference_forward_kinematics(spec, wrist_t[0], wrist_r[0], joints)
    p_afford = quat_rotate(env.pose_r, env.p_afford) + env.pose_t
    return np.linalg.norm(style_contact_point(tips, env.mask) - p_afford, axis=-1)


def reference_reward_terms(record, obj_bb, q_style, cfg):
    """One episode's reward terms, in the order of rewards.TERMS, each a
    scalar of its own: the sparse affordance term (strict radius), the
    closeness indicator, the style term with the 1-D norm, the success
    term and their weighted sum."""
    radius = obj_bb / cfg.gamma if cfg.clip_on else cfg.fixed_clip_radius
    r_afford = float(np.exp(-record.d_final)) if cfg.afford_on and record.success and record.d_final < radius else 0.0
    r_close = 1.0 if cfg.close_on and record.d_min < cfg.close_threshold else 0.0
    r_qpos = float(np.exp(-np.linalg.norm(record.q_final - q_style))) if cfg.qpos_on else 0.0
    r_success = cfg.success_reward if record.success else 0.0
    total = cfg.lambda_afford * r_afford + cfg.lambda_close * r_close + cfg.lambda_qpos * r_qpos + r_success
    return np.array([r_afford, r_close, r_qpos, r_success, total])


def reference_encode(env, pose, demo, styles, m_points, fps_seed, cloud_cache):
    """One reset environment's observation as a batch of one, from its
    EnvBatch of one and its pose; raises PolicyError on a non-finite
    field, the cloud first."""
    obj = env.objs[0]
    scale = 1.0 / obj.obj_bb
    key = (obj.name, m_points, fps_seed)
    clouds = cloud_cache.get(key)
    if clouds is None:
        idx = farthest_point_sample(obj.points, m_points, fps_seed)
        clouds = np.concatenate([(obj.points[idx] - obj.centroid) * scale, obj.normals[idx]], axis=1)[None]
        if not np.all(np.isfinite(clouds)):
            raise PolicyError("non-finite observation field clouds")
        clouds.flags.writeable = False
        cloud_cache[key] = clouds
    ee0_t, ee0_r = compose_pose(pose, (demo.pose_t[0], demo.pose_r[0]))
    one_hot = np.zeros(len(styles))
    one_hot[env.style[0]] = 1.0
    obs = ObsBatch(
        s_r=np.concatenate([ee0_t, ee0_r])[None],
        s_o=np.concatenate(pose)[None],
        p_afford_rel=((env.p_afford[0] - obj.centroid) * scale)[None],
        l_style=one_hot[None],
        obj_bb=np.array([[obj.obj_bb]], dtype=float),
        cloud_index=np.zeros(1, dtype=np.intp),
        clouds=clouds,
    )
    for name in ("s_r", "s_o", "p_afford_rel", "l_style"):
        if not np.all(np.isfinite(getattr(obs, name))):
            raise PolicyError(f"non-finite observation field {name}")
    return obs


def concat_obs(batches):
    """The batches' rows in order, over one table that holds each
    distinct cloud once (clouds with equal bytes share an entry), first
    seen first."""
    entries = {}
    index = []
    for b in batches:
        remap = [entries.setdefault(cloud.tobytes(), (len(entries), cloud))[0] for cloud in b.clouds]
        index.append(np.array(remap)[b.cloud_index])
    rows = {name: np.concatenate([getattr(b, name) for b in batches])
            for name in ("s_r", "s_o", "p_afford_rel", "l_style", "obj_bb")}
    clouds = np.stack([cloud for _, cloud in entries.values()])
    return ObsBatch(**rows, cloud_index=np.concatenate(index), clouds=clouds)


def reference_sample(mean, log_std, bounds, joint_count, rng):
    """One action drawn, squashed and scored as a vector: (raw, action,
    log_prob)."""
    lo, hi = bounds.intervals(joint_count)
    raw = mean + np.exp(log_std) * rng.standard_normal(mean.shape[0])
    logp, _, _ = gaussian_log_prob(mean, log_std, raw)
    logp = float(logp - squash_correction(raw, lo, hi))
    return raw, squash(raw, lo, hi), logp


def reference_act(params, cfg, assets, seed, stream_key, index, mode, force_style, cloud_cache):
    """Phase 1 of one episode: reset, observe, a B=1 forward pass, act.
    Returns the episode's result, its EnvBatch of one, its action vector
    and its observation; a PolicyError makes the result an errored one,
    with no action or observation."""
    rng = episode_rng(seed, *stream_key, index)
    joint_count = assets.spec.joint_count
    env, pose = reference_reset(
        assets.objects, assets.afford_dists, assets.styles, rng, True, spec=assets.spec,
        square_half=cfg.square_half, sigma_style=cfg.sigma_style, force_style=force_style,
    )
    result = EpisodeResult(index, env.objs[0].name, *pose, env.p_afford[0], int(env.style[0]))
    try:
        obs = reference_encode(env, pose, assets.demo, assets.styles, cfg.m_points, cfg.seed, cloud_cache)
        mean, log_std, value, _ = policy_forward(params, obs)
    except PolicyError as exc:
        result.error = f"{type(exc).__name__}: {exc}"
        return result, env, None, None
    lo, hi = cfg.bounds.intervals(joint_count)
    if mode == "policy":
        raw, action, logp = reference_sample(mean[0], log_std, cfg.bounds, joint_count, rng)
    elif mode == "mean":
        raw = mean[0]
        action = squash(raw, lo, hi)
        logp, _, _ = log_prob_of_raw(mean[0], log_std, raw, cfg.bounds, joint_count)
    else:
        action = rng.uniform(lo, hi)
        raw = np.zeros_like(action)
        logp = 0.0
    result.raw, result.action_vec = np.asarray(raw, dtype=float), action
    result.log_prob, result.value = float(logp), float(value[0])
    return result, env, action, obs


def reference_run_episodes(params, cfg, assets, seed, stream_key, indices, *, mode="policy", force_style=None):
    """run_episodes with the per-episode phases 1 and 3 and wrist
    composition."""
    cloud_cache = {}
    acted = [reference_act(params, cfg, assets, seed, stream_key, i, mode, force_style, cloud_cache)
             for i in indices]
    live = [(res, env, action) for res, env, action, _ in acted if res.error is None]
    if live:
        calls = []

        def counted(*args):
            calls.append(1)
            return reference_edit_wrist_arrays(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(demo_module, "edit_wrist_arrays", counted)
            rollout = rollout_batch(
                concat_envs([env for _, env, _ in live]), assets.demo, np.stack([a for _, _, a in live]),
                assets.spec, assets.styles, cfg.sim,
            )
        # a patch the rollout does not look up would compare the engine with itself
        assert calls == [1], "rollout_batch did not call the reference wrist composition"
        for (res, env, action), row in zip(live, zip(*rollout)):
            series = reference_affordance_series(env, action, assets.demo, assets.spec)
            res.record = record = RolloutRecord(series[-1], series.min(), *row[2:])
            res.terms = reference_reward_terms(record, env.objs[0].obj_bb,
                                               assets.styles[res.conditioned_style].q_canonical, cfg.reward)
    return [res for res, _, _, _ in acted]


def reference_batch_obs(params, cfg, assets, iteration, skip=()):
    """The observations of collect_batch's PPO batch of `iteration`:
    concat_obs over the batch of one of each episode that ran, with the
    episodes in `skip` left out as errored ones."""
    cloud_cache = {}
    acted = [reference_act(params, cfg, assets, cfg.seed, (STREAM_TRAIN, iteration), i, "policy", None, cloud_cache)
             for i in range(cfg.envs_per_iter) if i not in skip]
    return concat_obs([obs for res, _, _, obs in acted if res.error is None])
