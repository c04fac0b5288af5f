"""Demonstration representation and the one-shot editing machinery.

A demonstration stores the end-effector trajectory in the *object* frame
plus the reference hand joints, so randomizing the object pose moves the
whole trajectory rigidly with the object. An edit is a single (7 + J,)
action vector [dt(3), dr(3), dq(J), k] (EditBounds.intervals): a rigid
wrist offset applied in the object frame, a joint residual, and a scale
on the conditioned style's canonical joints.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .assets import UserError, json_number, json_object_list, json_pose, read_json_object
from .geometry import axis_angle_to_quat, compose_pose_rows, normalize_rows, quat_mul, quat_normalize, quat_rotate
from .hand import HandSpec, clamp_to_limits

log = logging.getLogger(__name__)

__all__ = [
    "Demonstration",
    "EditBounds",
    "load_demo",
    "target_joint_config",
    "interpolation_fraction",
    "edited_joint_trajectory",
    "edit_wrist_arrays",
    "STATIC_JOINT_TOL",
]

STATIC_JOINT_TOL = 1e-9
LIMIT_SLACK = 1e-6


@dataclass(frozen=True)
class Demonstration:
    """End-effector-in-object-frame poses and reference joints, t = 0..T_D.

    hold_index, L, is the first frame at or after min(T_l + 1, T_D) that
    every later frame repeats bit for bit in pose_t, pose_r and joints
    (T_D where the last frame differs from the one before it). An edit
    maps each frame past T_l on its own (edited_joint_trajectory's
    post-grasp formula, edit_wrist_arrays), so its frames past L repeat
    its frame L. Frame T_l never merges with later frames: it takes the
    approach formula. head is the demonstration of frames 0..L.
    """

    pose_t: np.ndarray          # (T_D + 1, 3)
    pose_r: np.ndarray          # (T_D + 1, 4) unit quaternions
    joints: np.ndarray          # (T_D + 1, J)
    grasp_index: int            # T_l, frame at which the reference grasp closes
    hold_index: int = field(init=False, compare=False)

    def __post_init__(self):
        frames = self.joints.shape[0]
        if self.pose_t.shape != (frames, 3) or self.pose_r.shape != (frames, 4):
            raise UserError("pose and joint sequences disagree in length")
        if self.horizon < 2:
            raise UserError(f"demonstration needs T_D >= 2, got {self.horizon}")
        if not (0 < self.grasp_index <= self.horizon):
            raise UserError(f"grasp index {self.grasp_index} outside (0, {self.horizon}]")
        for a in (self.pose_t, self.pose_r, self.joints):
            a.setflags(write=False)
        frames = np.concatenate([self.pose_t, self.pose_r, self.joints], axis=1)
        repeats_last = (frames.view(np.uint64) == frames[-1].view(np.uint64)).all(axis=1)
        hold = self.horizon
        while hold > min(self.grasp_index + 1, self.horizon) and repeats_last[hold - 1]:
            hold -= 1
        object.__setattr__(self, "hold_index", hold)

    @cached_property
    def head(self) -> "Demonstration":
        """Frames 0..hold_index, as a demonstration with the same T_l."""
        if self.hold_index == self.horizon:
            return self
        frames = slice(self.hold_index + 1)
        return Demonstration(self.pose_t[frames], self.pose_r[frames], self.joints[frames], self.grasp_index)

    @property
    def horizon(self) -> int:
        """T_D: index of the last frame."""
        return self.joints.shape[0] - 1

    @property
    def joint_count(self) -> int:
        return self.joints.shape[1]


@dataclass(frozen=True)
class EditBounds:
    """Action bounds enforced by the policy's squashing map."""

    b_t: float = 0.10          # meters per translation axis
    b_r: float = 0.8           # max axis-angle norm, radians
    b_q: float = 0.3           # radians per joint residual
    k_min: float = 0.6
    k_max: float = 1.4

    def __post_init__(self):
        for name in ("b_t", "b_r", "b_q"):
            if getattr(self, name) < 0:
                raise UserError(f"bounds.{name} must be >= 0, got {getattr(self, name)}")
        if self.k_min > self.k_max:
            raise UserError(f"bounds.k_min must be <= bounds.k_max, got {self.k_min} > {self.k_max}")

    def intervals(self, joint_count: int) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) per action dimension, layout [dt(3), dr(3), dq(J), k].

        The rotation components are bounded per-axis by b_r/sqrt(3) so the
        Euclidean norm of the axis-angle vector never exceeds b_r.
        """
        br = self.b_r / np.sqrt(3.0)
        lo = np.concatenate([
            np.full(3, -self.b_t), np.full(3, -br), np.full(joint_count, -self.b_q), [self.k_min],
        ])
        hi = np.concatenate([
            np.full(3, self.b_t), np.full(3, br), np.full(joint_count, self.b_q), [self.k_max],
        ])
        return lo, hi


def load_demo(path, spec: HandSpec) -> Demonstration:
    """Parse a demo JSON file for a given hand."""
    data = read_json_object(path)
    if data.get("hand") != spec.name:
        raise UserError(f"{path}: demo recorded for hand {data.get('hand')!r}, configured hand is {spec.name!r}")
    frames = json_object_list(data, "frames", f"{path}: ")
    if len(frames) < 3:
        raise UserError(f"{path}: needs at least 3 frames (T_D >= 2), got {len(frames)}")
    poses, joints = [], []
    for i, fr in enumerate(frames):
        poses.append(json_pose(fr.get("p"), f"{path}: frames[{i}].p"))
        q = json_number(fr.get("q", []), f"{path}: frames[{i}].q", vector=True)
        if q.shape != (spec.joint_count,):
            raise UserError(
                f"{path}: frames[{i}].q has dim {q.shape[0] if q.ndim == 1 else q.shape}, "
                f"hand has J={spec.joint_count}"
            )
        joints.append(q)
    joints = np.array(joints)
    over = np.maximum(joints - spec.limits_hi, spec.limits_lo - joints).max()
    if over > LIMIT_SLACK:
        raise UserError(f"{path}: joints exceed limits by {over:.2e} (> {LIMIT_SLACK})")
    if over > 0:
        log.warning("%s: joints marginally out of limits (%.2e), clamping", path, over)
        joints = clamp_to_limits(spec, joints)
    grasp_index = json_number(data.get("T_l"), f"{path}: T_l", integer=True)
    if not 0 < grasp_index < len(frames):
        raise UserError(f"{path}: T_l: grasp index {grasp_index} outside (0, {len(frames) - 1}]")
    pose_t, pose_r = (np.stack(c) for c in zip(*poses))
    return Demonstration(pose_t, pose_r, joints, grasp_index)


def target_joint_config(style_q, k, dq, spec: HandSpec) -> np.ndarray:
    """Edited target joints q* = clamp(k * style_q + dq).

    Element-wise, so a (E, J) stack of styles with (E, 1) scales gives
    each row the bits it would get alone.
    """
    return clamp_to_limits(spec, k * np.asarray(style_q, dtype=float) + np.asarray(dq, dtype=float))


def interpolation_fraction(q0, qT, q_star):
    """Per-joint fraction f = (q* - q0) / (qT - q0) plus a static mask.

    q_star may be a (E, J) stack; f then has one row per target.

    Joints the reference never moves (|qT - q0| < STATIC_JOINT_TOL) get
    f = 0 and static[j] = True; edited_joint_trajectory ramps those
    joints linearly instead. f is deliberately not clamped: extrapolation past
    the reference excursion is allowed, joint limits apply later.
    """
    q0 = np.asarray(q0, dtype=float)
    qT = np.asarray(qT, dtype=float)
    q_star = np.asarray(q_star, dtype=float)
    span = qT - q0
    static = np.abs(span) < STATIC_JOINT_TOL
    move = ~static
    f = np.zeros(q_star.shape)
    f[..., move] = (q_star[..., move] - q0[move]) / span[move]
    return f, static


def edited_joint_trajectory(demo: Demonstration, q_star, spec: HandSpec) -> np.ndarray:
    """All frames of the edited joint trajectory, clamped to limits.

    Up to the grasp frame, moving joints follow
    q_t = q0 + f * (q_t_ref - q0); after it they hold q* plus the
    reference's post-grasp deltas scaled by f, which keeps the lift phase
    consistent with the closure. Static joints ramp linearly from q0 to
    q* over the approach and hold q* afterwards. A (E, J) stack of
    targets gives (E, T_D + 1, J), row for row the single-target result.
    """
    q_star = np.asarray(q_star, dtype=float)
    q0 = demo.joints[0]
    tl = demo.grasp_index
    f, static = interpolation_fraction(q0, demo.joints[tl], q_star)
    f = f[..., None, :]
    target = q_star[..., None, :]
    ts = np.arange(demo.horizon + 1)
    out = np.empty(q_star.shape[:-1] + demo.joints.shape)
    pre = ts <= tl
    out[..., pre, :] = q0 + f * (demo.joints[pre] - q0)
    out[..., ~pre, :] = target + f * (demo.joints[~pre] - demo.joints[tl])
    if static.any():
        ramp = np.minimum(ts / tl, 1.0)[:, None]
        static_traj = q0 + ramp * (target - q0)
        out[..., static] = static_traj[..., static]
    return clamp_to_limits(spec, out)


def edit_wrist_arrays(demo: Demonstration, actions, pose_t, pose_r):
    """World-frame end-effector poses object_pose o dT o p_t of E
    episodes, from their (E, 7 + J) action vectors (dt = [:, :3],
    dr = [:, 3:6]) and their (E, 3) / (E, 4) object poses:
    ((E, T_D + 1, 3) translations, (E, T_D + 1, 4) quats).

    The edit is a single rigid offset in the object frame applied to the
    whole object-centric trajectory, so the approach shape is preserved.
    Every step is an array expression over the episodes that gives each
    row the bits of one episode: the offset quaternion and the prefix
    pose object_pose o dT are each divided by their own norm,
    r / np.linalg.norm(r) row for row (normalize_rows), and the
    per-frame products are element-wise.
    """
    actions = np.asarray(actions, dtype=float)
    dr = normalize_rows(axis_angle_to_quat(actions[:, 3:6]))
    prefix_t, prefix_r = compose_pose_rows(pose_t, pose_r, actions[:, :3], dr)
    t = prefix_t[:, None, :] + quat_rotate(prefix_r[:, None, :], demo.pose_t)
    r = quat_normalize(quat_mul(prefix_r[:, None, :], demo.pose_r))
    return t, r
