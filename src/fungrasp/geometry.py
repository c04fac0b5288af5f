"""Rigid-body poses and quaternion algebra shared by every other module.

Conventions, fixed here once because the file formats depend on them:
quaternions are (w, x, y, z), unit norm, right-handed, and act as active
rotations. A pose rotates first, then translates. Compositions renormalize
the quaternion every time; that is cheap and removes a whole class of
drift bugs.

The Hamilton product (hamilton) and the rotation (rotate) are written
once, over component arrays; quat_mul, quat_rotate and the FK chain all
run them in that operation order, so a row's bits do not depend on the
layout it arrives in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Pose",
    "AxisAngle",
    "identity_pose",
    "compose_pose",
    "invert_pose",
    "transform_point",
    "axis_angle_to_quat",
    "quat_to_axis_angle",
    "quat_mul",
    "hamilton",
    "rotate",
    "row_norms",
    "quat_conjugate",
    "quat_rotate",
    "quat_normalize",
    "normalize_rows",
    "compose_pose_rows",
    "quat_to_matrix",
    "quat_from_matrix",
    "quat_distance",
]


def _vec(x, n: int, name: str) -> np.ndarray:
    a = np.array(x, dtype=float)
    if a.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite values")
    return a


def quat_normalize(q) -> np.ndarray:
    """Scale q to unit norm (broadcasts over leading axes)."""
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q, axis=-1, keepdims=True)
    if np.any(n < 1e-12):
        raise ValueError("cannot normalize a zero quaternion")
    return q / n


def row_norms(x) -> np.ndarray:
    """The (N,) norms of an (N, D) stack's rows, each with the bits
    np.linalg.norm gives that row alone: a 1-D norm is sqrt(dot), which
    a (1, D) @ (D, 1) product per row reproduces and an axis=-1 norm
    does not."""
    x = np.ascontiguousarray(x, dtype=float)
    return np.sqrt(x[:, None, :] @ x[:, :, None])[:, 0, 0]


def normalize_rows(x) -> np.ndarray:
    """Each row of an (N, D) stack divided by its norm (row_norms), with
    the bits Pose's renormalization gives that row alone."""
    x = np.asarray(x, dtype=float)
    return x / row_norms(x)[:, None]


def hamilton(aw, ax, ay, az, bw, bx, by, bz):
    """Hamilton product a*b over components: (w, x, y, z) of the result."""
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def _cross(ax, ay, az, bx, by, bz):
    return ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx


def rotate(w, ux, uy, uz, vx, vy, vz):
    """v rotated by the unit quaternion (w, u) over components:
    v + 2(w (u x v) + u x (u x v)), with no rotation matrix."""
    cx, cy, cz = _cross(ux, uy, uz, vx, vy, vz)
    dx, dy, dz = _cross(ux, uy, uz, cx, cy, cz)
    return vx + 2.0 * (w * cx + dx), vy + 2.0 * (w * cy + dy), vz + 2.0 * (w * cz + dz)


def quat_mul(a, b) -> np.ndarray:
    """Hamilton product a*b; broadcasts over leading axes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.stack(hamilton(*np.moveaxis(a, -1, 0), *np.moveaxis(b, -1, 0)), axis=-1)


def quat_conjugate(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def quat_rotate(q, v) -> np.ndarray:
    """Rotate vector(s) v by unit quaternion(s) q with rotate; broadcasts
    over leading axes."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    return np.stack(rotate(*np.moveaxis(q, -1, 0), *np.moveaxis(v, -1, 0)), axis=-1)


def quat_to_matrix(q) -> np.ndarray:
    """3x3 rotation matrix of a unit quaternion."""
    w, x, y, z = np.asarray(q, dtype=float)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def quat_distance(a, b) -> float:
    """Sign-insensitive quaternion distance: min(|a-b|, |a+b|)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(min(np.linalg.norm(a - b), np.linalg.norm(a + b)))


def quat_from_matrix(m) -> np.ndarray:
    """Unit quaternion of a 3x3 rotation matrix (Shepperd's method)."""
    m = np.asarray(m, dtype=float)
    tr = m[0, 0] + m[1, 1] + m[2, 2]
    if tr > 0:
        s = np.sqrt(tr + 1.0) * 2.0
        q = np.array([0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s])
    elif m[0, 0] >= m[1, 1] and m[0, 0] >= m[2, 2]:
        s = np.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        q = np.array([(m[2, 1] - m[1, 2]) / s, 0.25 * s, (m[0, 1] + m[1, 0]) / s, (m[0, 2] + m[2, 0]) / s])
    elif m[1, 1] >= m[2, 2]:
        s = np.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        q = np.array([(m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, 0.25 * s, (m[1, 2] + m[2, 1]) / s])
    else:
        s = np.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        q = np.array([(m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s, (m[1, 2] + m[2, 1]) / s, 0.25 * s])
    return quat_normalize(q)


@dataclass(frozen=True)
class Pose:
    """Rigid transform: translation ``t`` in meters and unit quaternion ``r``."""

    t: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        t = _vec(self.t, 3, "t")
        r = _vec(self.r, 4, "r")
        n = np.linalg.norm(r)
        if abs(n - 1.0) > 1e-6:
            raise ValueError(f"quaternion norm {n:.3e} too far from 1")
        r = r / n
        t.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "r", r)


@dataclass(frozen=True)
class AxisAngle:
    """Rotation as axis * angle (radians); the zero vector is identity."""

    v: np.ndarray

    def __post_init__(self):
        v = _vec(self.v, 3, "v")
        v.setflags(write=False)
        object.__setattr__(self, "v", v)

    @property
    def angle(self) -> float:
        return float(np.linalg.norm(self.v))


def identity_pose() -> Pose:
    return Pose(t=np.zeros(3), r=np.array([1.0, 0.0, 0.0, 0.0]))


def compose_pose(a: Pose, b: Pose) -> Pose:
    """Pose applying b first, then a."""
    return Pose(t=a.t + quat_rotate(a.r, b.t), r=quat_normalize(quat_mul(a.r, b.r)))


def compose_pose_rows(t_a, r_a, t_b, r_b):
    """compose_pose over N rows: (N, 3) translations and (N, 4) quats on
    either side (or one pose, broadcast) give the (t, r) arrays of the N
    composed poses, each row with the bits compose_pose gives it."""
    return t_a + quat_rotate(r_a, t_b), normalize_rows(quat_normalize(quat_mul(r_a, r_b)))


def invert_pose(p: Pose) -> Pose:
    r_inv = quat_conjugate(p.r)
    return Pose(t=-quat_rotate(r_inv, p.t), r=r_inv)


def transform_point(p: Pose, x) -> np.ndarray:
    """Apply pose p to a 3-vector or an (N, 3) array of points."""
    return quat_rotate(p.r, np.asarray(x, dtype=float)) + p.t


def axis_angle_to_quat(v) -> np.ndarray:
    """Unit quaternion of an axis-angle vector; an (N, 3) stack gives
    (N, 4), each row with the bits it gets alone.

    The angle is the row's row_norms, the bits np.linalg.norm gives one
    vector. Below an angle of 1e-8 the first-order form (1, v/2) is used
    (normalized) to avoid dividing by a vanishing angle.
    """
    if isinstance(v, AxisAngle):
        v = v.v
    v = np.asarray(v, dtype=float)
    rows = v.reshape(-1, 3)
    angle = row_norms(rows)[:, None]
    small = angle < 1e-8
    half = 0.5 * angle
    q = np.concatenate([np.cos(half), np.sin(half) * (rows / np.where(small, 1.0, angle))], axis=1)
    if small.any():
        q = np.where(small, quat_normalize(np.concatenate([np.ones_like(angle), 0.5 * rows], axis=1)), q)
    return q.reshape(v.shape[:-1] + (4,))


def quat_to_axis_angle(q) -> np.ndarray:
    """Axis-angle vector of a unit quaternion, with |result| in [0, pi]."""
    q = np.asarray(q, dtype=float)
    if q[0] < 0.0:
        q = -q
    s = float(np.linalg.norm(q[1:]))
    if s < 1e-12:
        return 2.0 * q[1:]
    angle = 2.0 * np.arctan2(s, q[0])
    return q[1:] * (angle / s)
