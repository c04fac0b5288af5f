"""Rigid-body poses and quaternion algebra shared by every other module.

Conventions, fixed here once because the file formats depend on them:
quaternions are (w, x, y, z), unit norm, right-handed, and act as active
rotations. A pose is a translation t and a quaternion r, held as (3,)
and (4,) arrays or as (N, 3) and (N, 4) rows; it rotates first, then
translates. Compositions renormalize the quaternion every time; that is
cheap and removes a whole class of drift bugs.

The Hamilton product (hamilton) and the rotation (rotate) are written
once, over component arrays; quat_mul, quat_rotate and the FK chain all
run them in that operation order, so a row's bits do not depend on the
layout it arrives in. rotate can also write into a workspace, which FK
and the contact phase pass, with the same bits. FK rotates its segments'
+x offsets by rotate_x, rotate less its products by zero components,
which gives rotate's bytes.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "axis_angle_to_quat",
    "quat_mul",
    "hamilton",
    "rotate",
    "rotate_x",
    "row_norms",
    "quat_conjugate",
    "quat_rotate",
    "quat_normalize",
    "normalize_rows",
    "compose_pose_rows",
    "quat_from_matrix",
]


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
    """Each row of an (N, D) stack divided by its norm (row_norms): row
    for row the bits of r / np.linalg.norm(r), the division the loaders
    apply to one quaternion (assets.json_pose)."""
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


def _cross(ax, ay, az, bx, by, bz, out, tmp):
    """a x b over components, ay * bz - az * by first; each component
    into its plane of out and each right-hand product into tmp, or into
    new arrays where those are None."""
    ox, oy, oz = out
    return (
        np.subtract(np.multiply(ay, bz, ox), np.multiply(az, by, tmp), ox),
        np.subtract(np.multiply(az, bx, oy), np.multiply(ax, bz, tmp), oy),
        np.subtract(np.multiply(ax, by, oz), np.multiply(ay, bx, tmp), oz),
    )


def rotate(w, ux, uy, uz, vx, vy, vz, out=None):
    """v rotated by the unit quaternion (w, u) over components:
    v + 2(w (u x v) + u x (u x v)), with no rotation matrix.

    out, a (7, ...) float array of the result's shape, makes the rotation
    allocate nothing: the result's components are out[0], out[1] and
    out[2], and out[3:] is scratch; v must not share memory with out.
    Each operation is the same ufunc call on the same operands either
    way, with its output buffer as its last positional argument (None
    allocates), so the in-place result has the allocating one's bits.
    """
    c_out, d_out, tmp = ((None,) * 3, (None,) * 3, None) if out is None else (out[:3], out[3:6], out[6])
    c = _cross(ux, uy, uz, vx, vy, vz, c_out, tmp)
    d = _cross(ux, uy, uz, *c, d_out, tmp)
    # each component is built over its u x v plane, which nothing reads after it
    return tuple(
        np.add(v, np.multiply(2.0, np.add(np.multiply(w, ci, o), di, o), o), o)
        for v, ci, di, o in zip((vx, vy, vz), c, d, c_out)
    )


def rotate_x(w, ux, uy, uz, length, out=None):
    """(length, 0, 0) rotated by the unit quaternion (w, u) over
    components, with the bytes of rotate(w, ux, uy, uz, length, 0.0, 0.0)
    for finite input: rotate's operations in its order, less the seven
    products by a zero component of v or of u x v, whose x is zero.

    Each dropped product is a signed zero, and a signed zero added to a
    nonzero sum leaves it as it is, so every nonzero value along the way
    is rotate's; a zero may differ only in sign, and y and z keep
    rotate's 0.0 + to make theirs +0.0 (x starts from length). out is
    rotate's (7, ...) workspace, the result in out[:3].
    """
    rx, ry, rz, cy, cz, tmp = (None,) * 6 if out is None else out[:6]
    cy = np.multiply(uz, length, cy)                    # u x v = (0, uz L, -uy L)
    cz = np.multiply(uy, -length, cz)
    rx = np.subtract(np.multiply(uy, cz, rx), np.multiply(uz, cy, tmp), rx)
    ry = np.subtract(np.multiply(w, cy, ry), np.multiply(ux, cz, tmp), ry)
    rz = np.add(np.multiply(w, cz, rz), np.multiply(ux, cy, tmp), rz)
    return (
        np.add(length, np.multiply(2.0, rx, rx), rx),
        np.add(0.0, np.multiply(2.0, ry, ry), ry),
        np.add(0.0, np.multiply(2.0, rz, rz), rz),
    )


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


def compose_pose_rows(t_a, r_a, t_b, r_b):
    """The N poses a o b (b first, then a): (N, 3) translations and
    (N, 4) quats on either side (or one pose, broadcast) give the (t, r)
    arrays t_a + quat_rotate(r_a, t_b) and quat_normalize(quat_mul(r_a,
    r_b)), each quaternion row then divided by its own 1-D norm,
    r / np.linalg.norm(r), as normalize_rows reproduces."""
    return t_a + quat_rotate(r_a, t_b), normalize_rows(quat_normalize(quat_mul(r_a, r_b)))


def axis_angle_to_quat(v) -> np.ndarray:
    """Unit quaternion of an axis-angle vector; an (N, 3) stack gives
    (N, 4), each row with the bits it gets alone.

    The angle is the row's row_norms, the bits np.linalg.norm gives one
    vector. Below an angle of 1e-8 the first-order form (1, v/2) is used
    (normalized) to avoid dividing by a vanishing angle.
    """
    v = np.asarray(v, dtype=float)
    rows = v.reshape(-1, 3)
    angle = row_norms(rows)[:, None]
    small = angle < 1e-8
    half = 0.5 * angle
    q = np.concatenate([np.cos(half), np.sin(half) * (rows / np.where(small, 1.0, angle))], axis=1)
    if small.any():
        q = np.where(small, quat_normalize(np.concatenate([np.ones_like(angle), 0.5 * rows], axis=1)), q)
    return q.reshape(v.shape[:-1] + (4,))
