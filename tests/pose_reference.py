"""Single-pose oracles of the (t, r) row algebra the package runs
(geometry.compose_pose_rows, demo.edit_wrist_arrays). A pose is a (3,)
translation and a (4,) unit quaternion; every pose built here has
r / np.linalg.norm(r), the bits the loaders (assets.json_pose) give r.
"""

import numpy as np

from fungrasp.geometry import quat_conjugate, quat_mul, quat_normalize, quat_rotate


def pose(t, r):
    """The pair (t, r) as read-only float arrays, r divided by its own norm."""
    r = np.asarray(r, dtype=float)
    t, r = np.array(t, dtype=float), r / np.linalg.norm(r)
    t.setflags(write=False)
    r.setflags(write=False)
    return t, r


IDENTITY = pose(np.zeros(3), [1.0, 0.0, 0.0, 0.0])


def compose_pose(a, b):
    """The pose applying b first, then a."""
    (t_a, r_a), (t_b, r_b) = a, b
    return pose(t_a + quat_rotate(r_a, t_b), quat_normalize(quat_mul(r_a, r_b)))


def invert_pose(p):
    t, r = p
    r_inv = quat_conjugate(r)
    return pose(-quat_rotate(r_inv, t), r_inv)


def transform_point(p, x):
    """p applied to a 3-vector or an (N, 3) stack of points."""
    t, r = p
    return quat_rotate(r, np.asarray(x, dtype=float)) + t


def quat_distance(a, b) -> float:
    """Sign-insensitive quaternion distance: min(|a-b|, |a+b|)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(min(np.linalg.norm(a - b), np.linalg.norm(a + b)))


def unproject(cam, u, v, depth):
    """The world point dataio.project_affordance maps to pixel (u, v) at
    a known depth."""
    p_cam = np.array([(u - cam.cx) * depth / cam.fx, (v - cam.cy) * depth / cam.fy, depth])
    return transform_point(invert_pose((cam.extrinsic_t, cam.extrinsic_r)), p_cam)
