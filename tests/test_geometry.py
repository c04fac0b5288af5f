import numpy as np
import pytest
from hypothesis import given, settings

from fungrasp.geometry import (
    AxisAngle,
    Pose,
    axis_angle_to_quat,
    compose_pose,
    identity_pose,
    invert_pose,
    quat_distance,
    quat_from_matrix,
    quat_mul,
    quat_normalize,
    quat_to_axis_angle,
    quat_to_matrix,
    transform_point,
)

from conftest import poses, random_pose, unit_quaternions


def test_identity_compose_is_noop():
    rng = np.random.default_rng(0)
    p = random_pose(rng)
    q = compose_pose(identity_pose(), p)
    assert np.allclose(q.t, p.t, atol=1e-12)
    assert quat_distance(q.r, p.r) < 1e-12


@settings(max_examples=100, deadline=None, derandomize=True)
@given(p=poses())
def test_compose_with_inverse_is_identity(p):
    for q in (compose_pose(p, invert_pose(p)), compose_pose(invert_pose(p), p)):
        assert np.linalg.norm(q.t) < 1e-9
        assert quat_distance(q.r, np.array([1.0, 0, 0, 0])) < 1e-9


def test_two_quarter_turns_match_rotation_matrix_oracle():
    # oracle: multiply the two rotation matrices built from the same quats
    qz90 = axis_angle_to_quat(np.array([0.0, 0.0, np.pi / 2]))
    a = Pose(t=np.zeros(3), r=qz90)
    combined = compose_pose(a, a)
    oracle = quat_to_matrix(qz90) @ quat_to_matrix(qz90)
    assert np.allclose(quat_to_matrix(combined.r), oracle, atol=1e-12)
    # and element-wise against the exact 180-degree matrix
    assert np.allclose(oracle, np.diag([-1.0, -1.0, 1.0]), atol=1e-12)


def test_invert_identity_and_pure_translation():
    assert np.allclose(invert_pose(identity_pose()).t, 0.0)
    p = Pose(t=np.array([1.0, 2.0, 3.0]), r=np.array([1.0, 0, 0, 0]))
    assert np.allclose(invert_pose(p).t, [-1.0, -2.0, -3.0], atol=1e-15)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(a=poses(), b=poses())
def test_double_invert_round_trip(a, b):
    q = invert_pose(invert_pose(a))
    assert np.allclose(q.t, a.t, atol=1e-9)
    assert quat_distance(q.r, a.r) < 1e-9
    # undoing a recovers b from a∘b
    back = compose_pose(invert_pose(a), compose_pose(a, b))
    assert np.allclose(back.t, b.t, atol=1e-9)
    assert quat_distance(back.r, b.r) < 1e-9


@settings(max_examples=200, deadline=None, derandomize=True)
@given(q=unit_quaternions())
def test_quat_matrix_round_trip(q):
    m = quat_to_matrix(q)
    assert np.allclose(m @ m.T, np.eye(3), atol=1e-12) and np.linalg.det(m) == pytest.approx(1.0)
    # q and -q are the same rotation, so the way back may return either
    assert quat_distance(quat_from_matrix(m), q) < 1e-12


def test_transform_point_cases():
    rng = np.random.default_rng(3)
    x = rng.normal(size=3)
    assert np.allclose(transform_point(identity_pose(), x), x)
    p = Pose(t=np.array([0.5, -0.5, 2.0]), r=np.array([1.0, 0, 0, 0]))
    assert np.allclose(transform_point(p, np.zeros(3)), p.t)
    rz = Pose(t=np.zeros(3), r=axis_angle_to_quat(np.array([0, 0, np.pi / 2])))
    assert np.allclose(transform_point(rz, [1.0, 0, 0]), [0.0, 1.0, 0.0], atol=1e-12)


def test_transform_points_matches_single():
    rng = np.random.default_rng(4)
    p = random_pose(rng)
    xs = rng.normal(size=(20, 3))
    batch = transform_point(p, xs)
    for i in range(20):
        assert np.allclose(batch[i], transform_point(p, xs[i]), atol=1e-12)


def test_axis_angle_to_quat_zero_and_closed_form():
    assert np.allclose(axis_angle_to_quat(np.zeros(3)), [1.0, 0, 0, 0])
    q = axis_angle_to_quat(AxisAngle(np.array([0.0, 0.0, np.pi / 2])))
    assert np.allclose(q, [np.cos(np.pi / 4), 0, 0, np.sin(np.pi / 4)], atol=1e-15)


def test_axis_angle_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(100):
        v = rng.normal(size=3)
        v = v / np.linalg.norm(v) * rng.uniform(1e-6, np.pi - 1e-6)
        back = quat_to_axis_angle(axis_angle_to_quat(v))
        assert np.allclose(back, v, atol=1e-9)


def test_small_angle_branch():
    v = np.array([1e-10, -2e-10, 5e-11])
    q = axis_angle_to_quat(v)
    assert abs(np.linalg.norm(q) - 1.0) < 1e-15
    assert np.allclose(quat_to_axis_angle(q), v, atol=1e-15)


def test_composition_preserves_unit_norm():
    rng = np.random.default_rng(6)
    p = random_pose(rng)
    for _ in range(200):
        p = compose_pose(p, random_pose(rng))
        assert abs(np.linalg.norm(p.r) - 1.0) < 1e-9


def test_compose_transform_consistency():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a, b = random_pose(rng), random_pose(rng)
        x = rng.normal(size=3)
        lhs = transform_point(compose_pose(a, b), x)
        rhs = transform_point(a, transform_point(b, x))
        assert np.allclose(lhs, rhs, atol=1e-9)


def test_pose_rejects_bad_inputs():
    with pytest.raises(ValueError):
        Pose(t=np.zeros(2), r=np.array([1.0, 0, 0, 0]))
    with pytest.raises(ValueError):
        Pose(t=np.zeros(3), r=np.array([2.0, 0, 0, 0]))  # norm far from 1
    with pytest.raises(ValueError):
        quat_normalize(np.zeros(4))


def test_quat_mul_matches_matrix_product():
    rng = np.random.default_rng(8)
    for _ in range(20):
        qa, qb = random_pose(rng).r, random_pose(rng).r
        lhs = quat_to_matrix(quat_normalize(quat_mul(qa, qb)))
        rhs = quat_to_matrix(qa) @ quat_to_matrix(qb)
        assert np.allclose(lhs, rhs, atol=1e-12)
