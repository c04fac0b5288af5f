import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fungrasp.geometry import (
    axis_angle_to_quat,
    compose_pose_rows,
    quat_from_matrix,
    quat_mul,
    quat_normalize,
    quat_rotate,
    rotate,
    row_norms,
)

from conftest import poses, random_pose, unit_quaternions
from kernel_reference import stacked_quat_mul, stacked_quat_rotate
from pose_reference import IDENTITY, invert_pose, quat_distance, transform_point


# oracles of the rotation algebra, not used by the package itself
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


def compose(a, b):
    """compose_pose_rows of two (t, r) poses, each a batch of one."""
    t, r = compose_pose_rows(a[0][None], a[1][None], b[0][None], b[1][None])
    return t[0], r[0]


def test_identity_compose_is_noop():
    rng = np.random.default_rng(0)
    p = random_pose(rng)
    for t, r in (compose(IDENTITY, p), compose(p, IDENTITY)):
        assert np.allclose(t, p[0], atol=1e-12)
        assert quat_distance(r, p[1]) < 1e-12


@settings(max_examples=100, deadline=None, derandomize=True)
@given(p=poses())
def test_compose_with_inverse_is_identity(p):
    for a, b in ((p, invert_pose(p)), (invert_pose(p), p)):
        t, r = compose(a, b)
        assert np.linalg.norm(t) < 1e-9
        assert quat_distance(r, np.array([1.0, 0, 0, 0])) < 1e-9


def test_two_quarter_turns_match_rotation_matrix_oracle():
    # oracle: multiply the two rotation matrices built from the same quats
    qz90 = axis_angle_to_quat(np.array([0.0, 0.0, np.pi / 2]))
    _, combined = compose((np.zeros(3), qz90), (np.zeros(3), qz90))
    oracle = quat_to_matrix(qz90) @ quat_to_matrix(qz90)
    assert np.allclose(quat_to_matrix(combined), oracle, atol=1e-12)
    # and element-wise against the exact 180-degree matrix
    assert np.allclose(oracle, np.diag([-1.0, -1.0, 1.0]), atol=1e-12)


def test_invert_identity_and_pure_translation():
    assert np.allclose(invert_pose(IDENTITY)[0], 0.0)
    p = (np.array([1.0, 2.0, 3.0]), np.array([1.0, 0, 0, 0]))
    assert np.allclose(invert_pose(p)[0], [-1.0, -2.0, -3.0], atol=1e-15)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(a=poses(), b=poses())
def test_double_invert_round_trip(a, b):
    t, r = invert_pose(invert_pose(a))
    assert np.allclose(t, a[0], atol=1e-9)
    assert quat_distance(r, a[1]) < 1e-9
    # undoing a recovers b from a∘b
    t, r = compose(invert_pose(a), compose(a, b))
    assert np.allclose(t, b[0], atol=1e-9)
    assert quat_distance(r, b[1]) < 1e-9


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
    assert np.allclose(transform_point(IDENTITY, x), x)
    p = (np.array([0.5, -0.5, 2.0]), np.array([1.0, 0, 0, 0]))
    assert np.allclose(transform_point(p, np.zeros(3)), p[0])
    rz = (np.zeros(3), axis_angle_to_quat(np.array([0, 0, np.pi / 2])))
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
    q = axis_angle_to_quat(np.array([0.0, 0.0, np.pi / 2]))
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
        p = compose(p, random_pose(rng))
        assert abs(np.linalg.norm(p[1]) - 1.0) < 1e-9


def test_compose_transform_consistency():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a, b = random_pose(rng), random_pose(rng)
        x = rng.normal(size=3)
        lhs = transform_point(compose(a, b), x)
        rhs = transform_point(a, transform_point(b, x))
        assert np.allclose(lhs, rhs, atol=1e-9)


def test_quat_normalize_rejects_a_zero_quaternion():
    with pytest.raises(ValueError, match="zero quaternion"):
        quat_normalize(np.zeros(4))


def test_quat_mul_matches_matrix_product():
    rng = np.random.default_rng(8)
    for _ in range(20):
        qa, qb = random_pose(rng)[1], random_pose(rng)[1]
        lhs = quat_to_matrix(quat_normalize(quat_mul(qa, qb)))
        rhs = quat_to_matrix(qa) @ quat_to_matrix(qb)
        assert np.allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("width", [3, 6, 22])
def test_row_norms_match_each_rows_own_norm(width):
    """Each row gets the bits np.linalg.norm gives it alone, also from a
    strided stack and with rows of very different scales."""
    rng = np.random.default_rng(width)
    x = rng.normal(size=(300, width)) * np.exp(rng.uniform(-20.0, 20.0, (300, 1)))
    want = np.array([np.linalg.norm(row) for row in x])
    assert row_norms(x).tobytes() == want.tobytes()
    assert row_norms(x[::2]).tobytes() == want[::2].tobytes()


def test_component_formulas_match_the_stacked_ones():
    """quat_mul and quat_rotate give the bytes of the (..., 4) stacked
    formulas, broadcasting one quaternion or vector against many."""
    rng = np.random.default_rng(21)
    a, b, v = rng.normal(size=(64, 4)), rng.normal(size=(64, 4)), rng.normal(size=(64, 3))
    for lhs, rhs in ((a, b), (a[0], b), (a, b[0]), (a[0], b[0]), (a[:, None], b[None, :8])):
        assert quat_mul(lhs, rhs).tobytes() == stacked_quat_mul(lhs, rhs).tobytes()
    for q, x in ((a, v), (a[0], v), (a, v[0]), (a[0], v[0]), (a[:8, None], v[None])):
        assert quat_rotate(q, x).tobytes() == stacked_quat_rotate(q, x).tobytes()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    grid=st.tuples(st.integers(1, 6), st.integers(1, 5), st.integers(1, 4)),
    scale=st.floats(1e-6, 1e3),
)
def test_in_place_rotate_gives_the_allocating_bytes(seed, grid, scale):
    """rotate with an out workspace writes the allocating call's bytes
    into out[:3]: (4, E, 1, 1) quaternion components broadcast against
    (E, T, K) vector grids, as the contact phase calls it, and (N,)
    components against a scalar vector, as FK does."""
    rng = np.random.default_rng(seed)
    e_count = grid[0]
    q = quat_normalize(rng.normal(size=(e_count, 4)))
    v = rng.normal(size=(3, *grid)) * scale
    for comps, vec, shape in ((q.T[..., None, None], v, grid), (q.T, (scale, 0.0, 0.0), (e_count,))):
        work = np.full((7, *shape), np.nan)
        got = rotate(*comps, *vec, work)
        want = rotate(*comps, *vec)
        assert all(np.shares_memory(g, w) for g, w in zip(got, work[:3]))
        assert np.stack(got).tobytes() == np.stack(want).tobytes()
