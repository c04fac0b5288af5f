import json

import numpy as np
import pytest

from fungrasp.demo import (
    Demonstration,
    EditBounds,
    edit_wrist_arrays,
    edited_joint_trajectory,
    interpolation_fraction,
    load_demo,
    target_joint_config,
)
from fungrasp.assets import UserError, default_demo_path, default_hand_path
from fungrasp.geometry import axis_angle_to_quat
from fungrasp.hand import load_hand_spec

from conftest import _load_script, random_pose
from pose_reference import IDENTITY, compose_pose, invert_pose, pose, quat_distance


def test_bundled_demo_shape(demo, spec):
    assert demo.horizon == 40
    assert demo.grasp_index == 30
    assert demo.joint_count == spec.joint_count


def test_single_frame_demo_rejected(tmp_path, spec):
    payload = {"hand": spec.name, "T_l": 1,
               "frames": [{"p": {"t": [0, 0, 0], "r": [1, 0, 0, 0]}, "q": [0] * 6}]}
    p = tmp_path / "one.json"
    p.write_text(json.dumps(payload))
    with pytest.raises(UserError, match="T_D >= 2"):
        load_demo(p, spec)


def test_wrong_hand_dimension_rejected(tmp_path, spec, shadow_spec):
    with pytest.raises(UserError, match="hand"):
        load_demo(default_demo_path("shadow_like"), spec)
    # same hand name, wrong joint dimension
    payload = {"hand": spec.name, "T_l": 2, "frames": [
        {"p": {"t": [0, 0, 0], "r": [1, 0, 0, 0]}, "q": [0] * 22} for _ in range(4)
    ]}
    p = tmp_path / "wrong.json"
    p.write_text(json.dumps(payload))
    with pytest.raises(UserError, match="J="):
        load_demo(p, spec)


def test_demo_round_trip(tmp_path):
    """For both bundled hands, the asset script's save_demo writes back
    the bundled file byte for byte, so loading it again gives the same
    arrays."""
    save_demo = _load_script().save_demo
    for hand in ("inspire_like", "shadow_like"):
        spec = load_hand_spec(default_hand_path(hand))
        demo = load_demo(default_demo_path(hand), spec)
        path = tmp_path / f"{hand}.json"
        save_demo(demo, spec.name, path)
        assert path.read_bytes() == default_demo_path(hand).read_bytes()


def test_target_joint_config(spec, styles):
    s = styles[0].q_canonical
    assert np.array_equal(target_joint_config(s, 1.0, np.zeros(6), spec), s)
    z = target_joint_config(s, 0.0, np.zeros(6), spec)
    assert np.array_equal(z, np.clip(np.zeros(6), spec.limits_lo, spec.limits_hi))
    # element-wise scalar oracle
    dq = np.array([0.01, -0.02, 0.03, 0.0, 0.05, -0.01])
    got = target_joint_config(s, 1.2, dq, spec)
    for j in range(6):
        want = min(max(1.2 * s[j] + dq[j], spec.limits_lo[j]), spec.limits_hi[j])
        assert got[j] == pytest.approx(want, abs=1e-15)


def test_interpolation_fraction_endpoints():
    q0 = np.array([0.0, 0.2, -0.1])
    qT = np.array([1.0, 0.6, 0.3])
    f, static = interpolation_fraction(q0, qT, qT)
    assert not static.any()
    assert np.allclose(f, 1.0)
    f, _ = interpolation_fraction(q0, qT, q0)
    assert np.allclose(f, 0.0)
    f, _ = interpolation_fraction(q0, qT, 0.5 * (q0 + qT))
    assert np.allclose(f, 0.5)


def test_interpolation_fraction_static_flag():
    q0 = np.array([0.3, 0.0])
    qT = np.array([0.3, 1.0])
    f, static = interpolation_fraction(q0, qT, np.array([0.9, 0.5]))
    assert static[0] and not static[1]
    assert f[1] == pytest.approx(0.5)


def _synthetic_demo(spec, with_post_motion=False):
    tl, td = 6, 9
    rng = np.random.default_rng(0)
    q0 = spec.limits_lo + 0.2 * (spec.limits_hi - spec.limits_lo)
    qTl = spec.limits_lo + 0.7 * (spec.limits_hi - spec.limits_lo)
    joints = [q0 + (t / tl) * (qTl - q0) for t in range(tl + 1)]
    for t in range(tl + 1, td + 1):
        if with_post_motion:
            joints.append(qTl + 0.01 * (t - tl) * np.ones(spec.joint_count))
        else:
            joints.append(qTl.copy())
    pose_t = np.c_[np.zeros((td + 1, 2)), 0.3 - 0.02 * np.arange(td + 1)]
    return Demonstration(pose_t, np.tile([1.0, 0, 0, 0], (td + 1, 1)), np.array(joints), tl)


def test_replay_identity(spec, demo, styles):
    q_star = demo.joints[demo.grasp_index]
    traj = edited_joint_trajectory(demo, q_star, spec)
    assert np.max(np.abs(traj - demo.joints)) < 1e-12


def test_interpolation_hits_target_at_grasp_frame(spec):
    d = _synthetic_demo(spec)
    rng = np.random.default_rng(1)
    q_star = rng.uniform(spec.limits_lo, spec.limits_hi, size=(50, spec.joint_count))
    q_tl = edited_joint_trajectory(d, q_star, spec)[:, d.grasp_index]
    assert np.max(np.abs(q_tl - q_star)) < 1e-12


def test_static_joint_linear_ramp(spec):
    d = _synthetic_demo(spec)
    # force one joint static in the reference
    joints = np.array(d.joints)
    joints[:, 2] = joints[0, 2]
    d2 = Demonstration(d.pose_t, d.pose_r, joints, d.grasp_index)
    q_star = np.array(joints[d.grasp_index])
    q_star[2] = joints[0, 2] + 0.15
    traj = edited_joint_trajectory(d2, q_star, spec)
    tl = d2.grasp_index
    for t in range(d2.horizon + 1):
        expected = joints[0, 2] + min(t / tl, 1.0) * 0.15
        assert traj[t, 2] == pytest.approx(expected, abs=1e-12)


def test_post_grasp_deltas_scaled_by_f(spec):
    d = _synthetic_demo(spec, with_post_motion=True)
    q0, qTl = d.joints[0], d.joints[d.grasp_index]
    q_star = q0 + 0.5 * (qTl - q0)  # f = 0.5 on every joint
    traj = edited_joint_trajectory(d, q_star, spec)
    t = d.horizon
    expected = q_star + 0.5 * (d.joints[t] - qTl)
    assert np.allclose(traj[t], np.clip(expected, spec.limits_lo, spec.limits_hi), atol=1e-12)


def test_monotone_scaling_single_joint(spec):
    d = _synthetic_demo(spec)
    q0, qTl = d.joints[0], d.joints[d.grasp_index]
    lo = edited_joint_trajectory(d, q0 + 0.3 * (qTl - q0), spec)
    hi = edited_joint_trajectory(d, q0 + 0.8 * (qTl - q0), spec)
    assert np.all(hi[: d.grasp_index + 1] >= lo[: d.grasp_index + 1] - 1e-12)


def test_edit_wrist_identity_replays_object_frame(demo):
    rng = np.random.default_rng(2)
    obj_t, obj_r = random_pose(rng)
    t, r = edit_wrist_arrays(demo, [np.r_[np.zeros(12), 1.0]], [obj_t], [obj_r])
    inv = invert_pose((obj_t, obj_r))
    for p_t, p_r, ref_t, ref_r in zip(t[0], r[0], demo.pose_t, demo.pose_r):
        back_t, back_r = compose_pose(inv, pose(p_t, p_r))
        assert np.allclose(back_t, ref_t, atol=1e-12)
        assert quat_distance(back_r, ref_r) < 1e-12


def test_edit_wrist_pure_translation_shift(demo):
    dt = np.array([0.0, 0.0, 0.05])
    action = np.r_[dt, np.zeros(9), 1.0]
    t, _ = edit_wrist_arrays(demo, [action], [IDENTITY[0]], [IDENTITY[1]])
    assert np.allclose(t[0], demo.pose_t + dt, atol=1e-12)


def test_edit_wrist_object_rotation_equivariance(demo):
    # oracle: compose poses one frame at a time with compose_pose
    yaw = pose([0.1, -0.2, 0.0], axis_angle_to_quat(np.array([0, 0, np.pi / 2])))
    dt, dr = np.array([0.01, 0.02, -0.03]), np.array([0.1, 0.0, 0.2])
    t, r = edit_wrist_arrays(demo, [np.r_[dt, dr, np.zeros(6), 1.0]], [yaw[0]], [yaw[1]])
    prefix = compose_pose(yaw, pose(dt, axis_angle_to_quat(dr)))
    for p_t, p_r, ref in zip(t[0], r[0], zip(demo.pose_t, demo.pose_r)):
        want_t, want_r = compose_pose(prefix, ref)
        assert np.allclose(p_t, want_t, atol=1e-12)
        assert quat_distance(p_r, want_r) < 1e-12


def test_bounds_intervals_norm_guarantee():
    b = EditBounds()
    lo, hi = b.intervals(6)
    assert lo.shape == (13,)
    # rotation components bounded so the axis-angle norm stays within b_r
    assert np.linalg.norm(hi[3:6]) <= b.b_r + 1e-12
    assert hi[-1] == b.k_max and lo[-1] == b.k_min


@pytest.mark.parametrize("t_l", [[3], None, 2.7, True, "3", "missing"])
def test_grasp_index_must_be_a_json_integer(tmp_path, spec, t_l):
    """T_l is a JSON integer (not a bool); anything else is a UserError
    that names the file and T_l, not a silent int() of it."""
    payload = json.loads(default_demo_path().read_text())
    if t_l == "missing":
        del payload["T_l"]
    else:
        payload["T_l"] = t_l
    p = tmp_path / "demo.json"
    p.write_text(json.dumps(payload))
    with pytest.raises(UserError, match=rf"demo\.json: T_l: must be an integer"):
        load_demo(p, spec)
    payload["T_l"] = 3
    p.write_text(json.dumps(payload))
    assert load_demo(p, spec).grasp_index == 3


@pytest.mark.parametrize("t_l", [-1, 0, 41])
def test_grasp_index_out_of_range_names_the_file(tmp_path, spec, t_l):
    """A T_l outside (0, T_D] of the 41-frame bundled demo is a UserError
    that names the file and T_l; the in-code check stays for demos built
    in code."""
    payload = json.loads(default_demo_path().read_text())
    payload["T_l"] = t_l
    p = tmp_path / "demo.json"
    p.write_text(json.dumps(payload))
    with pytest.raises(UserError, match=rf"demo\.json: T_l: grasp index {t_l} outside \(0, 40\]"):
        load_demo(p, spec)
    demo = load_demo(default_demo_path(), spec)
    with pytest.raises(UserError, match=rf"^grasp index {t_l} outside \(0, 40\]"):
        Demonstration(demo.pose_t, demo.pose_r, demo.joints, t_l)


@pytest.mark.parametrize("hand", ["inspire_like", "shadow_like"])
def test_hold_index_of_the_bundled_demos(hand):
    """Both bundled demos end with frames 31..40 repeating frame 30 = T_l;
    T_l itself never merges, so L = 31 and head holds frames 0..31."""
    demo = load_demo(default_demo_path(hand), load_hand_spec(default_hand_path(hand)))
    assert (demo.horizon, demo.grasp_index, demo.hold_index) == (40, 30, 31)
    head = demo.head
    assert head is demo.head and head.hold_index == head.horizon == 31 and head.head is head
    for name in ("pose_t", "pose_r", "joints"):
        assert getattr(head, name).tobytes() == getattr(demo, name)[:32].tobytes()


def test_hold_index_compares_bits(demo):
    """A later frame merges only if it repeats frame L bit for bit: a zero
    of the other sign, or one ulp, keeps it apart. With T_l = T_D, L is
    T_D and head is the demonstration itself."""
    td = demo.horizon
    pose_t, joints = np.array(demo.pose_t), np.array(demo.joints)
    assert pose_t[td, 0] == 0.0
    pose_t[td, 0] = -pose_t[td, 0]
    joints[td, 0] = np.nextafter(joints[td, 0], np.inf)
    for apart in (Demonstration(pose_t, demo.pose_r, demo.joints, demo.grasp_index),
                  Demonstration(demo.pose_t, demo.pose_r, joints, demo.grasp_index)):
        assert apart.hold_index == td and apart.head is apart
    at_end = Demonstration(demo.pose_t, demo.pose_r, demo.joints, td)
    assert at_end.hold_index == td and at_end.head is at_end
