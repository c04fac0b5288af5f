import json

import numpy as np
import pytest

from fungrasp.assets import UserError
from fungrasp.dataio import (
    CameraModel,
    config_digest,
    default_cameras,
    export_rollouts,
    load_checkpoint,
    look_at_camera,
    project_affordance,
    save_checkpoint,
)
from fungrasp.demo import edited_joint_trajectory
from fungrasp.geometry import axis_angle_to_quat
from fungrasp.policy import init_params
from fungrasp.rewards import TERMS
from fungrasp.training import TrainConfig, _results, episode_rng, run_episodes
from fungrasp.evaluation import evaluate

from conftest import with_arrays
from contact_reference import hand_assets
from pose_reference import IDENTITY, compose_pose, invert_pose, pose, transform_point, unproject


@pytest.fixture
def cam():
    return CameraModel(210.0, 200.0, 128.0, 120.0, *IDENTITY)


def test_optical_axis_projects_to_principal_point(cam):
    u, v, depth = project_affordance(cam, np.array([0.0, 0.0, 1.0]))
    assert (u, v, depth) == (128.0, 120.0, 1.0)


def test_doubling_depth_halves_offset(cam):
    u1, v1, _ = project_affordance(cam, np.array([0.1, 0.05, 1.0]))
    u2, v2, _ = project_affordance(cam, np.array([0.1, 0.05, 2.0]))
    assert u2 - cam.cx == pytest.approx((u1 - cam.cx) / 2)
    assert v2 - cam.cy == pytest.approx((v1 - cam.cy) / 2)


def test_behind_camera_flagged(cam):
    assert project_affordance(cam, np.array([0.0, 0.0, -1.0])) is None
    assert project_affordance(cam, np.array([0.0, 0.0, 1e-9])) is None


def test_unproject_round_trip():
    rng = np.random.default_rng(0)
    for name, cam in default_cameras().items():
        for _ in range(50):
            p = rng.uniform([-0.3, -0.3, 0.0], [0.3, 0.3, 0.3])
            res = project_affordance(cam, p)
            assert res is not None, name
            u, v, depth = res
            back = unproject(cam, u, v, depth)
            assert np.allclose(back, p, atol=1e-9)


def test_projection_rigid_equivariance(cam):
    # moving the world by g while pre-composing the extrinsic with g^-1
    # leaves pixels unchanged
    rng = np.random.default_rng(1)
    g = pose(rng.normal(size=3), axis_angle_to_quat(rng.normal(size=3) * 0.5))
    cam2 = CameraModel(cam.fx, cam.fy, cam.cx, cam.cy, *compose_pose((cam.extrinsic_t, cam.extrinsic_r), invert_pose(g)))
    for _ in range(20):
        p = rng.uniform([-0.2, -0.2, 0.5], [0.2, 0.2, 2.0])
        a = project_affordance(cam, p)
        b = project_affordance(cam2, transform_point(g, p))
        assert a is not None and b is not None
        assert np.allclose(a, b, atol=1e-9)


def test_camera_validation():
    with pytest.raises(ValueError):
        CameraModel(-1.0, 1.0, 0, 0, *IDENTITY)
    with pytest.raises(ValueError):
        CameraModel(1.0, 1.0, 500, 0, *IDENTITY)


def test_look_at_camera_points_at_target():
    cam = look_at_camera([0.5, 0.5, 0.5], [0.0, 0.0, 0.0])
    res = project_affordance(cam, np.array([0.0, 0.0, 0.0]))
    assert res is not None
    u, v, depth = res
    assert u == pytest.approx(cam.cx, abs=1e-9)
    assert v == pytest.approx(cam.cy, abs=1e-9)
    assert depth == pytest.approx(np.sqrt(3) / 2, abs=1e-12)


def _episode_results(assets, n=6, seed=41):
    cfg = TrainConfig(envs_per_iter=8, minibatch=8, m_points=32, seed=seed)
    params = init_params(episode_rng(seed, 4), 32, len(assets.styles), assets.spec.joint_count)
    _, results = evaluate(params, cfg, assets, n, seed=seed)
    return results


def test_export_zero_records(tmp_path, demo, spec):
    manifest = export_rollouts([], default_cameras(), tmp_path / "out.jsonl", demo, spec, False, {})
    lines = (tmp_path / "out.jsonl").read_text().splitlines()
    assert len(lines) == 1
    header = json.loads(lines[0])
    assert header["schema_version"] == 1
    assert manifest["episodes"] == 0 and manifest["frames"] == 0


def test_export_success_only_counts(tmp_path, box_assets):
    results = _episode_results(box_assets, n=8)
    n_success = sum(1 for r in results if r.record.success)
    manifest = export_rollouts(results, default_cameras(), tmp_path / "all.jsonl", box_assets.demo,
                               box_assets.spec, success_only=True, config={"x": 1})
    assert manifest["episodes"] == n_success
    assert manifest["n_success"] == n_success
    assert manifest["config_digest"] == config_digest({"x": 1})


def test_export_skips_errored_episodes(tmp_path, box_assets):
    from dataclasses import replace

    results = _episode_results(box_assets, n=3)
    errored = replace(results[0], index=99, record=None, terms=None, error="synthetic geometry failure")
    path = tmp_path / "frames.jsonl"
    manifest = export_rollouts(results + [errored], default_cameras(), path, box_assets.demo, box_assets.spec,
                               False, {})
    horizon = box_assets.demo.horizon + 1
    assert manifest["episodes"] == 3 and manifest["n_errored"] == 1
    assert manifest["frames"] == 3 * horizon
    frames = [json.loads(l) for l in path.read_text().splitlines()[1:]]
    assert {f["episode"] for f in frames} == {r.index for r in results}


def test_export_rejects_a_wrist_quaternion_off_unit_norm(tmp_path, box_assets, monkeypatch):
    """A wrist quaternion whose norm is more than 1e-6 from 1 fails the
    export, and nothing is written."""
    import fungrasp.dataio as dataio

    real = dataio.edit_wrist_arrays

    def scaled(*args):
        wrist_t, wrist_r = real(*args)
        wrist_r[-1, -1] *= 1.0 + 3e-6  # the last frame of the last episode
        return wrist_t, wrist_r

    monkeypatch.setattr(dataio, "edit_wrist_arrays", scaled)
    path = tmp_path / "frames.jsonl"
    with pytest.raises(ValueError, match="quaternion norm 1.000e\\+00 too far from 1"):
        export_rollouts(_episode_results(box_assets, n=2), default_cameras(), path, box_assets.demo,
                        box_assets.spec, False, {})
    assert not path.exists()


def test_export_round_trip_schema(tmp_path, box_assets):
    results = _episode_results(box_assets, n=4)
    path = tmp_path / "frames.jsonl"
    export_rollouts(results, default_cameras(), path, box_assets.demo, box_assets.spec, False, {})
    text = path.read_text().splitlines()
    lines = [json.loads(l) for l in text]
    # each line is the text one json.dumps of its frame's dict writes
    assert [json.dumps(l) for l in lines] == text
    header, frames = lines[0], lines[1:]
    assert header["kind"] == "fungrasp-rollout-frames"
    horizon = box_assets.demo.horizon + 1
    assert len(frames) == len(results) * horizon
    fr = frames[0]
    for key in ("episode", "frame", "s_r", "q", "target", "condition", "cameras", "success", "reward"):
        assert key in fr
    # serialized floats round-trip exactly against the source record
    ep0 = [f for f in frames if f["episode"] == results[0].index]
    got = np.array([f["q"] for f in ep0])
    rec = results[0].record
    assert np.array_equal(got, edited_joint_trajectory(box_assets.demo, rec.q_star, box_assets.spec))
    assert np.array_equal(got[-1], rec.q_final)
    assert ep0[0]["reward"] == dict(zip(TERMS, results[0].terms)) and ep0[0]["success"] == rec.success
    # target at frame t equals state at frame t+1 (absolute convention)
    assert ep0[0]["target"]["q"] == ep0[1]["q"]
    assert ep0[-1]["target"]["q"] == ep0[-1]["q"]
    # affordance pixels carry an in-frame flag for every camera
    for cam_name in default_cameras():
        view = fr["cameras"][cam_name]
        assert view is None or set(view) == {"u", "v", "depth", "in_frame"}
    manifest = json.loads((tmp_path / "frames.jsonl.manifest.json").read_text())
    assert manifest["frames"] == len(frames)


@pytest.mark.parametrize("hand", ["inspire_like", "shadow_like"])
def test_export_rebuilds_the_rollouts_trajectory(hand, tmp_path, monkeypatch):
    """The exported wrist poses and joints of every frame t are, bit for
    bit, the inputs the rollout gave forward kinematics for frame
    min(t, L), L the demo's hold_index: FK gets frames 0..L only, as
    every later frame repeats frame L."""
    import fungrasp.sim as sim

    assets = hand_assets(hand)
    cfg = TrainConfig(envs_per_iter=24, minibatch=8, m_points=32, seed=5)
    params = init_params(episode_rng(5, 4), 32, len(assets.styles), assets.spec.joint_count)
    seen = []
    real = sim.forward_kinematics_batch

    def capture(spec, wrist_t, wrist_r, q):
        seen.append((wrist_t.copy(), wrist_r.copy(), q.copy()))
        return real(spec, wrist_t, wrist_r, q)

    monkeypatch.setattr(sim, "forward_kinematics_batch", capture)
    results = _results(run_episodes(params, cfg, assets, 5, (1, 0), range(24)))
    (fk_t, fk_r, fk_q), = seen
    frames_per, hold = assets.demo.horizon + 1, assets.demo.hold_index
    assert hold < assets.demo.horizon
    path = tmp_path / "frames.jsonl"
    export_rollouts(results, default_cameras(), path, assets.demo, assets.spec, False, {})
    frames = [json.loads(l) for l in path.read_text().splitlines()[1:]]
    assert len(frames) == 24 * frames_per and len(fk_q) == 24 * (hold + 1)
    for row, f in enumerate(frames):
        episode, t = divmod(row, frames_per)
        assert f["episode"] == episode and f["frame"] == t
        fk_row = episode * (hold + 1) + min(t, hold)
        assert np.array(f["s_r"]["t"]).tobytes() == fk_t[fk_row].tobytes()
        assert np.array(f["s_r"]["r"]).tobytes() == fk_r[fk_row].tobytes()
        assert np.array(f["q"]).tobytes() == fk_q[fk_row].tobytes()


def test_checkpoint_round_trip_exact(tmp_path):
    params = init_params(np.random.default_rng(3), 16, 4, 6)
    path = tmp_path / "ck.json"
    save_checkpoint(params, {"hand": "inspire_like", "iteration": 7, "rng": {"seed": 5}}, path)
    back, meta = load_checkpoint(path)
    assert np.array_equal(back.flat, params.flat)  # bit-exact
    assert meta["iteration"] == 7
    assert meta["hand"] == "inspire_like"
    assert back.m_points == 16 and back.style_count == 4 and back.joint_count == 6


def test_checkpoint_mismatch_rejected(tmp_path):
    params = init_params(np.random.default_rng(4), 16, 9, 22)
    path = tmp_path / "ck22.json"
    save_checkpoint(params, {"hand": "shadow_like"}, path)
    with pytest.raises(UserError, match="hand"):
        load_checkpoint(path, expect_hand="inspire_like")
    with pytest.raises(UserError, match="style_count"):
        load_checkpoint(path, expect_hand="shadow_like", expect_style_count=4)


def test_checkpoint_joint_count_mismatch_rejected(tmp_path):
    params = init_params(np.random.default_rng(4), 16, 4, 5)
    path = tmp_path / "ck5.json"
    save_checkpoint(params, {"hand": "inspire_like"}, path)
    with pytest.raises(UserError, match=r"joint_count=5, configured joint_count=6"):
        load_checkpoint(path, expect_hand="inspire_like", expect_joint_count=6)
    back, _ = load_checkpoint(path, expect_hand="inspire_like", expect_joint_count=5)
    assert back.joint_count == 5


def test_checkpoint_array_shapes_follow_the_stored_counts(tmp_path):
    # arrays saved for J=5 under a joint_count edited to 6: mean_w is the first array J shapes
    path = tmp_path / "ck5.json"
    save_checkpoint(init_params(np.random.default_rng(4), 16, 4, 5), {"hand": "inspire_like"}, path)
    payload = json.loads(path.read_text())
    payload["joint_count"] = 6
    path.write_text(json.dumps(payload))
    with pytest.raises(UserError, match=r"array mean_w has 1536 values, .*joint_count=6 give it shape \(128, 13\)"):
        load_checkpoint(path)
    del payload["arrays"]["v_b3"]
    path.write_text(json.dumps(payload))
    with pytest.raises(UserError, match=r"arrays\.v_b3: must be a list of finite numbers, got None"):
        load_checkpoint(path)


def test_checkpoint_non_finite_rejected(tmp_path):
    params = init_params(np.random.default_rng(4), 16, 4, 6)
    v_w2 = params.v_w2.copy()
    v_w2[3, 1] = np.nan
    params = with_arrays(params, v_w2=v_w2)
    path = tmp_path / "nan.json"
    save_checkpoint(params, {"hand": "inspire_like"}, path)
    entry = 3 * v_w2.shape[1] + 1     # v_w2[3, 1] in the stored row-major list
    with pytest.raises(UserError, match=rf"arrays\.v_w2: must be a list of finite numbers, got nan at \[{entry}\]"):
        load_checkpoint(path)


def test_checkpoint_truncated_rejected(tmp_path):
    params = init_params(np.random.default_rng(5), 8, 4, 6)
    path = tmp_path / "ck.json"
    save_checkpoint(params, {"hand": "x"}, path)
    blob = path.read_text()
    path.write_text(blob[: len(blob) // 2])
    with pytest.raises(UserError, match="parse"):
        load_checkpoint(path)


def test_checkpoint_write_failing_partway_keeps_the_previous_one(tmp_path, monkeypatch):
    """A rewrite that writes half its text and then fails leaves the last
    checkpoint loadable, bit for bit, and no temporary file behind."""
    before = init_params(np.random.default_rng(5), 8, 4, 6)
    path = tmp_path / "checkpoint.json"
    save_checkpoint(before, {"hand": "inspire_like", "iteration": 3}, path)

    def half_then_fail(self, text):
        with self.open("w") as fh:
            fh.write(text[: len(text) // 2])
        raise OSError("No space left on device")

    monkeypatch.setattr(type(path), "write_text", half_then_fail)
    with pytest.raises(OSError, match="No space"):
        save_checkpoint(init_params(np.random.default_rng(6), 8, 4, 6), {"hand": "inspire_like", "iteration": 4}, path)
    monkeypatch.undo()
    back, meta = load_checkpoint(path)
    assert back.flat.tobytes() == before.flat.tobytes() and meta["iteration"] == 3
    assert list(tmp_path.iterdir()) == [path]


def test_config_digest_stable_under_key_order():
    assert config_digest({"a": 1, "b": [1, 2]}) == config_digest({"b": [1, 2], "a": 1})
    assert config_digest({"a": 1}) != config_digest({"a": 2})
