"""Rollout export for downstream imitation, cameras, and checkpoints.

Exports are JSONL (one line per frame after a schema-version header)
plus a manifest; everything numeric is serialized through Python float
repr, which round-trips float64 exactly. No pixels are rendered — the
export carries states, conditions, absolute action targets, and the 2D
affordance projections, so a renderer can be bolted on later without
touching the trainer.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .assets import UserError, json_number, read_json_object
from .demo import Demonstration, edit_wrist_arrays, edited_joint_trajectory
from .geometry import quat_from_matrix, quat_rotate, row_norms
from .hand import HandSpec
from .policy import PolicyParams, param_shapes, param_views
from .rewards import TERMS

__all__ = [
    "CameraModel",
    "project_affordance",
    "in_frame",
    "look_at_camera",
    "default_cameras",
    "export_rollouts",
    "save_checkpoint",
    "load_checkpoint",
    "config_digest",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = 1
BEHIND_CAMERA_Z = 1e-6
# look_at_camera's intrinsics, in pixels, for CameraModel's default image size
FOCAL_PX = 210.0
PRINCIPAL_PX = 128.0


@dataclass(frozen=True)
class CameraModel:
    """Pinhole camera: intrinsics in pixels; the extrinsic pose
    (extrinsic_t, extrinsic_r) maps world->camera.

    Camera frame convention: +z forward, +x right, +y down, so
    u = fx * x / z + cx and v = fy * y / z + cy.
    """

    fx: float
    fy: float
    cx: float
    cy: float
    extrinsic_t: np.ndarray     # (3,)
    extrinsic_r: np.ndarray     # (4,) unit quaternion
    width: int = 256
    height: int = 256

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError(f"focal lengths must be > 0, got fx={self.fx}, fy={self.fy}")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError(f"principal point ({self.cx}, {self.cy}) outside image")

    def to_dict(self) -> dict:
        return {
            "fx": self.fx, "fy": self.fy, "cx": self.cx, "cy": self.cy,
            "width": self.width, "height": self.height,
            "extrinsic": {"t": list(self.extrinsic_t), "r": list(self.extrinsic_r)},
        }


def project_affordance(cam: CameraModel, p_world):
    """Project a world point to (u, v, depth); None when behind the camera."""
    p_cam = quat_rotate(cam.extrinsic_r, p_world) + cam.extrinsic_t
    z = float(p_cam[2])
    if z <= BEHIND_CAMERA_Z:
        return None
    u = cam.fx * p_cam[0] / z + cam.cx
    v = cam.fy * p_cam[1] / z + cam.cy
    return float(u), float(v), z


def in_frame(cam: CameraModel, u: float, v: float) -> bool:
    return 0.0 <= u < cam.width and 0.0 <= v < cam.height


def look_at_camera(position, target) -> CameraModel:
    """Camera at `position` whose optical axis points at `target`, with
    focal length FOCAL_PX and the principal point at PRINCIPAL_PX.

    The image 'down' direction is chosen to have positive world -z
    component (cameras above the table look, well, down).
    """
    position = np.asarray(position, dtype=float)
    forward = np.asarray(target, dtype=float) - position
    forward = forward / np.linalg.norm(forward)
    world_down = np.array([0.0, 0.0, -1.0])
    right = np.cross(world_down, forward)
    if np.linalg.norm(right) < 1e-9:
        right = np.array([1.0, 0.0, 0.0])
    right = right / np.linalg.norm(right)
    down = np.cross(forward, right)
    # world->camera rotation: rows are the camera axes
    rot = np.stack([right, down, forward])
    r = quat_from_matrix(rot)
    # divided once more by its own 1-D norm: the bits the manifests hold
    return CameraModel(FOCAL_PX, FOCAL_PX, PRINCIPAL_PX, PRINCIPAL_PX, -rot @ position, r / np.linalg.norm(r))


def default_cameras() -> dict[str, CameraModel]:
    """Two diagonally placed desk cameras looking at the workspace center."""
    return {
        "cam_front_left": look_at_camera([0.55, 0.45, 0.45], [0.0, 0.0, 0.05]),
        "cam_front_right": look_at_camera([0.55, -0.45, 0.45], [0.0, 0.0, 0.05]),
    }


def config_digest(config_dict: dict) -> str:
    """Stable sha256 of a JSON-serializable config."""
    blob = json.dumps(config_dict, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _row_texts(a) -> list[str]:
    """The text json.dumps writes for each row of a 2-D float array, from
    one encoding of the whole array split between its rows."""
    return [f"[{row}]" for row in json.dumps(a.tolist())[2:-2].split("], [")]


def export_rollouts(episodes, cameras: dict[str, CameraModel], path, demo: Demonstration, spec: HandSpec,
                    success_only: bool, config: dict) -> dict:
    """Write per-frame JSONL plus a manifest JSON next to it.

    `episodes` are episode results of `demo` on the hand `spec`. Each
    exported episode's trajectory is rebuilt from its action, object
    pose and the record's edited target q*, with the rollout's own
    element-wise edit_wrist_arrays and edited_joint_trajectory, so its
    frames carry the bits the rollout ran; its world affordance point is
    the object-frame one under the object pose, as the rollout's
    affordance distance measures to it. Each wrist quaternion r is
    written as r / np.linalg.norm(r), the loaders' division: a norm more
    than 1e-6 from 1 raises ValueError. Errored episodes (no record)
    are skipped and counted as `n_errored` in the manifest. Action
    targets are absolute next-frame (t, r, q); the last frame targets
    itself.
    """
    path = Path(path)
    manifest_path = path.with_suffix(path.suffix + ".manifest.json")
    completed = [e for e in episodes if e.record is not None]
    selected = [e for e in completed if (e.record.success or not success_only)]
    if selected:
        pose_t = np.stack([e.pose_t for e in selected])
        pose_r = np.stack([e.pose_r for e in selected])
        wrist_t, wrist_r = edit_wrist_arrays(demo, np.stack([e.action_vec for e in selected]), pose_t, pose_r)
        # each wrist quaternion checked, then divided by its own 1-D
        # norm: r / np.linalg.norm(r), as normalize_rows divides
        norms = row_norms(wrist_r.reshape(-1, 4))
        off = np.abs(norms - 1.0) > 1e-6
        if off.any():
            raise ValueError(f"quaternion norm {norms[off][0]:.3e} too far from 1")
        wrist_r = (wrist_r.reshape(-1, 4) / norms[:, None]).reshape(wrist_r.shape)
        p_afford_world = quat_rotate(pose_r, np.stack([e.p_afford for e in selected])) + pose_t
        joints = edited_joint_trajectory(demo, np.stack([e.record.q_star for e in selected]), spec)
    n_frames = 0
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        with tmp.open("w") as fh:
            header = {"schema_version": SCHEMA_VERSION, "kind": "fungrasp-rollout-frames"}
            fh.write(json.dumps(header) + "\n")
            for i, ep in enumerate(selected):
                # each fact is JSON-encoded once and the pieces are joined
                # into the line json.dumps writes for the frame's dict
                ts, rs, qs = (_row_texts(a[i]) for a in (wrist_t, wrist_r, joints))
                horizon = len(ts) - 1
                cam_views = {}
                for name, cam in cameras.items():
                    proj = project_affordance(cam, p_afford_world[i])
                    if proj is None:
                        cam_views[name] = None
                    else:
                        u, v, depth = proj
                        cam_views[name] = {
                            "u": u, "v": v, "depth": depth, "in_frame": in_frame(cam, u, v)
                        }
                condition = {"p_afford_world": p_afford_world[i].tolist(), "style": ep.conditioned_style}
                head = f'{{"episode": {json.dumps(ep.index)}, "frame": '
                obj = f', "object": {json.dumps(ep.object_name)}, "s_r": {{"t": '
                tail = "".join(f', "{key}": {json.dumps(value)}' for key, value in (
                    ("condition", condition), ("cameras", cam_views), ("success", bool(ep.record.success)),
                    ("reward", dict(zip(TERMS, ep.terms))),
                )) + "}\n"
                fh.write("".join(
                    f'{head}{t}{obj}{ts[t]}, "r": {rs[t]}}}, "q": {qs[t]}, '
                    f'"target": {{"t": {ts[n]}, "r": {rs[n]}, "q": {qs[n]}}}{tail}'
                    for t, n in zip(range(horizon + 1), [*range(1, horizon + 1), horizon])
                ))
                n_frames += horizon + 1
        tmp.replace(path)
    except OSError as e:
        tmp.unlink(missing_ok=True)
        raise UserError(f"export to {path} failed: {e}") from e
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "file": path.name,
        "episodes": len(selected),
        "frames": n_frames,
        "success_only": success_only,
        "n_success": sum(1 for e in selected if e.record.success),
        "n_errored": len(episodes) - len(completed),
        "config_digest": config_digest(config),
        "cameras": {name: cam.to_dict() for name, cam in cameras.items()},
    }
    manifest_path.write_text(json.dumps(manifest, indent=1))
    return manifest


def save_checkpoint(params: PolicyParams, meta: dict, path) -> None:
    """Versioned JSON checkpoint; floats round-trip bit-exactly. It is
    written to a temporary file that then replaces path, so a write that
    fails or is killed leaves the previous checkpoint whole."""
    arrays = param_views(params.flat, params.style_count, params.joint_count)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "hand": meta.get("hand"),
        "style_count": params.style_count,
        "m_points": params.m_points,
        "joint_count": params.joint_count,
        "iteration": meta.get("iteration", 0),
        "rng": meta.get("rng", {}),
        "shapes": {f: list(a.shape) for f, a in arrays.items()},
        "arrays": {f: [float(v) for v in a.ravel()] for f, a in arrays.items()},
    }
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        tmp.write_text(json.dumps(payload))
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path, expect_hand: str | None = None, expect_style_count: int | None = None,
                    expect_m_points: int | None = None,
                    expect_joint_count: int | None = None) -> tuple[PolicyParams, dict]:
    """Load and validate a checkpoint. Rejects identity mismatches, counts
    and array entries that json_number rejects, and any array whose size
    differs from the shape its stored style_count and joint_count give
    it (policy.param_shapes); each UserError names what it rejects."""
    payload = read_json_object(path)
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise UserError(f"{path}: schema_version {payload.get('schema_version')} != {SCHEMA_VERSION}")
    counts = {k: json_number(payload.get(k), f"{path}: {k}", integer=True)
              for k in ("m_points", "style_count", "joint_count")}
    for got, want, label in (
        (payload.get("hand"), expect_hand, "hand"),
        (counts["style_count"], expect_style_count, "style_count"),
        (counts["m_points"], expect_m_points, "m_points"),
        (counts["joint_count"], expect_joint_count, "joint_count"),
    ):
        if want is not None and got != want:
            raise UserError(f"{path}: checkpoint {label}={got!r}, configured {label}={want!r}")
    stored = payload["arrays"] if isinstance(payload.get("arrays"), dict) else {}
    shapes = param_shapes(counts["style_count"], counts["joint_count"])
    arrays = {f: json_number(stored.get(f), f"{path}: arrays.{f}", vector=True) for f in shapes}
    for f, shape in shapes.items():
        if arrays[f].size != int(np.prod(shape)):
            raise UserError(
                f"{path}: array {f} has {arrays[f].size} values, but style_count={counts['style_count']} "
                f"and joint_count={counts['joint_count']} give it shape {shape}"
            )
    params = PolicyParams(np.concatenate([arrays[f].ravel() for f in shapes]), **counts)
    meta = {
        "hand": payload.get("hand"),
        "iteration": payload.get("iteration", 0),
        "rng": payload.get("rng", {}),
    }
    return params, meta
