"""Multi-finger kinematic hand models with spherical collision proxies.

A hand is a tree of revolute chains hanging off the wrist. Each segment
rotates about its own axis (expressed in the frame the segment starts in)
and then extends along local +x by its length; one collision sphere sits
at each segment end, so the last sphere of a chain is the fingertip.
Every segment has one drive rule: its angle is ``scale * q[source]``.
An active segment is joint ``source`` of the joint vector at scale 1,
numbered in chain order; a coupled segment carries no entry of its own
and follows an active joint at the scale its coupling entry gives (as a
URDF ``mimic`` joint follows its source).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .assets import json_number, json_object_list, json_pose, read_json_object
from .geometry import hamilton, rotate, row_norms

__all__ = [
    "HandError",
    "Segment",
    "Finger",
    "HandSpec",
    "Style",
    "load_hand_spec",
    "load_styles",
    "forward_kinematics_batch",
    "clamp_to_limits",
    "classify_style",
    "normalize_joints",
]


class HandError(ValueError):
    """Raised for malformed hand/style files and dimension mismatches."""


@dataclass(frozen=True)
class Segment:
    length: float
    axis: np.ndarray        # unit 3-vector, joint rotation axis
    limits: tuple[float, float]
    radius: float           # collision sphere at the segment end
    source: int             # the joint that drives the segment: its angle is scale * q[source]
    scale: float


@dataclass(frozen=True)
class Finger:
    name: str
    base_t: np.ndarray      # (3,), wrist-relative
    base_r: np.ndarray      # (4,) unit quaternion, wrist-relative
    segments: tuple[Segment, ...]   # the last one's radius is the tip radius


@dataclass(frozen=True)
class HandSpec:
    name: str
    fingers: tuple[Finger, ...]
    joint_count: int
    limits_lo: np.ndarray   # (J,)
    limits_hi: np.ndarray   # (J,)
    radii: np.ndarray       # (K,) sphere radii in chain order
    finger_index: np.ndarray  # (K,) the finger of each sphere

    @property
    def finger_count(self) -> int:
        return len(self.fingers)

    @property
    def sphere_count(self) -> int:
        return len(self.radii)


@dataclass(frozen=True)
class Style:
    id: str
    q_canonical: np.ndarray     # (J,), within limits
    contact_mask: tuple[int, ...]


def _read_only(a) -> np.ndarray:
    a = np.array(a)
    a.setflags(write=False)
    return a


def load_hand_spec(path) -> HandSpec:
    """Parse a hand spec JSON file; rejects limit and schema violations.

    Each uncoupled segment takes the next joint in chain order (scale
    1); each coupling entry names a segment and the joint that drives it
    instead, with its scale.
    """
    data = read_json_object(path, HandError)

    def fail(where, msg):
        raise HandError(f"{path}: {where}: {msg}")

    name = data.get("name")
    if not isinstance(name, str) or not name:
        fail("name", "missing or empty")
    parsed = []     # per finger: name, base pose and each segment's fields
    for fi, fd in enumerate(json_object_list(data, "fingers", HandError, f"{path}: ")):
        where = f"fingers[{fi}]"
        base_t, base_r = json_pose(fd.get("base"), HandError, f"{path}: {where}.base")
        tip_radius = json_number(fd.get("tip_radius", 0.0), HandError, f"{path}: {where}.tip_radius")
        if tip_radius <= 0:
            fail(where + ".tip_radius", "must be > 0")
        segments = []
        for si, sd in enumerate(json_object_list(fd, "segments", HandError, f"{path}: {where}.")):
            sw = f"{where}.segments[{si}]"
            length = json_number(sd.get("length", 0.0), HandError, f"{path}: {sw}.length")
            if length <= 0:
                fail(sw + ".length", f"must be > 0, got {length}")
            axis = json_number(sd.get("axis", []), HandError, f"{path}: {sw}.axis", vector=True)
            if axis.shape != (3,) or np.linalg.norm(axis) < 1e-9:
                fail(sw + ".axis", "must be a nonzero 3-vector")
            axis = axis / np.linalg.norm(axis)
            axis.setflags(write=False)
            lim = json_number(sd.get("limits", []), HandError, f"{path}: {sw}.limits", vector=True)
            if len(lim) != 2:
                fail(sw + ".limits", "must be [lo, hi]")
            lo_, hi_ = float(lim[0]), float(lim[1])
            if not lo_ < hi_:
                fail(sw + ".limits", f"joint '{fd.get('name', fi)}[{si}]' has lo >= hi ({lo_} >= {hi_})")
            radius = json_number(sd.get("radius", tip_radius), HandError, f"{path}: {sw}.radius")
            if radius <= 0:
                fail(sw + ".radius", "must be > 0")
            segments.append({"length": length, "axis": axis, "limits": (lo_, hi_), "radius": radius})
        if not segments:
            fail(where, "finger has no segments")
        # the last sphere is the fingertip; its radius is the tip radius
        segments[-1]["radius"] = tip_radius
        finger_name = fd.get("name", f"finger{fi}")
        if not isinstance(finger_name, str) or not finger_name:
            fail(where + ".name", f"must be a non-empty string, got {finger_name!r}")
        parsed.append((finger_name, base_t, base_r, segments))
    if not parsed:
        fail("fingers", "hand has no fingers")

    counts = [len(segments) for *_, segments in parsed]
    coupled = {}    # (finger, segment) -> (source, scale, coupling entry)
    for ci, cd in enumerate(json_object_list(data, "coupling", HandError, f"{path}: ")):
        where = f"coupling[{ci}]"
        fi, si, source = (json_number(cd.get(k), HandError, f"{path}: {where}.{k}", integer=True)
                          for k in ("finger", "segment", "source"))
        if not 0 <= fi < len(parsed):
            fail(where + ".finger", f"finger {fi} out of range, hand has {len(parsed)}")
        if not 0 <= si < counts[fi]:
            fail(where + ".segment", f"segment {si} out of range, finger {fi} has {counts[fi]}")
        if (fi, si) in coupled:
            fail(where, f"finger {fi} segment {si} is already coupled by coupling[{coupled[fi, si][2]}]")
        coupled[fi, si] = (source, json_number(cd.get("scale", 1.0), HandError, f"{path}: {where}.scale"), ci)
    # every segment no entry couples is a joint
    joint_count = sum(counts) - len(coupled)
    for source, _, ci in coupled.values():
        if not 0 <= source < joint_count:
            fail(f"coupling[{ci}].source", f"joint {source} out of range (J={joint_count})")

    fingers, lo, hi = [], [], []
    for fi, (finger_name, base_t, base_r, fields) in enumerate(parsed):
        segments = []
        for si, seg in enumerate(fields):
            if (fi, si) in coupled:
                source, scale, _ = coupled[fi, si]
            else:
                source, scale = len(lo), 1.0
                lo.append(seg["limits"][0])
                hi.append(seg["limits"][1])
            segments.append(Segment(**seg, source=source, scale=scale))
        fingers.append(Finger(finger_name, base_t, base_r, tuple(segments)))
    return HandSpec(
        name=name,
        fingers=tuple(fingers),
        joint_count=joint_count,
        limits_lo=_read_only(lo),
        limits_hi=_read_only(hi),
        radii=_read_only([seg.radius for finger in fingers for seg in finger.segments]),
        finger_index=_read_only([fi for fi, finger in enumerate(fingers) for _ in finger.segments]),
    )


def load_styles(path, spec: HandSpec) -> list[Style]:
    """Parse a style file and validate it against a hand spec."""
    data = read_json_object(path, HandError)
    if data.get("hand") != spec.name:
        raise HandError(f"{path}: styles are for hand {data.get('hand')!r}, spec is {spec.name!r}")
    styles = []
    for i, sd in enumerate(json_object_list(data, "styles", HandError, f"{path}: ")):
        style_id = sd.get("id", str(i))
        if not isinstance(style_id, str) or not style_id:
            raise HandError(f"{path}: styles[{i}].id: must be a non-empty string, got {style_id!r}")
        q = json_number(sd.get("q", []), HandError, f"{path}: styles[{i}].q", vector=True)
        if q.shape != (spec.joint_count,):
            raise HandError(f"{path}: styles[{i}]: q has shape {q.shape}, hand has J={spec.joint_count}")
        if np.any(q < spec.limits_lo - 1e-9) or np.any(q > spec.limits_hi + 1e-9):
            j = int(np.argmax((q < spec.limits_lo - 1e-9) | (q > spec.limits_hi + 1e-9)))
            raise HandError(f"{path}: styles[{i}]: q[{j}]={q[j]} outside limits")
        mask = json_number(sd.get("contact_mask", []), HandError, f"{path}: styles[{i}].contact_mask",
                           integer=True, vector=True)
        if not mask or len(mask) > spec.finger_count:
            raise HandError(f"{path}: styles[{i}]: contact_mask must name 1..{spec.finger_count} fingers")
        if any(not (0 <= m < spec.finger_count) for m in mask):
            raise HandError(f"{path}: styles[{i}]: contact_mask finger out of range")
        if len(set(mask)) < 2:
            # a grasp needs two distinct mask fingers in contact (sim.grasp_success_batch)
            raise HandError(
                f"{path}: styles[{i}] ({style_id!r}): contact_mask {list(mask)} names fewer than two "
                "distinct fingers, so no grasp of the style could succeed"
            )
        q.setflags(write=False)
        styles.append(Style(id=style_id, q_canonical=q, contact_mask=mask))
    if not styles:
        raise HandError(f"{path}: no styles defined")
    return styles


def clamp_to_limits(spec: HandSpec, q) -> np.ndarray:
    """Element-wise clamp of a joint vector (or (T, J) batch) to limits."""
    q = np.asarray(q, dtype=float)
    if q.shape[-1] != spec.joint_count:
        raise HandError(f"joint vector has dim {q.shape[-1]}, hand has J={spec.joint_count}")
    return np.clip(q, spec.limits_lo, spec.limits_hi)


def forward_kinematics_batch(spec: HandSpec, wrist_t, wrist_r, q):
    """Evaluate FK for a batch of wrist poses and joint vectors.

    wrist_t: (B, 3), wrist_r: (B, 4) unit quats, q: (B, J).
    Returns (centers (B, K, 3), fingertips (B, F, 3)); the spheres'
    radii and fingers are the spec's radii and finger_index.

    Each finger's chain runs on contiguous (B,) component arrays through
    geometry.hamilton and geometry.rotate, the only copies of those
    formulas, in the operation order of quat_mul and quat_rotate (every
    multiply by a segment vector's zero entries included), so each row
    keeps the bits it gets alone; rotate writes into one (7, B)
    workspace. The centers are a view of one (3, K, B) buffer; the
    fingertips are a C-order copy, the layout the masked finger sums
    downstream have always read.
    """
    wrist_t = np.asarray(wrist_t, dtype=float)
    wrist_r = np.asarray(wrist_r, dtype=float)
    q = np.asarray(q, dtype=float)
    if q.shape[-1] != spec.joint_count:
        raise HandError(f"joint vector has dim {q.shape[-1]}, hand has J={spec.joint_count}")
    wrist = tuple(wrist_r.T.copy())
    joints = q.T.copy()
    out = np.empty((3, spec.sphere_count, len(q)))
    work = np.empty((7, len(q)))   # rotate's, each result added into place before the next call
    tip_k = []
    k = 0
    for finger in spec.fingers:
        cur_r = hamilton(*wrist, *finger.base_r)
        cur_t = tuple(wt + bt for wt, bt in zip(wrist_t.T, rotate(*wrist, *finger.base_t, work)))
        for seg in finger.segments:
            half = 0.5 * (seg.scale * joints[seg.source])
            s = np.sin(half)
            cur_r = hamilton(*cur_r, np.cos(half), s * seg.axis[0], s * seg.axis[1], s * seg.axis[2])
            step = rotate(*cur_r, seg.length, 0.0, 0.0, work)
            for a in range(3):
                np.add(cur_t[a], step[a], out=out[a, k])
            cur_t = tuple(out[:, k])
            k += 1
        tip_k.append(k - 1)
    return out.transpose(2, 1, 0), out[:, tip_k].transpose(2, 1, 0).copy()


def normalize_joints(spec: HandSpec, q) -> np.ndarray:
    """Map joint values to [0, 1] per joint using the limit range."""
    q = np.asarray(q, dtype=float)
    return (q - spec.limits_lo) / (spec.limits_hi - spec.limits_lo)


def classify_style(spec: HandSpec, q_final, styles: Sequence[Style]) -> np.ndarray:
    """Index of the nearest canonical style in limit-normalized joint
    space, for each joint vector of q_final (..., J).

    Normalization keeps wide-range joints from dominating the metric.
    Ties break toward the lowest index. Each distance is the row_norms
    of one vector's difference to one style, the bits the 1-D norm
    gives it and an axis=-1 norm does not, so near-ties break as for
    one vector alone.
    """
    if not styles:
        raise HandError("classify_style needs at least one style")
    qn = normalize_joints(spec, q_final)
    diff = qn[..., None, :] - normalize_joints(spec, np.stack([s.q_canonical for s in styles]))
    dists = row_norms(diff.reshape(-1, spec.joint_count))
    return np.argmin(dists.reshape(diff.shape[:-1]), axis=-1)
