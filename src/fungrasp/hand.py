"""Multi-finger kinematic hand models with spherical collision proxies.

A hand is a tree of revolute chains hanging off the wrist. Each segment
rotates about its own axis (expressed in the frame the segment starts in)
and then extends along local +x by its length; one collision sphere sits
at each segment end, so the last sphere of a chain is the fingertip.
Passive segments carry no entry in the joint vector: their angle is a
linear function (``scale * q[source]``) of an active joint.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .assets import json_number, json_object_list, json_pose, read_json_object
from .geometry import hamilton, rotate, row_norms

__all__ = [
    "HandError",
    "Segment",
    "Finger",
    "Coupling",
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


@dataclass(frozen=True)
class Finger:
    name: str
    base_t: np.ndarray      # (3,), wrist-relative
    base_r: np.ndarray      # (4,) unit quaternion, wrist-relative
    segments: tuple[Segment, ...]   # the last one's radius is the tip radius


@dataclass(frozen=True)
class Coupling:
    finger: int
    segment: int
    source: int             # active joint index driving this segment
    scale: float


@dataclass(frozen=True)
class HandSpec:
    name: str
    fingers: tuple[Finger, ...]
    couplings: tuple[Coupling, ...]
    joint_count: int
    # per (finger, segment): active joint index, or None when coupled
    joint_index: tuple[tuple[int | None, ...], ...]
    limits_lo: np.ndarray   # (J,)
    limits_hi: np.ndarray   # (J,)

    @property
    def finger_count(self) -> int:
        return len(self.fingers)

    @property
    def sphere_count(self) -> int:
        return sum(len(f.segments) for f in self.fingers)


@dataclass(frozen=True)
class Style:
    id: str
    q_canonical: np.ndarray     # (J,), within limits
    contact_mask: tuple[int, ...]


def _build_spec(name, fingers, couplings) -> HandSpec:
    coupled = {(c.finger, c.segment): c for c in couplings}
    joint_index: list[tuple[int | None, ...]] = []
    lo, hi = [], []
    next_q = 0
    for fi, finger in enumerate(fingers):
        row: list[int | None] = []
        for si, seg in enumerate(finger.segments):
            if (fi, si) in coupled:
                row.append(None)
            else:
                row.append(next_q)
                lo.append(seg.limits[0])
                hi.append(seg.limits[1])
                next_q += 1
        joint_index.append(tuple(row))
    for c in couplings:
        if not (0 <= c.finger < len(fingers)):
            raise HandError(f"coupling references finger {c.finger}, hand has {len(fingers)}")
        if not (0 <= c.segment < len(fingers[c.finger].segments)):
            raise HandError(f"coupling references segment {c.segment} of finger {c.finger}")
        if not (0 <= c.source < next_q):
            raise HandError(f"coupling source joint {c.source} out of range (J={next_q})")
    limits_lo = np.array(lo)
    limits_hi = np.array(hi)
    limits_lo.setflags(write=False)
    limits_hi.setflags(write=False)
    return HandSpec(
        name=name,
        fingers=tuple(fingers),
        couplings=tuple(couplings),
        joint_count=next_q,
        joint_index=tuple(joint_index),
        limits_lo=limits_lo,
        limits_hi=limits_hi,
    )


def load_hand_spec(path) -> HandSpec:
    """Parse a hand spec JSON file; rejects limit and schema violations."""
    data = read_json_object(path, HandError)

    def fail(where, msg):
        raise HandError(f"{path}: {where}: {msg}")

    name = data.get("name")
    if not isinstance(name, str) or not name:
        fail("name", "missing or empty")
    fingers = []
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
            segments.append(Segment(length=length, axis=axis, limits=(lo_, hi_), radius=radius))
        if not segments:
            fail(where, "finger has no segments")
        # the last sphere is the fingertip; its radius is the tip radius
        segments[-1] = replace(segments[-1], radius=tip_radius)
        finger_name = fd.get("name", f"finger{fi}")
        if not isinstance(finger_name, str) or not finger_name:
            fail(where + ".name", f"must be a non-empty string, got {finger_name!r}")
        fingers.append(Finger(finger_name, base_t, base_r, tuple(segments)))
    if not fingers:
        fail("fingers", "hand has no fingers")
    couplings = []
    for ci, cd in enumerate(json_object_list(data, "coupling", HandError, f"{path}: ")):
        where = f"{path}: coupling[{ci}]"
        fields = {k: json_number(cd.get(k), HandError, f"{where}.{k}", integer=True)
                  for k in ("finger", "segment", "source")}
        couplings.append(Coupling(**fields, scale=json_number(cd.get("scale", 1.0), HandError, f"{where}.scale")))
    return _build_spec(name, fingers, couplings)


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
    Returns (centers (B, K, 3), fingertips (B, F, 3)); sphere metadata is
    constant per spec and available via sphere_metadata().

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
    coupled = {(c.finger, c.segment): c for c in spec.couplings}
    out = np.empty((3, spec.sphere_count, len(q)))
    work = np.empty((7, len(q)))   # rotate's, each result added into place before the next call
    tip_k = []
    k = 0
    for fi, finger in enumerate(spec.fingers):
        cur_r = hamilton(*wrist, *finger.base_r)
        cur_t = tuple(wt + bt for wt, bt in zip(wrist_t.T, rotate(*wrist, *finger.base_t, work)))
        for si, seg in enumerate(finger.segments):
            idx = spec.joint_index[fi][si]
            if idx is None:
                c = coupled[(fi, si)]
                half = 0.5 * (c.scale * joints[c.source])
            else:
                half = 0.5 * joints[idx]
            s = np.sin(half)
            cur_r = hamilton(*cur_r, np.cos(half), s * seg.axis[0], s * seg.axis[1], s * seg.axis[2])
            step = rotate(*cur_r, seg.length, 0.0, 0.0, work)
            for a in range(3):
                np.add(cur_t[a], step[a], out=out[a, k])
            cur_t = tuple(out[:, k])
            k += 1
        tip_k.append(k - 1)
    return out.transpose(2, 1, 0), out[:, tip_k].transpose(2, 1, 0).copy()


def sphere_metadata(spec: HandSpec):
    """(radii (K,), finger_index (K,)) in chain order."""
    radii, fidx = [], []
    for fi, finger in enumerate(spec.fingers):
        for seg in finger.segments:
            radii.append(seg.radius)
            fidx.append(fi)
    return np.array(radii), np.array(fidx)


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
