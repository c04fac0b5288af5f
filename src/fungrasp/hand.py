"""Multi-finger kinematic hand models with spherical collision proxies.

A hand is a tree of revolute chains hanging off the wrist, held as one
table (HandSpec): a row per finger for its base pose, and a row per
segment, in chain order finger by finger, for its length, axis, sphere
radius, finger and drive. Each segment rotates about its own axis
(expressed in the frame the segment starts in) and then extends along
local +x by its length; one collision sphere sits at each segment end,
so a finger's last row is its fingertip. Every segment has one drive
rule: its angle is ``scale * q[source]``. An active segment is joint
``source`` of the joint vector at scale 1, numbered in chain order; a
coupled segment carries no joint and no limits of its own and follows
an active joint at the scale its coupling entry gives (as a URDF
``mimic`` joint follows its source).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .assets import LENGTH_MAX, UserError, json_number, json_object_list, json_pose, read_json_object
from .geometry import hamilton, rotate, rotate_x, row_norms

__all__ = [
    "HandSpec",
    "Style",
    "load_hand_spec",
    "load_styles",
    "forward_kinematics_batch",
    "clamp_to_limits",
    "classify_style",
    "normalize_joints",
]


@dataclass(frozen=True)
class HandSpec:
    """A hand as one table of read-only arrays, built by load_hand_spec
    alone: F finger rows, then K segment rows grouped by finger in chain
    order, which forward_kinematics_batch relies on."""

    name: str
    joint_count: int
    limits_lo: np.ndarray   # (J,)
    limits_hi: np.ndarray   # (J,)
    base_t: np.ndarray      # (F, 3) each finger's base, wrist-relative
    base_r: np.ndarray      # (F, 4) unit quaternions, wrist-relative
    finger_index: np.ndarray  # (K,) the finger of each segment
    length: np.ndarray      # (K,)
    axis: np.ndarray        # (K, 3) unit rotation axes
    radii: np.ndarray       # (K,) the sphere at each segment end; a finger's last is its tip
    source: np.ndarray      # (K,) the joint that drives each segment: its angle is scale * q[source]
    scale: np.ndarray       # (K,)

    @property
    def finger_count(self) -> int:
        return len(self.base_t)

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
    1) and declares its limits; each coupling entry names a segment and
    the joint that drives it instead, with its scale, and that segment
    declares no limits: its angle is bounded by its source's. The
    coupling entries are read first, against the fingers' segment
    counts; then each segment once, into its row. Every length it reads,
    a segment's length and radius and a finger's tip_radius, must be > 0
    and at most assets.LENGTH_MAX, and each finger base's t within
    LENGTH_MAX of 0 (assets.json_pose).
    """
    data = read_json_object(path)

    def fail(where, msg):
        raise UserError(f"{path}: {where}: {msg}")

    def length_field(entry, where, key, default):
        value = json_number(entry.get(key, default), f"{path}: {where}.{key}")
        if not 0 < value <= LENGTH_MAX:
            fail(f"{where}.{key}", f"must be > 0 and <= {LENGTH_MAX:g} m, got {value}")
        return value

    name = data.get("name")
    if not isinstance(name, str) or not name:
        fail("name", "missing or empty")
    fingers = json_object_list(data, "fingers", f"{path}: ")
    if not fingers:
        fail("fingers", "hand has no fingers")
    chains = [json_object_list(fd, "segments", f"{path}: fingers[{fi}].") for fi, fd in enumerate(fingers)]

    coupled = {}    # (finger, segment) -> (source, scale, coupling entry)
    for ci, cd in enumerate(json_object_list(data, "coupling", f"{path}: ")):
        where = f"coupling[{ci}]"
        fi, si, source = (json_number(cd.get(k), f"{path}: {where}.{k}", integer=True)
                          for k in ("finger", "segment", "source"))
        if not 0 <= fi < len(chains):
            fail(where + ".finger", f"finger {fi} out of range, hand has {len(chains)}")
        if not 0 <= si < len(chains[fi]):
            fail(where + ".segment", f"segment {si} out of range, finger {fi} has {len(chains[fi])}")
        if (fi, si) in coupled:
            fail(where, f"finger {fi} segment {si} is already coupled by coupling[{coupled[fi, si][2]}]")
        coupled[fi, si] = (source, json_number(cd.get("scale", 1.0), f"{path}: {where}.scale"), ci)
    # every segment no entry couples is a joint
    joint_count = sum(map(len, chains)) - len(coupled)
    for source, _, ci in coupled.values():
        if not 0 <= source < joint_count:
            fail(f"coupling[{ci}].source", f"joint {source} out of range (J={joint_count})")

    bases, rows, lo, hi = [], [], [], []    # rows as HandSpec's segment columns: finger .. scale
    for fi, (fd, chain) in enumerate(zip(fingers, chains)):
        where = f"fingers[{fi}]"
        bases.append(json_pose(fd.get("base"), f"{path}: {where}.base"))
        tip_radius = length_field(fd, where, "tip_radius", 0.0)
        for si, sd in enumerate(chain):
            sw = f"{where}.segments[{si}]"
            length = length_field(sd, sw, "length", 0.0)
            axis = json_number(sd.get("axis", []), f"{path}: {sw}.axis", vector=True)
            if axis.shape != (3,) or np.linalg.norm(axis) < 1e-9:
                fail(sw + ".axis", "must be a nonzero 3-vector")
            limits = None
            if "limits" in sd:
                limits = json_number(sd["limits"], f"{path}: {sw}.limits", vector=True)
                if len(limits) != 2:
                    fail(sw + ".limits", "must be [lo, hi]")
                if not limits[0] < limits[1]:
                    fail(sw + ".limits", f"joint '{fd.get('name', fi)}[{si}]' has lo >= hi ({limits[0]} >= {limits[1]})")
            radius = length_field(sd, sw, "radius", tip_radius)
            if (fi, si) in coupled:
                source, scale, ci = coupled[fi, si]
                if limits is not None:
                    fail(sw + ".limits", f"coupling[{ci}] drives this segment, so it declares no limits")
            elif limits is None:
                fail(sw + ".limits", "must be [lo, hi]")
            else:
                source, scale = len(lo), 1.0
                lo.append(limits[0])
                hi.append(limits[1])
            # the last sphere is the fingertip; its radius is the tip radius
            radius = tip_radius if si == len(chain) - 1 else radius
            rows.append((fi, length, axis / np.linalg.norm(axis), radius, source, scale))
        if not chain:
            fail(where, "finger has no segments")
        finger_name = fd.get("name", f"finger{fi}")
        if not isinstance(finger_name, str) or not finger_name:
            fail(where + ".name", f"must be a non-empty string, got {finger_name!r}")
    return HandSpec(name, joint_count, *map(_read_only, (lo, hi, *zip(*bases), *zip(*rows))))


def load_styles(path, spec: HandSpec) -> list[Style]:
    """Parse a style file and validate it against a hand spec."""
    data = read_json_object(path)
    if data.get("hand") != spec.name:
        raise UserError(f"{path}: styles are for hand {data.get('hand')!r}, spec is {spec.name!r}")
    styles = []
    for i, sd in enumerate(json_object_list(data, "styles", f"{path}: ")):
        style_id = sd.get("id", str(i))
        if not isinstance(style_id, str) or not style_id:
            raise UserError(f"{path}: styles[{i}].id: must be a non-empty string, got {style_id!r}")
        q = json_number(sd.get("q", []), f"{path}: styles[{i}].q", vector=True)
        if q.shape != (spec.joint_count,):
            raise UserError(f"{path}: styles[{i}]: q has shape {q.shape}, hand has J={spec.joint_count}")
        if np.any(q < spec.limits_lo - 1e-9) or np.any(q > spec.limits_hi + 1e-9):
            j = int(np.argmax((q < spec.limits_lo - 1e-9) | (q > spec.limits_hi + 1e-9)))
            raise UserError(f"{path}: styles[{i}]: q[{j}]={q[j]} outside limits")
        mask = json_number(sd.get("contact_mask", []), f"{path}: styles[{i}].contact_mask",
                           integer=True, vector=True)
        if not mask or len(mask) > spec.finger_count:
            raise UserError(f"{path}: styles[{i}]: contact_mask must name 1..{spec.finger_count} fingers")
        if any(not (0 <= m < spec.finger_count) for m in mask):
            raise UserError(f"{path}: styles[{i}]: contact_mask finger out of range")
        if len(set(mask)) < 2:
            # a grasp needs two distinct mask fingers in contact (sim.grasp_success_batch)
            raise UserError(
                f"{path}: styles[{i}] ({style_id!r}): contact_mask {list(mask)} names fewer than two "
                "distinct fingers, so no grasp of the style could succeed"
            )
        q.setflags(write=False)
        styles.append(Style(id=style_id, q_canonical=q, contact_mask=mask))
    if not styles:
        raise UserError(f"{path}: no styles defined")
    return styles


def clamp_to_limits(spec: HandSpec, q) -> np.ndarray:
    """Element-wise clamp of a joint vector (or (T, J) batch) to limits."""
    q = np.asarray(q, dtype=float)
    if q.shape[-1] != spec.joint_count:
        raise ValueError(f"joint vector has dim {q.shape[-1]}, hand has J={spec.joint_count}")
    return np.clip(q, spec.limits_lo, spec.limits_hi)


def forward_kinematics_batch(spec: HandSpec, wrist_t, wrist_r, q):
    """Evaluate FK for a batch of wrist poses and joint vectors.

    wrist_t: (B, 3), wrist_r: (B, 4) unit quats, q: (B, J).
    Returns (centers (B, K, 3), fingertips (B, F, 3)); the spheres'
    radii and fingers are the spec's radii and finger_index, and each
    fingertip is its finger's last row.

    The segment rows run in chain order on contiguous (B,) component
    arrays; a row whose finger differs from the row before starts over
    at that finger's base. Every row goes through geometry.hamilton and
    geometry.rotate, the only copies of those formulas, in the
    operation order of quat_mul and quat_rotate, so each row keeps the
    bits it gets alone. A segment's offset (L, 0, 0) is rotated by
    geometry.rotate_x, which skips the products by its zero components
    and gives rotate's bytes for finite input; both write into one
    (7, B) workspace. The centers
    are a view of one (3, K, B) buffer; the fingertips are a C-order
    copy, the layout the masked finger sums downstream have always read.
    """
    wrist_t = np.asarray(wrist_t, dtype=float)
    wrist_r = np.asarray(wrist_r, dtype=float)
    q = np.asarray(q, dtype=float)
    if q.shape[-1] != spec.joint_count:
        raise ValueError(f"joint vector has dim {q.shape[-1]}, hand has J={spec.joint_count}")
    wrist = tuple(wrist_r.T.copy())
    joints = q.T.copy()
    out = np.empty((3, spec.sphere_count, len(q)))
    work = np.empty((7, len(q)))   # rotate's, each result added into place before the next call
    rows = zip(spec.finger_index.tolist(), spec.length.tolist(), spec.axis.tolist(), spec.source.tolist(),
               spec.scale.tolist())
    finger = None
    for k, (fi, length, (ax, ay, az), source, scale) in enumerate(rows):
        if fi != finger:
            finger = fi
            cur_r = hamilton(*wrist, *spec.base_r[fi])
            cur_t = tuple(wt + bt for wt, bt in zip(wrist_t.T, rotate(*wrist, *spec.base_t[fi], work)))
        half = 0.5 * (scale * joints[source])
        s = np.sin(half)
        cur_r = hamilton(*cur_r, np.cos(half), s * ax, s * ay, s * az)
        step = rotate_x(*cur_r, length, work)
        for a in range(3):
            np.add(cur_t[a], step[a], out=out[a, k])
        cur_t = tuple(out[:, k])
    tips = np.flatnonzero(np.diff(spec.finger_index, append=spec.finger_count))
    return out.transpose(2, 1, 0), out[:, tips].transpose(2, 1, 0).copy()


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
        raise ValueError("classify_style needs at least one style")
    qn = normalize_joints(spec, q_final)
    diff = qn[..., None, :] - normalize_joints(spec, np.stack([s.q_canonical for s in styles]))
    dists = row_norms(diff.reshape(-1, spec.joint_count))
    return np.argmin(dists.reshape(diff.shape[:-1]), axis=-1)
