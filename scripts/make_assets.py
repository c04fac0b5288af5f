#!/usr/bin/env python3
"""Regenerate the bundled assets: hands, styles, demos, toy-object PLYs.

Everything here is authored analytically and then validated through the
package's own FK and rollout pipeline. The script writes the object
PLYs, reads them back with the package's loader, and replays the demos
on the clouds it read back, as every run loads them: it refuses to write
a demo whose identity-action replay does not produce a successful grasp
on the box at the recorded pose. Style 0's canonical joints are, by
construction, the demo's joints at the grasp frame, which is what makes
the replay-identity property hold exactly.

The object builders and the PLY and demo writers live here alone: the
package only reads these files.

Usage: python3 scripts/make_assets.py [--out src/fungrasp/assets]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fungrasp.demo import Demonstration, load_demo
from fungrasp.hand import forward_kinematics_batch, load_hand_spec, load_styles
from fungrasp.objects import ObjectModel
from fungrasp.sim import EnvBatch, SimParams, rollout_batch
from fungrasp.training import load_objects

RY90 = [np.cos(np.pi / 4), 0.0, np.sin(np.pi / 4), 0.0]  # R_y(90 deg): local +x -> world -z

BOX_FACE = 0.03          # half-edge of the 6 cm toy box
T_D = 40
T_L = 30
LIFT = 0.10
APPROACH = 0.10


# ---------------------------------------------------------------------------
# Hand definitions
# ---------------------------------------------------------------------------

def inspire_like_hand() -> dict:
    """4 fingers, 6 active joints; index/middle/ring distals are coupled,
    so they declare no limits."""
    finger = lambda y: {
        "name": None,
        "base": {"t": [0.060, y, 0.0], "r": RY90},
        "tip_radius": 0.010,
        "segments": [
            {"length": 0.045, "axis": [0, 1, 0], "limits": [0.0, 1.6], "radius": 0.009},
            {"length": 0.035, "axis": [0, 1, 0], "radius": 0.010},
        ],
    }
    fingers = []
    thumb = {
        "name": "thumb",
        "base": {"t": [-0.060, 0.0, 0.0], "r": RY90},
        "tip_radius": 0.010,
        "segments": [
            {"length": 0.020, "axis": [1, 0, 0], "limits": [-0.6, 0.6], "radius": 0.009},
            {"length": 0.042, "axis": [0, -1, 0], "limits": [0.0, 1.6], "radius": 0.010},
            {"length": 0.032, "axis": [0, -1, 0], "limits": [0.0, 1.6], "radius": 0.010},
        ],
    }
    fingers.append(thumb)
    for name, y in (("index", 0.022), ("middle", 0.0), ("ring", -0.022)):
        f = finger(y)
        f["name"] = name
        fingers.append(f)
    return {
        "schema": "fungrasp-hand-v1",
        "name": "inspire_like",
        "fingers": fingers,
        "coupling": [
            {"finger": 1, "segment": 1, "source": 3, "scale": 1.0},
            {"finger": 2, "segment": 1, "source": 4, "scale": 1.0},
            {"finger": 3, "segment": 1, "source": 5, "scale": 1.0},
        ],
    }


def shadow_like_hand() -> dict:
    """5 fingers, 22 active joints, no couplings."""

    def digit(name, y, lengths):
        segs = [{"length": 0.012, "axis": [0, 0, 1], "limits": [-0.35, 0.35], "radius": 0.008}]
        segs += [
            {"length": ln, "axis": [0, 1, 0], "limits": [0.0, 1.6], "radius": 0.009}
            for ln in lengths
        ]
        return {
            "name": name,
            "base": {"t": [0.055, y, 0.0], "r": RY90},
            "tip_radius": 0.009,
            "segments": segs,
        }

    thumb = {
        "name": "thumb",
        "base": {"t": [-0.055, 0.009, 0.0], "r": RY90},
        "tip_radius": 0.010,
        "segments": [
            {"length": 0.015, "axis": [1, 0, 0], "limits": [-0.8, 0.8], "radius": 0.008},
            {"length": 0.030, "axis": [0, -1, 0], "limits": [0.0, 1.6], "radius": 0.009},
            {"length": 0.026, "axis": [0, -1, 0], "limits": [0.0, 1.6], "radius": 0.009},
            {"length": 0.022, "axis": [0, -1, 0], "limits": [0.0, 1.6], "radius": 0.009},
            {"length": 0.018, "axis": [0, -1, 0], "limits": [0.0, 1.6], "radius": 0.010},
        ],
    }
    little = {
        "name": "little",
        "base": {"t": [0.055, -0.026, 0.0], "r": RY90},
        "tip_radius": 0.009,
        "segments": [
            {"length": 0.010, "axis": [1, 0, 0], "limits": [-0.3, 0.5], "radius": 0.008},
            {"length": 0.012, "axis": [0, 0, 1], "limits": [-0.35, 0.35], "radius": 0.008},
            {"length": 0.026, "axis": [0, 1, 0], "limits": [0.0, 1.6], "radius": 0.009},
            {"length": 0.022, "axis": [0, 1, 0], "limits": [0.0, 1.6], "radius": 0.009},
            {"length": 0.018, "axis": [0, 1, 0], "limits": [0.0, 1.6], "radius": 0.009},
        ],
    }
    return {
        "schema": "fungrasp-hand-v1",
        "name": "shadow_like",
        "fingers": [
            thumb,
            digit("index", 0.026, [0.030, 0.025, 0.022]),
            digit("middle", 0.009, [0.030, 0.025, 0.022]),
            digit("ring", -0.009, [0.030, 0.025, 0.022]),
            little,
        ],
        "coupling": [],
    }


# ---------------------------------------------------------------------------
# Numeric style solving: flexion angle that puts a fingertip at a target x
# ---------------------------------------------------------------------------

def _fingertips(spec, q):
    """(B, F, 3) fingertips of a (B, J) stack of joint vectors, wrist at
    the identity."""
    q = np.asarray(q, dtype=float)
    _, tips = forward_kinematics_batch(spec, np.zeros((len(q), 3)), np.tile([1.0, 0.0, 0.0, 0.0], (len(q), 1)), q)
    return tips


def solve_flexion(spec, base_q, finger, flex_joints, target_x, toward_neg: bool):
    """Common flexion angle that puts the fingertip at target_x.

    Long chains are not monotone in the common angle (they spiral), so
    scan for the first bracketing interval and bisect inside it.
    """

    def tips(angles):
        q = np.tile(np.asarray(base_q, dtype=float), (len(angles), 1))
        q[:, list(flex_joints)] = np.asarray(angles)[:, None]
        return _fingertips(spec, q)[:, finger, 0]

    def tip(a):
        return tips([a])[0]

    grid = np.linspace(0.0, 1.2, 241)
    vals = tips(grid)
    lo_a = hi_a = None
    for i in range(len(grid) - 1):
        if (vals[i] - target_x) * (vals[i + 1] - target_x) <= 0:
            lo_a, hi_a = grid[i], grid[i + 1]
            break
    assert lo_a is not None, (
        f"target {target_x} never reached: tips span "
        f"{min(vals):.4f}..{max(vals):.4f} (finger {finger})"
    )
    t_lo = tip(lo_a)
    for _ in range(60):
        mid = 0.5 * (lo_a + hi_a)
        if (tip(mid) - target_x) * (t_lo - target_x) > 0:
            lo_a, t_lo = mid, tip(mid)
        else:
            hi_a = mid
    return 0.5 * (lo_a + hi_a)


def inspire_styles(spec) -> list[dict]:
    J = spec.joint_count
    zero = np.zeros(J)

    def solved(gaps: dict, thumb_gap, thumb_roll=0.05, open_angle=0.06):
        """gaps maps flex joint index (3=index, 4=middle, 5=ring) to a
        fingertip standoff from the box face; absent fingers stay open."""
        q = np.zeros(J)
        q[0] = thumb_roll
        a_t = solve_flexion(spec, q, 0, (1, 2), -(BOX_FACE + thumb_gap), toward_neg=False)
        q[1] = q[2] = a_t
        for j in (3, 4, 5):
            if j in gaps:
                q[j] = solve_flexion(spec, q, j - 2, (j,), BOX_FACE + gaps[j], toward_neg=True)
            else:
                q[j] = open_angle
        return q

    power = solved({3: 0.0045, 4: 0.0045, 5: 0.0045}, thumb_gap=0.0045)
    # two-finger styles get a light third 'brace' contact: two hard point
    # contacts alone cannot resist roll torque about the contact axis
    pinch = solved({4: 0.0010, 3: 0.0110}, thumb_gap=0.0010, open_angle=0.015)
    tripod = solved({3: 0.0025, 4: 0.0025}, thumb_gap=0.0025, open_angle=0.10)
    wide = solved({3: 0.0065, 4: 0.0065, 5: 0.0065}, thumb_gap=0.0065, thumb_roll=-0.35)
    return [
        {"id": "power", "q": [float(v) for v in power], "contact_mask": [0, 1, 2, 3]},
        {"id": "pinch", "q": [float(v) for v in pinch], "contact_mask": [0, 2]},
        {"id": "tripod", "q": [float(v) for v in tripod], "contact_mask": [0, 1, 2]},
        {"id": "wide", "q": [float(v) for v in wide], "contact_mask": [0, 1, 2, 3]},
    ]


def shadow_styles(spec) -> list[dict]:
    J = spec.joint_count
    # joint layout: thumb 0-4 (roll + 4 flex), index 5-8, middle 9-12,
    # ring 13-16 (spread + 3 flex each), little 17-21 (palm + spread + 3 flex)
    flex = {1: (6, 7, 8), 2: (10, 11, 12), 3: (14, 15, 16), 4: (19, 20, 21)}

    def solved(gaps: dict, thumb_gap, thumb_roll=0.0, open_angle=0.05):
        q = np.zeros(J)
        q[0] = thumb_roll
        a_t = solve_flexion(spec, q, 0, (1, 2, 3, 4), -(BOX_FACE + thumb_gap), toward_neg=False)
        q[1:5] = a_t
        for f in (1, 2, 3, 4):
            if f in gaps:
                a = solve_flexion(spec, q, f, flex[f], BOX_FACE + gaps[f], toward_neg=True)
                q[list(flex[f])] = a
            else:
                q[list(flex[f])] = open_angle
        return q

    all4 = lambda g: {1: g, 2: g, 3: g, 4: g}
    defs = [
        ("power", solved(all4(0.0045), thumb_gap=0.0045), [0, 1, 2, 3, 4]),
        # light brace from the middle finger; see the inspire pinch note
        ("pinch", solved({1: 0.0010, 2: 0.0110}, thumb_gap=0.0010), [0, 1]),
        ("tripod", solved({1: 0.0020, 2: 0.0020}, thumb_gap=0.0020), [0, 1, 2]),
        ("quad", solved({1: 0.0030, 2: 0.0030, 3: 0.0030}, thumb_gap=0.0030), [0, 1, 2, 3]),
        ("lateral", solved({1: 0.0030, 2: 0.0110}, thumb_gap=0.0030, thumb_roll=0.35), [0, 1]),
        ("wide", solved(all4(0.0065), thumb_gap=0.0065), [0, 1, 2, 3, 4]),
        ("firm", solved(all4(0.0015), thumb_gap=0.0015), [0, 1, 2, 3, 4]),
        ("splay", _splayed(spec, solved(all4(0.0060), thumb_gap=0.0060)), [0, 1, 2, 3, 4]),
        ("low_pinch", solved({1: 0.0020, 2: 0.0020}, thumb_gap=0.0020, thumb_roll=-0.25), [0, 1, 2]),
    ]
    out = []
    for name, q, mask in defs:
        out.append({"id": name, "q": [float(v) for v in q], "contact_mask": mask})
    return out


def _splayed(spec, q):
    q = np.array(q)
    # spread joints of index/ring/little push the fingers apart
    for j, v in ((5, 0.18), (13, -0.18), (18, -0.25)):
        q[j] = v
    return q


# ---------------------------------------------------------------------------
# Demo construction
# ---------------------------------------------------------------------------

def build_demo(spec, style0_q, q_open, contact_z_finger=0.034) -> Demonstration:
    """Top-down approach closing at T_l, then a settle-and-hold tail.

    The post-grasp frames hold the grasp pose rather than lifting: the
    quasi-static success oracle replaces the lift test, and a lift would
    push the final affordance distance to the lift height for every
    episode, deadening the sparse affordance term.
    """
    q_grasp = np.array(style0_q)
    # wrist height: put the middle finger's tip at the contact height
    mid = 2
    tip_z_rel = _fingertips(spec, q_grasp[None])[0, mid, 2]
    wrist_z = contact_z_finger - tip_z_rel
    heights, joints = [], []
    for t in range(T_D + 1):
        if t <= T_L:
            s = t / T_L
            z = wrist_z + APPROACH * (1.0 - s)
            q = q_open + s * (q_grasp - q_open)
        else:
            z = wrist_z
            q = q_grasp
        heights.append(z)
        joints.append(np.array(q))
    pose_t = np.c_[np.zeros((T_D + 1, 2)), heights]
    pose_r = np.tile([1.0, 0.0, 0.0, 0.0], (T_D + 1, 1))
    return Demonstration(pose_t, pose_r, np.array(joints), T_L)


def save_demo(demo: Demonstration, hand_name: str, path) -> None:
    """Write a demonstration as fungrasp-demo-v1 JSON (demo.load_demo)."""
    payload = {
        "schema": "fungrasp-demo-v1",
        "hand": hand_name,
        "T_l": demo.grasp_index,
        "frames": [
            {"p": {"t": list(t), "r": list(r)}, "q": list(q)}
            for t, r, q in zip(demo.pose_t, demo.pose_r, demo.joints)
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=1))


# ---------------------------------------------------------------------------
# Toy objects: analytic clouds with exact normals, written as the bundled PLYs
# ---------------------------------------------------------------------------

_STEP = 0.004     # the toy clouds' point spacing, meters


def _grid(lo, hi):
    n = max(2, int(round((hi - lo) / _STEP)) + 1)
    return np.linspace(lo, hi, n)


def make_box(edges=(0.06, 0.06, 0.06), name="box") -> ObjectModel:
    ex, ey, ez = edges
    xs, ys, zs = _grid(-ex / 2, ex / 2), _grid(-ey / 2, ey / 2), _grid(0.0, ez)
    pts, nrm = [], []
    for sign in (-1.0, 1.0):
        gy, gz = np.meshgrid(ys, zs, indexing="ij")
        pts.append(np.stack([np.full(gy.size, sign * ex / 2), gy.ravel(), gz.ravel()], axis=1))
        nrm.append(np.tile([sign, 0.0, 0.0], (gy.size, 1)))
        gx, gz = np.meshgrid(xs, zs, indexing="ij")
        pts.append(np.stack([gx.ravel(), np.full(gx.size, sign * ey / 2), gz.ravel()], axis=1))
        nrm.append(np.tile([0.0, sign, 0.0], (gx.size, 1)))
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        zval = ez if sign > 0 else 0.0
        pts.append(np.stack([gx.ravel(), gy.ravel(), np.full(gx.size, zval)], axis=1))
        nrm.append(np.tile([0.0, 0.0, sign], (gx.size, 1)))
    return ObjectModel.from_points(name, np.concatenate(pts), np.concatenate(nrm))


def make_cylinder(radius=0.028, height=0.09, name="cylinder") -> ObjectModel:
    n_theta = max(8, int(round(2 * np.pi * radius / _STEP)))
    theta = np.linspace(0, 2 * np.pi, n_theta, endpoint=False)
    zs = _grid(0.0, height)
    gt, gz = np.meshgrid(theta, zs, indexing="ij")
    side = np.stack([radius * np.cos(gt).ravel(), radius * np.sin(gt).ravel(), gz.ravel()], axis=1)
    side_n = np.stack([np.cos(gt).ravel(), np.sin(gt).ravel(), np.zeros(gt.size)], axis=1)
    pts, nrm = [side], [side_n]
    for zval, nz in ((0.0, -1.0), (height, 1.0)):
        for r in _grid(0.0, radius)[1:]:
            nt = max(6, int(round(2 * np.pi * r / _STEP)))
            th = np.linspace(0, 2 * np.pi, nt, endpoint=False)
            pts.append(np.stack([r * np.cos(th), r * np.sin(th), np.full(nt, zval)], axis=1))
            nrm.append(np.tile([0.0, 0.0, nz], (nt, 1)))
        pts.append(np.array([[0.0, 0.0, zval]]))
        nrm.append(np.array([[0.0, 0.0, nz]]))
    return ObjectModel.from_points(name, np.concatenate(pts), np.concatenate(nrm))


def make_sphere() -> ObjectModel:
    # Fibonacci sphere of 800 points, radius 0.032: even coverage, exact radial normals
    i = np.arange(800)
    phi = np.pi * (3.0 - np.sqrt(5.0)) * i
    y = 1.0 - 2.0 * (i + 0.5) / 800
    r = np.sqrt(1.0 - y * y)
    dirs = np.stack([np.cos(phi) * r, y, np.sin(phi) * r], axis=1)
    return ObjectModel.from_points("sphere", 0.032 * dirs + np.array([0.0, 0.0, 0.032]), dirs)


def make_l_shape() -> ObjectModel:
    # foot slab plus a column on its -x end; interior points removed
    foot = make_box((0.08, 0.05, 0.03), name="_foot")
    col = make_box((0.03, 0.05, 0.09), name="_col")
    col_pts = col.points + np.array([-0.025, 0.0, 0.0])
    foot_pts = np.array(foot.points)

    def inside(p, lo, hi):
        return np.all((p > lo + 1e-9) & (p < hi - 1e-9), axis=1)

    keep_f = ~inside(foot_pts, np.array([-0.04, -0.025, 0.0]) + [0.0, 0.0, -1.0],
                     np.array([-0.01, 0.025, 0.03]))
    keep_c = ~inside(col_pts, np.array([-0.04, -0.025, -1.0]), np.array([-0.01, 0.025, 0.03]))
    pts = np.concatenate([foot_pts[keep_f], col_pts[keep_c]])
    nrm = np.concatenate([foot.normals[keep_f], col.normals[keep_c]])
    return ObjectModel.from_points("l_shape", pts, nrm)


def make_mug() -> ObjectModel:
    # handle sticks out along +y, clear of a +-x pincer approach
    body_radius = 0.033
    body = make_cylinder(body_radius, 0.08, name="_body")
    handle = make_box((0.016, 0.024, 0.05), name="_handle")
    handle_pts = handle.points + np.array([0.0, body_radius + 0.008, 0.018])
    r = np.linalg.norm(handle_pts[:, :2], axis=1)
    keep = r > body_radius - 1e-9
    pts = np.concatenate([body.points, handle_pts[keep]])
    nrm = np.concatenate([body.normals, handle.normals[keep]])
    return ObjectModel.from_points("mug", pts, nrm)


def toy_suite() -> dict[str, ObjectModel]:
    """The five bundled desk objects, by name."""
    objs = [make_box(), make_cylinder(), make_sphere(), make_l_shape(), make_mug()]
    return {o.name: o for o in objs}


def save_object_ply(obj: ObjectModel, path) -> None:
    """Write an ObjectModel as ascii PLY with x,y,z,nx,ny,nz."""
    path = Path(path)
    n = obj.points.shape[0]
    head = [
        "ply",
        "format ascii 1.0",
        f"element vertex {n}",
        "property float x",
        "property float y",
        "property float z",
        "property float nx",
        "property float ny",
        "property float nz",
        "end_header",
    ]
    rows = [
        " ".join(repr(float(v)) for v in np.concatenate([obj.points[i], obj.normals[i]]))
        for i in range(n)
    ]
    path.write_text("\n".join(head + rows) + "\n")


def replay_success(spec, styles, demo, obj, style_index=0) -> tuple[bool, str]:
    style = styles[style_index]
    # one environment: obj at the identity pose, conditioned on the style
    env = EnvBatch(
        objs=[obj],
        pose_t=np.zeros((1, 3)),
        pose_r=np.array([[1.0, 0.0, 0.0, 0.0]]),
        p_afford=obj.points[None, len(obj.points) // 2],
        style=np.array([style_index]),
        q_style=style.q_canonical[None],
        mask=np.isin(np.arange(spec.finger_count), style.contact_mask)[None],
    )
    identity = np.r_[np.zeros(6 + spec.joint_count), 1.0]  # no wrist offset, no residual, scale 1
    *_, (reason,) = rollout_batch(env, demo, [identity], spec, styles, SimParams())
    return reason is None, reason or "ok"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default=str(Path(__file__).resolve().parents[1] / "src/fungrasp/assets"))
    args = ap.parse_args()
    out = Path(args.out)
    for sub in ("hands", "styles", "demos", "objects"):
        (out / sub).mkdir(parents=True, exist_ok=True)

    for name, obj in toy_suite().items():
        save_object_ply(obj, out / "objects" / f"{name}.ply")
    # replay the clouds as every run loads them, not as they were built
    objs = {o.name: o for o in load_objects(out / "objects")}
    print(f"objects: {', '.join(f'{n} ({len(o.points)} pts)' for n, o in objs.items())}")

    for hand_def, style_fn, contact_z in (
        (inspire_like_hand(), inspire_styles, 0.034),
        # the shadow thumb reaches ~2.3 cm deeper than its fingers; keep it
        # clear of the conservative table margin
        (shadow_like_hand(), shadow_styles, 0.042),
    ):
        name = hand_def["name"]
        hand_path = out / "hands" / f"{name}.json"
        hand_path.write_text(json.dumps(hand_def, indent=1))
        spec = load_hand_spec(hand_path)
        style_defs = style_fn(spec)
        styles_path = out / "styles" / f"{name}_styles.json"
        styles_path.write_text(json.dumps(
            {"schema": "fungrasp-styles-v1", "hand": name, "styles": style_defs}, indent=1
        ))
        styles = load_styles(styles_path, spec)
        q_open = np.full(spec.joint_count, 0.05)
        q_open[0] = -0.05  # thumb roll opens the other way so every joint moves
        demo = build_demo(spec, styles[0].q_canonical, q_open, contact_z_finger=contact_z)
        # every joint must move in the reference, or replay identity breaks
        span = np.abs(demo.joints[T_L] - demo.joints[0])
        assert span.min() > 1e-3, f"{name}: static joint in demo (min span {span.min()})"
        demo_path = out / "demos" / f"{name}_box_demo.json"
        save_demo(demo, name, demo_path)
        demo = load_demo(demo_path, spec)  # round-trip before validating

        ok, why = replay_success(spec, styles, demo, objs["box"])
        assert ok, f"{name}: identity replay on the box failed ({why})"
        report = {}
        for oname, obj in objs.items():
            got, why = replay_success(spec, styles, demo, obj)
            report[oname] = "success" if got else f"fail:{why}"
        print(f"{name}: J={spec.joint_count}, styles={len(styles)}, identity replay: {report}")
    print(f"assets written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
