import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fungrasp.assets import LENGTH_MAX, UserError, default_hand_path, default_styles_path
from fungrasp.geometry import axis_angle_to_quat
from fungrasp.hand import (
    clamp_to_limits,
    classify_style,
    forward_kinematics_batch,
    load_hand_spec,
    load_styles,
    normalize_joints,
)

from conftest import poses
from contact_reference import hand_assets, seeded_rollout_inputs
from kernel_reference import reference_forward_kinematics
from pose_reference import IDENTITY, compose_pose, transform_point


def _write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


def _single_finger_spec(tmp_path, axis=(0, 0, 1), lengths=(0.4, 0.3)):
    payload = {
        "name": "probe",
        "fingers": [
            {
                "name": "f0",
                "base": {"t": [0, 0, 0], "r": [1, 0, 0, 0]},
                "tip_radius": 0.01,
                "segments": [
                    {"length": lengths[0], "axis": list(axis), "limits": [-3.0, 3.0]},
                    {"length": lengths[1], "axis": list(axis), "limits": [-3.0, 3.0]},
                ],
            }
        ],
        "coupling": [],
    }
    return load_hand_spec(_write(tmp_path, "probe.json", payload))


def test_bundled_inspire_like_has_six_joints_four_fingers(spec):
    assert spec.joint_count == 6
    assert spec.finger_count == 4


def test_bundled_shadow_like_has_22_joints_five_fingers(shadow_spec):
    assert shadow_spec.joint_count == 22
    assert shadow_spec.finger_count == 5


def test_bundled_style_counts(spec, styles, shadow_spec):
    assert len(styles) == 4
    assert len(load_styles(default_styles_path("shadow_like"), shadow_spec)) == 9


def _fk(spec, wrists, qs):
    """forward_kinematics_batch over a list of (t, r) wrist poses and a
    (B, J) stack of joint vectors: (centers (B, K, 3), fingertips (B, F, 3))."""
    return forward_kinematics_batch(spec, *(np.stack(c) for c in zip(*wrists)), np.asarray(qs, dtype=float))


def test_limits_violation_rejected(tmp_path):
    payload = {
        "name": "bad",
        "fingers": [
            {
                "base": {"t": [0, 0, 0], "r": [1, 0, 0, 0]},
                "tip_radius": 0.01,
                "segments": [{"length": 0.1, "axis": [0, 1, 0], "limits": [0.5, 0.5]}],
            }
        ],
    }
    with pytest.raises(UserError, match="lo >= hi"):
        load_hand_spec(_write(tmp_path, "bad.json", payload))


def test_fk_zero_config_straight_chain(tmp_path):
    hand = _single_finger_spec(tmp_path)
    centers, tips = _fk(hand, [IDENTITY], np.zeros((1, 2)))
    # segments extend along +x from an identity base
    assert np.allclose(tips[0, 0], [0.7, 0, 0], atol=1e-12)
    assert np.allclose(centers[0, 0], [0.4, 0, 0], atol=1e-12)


def test_fk_bundled_zero_config_matches_summed_lengths(spec):
    _, tips = _fk(spec, [IDENTITY], np.zeros((1, spec.joint_count)))
    for fi in range(spec.finger_count):
        total = sum(spec.length[spec.finger_index == fi])
        # bundled bases point the chains straight down
        expected = spec.base_t[fi] + np.array([0.0, 0.0, -total])
        assert np.allclose(tips[0, fi], expected, atol=1e-9)


def test_fk_wrist_translation_equivariance(spec):
    rng = np.random.default_rng(0)
    q = rng.uniform(spec.limits_lo, spec.limits_hi)
    d = np.array([0.3, -0.2, 0.5])
    (base, moved), _ = _fk(spec, [IDENTITY, (d, np.array([1.0, 0, 0, 0]))], [q, q])
    assert np.allclose(moved, base + d, atol=1e-12)


def test_fk_two_link_planar_closed_form(tmp_path):
    hand = _single_finger_spec(tmp_path, axis=(0, 0, 1), lengths=(0.4, 0.3))
    _, tips = _fk(hand, [IDENTITY] * 2, [[np.pi / 2, 0.0], [np.pi / 2, -np.pi / 2]])
    assert np.allclose(tips[0, 0], [0.0, 0.7, 0.0], atol=1e-12)
    assert np.allclose(tips[1, 0], [0.3, 0.4, 0.0], atol=1e-12)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(moves=st.lists(st.tuples(poses(), poses()), min_size=1, max_size=6), seed=st.integers(0, 2**32 - 1))
def test_fk_wrist_equivariance_property(spec, shadow_spec, moves, seed):
    """FK under the wrist pose g∘w puts every sphere and fingertip at g
    applied to where FK under w puts it, row by row of one batch."""
    rng = np.random.default_rng(seed)
    for hand in (spec, shadow_spec):
        qs = rng.uniform(hand.limits_lo, hand.limits_hi, (len(moves), hand.joint_count))
        moved = _fk(hand, [compose_pose(g, w) for g, w in moves], qs)
        base = _fk(hand, [w for _, w in moves], qs)
        for lhs, rhs in zip(moved, base):
            for (g, _), lhs_b, rhs_b in zip(moves, lhs, rhs):
                assert np.allclose(lhs_b, transform_point(g, rhs_b), atol=1e-9)


def _same_fk_bytes(hand, wrist_t, wrist_r, q):
    got = forward_kinematics_batch(hand, wrist_t, wrist_r, q)
    want = reference_forward_kinematics(hand, wrist_t, wrist_r, q)
    for g, w in zip(got, want):
        assert g.shape == w.shape and np.ascontiguousarray(g).tobytes() == w.tobytes()


@pytest.mark.parametrize("hand", ["inspire_like", "shadow_like"])
@pytest.mark.parametrize("rows", [1, 2, 96 * 41])
def test_fk_matches_the_per_finger_reference_bytes(hand, rows):
    """Component-plane FK gives the bytes of the (n, 4)-slice chain on
    random wrist poses, with joints inside and well outside the limits."""
    spec = load_hand_spec(default_hand_path(hand))
    rng = np.random.default_rng(rows)
    axis_angle = rng.normal(size=(rows, 3)) * rng.uniform(0.0, 3.0, (rows, 1))
    wrist_r = axis_angle_to_quat(axis_angle)
    wrist_t = rng.normal(size=(rows, 3))
    span = spec.limits_hi - spec.limits_lo
    q = rng.uniform(spec.limits_lo - span, spec.limits_hi + span, (rows, spec.joint_count))
    _same_fk_bytes(spec, wrist_t, wrist_r, q)


@pytest.mark.parametrize("hand", ["inspire_like", "shadow_like"])
def test_fk_matches_the_reference_on_seeded_rollout_inputs(hand, monkeypatch):
    """The FK inputs a seeded rollout_batch builds get the reference's bytes."""
    from fungrasp import sim

    assets = hand_assets(hand)
    envs, actions = seeded_rollout_inputs(assets, 32, seed=31)
    captured = []
    monkeypatch.setattr(sim, "forward_kinematics_batch", lambda *a: captured.append(a) or forward_kinematics_batch(*a))
    sim.rollout_batch(envs, assets.demo, actions, assets.spec, assets.styles, sim.SimParams())
    (args,) = captured
    _same_fk_bytes(*args)


def test_fk_dimension_mismatch(spec):
    with pytest.raises(ValueError, match="J=") as raised:
        _fk(spec, [IDENTITY], np.zeros((1, spec.joint_count + 1)))
    assert type(raised.value) is ValueError


def test_coupled_segment_follows_source(spec):
    # index distal (finger 1, segment 1) is coupled to joint 3 with scale 1
    q = np.zeros((2, spec.joint_count))
    q[0, 3] = 0.7
    # the distal sphere must differ from a configuration where only the
    # proximal rotates; compare against a hand without coupling
    q[1, 3] = 0.35
    _, (bent, half) = _fk(spec, [IDENTITY] * 2, q)
    assert not np.allclose(bent[1], half[1], atol=1e-6)


# three chains of unequal length: one segment; four, the third following
# the first finger's joint; two, the second following the second finger's
# first joint
IRREGULAR = {
    "name": "irregular",
    "fingers": [
        {"name": "stub", "base": {"t": [0.02, -0.01, 0.0], "r": [0.9238795325112867, 0.0, 0.3826834323650898, 0.0]},
         "tip_radius": 0.012, "segments": [{"length": 0.03, "axis": [0, 1, 0], "limits": [-0.5, 1.2]}]},
        {"name": "long", "base": {"t": [0.0, 0.02, -0.01], "r": [1, 0, 0, 0]}, "tip_radius": 0.008, "segments": [
            {"length": 0.04, "axis": [0, 1, 0], "limits": [0.0, 1.5], "radius": 0.011},
            {"length": 0.03, "axis": [0.3, 1, 0.2], "limits": [-0.2, 1.0]},
            {"length": 0.025, "axis": [0, 1, 0]},
            {"length": 0.02, "axis": [1, 0, 1], "limits": [-0.4, 0.4]},
        ]},
        {"name": "pair", "base": {"t": [-0.02, 0.0, 0.0], "r": [0.7071067811865476, 0.7071067811865476, 0, 0]},
         "tip_radius": 0.009, "segments": [
            {"length": 0.035, "axis": [0, 0, 1], "limits": [-1.0, 1.0]},
            {"length": 0.03, "axis": [0, 0, 1]},
        ]},
    ],
    "coupling": [
        {"finger": 1, "segment": 2, "source": 0, "scale": -0.7},
        {"finger": 2, "segment": 1, "source": 1, "scale": 1.3},
    ],
}


def _hand_json(hand):
    """A hand's JSON: a bundled one, IRREGULAR, or "half_coupled", which
    is inspire_like with its first coupling at scale 0.5 and its second
    driven by joint 0."""
    if hand == "irregular":
        return json.loads(json.dumps(IRREGULAR))
    payload = json.loads(default_hand_path("inspire_like" if hand == "half_coupled" else hand).read_text())
    if hand == "half_coupled":
        payload["coupling"][0]["scale"] = 0.5
        payload["coupling"][1]["source"] = 0
    return payload


def _drives(payload):
    """Each segment's (source, scale) in chain order, as the hand format
    defines them: a coupling entry gives its segment's pair, and every
    other segment is the next active joint, numbered from 0, at scale 1."""
    coupled = {(c["finger"], c["segment"]): (c["source"], c.get("scale", 1.0)) for c in payload.get("coupling", [])}
    drives, joint = [], 0
    for fi, finger in enumerate(payload["fingers"]):
        for si in range(len(finger["segments"])):
            if (fi, si) in coupled:
                drives.append(coupled[fi, si])
            else:
                drives.append((joint, 1.0))
                joint += 1
    return drives


def _radii(payload):
    """Each segment's sphere radius in chain order, as the hand format
    defines them: its own radius (by default the tip radius), and the tip
    radius at a finger's last segment."""
    return [finger["tip_radius"] if si == len(finger["segments"]) - 1 else seg.get("radius", finger["tip_radius"])
            for finger in payload["fingers"] for si, seg in enumerate(finger["segments"])]


@pytest.mark.parametrize("hand", ["inspire_like", "shadow_like", "half_coupled", "irregular"])
def test_each_segment_is_driven_by_its_source_at_its_scale(tmp_path, hand):
    """Every loaded segment's (source, scale) is what the JSON gives it,
    the sphere radii and fingers are in chain order, every array of the
    spec is read-only, FK matches kernel_reference's chain by bytes, and
    each fingertip is its finger's last row."""
    payload = _hand_json(hand)
    spec = load_hand_spec(_write(tmp_path, "hand.json", payload))
    assert list(zip(spec.source.tolist(), spec.scale.tolist())) == _drives(payload)
    assert spec.joint_count == spec.sphere_count - len(payload.get("coupling", []))
    assert spec.radii.tolist() == _radii(payload)
    assert spec.finger_index.tolist() == [fi for fi, f in enumerate(payload["fingers"]) for _ in f["segments"]]
    arrays = [value for value in vars(spec).values() if isinstance(value, np.ndarray)]
    assert len(arrays) == 10 and not any(a.flags.writeable for a in arrays)
    rng = np.random.default_rng(3)
    wrist_r = axis_angle_to_quat(rng.normal(size=(64, 3)))
    q = rng.uniform(spec.limits_lo, spec.limits_hi, (64, spec.joint_count))
    wrist_t = rng.normal(size=(64, 3))
    _same_fk_bytes(spec, wrist_t, wrist_r, q)
    centers, tips = forward_kinematics_batch(spec, wrist_t, wrist_r, q)
    last = np.cumsum([len(finger["segments"]) for finger in payload["fingers"]]) - 1
    assert tips.tobytes() == np.ascontiguousarray(centers[:, last]).tobytes()


@pytest.mark.parametrize("entry, at, message", [
    ({"finger": 9, "segment": 1, "source": 3}, 1, "coupling[1].finger: finger 9 out of range, hand has 4"),
    ({"finger": 1, "segment": 2, "source": 3}, 1, "coupling[1].segment: segment 2 out of range, finger 1 has 2"),
    ({"finger": 2, "segment": 1, "source": 40}, 1, "coupling[1].source: joint 40 out of range (J=6)"),
    ({"finger": 1, "segment": 1, "source": 3, "scale": 0.5}, 3,
     "coupling[3]: finger 1 segment 1 is already coupled by coupling[0]"),
], ids=["finger", "segment", "source", "duplicate"])
def test_a_bad_coupling_entry_is_a_hand_error_that_names_it(tmp_path, entry, at, message):
    payload = _hand_json("inspire_like")
    payload["coupling"][at:at + 1] = [entry]
    with pytest.raises(UserError, match=re.escape(f"hand.json: {message}")):
        load_hand_spec(_write(tmp_path, "hand.json", payload))


@pytest.mark.parametrize("segment, limits, message", [
    (1, [0.0, 1.6], "fingers[2].segments[1].limits: coupling[1] drives this segment, so it declares no limits"),
    (0, None, "fingers[2].segments[0].limits: must be [lo, hi]"),
], ids=["coupled-declared", "active-absent"])
def test_only_an_active_segment_declares_limits(tmp_path, segment, limits, message):
    """A coupled segment's angle is scale * q[source], bounded by its
    source's limits alone, so it declares none: in half_coupled the
    middle distal follows the thumb's [-0.6, 0.6] roll, and limits
    declared there would be unread. An active segment must declare its
    limits (None: the key is deleted)."""
    payload = _hand_json("half_coupled")
    middle = payload["fingers"][2]["segments"][segment]
    if limits is None:
        del middle["limits"]
    else:
        middle["limits"] = limits
    with pytest.raises(UserError, match=re.escape(f"hand.json: {message}")):
        load_hand_spec(_write(tmp_path, "hand.json", payload))


def test_clamp_cases(spec):
    q = np.zeros(spec.joint_count)
    assert np.allclose(clamp_to_limits(spec, q), q)
    q_hi = spec.limits_hi + 1.0
    assert np.allclose(clamp_to_limits(spec, q_hi), spec.limits_hi)
    once = clamp_to_limits(spec, q_hi)
    assert np.array_equal(clamp_to_limits(spec, once), once)


def test_classify_exact_and_tie(spec, styles):
    for i, s in enumerate(styles):
        assert classify_style(spec, s.q_canonical, styles) == i
    # equidistant synthetic point between styles 0 and 1 resolves to 0
    qn0 = normalize_joints(spec, styles[0].q_canonical)
    qn1 = normalize_joints(spec, styles[1].q_canonical)
    mid_norm = 0.5 * (qn0 + qn1)
    mid = spec.limits_lo + mid_norm * (spec.limits_hi - spec.limits_lo)
    assert classify_style(spec, mid, styles[:2]) == 0


def test_classify_perturbation_below_half_gap(spec, styles):
    qn = [normalize_joints(spec, s.q_canonical) for s in styles]
    gaps = [
        np.linalg.norm(qn[i] - qn[j])
        for i in range(len(qn))
        for j in range(i + 1, len(qn))
    ]
    half_gap = min(gaps) / 2.0
    rng = np.random.default_rng(2)
    span = spec.limits_hi - spec.limits_lo
    for i, s in enumerate(styles):
        for _ in range(20):
            step = rng.normal(size=spec.joint_count)
            step = step / np.linalg.norm(step) * (0.9 * half_gap)
            q = s.q_canonical + step * span  # step is in normalized units
            assert classify_style(spec, q, styles) == i


@pytest.mark.parametrize("hand", ["inspire_like", "shadow_like"])
def test_classify_matches_per_style_formula(hand):
    """classify_style picks what the per-style formula picks, on random
    joint vectors and on points of the bisector of every pair of styles,
    where a distance that lost a bit flips the near-tie (an axis=-1 or
    einsum norm fails here); a vector gets the same style alone and among
    the others."""
    spec = load_hand_spec(default_hand_path(hand))
    styles = load_styles(default_styles_path(hand), spec)

    def per_style(q):
        qn = normalize_joints(spec, q)
        return int(np.argmin([float(np.linalg.norm(qn - normalize_joints(spec, s.q_canonical))) for s in styles]))

    rng = np.random.default_rng(11)
    span = spec.limits_hi - spec.limits_lo
    qs = list(rng.uniform(spec.limits_lo - 0.1 * span, spec.limits_hi + 0.1 * span, (200, spec.joint_count)))
    canon = [normalize_joints(spec, s.q_canonical) for s in styles]
    for i, a in enumerate(canon):
        for b in canon[i + 1 :]:
            u = (b - a) / np.linalg.norm(b - a)
            for _ in range(20):
                v = 0.1 * rng.normal(size=spec.joint_count)
                qs.append(spec.limits_lo + (0.5 * (a + b) + v - v.dot(u) * u) * span)
    expected = [per_style(q) for q in qs]
    assert [classify_style(spec, q, styles) for q in qs] == expected
    assert classify_style(spec, np.stack(qs), styles).tolist() == expected


def test_classify_permutation_invariant_value(spec, styles):
    rng = np.random.default_rng(3)
    q = rng.uniform(spec.limits_lo, spec.limits_hi)
    idx = classify_style(spec, q, styles)
    perm = [styles[2], styles[0], styles[3], styles[1]]
    idx_perm = classify_style(spec, q, perm)
    assert perm[idx_perm].id == styles[idx].id


def test_styles_hand_mismatch_rejected(tmp_path, spec):
    p = _write(tmp_path, "styles.json", {"hand": "other", "styles": [{"id": "a", "q": [0] * 6, "contact_mask": [0]}]})
    with pytest.raises(UserError, match="other"):
        load_styles(p, spec)


def test_style_out_of_limits_rejected(tmp_path, spec):
    q = [0.0] * spec.joint_count
    q[1] = 99.0
    p = _write(tmp_path, "styles.json", {"hand": spec.name, "styles": [{"id": "a", "q": q, "contact_mask": [0]}]})
    with pytest.raises(UserError, match="outside limits"):
        load_styles(p, spec)


@pytest.mark.parametrize("mask", [[0], [0, 0], [3, 3, 3]])
def test_style_mask_needs_two_distinct_fingers(tmp_path, spec, styles, mask):
    """A grasp succeeds only with two distinct mask fingers in contact, so
    a mask that names fewer is rejected, naming the style."""
    entries = [{"id": s.id, "q": s.q_canonical.tolist(), "contact_mask": list(s.contact_mask)} for s in styles]
    entries[1]["contact_mask"] = mask
    p = _write(tmp_path, "styles.json", {"hand": spec.name, "styles": entries})
    with pytest.raises(UserError, match=rf"styles\[1\] \('{styles[1].id}'\): contact_mask .* fewer than two"):
        load_styles(p, spec)


@pytest.mark.parametrize("where, value", [
    (("tip_radius",), [1]),
    (("segments", 0, "length"), None),
    (("segments", 0, "limits"), 5),
    (("segments", 1, "axis"), {}),
    (("segments", 1, "radius"), True),
])
def test_hand_numeric_fields_are_type_checked(tmp_path, where, value):
    """A numeric hand field of the wrong JSON type is a UserError that
    names the file and the field's path."""
    payload = json.loads(default_hand_path().read_text())
    node = payload["fingers"][0]
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    path = "fingers[0]" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in where)
    with pytest.raises(UserError, match=re.escape(f"hand.json: {path}: must be")):
        load_hand_spec(_write(tmp_path, "hand.json", payload))


@pytest.mark.parametrize("where, field", [
    (("tip_radius",), "tip_radius"), (("segments", 0, "length"), "segments[0].length"),
    (("segments", 1, "radius"), "segments[1].radius"), (("base", "t", 2), "base.t"),
])
def test_hand_lengths_are_bounded_by_the_desk_scale(tmp_path, where, field):
    """A hand length or base coordinate of LENGTH_MAX loads, and one just
    past it is a UserError that names the file and the field."""
    payload = json.loads(default_hand_path().read_text())
    node = payload["fingers"][0]
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = LENGTH_MAX
    load_hand_spec(_write(tmp_path, "hand.json", payload))
    node[where[-1]] = LENGTH_MAX * (1 + 1e-15)
    with pytest.raises(UserError, match=re.escape(f"hand.json: fingers[0].{field}: ") + ".*1 m"):
        load_hand_spec(_write(tmp_path, "hand.json", payload))


@pytest.mark.parametrize("field, value", [("contact_mask", [[0], [1]]), ("contact_mask", [0, 1.0]), ("q", {})])
def test_style_numeric_fields_are_type_checked(tmp_path, spec, styles, field, value):
    entries = [{"id": s.id, "q": s.q_canonical.tolist(), "contact_mask": list(s.contact_mask)} for s in styles]
    entries[2][field] = value
    p = _write(tmp_path, "styles.json", {"hand": spec.name, "styles": entries})
    with pytest.raises(UserError, match=re.escape(f"styles.json: styles[2].{field}: must be a list of")):
        load_styles(p, spec)
