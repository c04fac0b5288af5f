"""scripts/make_assets.py, imported by path: its replay check runs the
package's own batched FK and rollout on the bundled assets, and its
builders and writers give the bundled files."""

import json

import numpy as np

from conftest import _load_script
from fungrasp.assets import default_hand_path, default_objects_dir


def test_replay_success_on_the_box(spec, styles, demo, objects):
    make_assets = _load_script()
    assert make_assets.replay_success(spec, styles, demo, objects["box"]) == (True, "ok")


def test_flexion_solve_reaches_its_target(spec):
    make_assets = _load_script()
    q = np.zeros(spec.joint_count)
    target = make_assets.BOX_FACE + 0.0045
    angle = make_assets.solve_flexion(spec, q, 1, (3,), target, toward_neg=True)
    q[3] = angle
    tip_x = make_assets._fingertips(spec, q[None])[0, 1, 0]
    assert abs(tip_x - target) < 1e-9


def test_builders_write_the_bundled_plys(tmp_path):
    """The script's five builders, written with its PLY writer, give the
    bundled object files byte for byte: the script and the assets
    cannot drift apart."""
    make_assets = _load_script()
    for name, obj in make_assets.toy_suite().items():
        make_assets.save_object_ply(obj, tmp_path / f"{name}.ply")
    bundled = sorted(default_objects_dir().glob("*.ply"))
    assert sorted(p.name for p in tmp_path.iterdir()) == [p.name for p in bundled]
    for path in bundled:
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


def test_builders_write_the_bundled_hands():
    """The script's hand builders, written as its main writes them, give
    the bundled hand files byte for byte."""
    make_assets = _load_script()
    for build in (make_assets.inspire_like_hand, make_assets.shadow_like_hand):
        hand = build()
        assert json.dumps(hand, indent=1) == default_hand_path(hand["name"]).read_text(), hand["name"]
