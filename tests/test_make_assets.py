"""scripts/make_assets.py, imported by path: its replay check runs the
package's own batched FK and rollout on the bundled assets."""

import importlib.util
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "make_assets.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("make_assets", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
