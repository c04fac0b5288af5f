"""The CLI on the bundled hand, styles and demo JSON with one field, at
any depth, retyped: every run succeeds or ends in a named user error
(exit 0 or 1), never in an internal error (exit 2). So do a run config
and a checkpoint with a retyped number."""

import contextlib
import copy
import io
import json
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np

from fungrasp import cli
from fungrasp.assets import default_demo_path, default_hand_path, default_styles_path
from fungrasp.dataio import save_checkpoint
from fungrasp.policy import init_params

# 10**400 is a JSON integer that no float holds
RETYPED = (None, [], [1], "x", True, {}, 2.5, -1, 10**400)
TRAIN = {"train": {"iterations": 0, "envs_per_iter": 8, "minibatch": 8, "m_points": 32}}
FUZZ = settings(max_examples=25, deadline=None, derandomize=True)


def _paths(node, prefix=()):
    """Every key and index path into a JSON document, the root excluded."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _bundled(path):
    doc = json.loads(path.read_text())
    return doc, list(_paths(doc))


HAND, HAND_PATHS = _bundled(default_hand_path())
DEMO, DEMO_PATHS = _bundled(default_demo_path())
STYLES, STYLES_PATHS = _bundled(default_styles_path())


def _exit_code(tmp_path_factory, doc, path, value, command):
    """cli.main's exit code for `command` (with {dir} standing for the
    files' directory) run on doc with the field at path set to value.
    An argv that argparse rejects fails the test: it exits 1 too, but
    without loading the file."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    out = tmp_path_factory.mktemp("fuzz")
    (out / "doc.json").write_text(json.dumps(doc))
    (out / "config.json").write_text(json.dumps(TRAIN))
    argv = [arg.format(dir=out) for arg in command]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    sys.stderr.write(err.getvalue())
    assert "usage:" not in err.getvalue(), f"argparse rejected {argv}: {err.getvalue()}"
    return code


@FUZZ
@given(path=st.sampled_from(HAND_PATHS), value=st.sampled_from(RETYPED))
@example(path=("fingers", 0, "tip_radius"), value=[1])
@example(path=("fingers", 0, "segments", 0, "length"), value=None)
@example(path=("fingers", 0, "segments", 0, "limits"), value=-1)
@example(path=("fingers", 0, "name"), value=None)
@example(path=("fingers", 1, "name"), value={})
@example(path=("fingers", 2, "name"), value=2.5)
@example(path=("fingers", 0, "segments", 0, "length"), value=10**400)
def test_retyped_hand_field_is_never_an_internal_error(tmp_path_factory, path, value):
    code = _exit_code(tmp_path_factory, HAND, path, value, ["demo", "inspect", "--hand", "{dir}/doc.json"])
    assert code in (0, 1)


@FUZZ
@given(path=st.sampled_from(DEMO_PATHS), value=st.sampled_from(RETYPED))
@example(path=("T_l",), value=[1])
@example(path=("T_l",), value=None)
@example(path=("frames", 0, "q"), value={})
@example(path=("T_l",), value=-1)
def test_retyped_demo_field_is_never_an_internal_error(tmp_path_factory, path, value):
    code = _exit_code(tmp_path_factory, DEMO, path, value, ["demo", "inspect", "--demo", "{dir}/doc.json"])
    assert code in (0, 1)


@FUZZ
@given(path=st.sampled_from(STYLES_PATHS), value=st.sampled_from(RETYPED))
@example(path=("styles", 0, "contact_mask", 0), value=[1])
@example(path=("styles", 0, "q"), value={})
@example(path=("styles", 0, "id"), value=None)
@example(path=("styles", 1, "id"), value={})
@example(path=("styles", 2, "id"), value=2.5)
def test_retyped_styles_field_is_never_an_internal_error(tmp_path_factory, path, value):
    command = ["train", "--seed", "1", "--config", "{dir}/config.json", "--styles", "{dir}/doc.json",
               "--out", "{dir}/run"]
    assert _exit_code(tmp_path_factory, STYLES, path, value, command) in (0, 1)



DEMO_INSPECT = ["demo", "inspect"]
TRAIN_STYLES = ["train", "--seed", "1", "--config", "{dir}/config.json", "--styles", "{dir}/doc.json",
                "--out", "{dir}/run"]


@pytest.mark.parametrize("doc, command, path, value, field", [
    *((HAND, [*DEMO_INSPECT, "--hand", "{dir}/doc.json"], ("fingers", 1, "name"), v, "fingers[1].name")
      for v in (None, {}, 2.5, "")),
    *((STYLES, TRAIN_STYLES, ("styles", 2, "id"), v, "styles[2].id") for v in (None, {}, 2.5, "")),
    *((DEMO, [*DEMO_INSPECT, "--demo", "{dir}/doc.json"], ("T_l",), v, "T_l") for v in (-1, 0, 41)),
])
def test_names_and_grasp_index_fail_as_named_user_errors(tmp_path_factory, capsys, doc, command, path, value,
                                                         field):
    """A finger name or style id that is no non-empty string, and a T_l
    outside (0, T_D], exit 1 with an error naming the file and the
    field."""
    assert _exit_code(tmp_path_factory, doc, path, value, command) == 1
    err = capsys.readouterr().err
    assert f"doc.json: {field}: " in err and "internal error" not in err


@pytest.mark.parametrize("doc, option, path, value, message", [
    (HAND, "--hand", ("fingers", 0, "base", "t"), [0.0, 0.0], "fingers[0].base: t must have shape (3,), got (2,)"),
    (HAND, "--hand", ("fingers", 1, "base", "r"), [1.0, 0.0, 0.0], "fingers[1].base: r must have shape (4,), got (3,)"),
    (HAND, "--hand", ("fingers", 2, "base", "r"), [1.0, 0.0, 2e-3, 0.0],
     "fingers[2].base: quaternion norm 1.000e+00 too far from 1"),
    (DEMO, "--demo", ("frames", 3, "p", "r"), [0, 0, 0, 0], "frames[3].p: quaternion norm 0.000e+00 too far from 1"),
], ids=["hand-t-length", "hand-r-length", "hand-r-norm", "demo-r-zero"])
def test_pose_fields_fail_as_named_user_errors(tmp_path_factory, capsys, doc, option, path, value, message):
    """A pose whose t or r has the wrong length, or whose quaternion norm
    is more than 1e-6 from 1, exits 1 with an error naming the file and
    the pose."""
    assert _exit_code(tmp_path_factory, doc, path, value, [*DEMO_INSPECT, option, "{dir}/doc.json"]) == 1
    assert f"doc.json: {message}\n" in capsys.readouterr().err


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """A checkpoint for the bundled hand at TRAIN's m_points, as JSON."""
    path = tmp_path_factory.mktemp("checkpoint") / "checkpoint.json"
    params = init_params(np.random.default_rng(0), TRAIN["train"]["m_points"], 4, 6)
    save_checkpoint(params, {"hand": "inspire_like"}, path)
    return json.loads(path.read_text())


EVAL = ["eval", "--seed", "1", "--config", "{dir}/config.json", "--checkpoint", "{dir}/doc.json",
        "--episodes", "2", "--out", "{dir}/run"]


@pytest.mark.parametrize("doc, command, path, value, message", [
    (HAND, [*DEMO_INSPECT, "--hand", "{dir}/doc.json"], ("fingers", 0, "segments", 0, "length"), 10**400,
     "doc.json: fingers[0].segments[0].length: must be a finite number, got 1000"),
    (TRAIN, ["train", "--seed", "1", "--config", "{dir}/doc.json", "--out", "{dir}/run"],
     ("train", "learning_rate"), 10**400, "config 'train.learning_rate': must be a finite number, got 1000"),
    (TRAIN, ["train", "--seed", "1", "--config", "{dir}/doc.json", "--out", "{dir}/run"],
     ("train", "envs_per_iter"), 10**20, "envs_per_iter must be <= 2147483647, got 100000000000000000000"),
    (TRAIN, ["train", "--seed", "1", "--config", "{dir}/doc.json", "--out", "{dir}/run"],
     ("workers",), 2**31, "workers must be <= 2147483647, got 2147483648"),
    ("checkpoint", EVAL, ("m_points",), "32", "doc.json: m_points: must be an integer, got '32'"),
    ("checkpoint", EVAL, ("style_count",), 4.9, "doc.json: style_count: must be an integer, got 4.9"),
    ("checkpoint", EVAL, ("arrays", "a_w1", 2), "0.5",
     "doc.json: arrays.a_w1: must be a list of finite numbers, got '0.5' at [2]"),
    ("checkpoint", EVAL, ("arrays", "v_b3", 0), True,
     "doc.json: arrays.v_b3: must be a list of finite numbers, got True at [0]"),
], ids=["hand-huge-length", "config-huge-learning-rate", "config-huge-count", "config-count-past-bound",
        "checkpoint-str-count", "checkpoint-float-count", "checkpoint-str-entry", "checkpoint-bool-entry"])
def test_retyped_numbers_fail_as_named_user_errors(tmp_path_factory, capsys, checkpoint, doc, command, path, value,
                                                   message):
    """An integer that no float holds, a config count above
    training.COUNT_MAX, a count that is no JSON integer and an array
    entry that is no number each exit 1 with an error that names the
    file or config key and the field."""
    doc = checkpoint if doc == "checkpoint" else doc
    assert _exit_code(tmp_path_factory, doc, path, value, command) == 1
    err = capsys.readouterr().err
    assert message in err and "internal error" not in err
