import argparse
import json
import shutil

import numpy as np
import pytest

from fungrasp.assets import default_demo_path, default_hand_path, default_objects_dir, default_styles_path
from fungrasp.cli import SETTINGS, build_parser, main

from conftest import with_arrays


SUBCOMMANDS = ("train", "eval", "ablate", "collect", "sample-affordance", "demo", "check-gradients")


def test_help_lists_all_subcommands(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for name in SUBCOMMANDS:
        assert name in out


RUN = ("seed", "workers", "objects", "demo", "hand", "styles", "out")
# the settings each subcommand reads, and the flags it needs besides
TAKES = {
    "train": RUN,
    "eval": (*RUN, "checkpoint", "episodes"),
    "ablate": RUN,
    "collect": (*RUN, "checkpoint", "episodes"),
    "sample-affordance": ("seed", "objects"),
    "demo inspect": ("hand", "demo"),
    "check-gradients": ("seed",),
}
NEEDS = {"ablate": ["--component", "afford"]}


def _flags(parser, prefix="") -> dict[str, set]:
    """The long flags of every subcommand, walked from the parser."""
    found = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                command = f"{prefix} {name}".strip()
                flags = {o for a in sub._actions for o in a.option_strings if o.startswith("--") and o != "--help"}
                if flags:
                    found[command] = flags
                found |= _flags(sub, command)
    return found


def test_each_subcommand_takes_the_settings_it_reads():
    flags = _flags(build_parser())
    own = {"eval": {"--exhaustive-styles", "--strict-success"}, "ablate": {"--component"},
           "collect": {"--success-only"}, "sample-affordance": {"--object"}, "check-gradients": {"--params"}}
    assert flags == {
        command: {"--config", *(f"--{s}" for s in settings), *own.get(command, ())}
        for command, settings in TAKES.items()
    }
    assert sum(map(len, flags.values())) == 50


@pytest.mark.parametrize("command, setting", [
    (command, setting) for command, settings in TAKES.items() for setting in SETTINGS if setting not in settings
])
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(tmp_path, capsys, command, setting):
    seed = ["--seed", "1"] if "seed" in TAKES[command] else []
    value = "1" if SETTINGS[setting][0] is int else str(tmp_path)
    assert main([*command.split(), *NEEDS.get(command, []), *seed, f"--{setting}", value]) == 1
    out, err = capsys.readouterr()
    assert out == "" and f"unrecognized arguments: --{setting} {value}" in err


@pytest.mark.parametrize("command, setting", [
    (command, setting) for command, settings in TAKES.items()
    for setting in ("hand", "styles", "demo", "objects") if setting in settings
])
def test_a_missing_input_path_has_one_message(tmp_path, capsys, command, setting):
    """Every subcommand that reads a hand, styles, demo or objects path
    names a missing one the same way."""
    missing = tmp_path / "nope"
    argv = [*command.split(), *NEEDS.get(command, []), f"--{setting}", str(missing)]
    argv += ["--seed", "1"] if "seed" in TAKES[command] else []
    argv += ["--out", str(tmp_path / "o")] if "out" in TAKES[command] else []
    assert main(argv) == 1
    err = capsys.readouterr().err
    named = "objects directory" if setting == "objects" else "asset file"
    assert f"error: {named} not found: {missing}\n" in err and "internal error" not in err


@pytest.mark.parametrize("command", ["train", "sample-affordance", "demo inspect", "check-gradients"])
def test_a_config_may_hold_settings_the_subcommand_does_not_read(tmp_path, capsys, command):
    """One config file serves every subcommand: each setting the
    subcommand does not read holds a value it would reject, and the run
    still succeeds."""
    (tmp_path / "file").write_text("")
    unread = {"seed": -1, "workers": 0, "objects": str(tmp_path / "nope"), "demo": str(tmp_path / "nope.json"),
              "hand": str(tmp_path / "nope.json"), "styles": str(tmp_path / "nope.json"),
              "out": str(tmp_path / "file"), "checkpoint": str(tmp_path / "nope.json"), "episodes": 0}
    read = {"seed": 3, "workers": 1, "hand": str(default_hand_path()), "styles": str(default_styles_path()),
            "demo": str(default_demo_path()), "out": str(tmp_path / "o")}
    config = {k: v for k, v in unread.items() if k not in TAKES[command]}
    config |= {k: v for k, v in read.items() if k in TAKES[command]}
    config["train"] = {"envs_per_iter": 8, "minibatch": 8, "epochs": 1, "iterations": 1, "m_points": 32}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    params = ["--params", "5"] if command == "check-gradients" else []
    assert main([*command.split(), "--config", str(path), *params]) == 0, capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", ["train", "eval", "ablate", "collect", "sample-affordance", "check-gradients"])
def test_a_negative_seed_is_a_named_user_error(tmp_path, capsys, command, source):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"seed": -1}))
    seed = ["--seed", "-1"] if source == "flag" else ["--config", str(path)]
    out = ["--out", str(tmp_path / "o")] if "out" in TAKES[command] else []
    assert main([command, *NEEDS.get(command, []), *seed, *out]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "error: --seed must be >= 0, got -1\n" in err


def test_unknown_subcommand_exits_1(capsys):
    assert main(["frobnicate"]) == 1


def test_missing_config_exits_1(capsys):
    assert main(["train", "--config", "missing.json", "--seed", "1"]) == 1
    assert "missing.json" in capsys.readouterr().err


def test_out_path_that_is_a_file_exits_1(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["train", "--seed", "1", "--out", str(out)]) == 1
    assert f"output path exists and is not a directory: {out}" in capsys.readouterr().err


def test_train_requires_seed(capsys):
    assert main(["train"]) == 1
    assert "seed" in capsys.readouterr().err


def test_check_gradients_passes_gate(capsys):
    assert main(["check-gradients", "--seed", "7"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    assert payload["max_relative_error"] < 1e-4


@pytest.mark.parametrize("count", ["0", "-3"])
def test_check_gradients_needs_a_parameter_to_check(count, capsys):
    """A --params below 1 checks nothing: a named user error, no verdict."""
    assert main(["check-gradients", "--seed", "1", "--params", count]) == 1
    out, err = capsys.readouterr()
    assert out == "" and f"error: --params must be >= 1, got {count}" in err


def test_sample_affordance_schema_and_determinism(capsys):
    assert main(["sample-affordance", "--seed", "3", "--object", "mug"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(["sample-affordance", "--seed", "3", "--object", "mug"]) == 0
    second = json.loads(capsys.readouterr().out)
    assert first == second
    assert set(first) == {"object", "seed", "point", "index"}
    assert first["object"] == "mug"
    assert len(first["point"]) == 3


def test_sample_affordance_unknown_object(capsys):
    assert main(["sample-affordance", "--seed", "3", "--object", "teapot"]) == 1


def test_demo_inspect(capsys):
    assert main(["demo", "inspect"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["T_D"] == 40
    assert payload["T_l"] == 30
    assert payload["J"] == 6


def _write_config(tmp_path, **train_overrides):
    train = dict(envs_per_iter=8, minibatch=8, epochs=1, iterations=2, m_points=32)
    train.update(train_overrides)
    cfg = {"seed": 13, "train": train}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.slow
def test_train_eval_collect_pipeline(tmp_path, capsys):
    cfg_path = _write_config(tmp_path)
    out_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    ckpt = out_dir / "checkpoint.json"
    assert ckpt.exists()

    assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                 "--episodes", "10", "--out", str(tmp_path / "eval")]) == 0
    metrics = json.loads(capsys.readouterr().out)
    assert 0.0 <= metrics["gsr"] <= 1.0
    report = json.loads((tmp_path / "eval" / "report.json").read_text())
    assert report["metrics"]["gsr"] == metrics["gsr"]
    assert (tmp_path / "eval" / "episodes.jsonl").exists()

    assert main(["collect", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                 "--episodes", "6", "--success-only", "--out", str(tmp_path / "coll")]) == 0
    manifest = json.loads(capsys.readouterr().out)
    assert manifest["success_only"] is True
    assert (tmp_path / "coll" / "rollouts.jsonl").exists()


def test_eval_checkpoint_hand_mismatch(tmp_path, capsys):
    from fungrasp.dataio import save_checkpoint
    from fungrasp.policy import init_params

    params = init_params(np.random.default_rng(0), 32, 9, 22)
    ckpt = tmp_path / "wrong.json"
    save_checkpoint(params, {"hand": "shadow_like"}, ckpt)
    cfg_path = _write_config(tmp_path)
    code = main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                 "--episodes", "4", "--out", str(tmp_path / "e")])
    assert code == 1
    assert "hand" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "collect"])
def test_checkpoint_joint_count_mismatch_is_a_user_error(tmp_path, capsys, command):
    from fungrasp.dataio import save_checkpoint
    from fungrasp.policy import init_params

    # hand name and style count match the bundled inspire_like (J=6); J does not
    ckpt = tmp_path / "j5.json"
    save_checkpoint(init_params(np.random.default_rng(0), 32, 4, 5), {"hand": "inspire_like"}, ckpt)
    cfg_path = _write_config(tmp_path)
    code = main([command, "--config", str(cfg_path), "--checkpoint", str(ckpt),
                 "--episodes", "4", "--out", str(tmp_path / "e")])
    err = capsys.readouterr().err
    assert code == 1
    assert "joint_count=5" in err and "joint_count=6" in err and "internal error" not in err


@pytest.mark.parametrize("command, defect, named", [
    ("eval", "joint_count", "array mean_w has 1536 values"),
    ("collect", "nan", "arrays.a_w1: must be a list of finite numbers, got nan at [0]"),
])
def test_invalid_checkpoint_arrays_are_user_errors(tmp_path, capsys, command, defect, named):
    from fungrasp.dataio import save_checkpoint
    from fungrasp.policy import init_params

    ckpt = tmp_path / "bad.json"
    if defect == "joint_count":
        # arrays saved for J=5; the stored joint_count edited to the hand's 6
        save_checkpoint(init_params(np.random.default_rng(0), 32, 4, 5), {"hand": "inspire_like"}, ckpt)
        payload = json.loads(ckpt.read_text())
        payload["joint_count"] = 6
        ckpt.write_text(json.dumps(payload))
    else:
        params = init_params(np.random.default_rng(0), 32, 4, 6)
        a_w1 = params.a_w1.copy()
        a_w1[0, 0] = np.nan
        save_checkpoint(with_arrays(params, a_w1=a_w1), {"hand": "inspire_like"}, ckpt)
    cfg_path = _write_config(tmp_path)
    code = main([command, "--config", str(cfg_path), "--checkpoint", str(ckpt),
                 "--episodes", "4", "--out", str(tmp_path / "e")])
    err = capsys.readouterr().err
    assert code == 1
    assert named in err and "internal error" not in err


def test_collect_into_an_unwritable_rollouts_path_is_a_user_error(tmp_path, capsys):
    from fungrasp.dataio import save_checkpoint
    from fungrasp.policy import init_params

    ckpt = tmp_path / "ckpt.json"
    save_checkpoint(init_params(np.random.default_rng(0), 32, 4, 6), {"hand": "inspire_like"}, ckpt)
    out = tmp_path / "coll"
    (out / "rollouts.jsonl").mkdir(parents=True)
    code = main(["collect", "--config", str(_write_config(tmp_path)), "--checkpoint", str(ckpt),
                 "--episodes", "2", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert f"export to {out / 'rollouts.jsonl'} failed" in err and "internal error" not in err
    assert not list(out.glob("*.tmp"))


def test_sample_affordance_reads_an_objects_directory(tmp_path, capsys):
    shutil.copy(default_objects_dir() / "sphere.ply", tmp_path / "ball.ply")
    assert main(["sample-affordance", "--seed", "3", "--objects", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out)["object"] == "ball"
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["sample-affordance", "--seed", "3", "--objects", str(empty)]) == 1
    assert "no .ply objects" in capsys.readouterr().err
    (empty / "hollow.ply").write_text(
        "ply\nformat ascii 1.0\nelement vertex 0\nproperty float x\nproperty float y\nproperty float z\nend_header\n"
    )
    assert main(["sample-affordance", "--seed", "3", "--objects", str(empty)]) == 1
    err = capsys.readouterr().err
    assert "error: hollow: needs at least" in err and "internal error" not in err


def test_flags_override_config(tmp_path, capsys):
    # seed given only by flag; config file supplies the rest
    cfg = {"train": {"envs_per_iter": 8, "minibatch": 8, "iterations": 1, "m_points": 32}}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main(["sample-affordance", "--config", str(path), "--seed", "21"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 21


def test_reproducible_outputs(tmp_path, capsys):
    """Two runs write the same bytes, and so does a run given the
    bundled objects directory: it is the default."""
    cfg_path = _write_config(tmp_path, iterations=1)
    for d, extra in (("a", []), ("b", []), ("c", ["--objects", str(default_objects_dir())])):
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / d), *extra]) == 0
        capsys.readouterr()
    for name in ("metrics.jsonl", "checkpoint.json"):
        a, b, c = ((tmp_path / d / name).read_bytes() for d in "abc")
        assert a == b == c, name


@pytest.mark.parametrize("config, key", [
    ({"seed": 1, "iterations": 5}, "iterations"),
    ({"seed": 1, "train": {"iteratons": 1}}, "iteratons"),
    ({"seed": 1, "train": {"reward": {"lambda_afford_x": 1.0}}}, "lambda_afford_x"),
    ({"seed": 1, "train": {"bounds": {"b_x": 0.1}}}, "b_x"),
    ({"seed": 1, "train": {"sim": {"friction": 0.5}}}, "friction"),
])
def test_unknown_config_key_is_a_named_user_error(tmp_path, capsys, config, key):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert key in err and "unknown config key" in err and "internal error" not in err
    assert not (tmp_path / "run" / "metrics.jsonl").exists()


@pytest.mark.parametrize("text, named", [
    ('{"seed": 1, "train": 5}', "config 'train' must be an object, got 5"),
    ('{"seed": 1, "train": {"sim": 3}}', "config 'train.sim' must be an object, got 3"),
    ('{"seed": 1, "train": {"minibatch": "8"}}', "config 'train.minibatch': must be an integer, got '8'"),
    ('{"seed": 1, "train": {"reward": {"gamma": "4"}}}', "config 'train.reward.gamma': must be a finite number, got '4'"),
    ('{"seed": 1, "train": {"bounds": {"b_t": null}}}', "config 'train.bounds.b_t': must be a finite number, got None"),
    ("seed = 1", "c.json: cannot parse JSON"),
    ('{"seed": [1]}', "c.json: config 'seed': must be an integer, got [1]"),
    ('{"seed": true}', "c.json: config 'seed': must be an integer, got True"),
    ('{"seed": %d}' % 10**400, "c.json: config 'seed': must be an integer, got 1000"),
    ('{"seed": 1, "hand": 5}', "c.json: config 'hand': must be a string, got 5"),
    ('{"seed": 1, "workers": "2"}', "c.json: config 'workers': must be an integer, got '2'"),
], ids=["train", "sim", "minibatch", "gamma", "b_t", "not_json", "seed_list", "seed_bool", "seed_huge", "hand",
        "workers"])
def test_config_shape_and_type_errors_are_user_errors(tmp_path, capsys, text, named):
    path = tmp_path / "c.json"
    path.write_text(text)
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert named in err and "internal error" not in err
    assert not (tmp_path / "run" / "metrics.jsonl").exists()


@pytest.mark.parametrize("literal, shown", [("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"), ("1e999", "inf")])
@pytest.mark.parametrize("section, key", [
    ("train", "learning_rate"), ("train.reward", "gamma"), ("train.bounds", "b_t"), ("train.sim", "mu"),
])
def test_non_finite_config_numbers_are_user_errors(tmp_path, capsys, literal, shown, section, key):
    """json reads NaN, Infinity and an overflowing number as floats; a
    config section rejects each, naming the key, before any episode runs."""
    value = f'{{"{key}": {literal}}}'
    for name in reversed(section.split(".")[1:]):
        value = f'{{"{name}": {value}}}'
    path = tmp_path / "c.json"
    path.write_text(f'{{"seed": 1, "train": {value}}}')
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert f"config '{section}.{key}': must be a finite number, got {shown}" in err and "internal error" not in err
    assert not (tmp_path / "run" / "metrics.jsonl").exists()


def _fill(argv, tmp_path, path):
    """argv with {file} as path and {out} as an output directory."""
    return [a.replace("{file}", str(path)).replace("{out}", str(tmp_path / "o")) for a in argv]


@pytest.mark.parametrize("argv, text", [
    (["eval", "--checkpoint", "{file}", "--out", "{out}"], "[1, 2]"),
    (["demo", "inspect", "--demo", "{file}"], "[]"),
    (["demo", "inspect", "--hand", "{file}"], "[]"),
    (["train", "--styles", "{file}", "--out", "{out}"], "[]"),
], ids=["checkpoint", "demo", "hand", "styles"])
def test_non_object_json_files_are_user_errors(tmp_path, capsys, argv, text):
    path = tmp_path / "x.json"
    path.write_text(text)
    code = main([*_fill(argv, tmp_path, path), "--config", str(_write_config(tmp_path))])
    err = capsys.readouterr().err
    assert code == 1
    assert f"{path}: the top level must be a JSON object, not list" in err and "internal error" not in err


@pytest.mark.parametrize("argv, data, entry", [
    (["demo", "inspect", "--hand", "{file}"], {"name": "h", "fingers": [1]}, "fingers[0]"),
    (["demo", "inspect", "--hand", "{file}"], {"name": "h", "fingers": [{"base": {"t": [0, 0, 0], "r": [1, 0, 0, 0]}, "tip_radius": 0.01, "segments": [2]}]}, "fingers[0].segments[0]"),
    (["demo", "inspect", "--demo", "{file}"], {"hand": "inspire_like", "frames": [1, 2, 3]}, "frames[0]"),
    (["train", "--styles", "{file}", "--out", "{out}"], {"hand": "inspire_like", "styles": [1]}, "styles[0]"),
], ids=["fingers", "segments", "frames", "styles"])
def test_non_object_entries_are_user_errors(tmp_path, capsys, argv, data, entry):
    path = tmp_path / "x.json"
    path.write_text(json.dumps(data))
    code = main([*_fill(argv, tmp_path, path), "--config", str(_write_config(tmp_path))])
    err = capsys.readouterr().err
    assert code == 1
    assert f"{path}: {entry}: must be an object, not int" in err and "internal error" not in err


def test_style_mask_of_one_finger_is_a_user_error(tmp_path, capsys):
    from fungrasp.assets import default_styles_path

    data = json.loads(default_styles_path().read_text())
    data["styles"][0]["contact_mask"] = [0, 0]
    path = tmp_path / "styles.json"
    path.write_text(json.dumps(data))
    code = main(["train", "--styles", str(path), "--config", str(_write_config(tmp_path)), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1
    assert "styles[0]" in err and "fewer than two distinct fingers" in err and "internal error" not in err
    assert not (tmp_path / "o").exists()


def test_out_of_range_config_values_are_user_errors(tmp_path, capsys):
    for top, train, field in (({}, {"iterations": -3}, "iterations"), ({"workers": 0}, {}, "workers"),
                              ({}, {"sim": {"mu": 0.0}}, "mu"), ({}, {"m_points": 4000}, "m_points"),
                              ({}, {"m_points": 0}, "m_points"), ({}, {"m_points": -1}, "m_points"),
                              ({}, {"epochs": -1}, "epochs")):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 1, **top, "train": {"envs_per_iter": 8, "minibatch": 8, **train}}))
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
        assert field in capsys.readouterr().err
        assert not (tmp_path / "run" / "checkpoint.json").exists()


@pytest.mark.parametrize("key, value", [("seed", 99), ("workers", 2)])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_seed_or_workers_in_the_train_section_is_a_user_error(tmp_path, capsys, command, key, value):
    """TrainConfig has seed and workers fields, but only the top-level
    settings set them: the train section's would be discarded or
    overridden, so the run refuses them and names the top-level key."""
    path = _write_config(tmp_path, **{key: value})
    argv = [command, "--config", str(path), "--out", str(tmp_path / "run")]
    assert main([*argv, "--checkpoint", str(tmp_path / "nope.json")] if command == "eval" else argv) == 1
    err = capsys.readouterr().err
    assert f"config 'train.{key}': not a train setting; set the top-level config '{key}' or --{key}" in err
    assert "internal error" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("error, shown", [(KeyError, "KeyError: 'lost'"), (ValueError, "ValueError: lost")],
                         ids=["KeyError", "ValueError"])
def test_a_key_error_in_the_engine_is_an_internal_error(tmp_path, capsys, monkeypatch, error, shown):
    """Only a UserError or an OSError is a user error: a KeyError or a
    plain ValueError, such as a numpy shape error, raised inside the
    engine exits 2."""
    from fungrasp import training

    def broken(*args):
        raise error("lost")

    monkeypatch.setattr(training, "rollout_batch", broken)
    assert main(["train", "--config", str(_write_config(tmp_path)), "--out", str(tmp_path / "run")]) == 2
    assert f"internal error: {shown}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "collect"])
def test_an_episode_count_past_the_bound_is_a_named_user_error(tmp_path, capsys, command):
    from fungrasp.dataio import save_checkpoint
    from fungrasp.policy import init_params

    ckpt = tmp_path / "init.json"
    save_checkpoint(init_params(np.random.default_rng(0), 32, 4, 6), {"hand": "inspire_like"}, ckpt)
    code = main([command, "--config", str(_write_config(tmp_path)), "--checkpoint", str(ckpt),
                 "--episodes", str(10**20), "--out", str(tmp_path / "e")])
    err = capsys.readouterr().err
    assert code == 1
    assert "n_episodes must be <= 2147483647, got 100000000000000000000" in err and "internal error" not in err


def test_eval_report_counts_outcomes(tmp_path, capsys):
    from fungrasp.dataio import save_checkpoint
    from fungrasp.policy import init_params
    from fungrasp.training import OUTCOMES

    ckpt = tmp_path / "init.json"
    save_checkpoint(init_params(np.random.default_rng(0), 32, 4, 6), {"hand": "inspire_like"}, ckpt)
    cfg_path = _write_config(tmp_path)
    assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                 "--episodes", "12", "--out", str(tmp_path / "e")]) == 0
    metrics = json.loads(capsys.readouterr().out)
    report = json.loads((tmp_path / "e" / "report.json").read_text())
    assert tuple(report["outcomes"]) == OUTCOMES
    assert sum(report["outcomes"].values()) == 12
    assert report["outcomes"]["ok"] == metrics["n_success"]
