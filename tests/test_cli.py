import json

import numpy as np
import pytest

from fungrasp.cli import main

from conftest import with_arrays


SUBCOMMANDS = ("train", "eval", "ablate", "collect", "sample-affordance", "demo", "check-gradients")


def test_help_lists_all_subcommands(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for name in SUBCOMMANDS:
        assert name in out


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
    ("collect", "nan", "array a_w1 holds non-finite values"),
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
    from fungrasp.objects import make_sphere, save_object_ply

    save_object_ply(make_sphere(name="ball"), tmp_path / "ball.ply")
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
    cfg_path = _write_config(tmp_path, iterations=1)
    for d in ("a", "b"):
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / d)]) == 0
        capsys.readouterr()
    a = (tmp_path / "a" / "metrics.jsonl").read_bytes()
    b = (tmp_path / "b" / "metrics.jsonl").read_bytes()
    assert a == b
    ca = (tmp_path / "a" / "checkpoint.json").read_bytes()
    cb = (tmp_path / "b" / "checkpoint.json").read_bytes()
    assert ca == cb


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
    ('{"seed": 1, "train": {"minibatch": "8"}}', "config 'train.minibatch' must be int, got '8'"),
    ('{"seed": 1, "train": {"reward": {"gamma": "4"}}}', "config 'train.reward.gamma' must be float, got '4'"),
    ('{"seed": 1, "train": {"bounds": {"b_t": null}}}', "config 'train.bounds.b_t' must be float, got None"),
    ("seed = 1", "c.json: cannot parse JSON"),
    ('{"seed": [1]}', "c.json: config 'seed' must be int, got [1]"),
    ('{"seed": true}', "c.json: config 'seed' must be int, got True"),
    ('{"seed": 1, "hand": 5}', "c.json: config 'hand' must be str, got 5"),
    ('{"seed": 1, "workers": "2"}', "c.json: config 'workers' must be int, got '2'"),
], ids=["train", "sim", "minibatch", "gamma", "b_t", "not_json", "seed_list", "seed_bool", "hand", "workers"])
def test_config_shape_and_type_errors_are_user_errors(tmp_path, capsys, text, named):
    path = tmp_path / "c.json"
    path.write_text(text)
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert named in err and "internal error" not in err
    assert not (tmp_path / "run" / "metrics.jsonl").exists()


@pytest.mark.parametrize("argv, text", [
    (["eval", "--checkpoint", "{file}"], "[1, 2]"),
    (["demo", "inspect", "--demo", "{file}"], "[]"),
    (["demo", "inspect", "--hand", "{file}"], "[]"),
    (["train", "--styles", "{file}"], "[]"),
], ids=["checkpoint", "demo", "hand", "styles"])
def test_non_object_json_files_are_user_errors(tmp_path, capsys, argv, text):
    path = tmp_path / "x.json"
    path.write_text(text)
    argv = [a.replace("{file}", str(path)) for a in argv]
    code = main([*argv, "--config", str(_write_config(tmp_path)), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1
    assert f"{path}: the top level must be a JSON object, not list" in err and "internal error" not in err


@pytest.mark.parametrize("argv, data, entry", [
    (["demo", "inspect", "--hand", "{file}"], {"name": "h", "fingers": [1]}, "fingers[0]"),
    (["demo", "inspect", "--hand", "{file}"], {"name": "h", "fingers": [{"base": {"t": [0, 0, 0], "r": [1, 0, 0, 0]}, "tip_radius": 0.01, "segments": [2]}]}, "fingers[0].segments[0]"),
    (["demo", "inspect", "--demo", "{file}"], {"hand": "inspire_like", "frames": [1, 2, 3]}, "frames[0]"),
    (["train", "--styles", "{file}"], {"hand": "inspire_like", "styles": [1]}, "styles[0]"),
], ids=["fingers", "segments", "frames", "styles"])
def test_non_object_entries_are_user_errors(tmp_path, capsys, argv, data, entry):
    path = tmp_path / "x.json"
    path.write_text(json.dumps(data))
    argv = [a.replace("{file}", str(path)) for a in argv]
    code = main([*argv, "--config", str(_write_config(tmp_path)), "--out", str(tmp_path / "o")])
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
    for train, field in (({"iterations": -3}, "iterations"), ({"workers": 0}, "workers"),
                         ({"sim": {"mu": 0.0}}, "mu"), ({"m_points": 4000}, "m_points")):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 1, "train": {"envs_per_iter": 8, "minibatch": 8, **train}}))
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
        assert field in capsys.readouterr().err
        assert not (tmp_path / "run" / "checkpoint.json").exists()


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
