import json

import numpy as np
import pytest

from fungrasp.cli import main
from fungrasp.training import TrainConfig, config_to_dict


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
