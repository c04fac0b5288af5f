"""The bytes of a small CLI run's outputs, pinned by sha256.

Criterion 11 compares two worker counts within one commit; nothing else
catches a last-digit drift in, say, the reward-term means of
metrics.jsonl. These digests were recorded before a change that must
keep every output's bits; re-record them only in a change that says why
its outputs move.
"""

import hashlib
import json

import pytest

from fungrasp.assets import default_demo_path, default_hand_path, default_styles_path
from fungrasp.cli import main

TRAIN = dict(envs_per_iter=24, minibatch=12, epochs=2, iterations=4, m_points=32,
             eval_every=2, eval_episodes=12)

DIGESTS = {
    "inspire_like": {
        "train_w1/metrics.jsonl": "8f7b1d4f436913a24a800cc661285b6478dd2252788472a93abcc54895ee8c5d",
        "train_w1/checkpoint.json": "3c6af1e671673ff5c3d8a2891a09ba6723d4ab05ac0f60d3d0a39ce9ed38f8a7",
        "train_w2/metrics.jsonl": "8f7b1d4f436913a24a800cc661285b6478dd2252788472a93abcc54895ee8c5d",
        "train_w2/checkpoint.json": "3c6af1e671673ff5c3d8a2891a09ba6723d4ab05ac0f60d3d0a39ce9ed38f8a7",
        "eval/episodes.jsonl": "8e6ae0fd35b6c8239ce301d21e4d7bb6801911bfddb21fe43cbc3d3881ab5e24",
        "eval/report.json": "432d2376a7bc1edffbeaca0701832ec3208a18afffe38dd4a70cac5deaf4fa60",
        "collect/rollouts.jsonl": "0b129e926cf521d91cac3cf547058411d206cbe80b484aa7f319038ef4e70ed9",
        "collect/rollouts.jsonl.manifest.json": "b5e28129660bc6a3cbe10e67385f43157b544846b560eff540f1bb10d4a77f02",
    },
    "shadow_like": {
        "train_w1/metrics.jsonl": "6a3816b9c7ad23dfca5197e9fe3d7932d02f99839082fc90ddbdb9803600eedf",
        "train_w1/checkpoint.json": "dbd5b7edbe0ee8f8b868d2b115a5db7c175e1e2495b9e8d560bf530952ee9b3c",
        "train_w2/metrics.jsonl": "6a3816b9c7ad23dfca5197e9fe3d7932d02f99839082fc90ddbdb9803600eedf",
        "train_w2/checkpoint.json": "dbd5b7edbe0ee8f8b868d2b115a5db7c175e1e2495b9e8d560bf530952ee9b3c",
        "eval/episodes.jsonl": "0b2d7072930fed449b204aa5edd1a8dc0b1d67fe01e5a2868566c739606a1f00",
        "eval/report.json": "90e2d10370af660cbfc9c94ad4465117331a6552210d44d2f5a5672d51603add",
        "collect/rollouts.jsonl": "b23b63734cbd9d8c3079a989af8ed4abd84464e9ff4c9c9512b1d38262b5971d",
        "collect/rollouts.jsonl.manifest.json": "c95eb829435a8f60ab9ab366cb29791cbf1160f3599703db85277e91ec07fc68",
    },
}


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _outputs(hand: str, tmp_path) -> dict:
    """sha256 of train (workers 1 and 2), eval --exhaustive-styles and
    collect outputs for one bundled hand, run in-process through main."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 5, "train": TRAIN}))
    common = ["--config", str(config), "--hand", str(default_hand_path(hand)),
              "--styles", str(default_styles_path(hand)), "--demo", str(default_demo_path(hand))]
    out = {}
    for workers in (1, 2):
        run = tmp_path / f"train_w{workers}"
        assert main(["train", *common, "--workers", str(workers), "--out", str(run)]) == 0
        for name in ("metrics.jsonl", "checkpoint.json"):
            out[f"train_w{workers}/{name}"] = _sha(run / name)
    ckpt = ["--checkpoint", str(tmp_path / "train_w1" / "checkpoint.json"), "--episodes", "12"]
    run = tmp_path / "eval"
    assert main(["eval", *common, *ckpt, "--exhaustive-styles", "--out", str(run)]) == 0
    out["eval/episodes.jsonl"] = _sha(run / "episodes.jsonl")
    report = json.loads((run / "report.json").read_text())
    del report["per_episode_file"]
    out["eval/report.json"] = hashlib.sha256(json.dumps(report, indent=1).encode()).hexdigest()
    run = tmp_path / "collect"
    assert main(["collect", *common, *ckpt, "--out", str(run)]) == 0
    for name in ("rollouts.jsonl", "rollouts.jsonl.manifest.json"):
        out[f"collect/{name}"] = _sha(run / name)
    return out


@pytest.mark.parametrize("hand", ["inspire_like", "shadow_like"])
def test_cli_outputs_keep_their_digests(hand, tmp_path, capsys):
    assert _outputs(hand, tmp_path) == DIGESTS[hand]


STDOUT_DIGESTS = {
    "demo_inspect/inspire_like": "6e1f6b0deafd1d9ca214252b06afadac129381ec9e60f00c358b99bbb45ef91a",
    "demo_inspect/shadow_like": "2ddf35a4f420453678235556896b8693caac97ab658df861b07e9b7646ee5084",
    "sample_affordance/mug": "86d940c87819fca7956ade285cec4681c5b31ea75aa624638953becc51652446",
}


@pytest.mark.parametrize("name", sorted(STDOUT_DIGESTS))
def test_cli_stdout_keeps_its_digest(name, capsys):
    """sha256 of what `demo inspect` prints for each bundled hand and of
    `sample-affordance --seed 3 --object mug`."""
    command, what = name.split("/")
    if command == "demo_inspect":
        argv = ["demo", "inspect", "--hand", str(default_hand_path(what)), "--demo", str(default_demo_path(what))]
    else:
        argv = ["sample-affordance", "--seed", "3", "--object", what]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == STDOUT_DIGESTS[name]
