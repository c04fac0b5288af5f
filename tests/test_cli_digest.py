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
        "train_w1/metrics.jsonl": "3dfb20ccc78c8c5e9566ff54983ac07f6ed0a8ebb1b1e2916bc8ade093661b7d",
        "train_w1/checkpoint.json": "adab48250828d5c4917e778942d28d58d123a081a17208db65ea2d78a62b44cc",
        "train_w2/metrics.jsonl": "3dfb20ccc78c8c5e9566ff54983ac07f6ed0a8ebb1b1e2916bc8ade093661b7d",
        "train_w2/checkpoint.json": "adab48250828d5c4917e778942d28d58d123a081a17208db65ea2d78a62b44cc",
        "eval/episodes.jsonl": "943ce2d2e05d5024c96c78468ecb3b7ef541359388b56871334d10ff631979e2",
        "eval/report.json": "b3791fef6d056d77c10b0c22eb5a0f3f8734ef5246718744a45601f7dda51ff4",
        "collect/rollouts.jsonl": "182ff274fa58f9b567bc019defef89781d740a27495fd126e38f2e139d373bc8",
        "collect/rollouts.jsonl.manifest.json": "b5e28129660bc6a3cbe10e67385f43157b544846b560eff540f1bb10d4a77f02",
    },
    "shadow_like": {
        "train_w1/metrics.jsonl": "e2879b97c97952d0384a0703f69c38e1e747a1d9a545e812115bd1b2b5418c85",
        "train_w1/checkpoint.json": "2f04c826c7de18e5b195f094a16df8327ae25d2b875dd184f279157501679d94",
        "train_w2/metrics.jsonl": "e2879b97c97952d0384a0703f69c38e1e747a1d9a545e812115bd1b2b5418c85",
        "train_w2/checkpoint.json": "2f04c826c7de18e5b195f094a16df8327ae25d2b875dd184f279157501679d94",
        "eval/episodes.jsonl": "10a3ea7c3fb2d21c0fd7ba827295d440bfd5b9b676f599abbb81e04bc0b5444e",
        "eval/report.json": "4ac8625b56ea88edb8ab7af0a2a777304d6df79b7e8d593335d3684e48d941a8",
        "collect/rollouts.jsonl": "c538055a589ef3c2699a471ce5c9a6697601b3feab766eaa63a31b03b87c491f",
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
