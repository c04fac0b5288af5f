"""Policy snapshots of the criterion-6 training loop.

The train workloads continue training from the policies that
`fungrasp.training.train` reaches after 25, 75 and 125 of the loop's 150
iterations at seed 2026: the middle of each third of the loop. Training
traffic changes as the policy learns (about 1.3 closure-LP calls per
episode at iteration 25 against 3.5 at iteration 125), so starting from
the middle of each third gives a run the layer mix of the whole loop.

The snapshots are the checkpoints `train` writes, gzipped.

    python3 perfbench/snapshots.py      # re-record snapshots/ with train
"""

from __future__ import annotations

import dataclasses
import gzip
import shutil
from pathlib import Path

import _paths

HERE = Path(__file__).resolve().parent
DIR = HERE / "snapshots"
UNPACKED = HERE / "out" / "snapshots"
ITERATIONS = (25, 75, 125)
TRAIN_SEED = 2026


def _name(hand: str, iteration: int) -> str:
    return f"{hand}-it{iteration:03d}.json"


def load(fg, hand: str, iteration: int):
    """The policy after `iteration` training iterations, read through
    fungrasp's own checkpoint loader."""
    UNPACKED.mkdir(parents=True, exist_ok=True)
    path = UNPACKED / _name(hand, iteration)
    path.write_bytes(gzip.decompress((DIR / f"{_name(hand, iteration)}.gz").read_bytes()))
    params, meta = fg.dataio.load_checkpoint(path, expect_hand=hand)
    if meta["iteration"] != iteration:
        raise RuntimeError(f"{path} holds iteration {meta['iteration']}, not {iteration}")
    return params


def write(fg):
    from workloads import WORKLOADS, Session, load_assets

    DIR.mkdir(exist_ok=True)
    wl = WORKLOADS["train_inspire"]
    assets = load_assets(fg, wl.hand)
    base = Session(fg, wl).config(TRAIN_SEED)
    for it in ITERATIONS:
        out_dir = HERE / "out" / f"train-it{it:03d}"
        ckpt = fg.training.train(dataclasses.replace(base, iterations=it), assets, out_dir)
        (DIR / f"{_name(wl.hand, it)}.gz").write_bytes(
            gzip.compress(ckpt["checkpoint_path"].read_bytes(), mtime=0)
        )
        shutil.rmtree(out_dir)
        print(f"wrote {_name(wl.hand, it)}.gz", flush=True)

if __name__ == "__main__":
    write(_paths.import_fungrasp())
