"""Host-speed reference for the timed steps.

The benchmark runs on shared virtual machines whose cores slow down by up
to 1.6x for seconds to minutes at a time, as other guests load them. A
step's wall time moves with that, whatever the program does. So a fixed
reference loop, made of the kind of work an episode does (interpreted
Python arithmetic, small numpy array calls, a small matrix product),
runs before the first timed step and after every step, untimed. A
step's adjusted time is its wall time scaled by REFERENCE_MS over the
mean of the two reference times on either side of it: the time the step
would take on a host where the loop takes REFERENCE_MS.

The loop uses only numpy and the interpreter, never fungrasp, so a change
to the program cannot change the reference.
"""

from __future__ import annotations

import time

import numpy as np

# about the loop's median time on a 2-vCPU Haswell-class VM
REFERENCE_MS = 12.0

_RNG = np.random.default_rng(12345)
_MAT = _RNG.standard_normal((48, 48))
_POINTS = _RNG.standard_normal((256, 3))
_ROUNDS = 400


def reference_ms() -> float:
    """Wall time of one pass of the reference loop, in ms."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(_ROUNDS):
        d = np.linalg.norm(_POINTS - _POINTS[i % 256], axis=1)
        acc += float(d[d > 0].min()) + float((_MAT @ _MAT[:, i % 48]).sum())
        for j in range(24):
            acc += (i * j) % 7
    elapsed = (time.perf_counter() - t0) * 1e3
    if not np.isfinite(acc):
        raise RuntimeError("reference loop lost its value")
    return elapsed


def adjust(wall_ms: list[float], refs: list[float]) -> list[float]:
    """Scale each of n step times by REFERENCE_MS over the mean of the
    n + 1 reference times around them."""
    if len(refs) != len(wall_ms) + 1:
        raise ValueError(f"{len(wall_ms)} steps need {len(wall_ms) + 1} reference times")
    return [
        w * REFERENCE_MS / ((refs[i] + refs[i + 1]) / 2.0)
        for i, w in enumerate(wall_ms)
    ]
