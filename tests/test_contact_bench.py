"""Micro-benchmark of the rollout's contact phase: the object-frame phase
against the per-episode world-frame reference, on one seeded 32-episode
chunk of each bundled hand.

pytest's addopts pass --benchmark-disable, so the suite runs each case
once as a plain test. Time them with

    PYTHONPATH=src python -m pytest tests/test_contact_bench.py --benchmark-enable
"""

import numpy as np
import pytest

from contact_reference import hand_assets, reference_contact_phase, seeded_rollout_inputs
from fungrasp import sim

CHUNK = 32


@pytest.fixture(scope="module", params=["inspire_like", "shadow_like"])
def chunk(request):
    """(hand, the arguments rollout_batch passes to its contact phase)."""
    assets = hand_assets(request.param)
    envs, actions = seeded_rollout_inputs(assets, CHUNK, seed=31)
    real = sim.detect_contacts
    captured = []

    def capture(*args):
        captured.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "detect_contacts", capture)
        sim.rollout_batch(envs, assets.demo, actions, assets.spec, assets.styles)
    return request.param, captured[0]


@pytest.mark.parametrize("phase", [sim.detect_contacts, reference_contact_phase],
                         ids=["object_frame", "per_episode_reference"])
def test_contact_phase_benchmark(benchmark, chunk, phase):
    hand, args = chunk
    benchmark.group = f"contact phase, {hand}, {CHUNK} episodes"
    got = benchmark(phase, *args)
    for column, want in zip(got, reference_contact_phase(*args)):
        assert np.array_equal(column, want)
