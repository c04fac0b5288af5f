"""Micro-benchmark of the rollout's contact phase: the object-frame phase
against the per-episode world-frame reference, on one seeded 32-episode
chunk of each bundled hand.

The object-frame phase runs twice: on the chunk's own objects, whose
crush-floor tables the first round fills (every later round is the
steady state), and on fresh copies of the objects every round, so each
round starts from cold tables and pays for every block its rows land in.

pytest's addopts pass --benchmark-disable, so the suite runs each case
once as a plain test. Time them with

    PYTHONPATH=src python -m pytest tests/test_contact_bench.py --benchmark-enable
"""

import dataclasses

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
        sim.rollout_batch(envs, assets.demo, actions, assets.spec, assets.styles, sim.SimParams())
    return request.param, captured[0]


def _with_cold_tables(env, *rest):
    """pedantic's setup: the arguments with every object of env replaced
    by a fresh copy, whose crush-floor table has no block filled."""
    fresh = {id(obj): dataclasses.replace(obj) for obj in env.objs}
    columns = (getattr(env, f.name) for f in dataclasses.fields(env)[1:])
    return (type(env)([fresh[id(obj)] for obj in env.objs], *columns), *rest), {}


@pytest.mark.parametrize("phase", ["warm", "cold", "reference"],
                         ids=["object_frame", "object_frame_cold_tables", "per_episode_reference"])
def test_contact_phase_benchmark(benchmark, chunk, phase):
    hand, args = chunk
    benchmark.group = f"contact phase, {hand}, {CHUNK} episodes"
    if phase == "cold":
        got = benchmark.pedantic(sim.detect_contacts, setup=lambda: _with_cold_tables(*args), rounds=20)
    else:
        got = benchmark(sim.detect_contacts if phase == "warm" else reference_contact_phase, *args)
    for column, want in zip(got, reference_contact_phase(*args)):
        assert np.array_equal(column, want)
