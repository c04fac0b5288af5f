"""Micro-benchmarks of the rollout's array kernels against their references:
FK of one seeded chunk of E episodes, E x (T_D + 1) rows, on each bundled
hand, and the stacked closure LP of that chunk's gated grasps.

pytest's addopts pass --benchmark-disable, so the suite runs each case
once as a plain test. Time them with

    PYTHONPATH=src python -m pytest tests/test_kernel_bench.py --benchmark-enable
"""

import numpy as np
import pytest

from contact_reference import hand_assets, seeded_rollout_inputs
from fungrasp import hand, sim
from kernel_reference import reference_feasible_combination, reference_forward_kinematics

EPISODES = 96


@pytest.fixture(scope="module", params=["inspire_like", "shadow_like"])
def chunk(request):
    """(hand, the FK arguments and the LP arguments of one seeded
    rollout_batch call)."""
    assets = hand_assets(request.param)
    envs, actions = seeded_rollout_inputs(assets, EPISODES, seed=47)
    captured = {}

    def capture(name, real):
        def call(*args):
            captured[name] = args
            return real(*args)
        return call

    with pytest.MonkeyPatch.context() as mp:
        for name in ("forward_kinematics_batch", "feasible_combination_batch"):
            mp.setattr(sim, name, capture(name, getattr(sim, name)))
        sim.rollout_batch(envs, assets.demo, actions, assets.spec, assets.styles)
    return request.param, captured


@pytest.mark.parametrize("fk", [hand.forward_kinematics_batch, reference_forward_kinematics],
                         ids=["component_planes", "per_finger_reference"])
def test_fk_benchmark(benchmark, chunk, fk):
    name, captured = chunk
    args = captured["forward_kinematics_batch"]
    benchmark.group = f"FK, {name}, {len(args[1])} rows"
    got = benchmark(fk, *args)
    for g, w in zip(got, reference_forward_kinematics(*args)):
        assert np.ascontiguousarray(g).tobytes() == w.tobytes()


@pytest.mark.parametrize("lp", [sim.feasible_combination_batch, reference_feasible_combination],
                         ids=["in_place_pivot", "where_pivot_reference"])
def test_closure_lp_benchmark(benchmark, chunk, lp):
    name, captured = chunk
    generators, loads = captured["feasible_combination_batch"]
    benchmark.group = f"closure LP, {name}, {generators.shape[0]} stacked problems"
    got = benchmark(lp, generators, loads)
    want = reference_feasible_combination(generators, loads)
    assert got.tobytes() == want.tobytes() and want.any() and not want.all()
