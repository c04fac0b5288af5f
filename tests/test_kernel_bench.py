"""Micro-benchmarks of the rollout's array kernels against their references:
FK of one seeded chunk of E episodes, E x (T_D + 1) rows, on each bundled
hand, the stacked simplex over the seven loads of that chunk's scored
grasps, and their closure verdicts from the gravity basis against that
seven-load stack.

pytest's addopts pass --benchmark-disable, so the suite runs each case
once as a plain test. Time them with

    PYTHONPATH=src python -m pytest tests/test_kernel_bench.py --benchmark-enable
"""

import numpy as np
import pytest

from contact_reference import hand_assets, seeded_rollout_inputs
from fungrasp import hand, sim
from kernel_reference import reference_closure, reference_feasible_combination, reference_forward_kinematics

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
        for name in ("forward_kinematics_batch", "_closure_batch"):
            mp.setattr(sim, name, capture(name, getattr(sim, name)))
        sim.rollout_batch(envs, assets.demo, actions, assets.spec, assets.styles, sim.SimParams())
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
    grasp_generators, grasp_loads = captured["_closure_batch"]
    generators, loads = np.repeat(grasp_generators, 7, axis=0), grasp_loads.reshape(-1, 6)
    benchmark.group = f"closure LP, {name}, {generators.shape[0]} stacked problems"
    got = benchmark(lp, generators, loads)
    got = got[0] if lp is sim.feasible_combination_batch else got
    want = reference_feasible_combination(generators, loads)
    assert got.tobytes() == want.tobytes() and want.any() and not want.all()


@pytest.mark.parametrize("closure", [sim._closure_batch, reference_closure],
                         ids=["gravity_basis_certificate", "seven_load_reference"])
def test_closure_verdict_benchmark(benchmark, chunk, closure):
    """The certified path gives each grasp the verdict of its seven-load
    stack, and settles most perturbed loads of the closed grasps without
    a solve."""
    name, captured = chunk
    generators, loads = captured["_closure_batch"]
    benchmark.group = f"closure verdicts, {name}, {len(generators)} grasps"
    got = benchmark(closure, generators, loads)
    got = got[0] if closure is sim._closure_batch else got
    want = reference_closure(generators, loads)
    assert got.tobytes() == want.tobytes() and want.any() and not want.all()
    assert sim._closure_batch(generators, loads)[1][want].mean() > 0.5
