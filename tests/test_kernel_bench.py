"""Micro-benchmarks of the episode engine's array kernels against their
references: FK of one seeded chunk of E episodes, E x (L + 1) rows (L
the demo's hold_index, 31 on both bundled demos), on each bundled hand,
the stacked simplex over the seven loads of that chunk's scored grasps,
their closure verdicts from the gravity solve and the dual pivots
against that seven-load stack, and how many perturbed loads the pivots
leave to a second stacked solve; and, for a 96-episode chunk at the
train_inspire bench workload's config, the chunk's generators
(episode_rngs against one SeedSequence per episode), its reset
(reset_env against each episode's own reference_reset) and its contact
phase's inverse rotation of the (E, T_l + 1, K) grid (rotate into a
workspace against the allocating rotate) and the PPO update of its
96-row batch (ppo_update against the allocating reference_ppo_update).

pytest's addopts pass --benchmark-disable, so the suite runs each case
once as a plain test. Time them with

    PYTHONPATH=src python -m pytest tests/test_kernel_bench.py --benchmark-enable
"""

import dataclasses

import numpy as np
import pytest

from conftest import concat_envs
from contact_reference import hand_assets, seeded_rollout_inputs
from episode_reference import reference_reset
from fungrasp import geometry, hand, sim
from fungrasp.policy import init_params
from fungrasp.training import (
    STREAM_INIT,
    STREAM_TRAIN,
    STREAM_UPDATE,
    AdamState,
    TrainConfig,
    collect_batch,
    episode_rng,
    episode_rngs,
    ppo_update,
)
from kernel_reference import reference_closure, reference_feasible_combination, reference_forward_kinematics
from update_reference import reference_ppo_update

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


# perturbed loads of each chunk that the dual pivots leave undecided, for
# the stacked simplex to solve again
FALLBACK_LOADS = {"inspire_like": 0, "shadow_like": 0}


@pytest.mark.parametrize("closure", [sim._closure_batch, reference_closure],
                         ids=["gravity_basis_certificate", "seven_load_reference"])
def test_closure_verdict_benchmark(benchmark, chunk, closure):
    """The gravity solve and the dual pivots give each grasp the verdict of
    its seven-load stack, and the pivots prove the perturbed loads of the
    closed grasps feasible without a second solve."""
    name, captured = chunk
    generators, loads = captured["_closure_batch"]
    benchmark.group = f"closure verdicts, {name}, {len(generators)} grasps"
    got = benchmark(closure, generators, loads)
    got = got[0] if closure is sim._closure_batch else got
    want = reference_closure(generators, loads)
    assert got.tobytes() == want.tobytes() and want.any() and not want.all()
    assert (sim._closure_batch(generators, loads)[1][want] != 1).sum() <= FALLBACK_LOADS[name]


def test_closure_fallback_stays_bounded(chunk, monkeypatch):
    """The dual pivots settle the chunk's perturbed loads: one stacked
    simplex runs, over the gravity loads, and a change that sends loads
    back to a second stacked solve fails here."""
    name, captured = chunk
    generators, loads = captured["_closure_batch"]
    sizes = []
    solve = sim.feasible_combination_batch

    def counting(*args):
        sizes.append(len(args[1]))
        return solve(*args)

    monkeypatch.setattr(sim, "feasible_combination_batch", counting)
    settled = sim._closure_batch(generators, loads)[1]
    assert sizes[0] == len(loads) and sum(sizes[1:]) <= FALLBACK_LOADS[name]
    gravity = solve(generators, loads[:, 0])[0]
    assert gravity.any() and (settled[gravity] == 0).sum() <= FALLBACK_LOADS[name]


@pytest.fixture(scope="module")
def train_chunk():
    """(assets, cfg, key prefix, indices) of one train_inspire collect:
    the inspire_like hand, 96 episodes at sigma_style 0.05, the stream of
    iteration 75 at the bench's seed 301000."""
    cfg = TrainConfig(envs_per_iter=EPISODES, minibatch=32, m_points=64, seed=301000)
    return hand_assets("inspire_like"), cfg, (cfg.seed, STREAM_TRAIN, 75), range(EPISODES)


def seed_sequence_rngs(prefix, indices):
    """One default_rng(SeedSequence(key)) per episode."""
    return [np.random.default_rng(np.random.SeedSequence((*prefix, i))) for i in indices]


@pytest.mark.parametrize("build", [episode_rngs, seed_sequence_rngs], ids=["hashed_as_arrays", "seed_sequence_per_episode"])
def test_episode_rngs_benchmark(benchmark, train_chunk, build):
    _, _, prefix, indices = train_chunk
    benchmark.group = f"episode generators, {len(indices)} episodes"
    got = benchmark(build, prefix, indices)
    want = seed_sequence_rngs(prefix, indices)
    assert [g.bit_generator.state for g in got] == [w.bit_generator.state for w in want]


def per_episode_reset(objects, dists, styles, rngs, *, spec, sigma_style, square_half):
    """Each episode's reference_reset on its own rng, glued into one batch."""
    return concat_envs([reference_reset(objects, dists, styles, rng, True, spec=spec, sigma_style=sigma_style,
                                        square_half=square_half)[0] for rng in rngs])


@pytest.mark.parametrize("reset", [sim.reset_env, per_episode_reset], ids=["draws_then_arrays", "per_episode_reference"])
def test_reset_env_benchmark(benchmark, train_chunk, reset):
    """Each round resets the chunk on fresh generators; every column, and
    each rng's next draw, is the per-episode reference's."""
    assets, cfg, prefix, indices = train_chunk
    benchmark.group = f"reset_env, {len(indices)} episodes"
    kwargs = dict(spec=assets.spec, sigma_style=cfg.sigma_style, square_half=cfg.square_half)
    args = (assets.objects, assets.afford_dists, assets.styles)
    rounds = []

    def fresh():
        rounds.append(episode_rngs(prefix, indices))
        return (*args, rounds[-1]), kwargs

    got = benchmark.pedantic(reset, setup=fresh, rounds=200)
    rngs = episode_rngs(prefix, indices)
    want = per_episode_reset(*args, rngs, **kwargs)
    assert got.objs == want.objs
    for name in ("pose_t", "pose_r", "p_afford", "style", "q_style", "mask"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert [r.random() for r in rounds[-1]] == [r.random() for r in rngs]


@pytest.fixture(scope="module")
def contact_grid(train_chunk):
    """(quaternion components (4, E, 1, 1), vector grids (3, E, T_l + 1, K))
    of the contact phase's inverse rotation, for the train_inspire chunk's
    reset and replay actions edited by a little noise."""
    assets, cfg, prefix, indices = train_chunk
    spec = assets.spec
    env = sim.reset_env(assets.objects, assets.afford_dists, assets.styles, episode_rngs(prefix, indices),
                        spec=spec, sigma_style=cfg.sigma_style, square_half=cfg.square_half)
    replay = np.r_[np.zeros(6 + spec.joint_count), 1.0]
    actions = replay + np.random.default_rng(3).normal(0.0, 0.01, (len(env), len(replay)))
    captured = {}

    def capture(*args):
        captured["args"] = args
        return real(*args)

    real = sim.detect_contacts
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "detect_contacts", capture)
        sim.rollout_batch(env, assets.demo, actions, spec, assets.styles, sim.SimParams())
    env, centers, _, _, tl, _ = captured["args"]
    q = geometry.quat_conjugate(env.pose_r).T[..., None, None]
    return q, np.stack([centers[:, : tl + 1, :, ax] - env.pose_t[:, ax, None, None] for ax in range(3)])


def rotate_in_place(q, v, work):
    return geometry.rotate(*q, *v, work)


def rotate_allocating(q, v, work):
    return geometry.rotate(*q, *v)


@pytest.mark.parametrize("form", [rotate_in_place, rotate_allocating], ids=["in_place_workspace", "allocating"])
def test_contact_rotation_benchmark(benchmark, contact_grid, form):
    """The rotation into a workspace and the allocating one give each
    other's bytes."""
    q, v = contact_grid
    grid = v.shape[1:]
    benchmark.group = f"contact rotation, {' x '.join(map(str, grid))} grid"
    got = np.stack(benchmark(form, q, v, np.empty((7, *grid))))
    other = rotate_allocating if form is rotate_in_place else rotate_in_place
    assert got.tobytes() == np.stack(other(q, v, np.empty((7, *grid)))).tobytes()


@pytest.fixture(scope="module")
def ppo_batch(train_chunk):
    """(params, batch, cfg) of one train_inspire update: the chunk's 96
    episodes collected under the seed-2026 initial policy, at the bench
    workload's training config."""
    assets, cfg, prefix, _ = train_chunk
    cfg = dataclasses.replace(cfg, epochs=6, learning_rate=1e-3, entropy_coef=5e-4, init_log_std=-2.0)
    params = init_params(episode_rng(2026, STREAM_INIT), cfg.m_points, len(assets.styles), assets.spec.joint_count,
                         cfg.init_log_std)
    return params, collect_batch(params, cfg, assets, prefix[-1]), cfg


@pytest.mark.parametrize("update", [ppo_update, reference_ppo_update],
                         ids=["built_once_per_update", "allocating_reference"])
def test_ppo_update_benchmark(benchmark, ppo_batch, update):
    """Each round updates from a fresh Adam state and update rng; the
    update and its allocating reference give each other's params,
    moments and stats."""
    params, batch, cfg = ppo_batch
    benchmark.group = f"ppo_update, {len(batch.raw)} rows, minibatch {cfg.minibatch}, {cfg.epochs} epochs"

    def fresh():
        return (params, batch, cfg, AdamState.init(params), episode_rng(cfg.seed, STREAM_UPDATE, 75)), {}

    got = benchmark.pedantic(update, setup=fresh, rounds=30)
    other = reference_ppo_update if update is ppo_update else ppo_update
    want = other(*fresh()[0])
    assert "aborted" not in got[2] and got[2] == want[2]
    for g, w in ((got[0].flat, want[0].flat), (got[1].m, want[1].m), (got[1].v, want[1].v)):
        assert g.tobytes() == w.tobytes()
