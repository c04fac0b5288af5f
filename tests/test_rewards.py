import copy

import numpy as np
import pytest

from episode_reference import reference_reward_terms
from fungrasp.rewards import TERMS, RewardConfig, total_reward
from fungrasp.sim import RolloutRecord


# the object size and the conditioned style's canonical joints of _terms' episodes
BB, CANONICAL = 0.2, np.zeros(4)


def _terms(success=True, d_final=0.0, d_min=0.0, q_final=None, q_style=CANONICAL, obj_bb=BB, cfg=RewardConfig()):
    """One episode's row of total_reward's table, by term name."""
    q_final = np.zeros(len(q_style)) if q_final is None else q_final
    (row,) = total_reward([success], [d_final], [d_min], [q_final], [q_style], [obj_bb], cfg)
    return dict(zip(TERMS, row))


def test_qpos_reward_cases():
    assert _terms(q_final=np.zeros(3), q_style=np.zeros(3))["r_qpos"] == 1.0
    q = np.array([1.0, 0.0, 0.0])
    assert _terms(q_final=q, q_style=np.zeros(3))["r_qpos"] == pytest.approx(np.exp(-1.0))
    with pytest.raises(ValueError, match="shape mismatch"):
        _terms(q_final=np.zeros(2), q_style=np.zeros(3))


def test_qpos_reward_strictly_decreasing_along_ray():
    rng = np.random.default_rng(0)
    q_star = rng.normal(size=5)
    v = rng.normal(size=5)
    table = total_reward([True, True], [0.0, 0.0], [0.0, 0.0], [q_star + v, q_star + 2 * v], [q_star, q_star],
                         [BB, BB], RewardConfig())
    r1, r2 = table[:, TERMS.index("r_qpos")]
    assert r2 < r1 < 1.0


def test_afford_reward_cases():
    assert _terms(success=False, d_final=0.01)["r_afford"] == 0.0
    assert _terms(success=True, d_final=0.0)["r_afford"] == 1.0
    # obj_bb 0.2, gamma 4 -> radius 0.05; 0.06 is outside
    assert _terms(d_final=0.06, cfg=RewardConfig(gamma=4.0))["r_afford"] == 0.0
    assert _terms(d_final=0.04, cfg=RewardConfig(gamma=4.0))["r_afford"] == pytest.approx(np.exp(-0.04))


def test_afford_reward_strict_boundary():
    cfg = RewardConfig(gamma=4.0)
    assert _terms(d_final=0.05, cfg=cfg)["r_afford"] == 0.0  # strict '<'
    assert _terms(d_final=np.nextafter(0.05, 0), cfg=cfg)["r_afford"] > 0.0


def test_afford_indicator_radius_is_objbb_over_gamma():
    rng = np.random.default_rng(1)
    for _ in range(200):
        obj_bb = rng.uniform(0.02, 0.5)
        gamma = rng.uniform(1.0, 10.0)
        cfg = RewardConfig(gamma=gamma)
        radius = obj_bb / gamma
        table = total_reward([True, True], [np.nextafter(radius, 0), radius], [0.0, 0.0], np.zeros((2, 4)),
                             np.zeros((2, 4)), [obj_bb, obj_bb], cfg)
        inside, on = table[:, TERMS.index("r_afford")]
        assert inside > 0.0 and on == 0.0


def test_afford_clip_off_uses_fixed_radius():
    cfg = RewardConfig(clip_on=False, fixed_clip_radius=0.10)
    assert _terms(d_final=0.09, obj_bb=0.01, cfg=cfg)["r_afford"] == pytest.approx(np.exp(-0.09))
    assert _terms(d_final=0.10, obj_bb=10.0, cfg=cfg)["r_afford"] == 0.0


def test_close_reward_cases():
    cfg = RewardConfig(close_threshold=0.03)
    table = total_reward([True] * 3, [0.0] * 3, [0.0, 0.03, 0.029], np.zeros((3, 4)), np.zeros((3, 4)), [BB] * 3, cfg)
    assert table[:, TERMS.index("r_close")].tolist() == [1.0, 0.0, 1.0]  # strict boundary at 0.03


def test_close_reward_success_independent():
    terms = _terms(success=False, d_min=0.01, d_final=0.5)
    assert terms["r_close"] == 1.0
    assert terms["r_success"] == 0.0


def test_total_reward_all_zero_failure():
    terms = _terms(success=False, d_final=1.0, d_min=1.0, q_final=np.ones(4) * 10, cfg=RewardConfig(qpos_on=False))
    assert terms["total"] == pytest.approx(0.0, abs=1e-12)


def test_total_reward_perfect_episode_defaults():
    # 2*1 + 0.5*1 + 0.5*1 + 1 = 4 with repo defaults
    assert _terms(success=True, d_final=0.0, d_min=0.0)["total"] == pytest.approx(4.0)


def test_total_reward_leaves_the_record_untouched():
    args = ([True], [0.01], [0.0], np.full((1, 4), 0.1), np.zeros((1, 4)), np.array([BB]))
    before = copy.deepcopy(args)
    total_reward(*args, RewardConfig())
    for got, want in zip(args, before):
        assert np.array_equal(got, want)


def test_total_reward_rejects_negative_distances_and_sizes():
    good = dict(success=[True], d_final=[0.01], d_min=[0.0], q_final=np.zeros((1, 4)), q_style=np.zeros((1, 4)),
                obj_bb=[BB])
    for name, value in (("d_final", [-1e-9]), ("d_min", [-0.5]), ("obj_bb", [0.0]), ("obj_bb", [-0.1])):
        with pytest.raises(ValueError, match=name):
            total_reward(**{**good, name: value}, cfg=RewardConfig())


def test_total_reward_flag_contract():
    on = _terms(success=True, d_final=0.0, d_min=0.0)
    off = _terms(success=True, d_final=0.0, d_min=0.0, cfg=RewardConfig(qpos_on=False))
    assert off["r_qpos"] == 0.0
    assert off["total"] == pytest.approx(on["total"] - 0.5 * on["r_qpos"])


def test_total_reward_linear_in_weights():
    base = _terms(success=True, d_final=0.01, d_min=0.0, cfg=RewardConfig(lambda_afford=2.0))
    doubled = _terms(success=True, d_final=0.01, d_min=0.0, cfg=RewardConfig(lambda_afford=4.0))
    assert doubled["total"] - base["total"] == pytest.approx(2.0 * base["r_afford"])


def test_total_reward_weighted_sum_identity():
    rng = np.random.default_rng(2)
    for _ in range(10_000):
        cfg = RewardConfig(
            lambda_afford=rng.uniform(0, 5), lambda_close=rng.uniform(0, 5),
            lambda_qpos=rng.uniform(0, 5), success_reward=rng.uniform(0, 3),
            gamma=rng.uniform(1, 8), close_threshold=rng.uniform(0.005, 0.1),
        )
        success = bool(rng.integers(2))
        d_final, d_min, q_final = float(rng.uniform(0, 0.2)), float(rng.uniform(0, 0.2)), rng.normal(size=4)
        t = _terms(success, d_final, d_min, q_final, obj_bb=float(rng.uniform(0.02, 0.5)), q_style=rng.normal(size=4),
                   cfg=cfg)
        expected = (cfg.lambda_afford * t["r_afford"] + cfg.lambda_close * t["r_close"]
                    + cfg.lambda_qpos * t["r_qpos"] + t["r_success"])
        assert t["total"] == expected  # exact, not approx


@pytest.mark.parametrize("cfg", [RewardConfig(), RewardConfig(clip_on=False, qpos_on=False),
                                 RewardConfig(afford_on=False, close_on=False, lambda_qpos=1.7)])
def test_table_rows_are_the_episodes_alone(cfg):
    """Each row of a 257-episode table has the bytes of its batch of one
    and of the per-episode scalar terms (reference_reward_terms)."""
    rng = np.random.default_rng(4)
    n = 257
    success = rng.random(n) < 0.6
    frames = rng.uniform(0, 0.12, (n, 3))   # each episode's distance at three frames
    d_final, d_min = frames[:, -1], frames.min(axis=1)
    q_final, q_style = rng.normal(size=(n, 6)), rng.normal(size=(n, 6))
    obj_bb = rng.uniform(0.05, 0.3, n)
    table = total_reward(success, d_final, d_min, q_final, q_style, obj_bb, cfg)
    assert table.shape == (n, len(TERMS)) and (0 < np.count_nonzero(table[:, 0]) < n or not cfg.afford_on)
    for i in range(n):
        alone = total_reward(success[i : i + 1], d_final[i : i + 1], d_min[i : i + 1], q_final[i : i + 1],
                             q_style[i : i + 1], obj_bb[i : i + 1], cfg)
        record = RolloutRecord(d_final=d_final[i], d_min=d_min[i], q_final=q_final[i], q_star=q_final[i],
                               executed_style=0, failure_reason=None if success[i] else "no_closure")
        want = reference_reward_terms(record, obj_bb[i], q_style[i], cfg)
        assert table[i].tobytes() == alone[0].tobytes() == want.tobytes(), i


def test_total_bounded():
    cfg = RewardConfig()
    bound = cfg.lambda_afford + cfg.lambda_close + cfg.lambda_qpos + cfg.success_reward
    rng = np.random.default_rng(3)
    for _ in range(200):
        terms = _terms(success=True, d_final=float(rng.uniform(0, 0.01)), d_min=0.0, q_final=rng.normal(size=4) * 0.01)
        assert 0.0 <= terms["total"] <= bound


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        RewardConfig(gamma=0.0)
    with pytest.raises(ValueError):
        RewardConfig(close_threshold=-1.0)


def test_qpos_term_measures_style_intention():
    # the style term compares executed joints to the conditioned style's
    # canonical configuration, so a large edit is penalized even though
    # the executed joints match the edited target exactly
    q_final = np.full(4, 0.5)
    assert _terms(q_final=q_final, q_style=np.zeros(4))["r_qpos"] == pytest.approx(np.exp(-1.0))
    assert _terms(q_final=q_final, q_style=np.full(4, 0.5))["r_qpos"] == 1.0
