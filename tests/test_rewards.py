import copy

import numpy as np
import pytest

from fungrasp.rewards import RewardConfig, afford_reward, close_reward, qpos_reward, total_reward
from fungrasp.sim import RolloutRecord


# the object size and the conditioned style's canonical joints of _record's episodes
BB, CANONICAL = 0.2, np.zeros(4)


def _record(success=True, d_final=0.0, d_min=0.0, q_final=None):
    q_final = np.zeros(4) if q_final is None else np.asarray(q_final, float)
    return RolloutRecord(
        d_series=np.array([d_min, d_final]), q_final=q_final, q_star=q_final.copy(),
        executed_style=0, table_collision=False, failure_reason=None if success else "no_closure",
    )


def test_qpos_reward_cases():
    assert qpos_reward(np.zeros(3), np.zeros(3)) == 1.0
    q = np.array([1.0, 0.0, 0.0])
    assert qpos_reward(q, np.zeros(3)) == pytest.approx(np.exp(-1.0))
    with pytest.raises(ValueError):
        qpos_reward(np.zeros(2), np.zeros(3))


def test_qpos_reward_strictly_decreasing_along_ray():
    rng = np.random.default_rng(0)
    q_star = rng.normal(size=5)
    v = rng.normal(size=5)
    r1 = qpos_reward(q_star + v, q_star)
    r2 = qpos_reward(q_star + 2 * v, q_star)
    assert r2 < r1 < 1.0


def test_afford_reward_cases():
    cfg = RewardConfig()
    assert afford_reward(False, 0.01, 0.2, cfg) == 0.0
    assert afford_reward(True, 0.0, 0.2, cfg) == 1.0
    # obj_bb 0.2, gamma 4 -> radius 0.05; 0.06 is outside
    assert afford_reward(True, 0.06, 0.2, RewardConfig(gamma=4.0)) == 0.0
    assert afford_reward(True, 0.04, 0.2, RewardConfig(gamma=4.0)) == pytest.approx(np.exp(-0.04))


def test_afford_reward_strict_boundary():
    cfg = RewardConfig(gamma=4.0)
    assert afford_reward(True, 0.05, 0.2, cfg) == 0.0  # strict '<'
    assert afford_reward(True, np.nextafter(0.05, 0), 0.2, cfg) > 0.0


def test_afford_indicator_radius_is_objbb_over_gamma():
    rng = np.random.default_rng(1)
    for _ in range(200):
        obj_bb = rng.uniform(0.02, 0.5)
        gamma = rng.uniform(1.0, 10.0)
        cfg = RewardConfig(gamma=gamma)
        radius = obj_bb / gamma
        assert afford_reward(True, np.nextafter(radius, 0), obj_bb, cfg) > 0.0
        assert afford_reward(True, radius, obj_bb, cfg) == 0.0


def test_afford_clip_off_uses_fixed_radius():
    cfg = RewardConfig(clip_on=False, fixed_clip_radius=0.10)
    assert afford_reward(True, 0.09, 0.01, cfg) == pytest.approx(np.exp(-0.09))
    assert afford_reward(True, 0.10, 10.0, cfg) == 0.0


def test_close_reward_cases():
    cfg = RewardConfig(close_threshold=0.03)
    assert close_reward(0.0, cfg) == 1.0
    assert close_reward(0.03, cfg) == 0.0  # strict boundary
    assert close_reward(0.029, cfg) == 1.0


def test_close_reward_success_independent():
    cfg = RewardConfig()
    rec = _record(success=False, d_min=0.01, d_final=0.5)
    terms = total_reward(rec, BB, CANONICAL, cfg)
    assert terms.r_close == 1.0
    assert terms.r_success == 0.0


def test_total_reward_all_zero_failure():
    rec = _record(success=False, d_final=1.0, d_min=1.0, q_final=np.ones(4) * 10)
    terms = total_reward(rec, BB, CANONICAL, RewardConfig(qpos_on=False))
    assert terms.total == pytest.approx(0.0, abs=1e-12)


def test_total_reward_perfect_episode_defaults():
    rec = _record(success=True, d_final=0.0, d_min=0.0)
    terms = total_reward(rec, BB, CANONICAL, RewardConfig())
    # 2*1 + 0.5*1 + 0.5*1 + 1 = 4 with repo defaults
    assert terms.total == pytest.approx(4.0)


def test_total_reward_leaves_the_record_untouched():
    rec = _record(success=True, d_final=0.01, d_min=0.0, q_final=np.full(4, 0.1))
    before = copy.deepcopy(rec)
    total_reward(rec, BB, CANONICAL, RewardConfig())
    assert vars(rec).keys() == vars(before).keys()
    for name, value in vars(before).items():
        assert np.array_equal(getattr(rec, name), value), name


def test_total_reward_flag_contract():
    rec = _record(success=True, d_final=0.0, d_min=0.0)
    on = total_reward(rec, BB, CANONICAL, RewardConfig())
    off = total_reward(rec, BB, CANONICAL, RewardConfig(qpos_on=False))
    assert off.r_qpos == 0.0
    assert off.total == pytest.approx(on.total - 0.5 * on.r_qpos)


def test_total_reward_linear_in_weights():
    rec = _record(success=True, d_final=0.01, d_min=0.0)
    base = total_reward(rec, BB, CANONICAL, RewardConfig(lambda_afford=2.0))
    doubled = total_reward(rec, BB, CANONICAL, RewardConfig(lambda_afford=4.0))
    assert doubled.total - base.total == pytest.approx(2.0 * base.r_afford)


def test_total_reward_weighted_sum_identity():
    rng = np.random.default_rng(2)
    for _ in range(10_000):
        cfg = RewardConfig(
            lambda_afford=rng.uniform(0, 5), lambda_close=rng.uniform(0, 5),
            lambda_qpos=rng.uniform(0, 5), success_reward=rng.uniform(0, 3),
            gamma=rng.uniform(1, 8), close_threshold=rng.uniform(0.005, 0.1),
        )
        rec = _record(
            success=bool(rng.integers(2)),
            d_final=float(rng.uniform(0, 0.2)),
            d_min=float(rng.uniform(0, 0.2)),
            q_final=rng.normal(size=4),
        )
        t = total_reward(rec, float(rng.uniform(0.02, 0.5)), rng.normal(size=4), cfg)
        expected = (cfg.lambda_afford * t.r_afford + cfg.lambda_close * t.r_close
                    + cfg.lambda_qpos * t.r_qpos + t.r_success)
        assert t.total == expected  # exact, not approx


def test_total_bounded():
    cfg = RewardConfig()
    bound = cfg.lambda_afford + cfg.lambda_close + cfg.lambda_qpos + cfg.success_reward
    rng = np.random.default_rng(3)
    for _ in range(200):
        rec = _record(success=True, d_final=float(rng.uniform(0, 0.01)), d_min=0.0,
                      q_final=rng.normal(size=4) * 0.01)
        assert 0.0 <= total_reward(rec, BB, CANONICAL, cfg).total <= bound


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        RewardConfig(gamma=0.0)
    with pytest.raises(ValueError):
        RewardConfig(close_threshold=-1.0)


def test_qpos_term_measures_style_intention():
    # the style term compares executed joints to the conditioned style's
    # canonical configuration, so a large edit is penalized even though
    # the executed joints match the edited target exactly
    rec = _record(success=True, q_final=np.full(4, 0.5))
    assert np.array_equal(rec.q_star, rec.q_final)
    t = total_reward(rec, BB, np.zeros(4), RewardConfig())
    assert t.r_qpos == pytest.approx(np.exp(-1.0))
    assert total_reward(rec, BB, np.full(4, 0.5), RewardConfig()).r_qpos == 1.0
