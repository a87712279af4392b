"""Expert update tests: logit formula, mixed policy, coverage margin."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icpo_lab.errors import InvalidConfigError
from icpo_lab.reference import History, teacher_logits
from icpo_lab.teacher import TeacherConfig, coverage_margin, mix_policy


def _history(k, steps):
    h = History(k)
    for action, reward in steps:
        h.append(action, reward)
    return h


class TestTeacherConfig:
    def test_derived_operators(self):
        h = np.array([[2.0, 0.0], [0.0, 4.0]])
        cfg = TeacherConfig(k=2, lam=0.5, h=h)
        assert np.allclose(cfg.u @ h, np.eye(2), atol=1e-12)
        assert np.array_equal(cfg.v, -0.5 * cfg.u)

    def test_rejects_bad_values(self):
        with pytest.raises(InvalidConfigError):
            TeacherConfig(k=1)
        with pytest.raises(InvalidConfigError):
            TeacherConfig(k=3, c=0.0)
        with pytest.raises(InvalidConfigError):
            TeacherConfig(k=3, gamma=1.5)
        with pytest.raises(InvalidConfigError):
            TeacherConfig(k=3, lam=-0.1)
        with pytest.raises(InvalidConfigError):
            TeacherConfig(k=2, h=np.array([[1.0, 2.0], [0.0, 1.0]]))  # not symmetric
        with pytest.raises(InvalidConfigError):
            TeacherConfig(k=2, h=np.array([[1.0, 0.0], [0.0, -1.0]]))  # not PD
        for value in (math.nan, math.inf):
            with pytest.raises(InvalidConfigError, match="regularizer must be finite"):
                TeacherConfig(k=2, h=np.array([[value, 0.0], [0.0, 1.0]]))
        non_finite = [("c", math.nan), ("c", math.inf), ("lam", math.nan), ("tau_w", math.inf), ("sigma_xi", math.nan)]
        for key, value in non_finite:
            with pytest.raises(InvalidConfigError, match=f"must be finite, got {value}"):
                TeacherConfig(k=3, **{key: value})
        with pytest.raises(InvalidConfigError, match="c must be finite, got nan"):
            TeacherConfig.from_dict({**TeacherConfig(k=3).to_dict(), "c": math.nan})  # a dataset or params header

    def test_dict_round_trip(self):
        cfg = TeacherConfig(k=3, c=0.7, gamma=0.3, lam=0.2, tau_w=0.9, sigma_xi=0.1)
        again = TeacherConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()
        assert np.array_equal(again.u, cfg.u)


class TestTeacherLogits:
    def test_empty_history_gives_zero_logits(self):
        cfg = TeacherConfig(k=4)
        s = teacher_logits(History(4), cfg)
        assert np.array_equal(s, np.zeros(4))
        assert np.allclose(mix_policy(s, cfg.gamma), 0.25)

    def test_single_step_no_penalty(self):
        cfg = TeacherConfig(k=2, c=1.0, lam=0.0)
        s = teacher_logits(_history(2, [(0, 2.0)]), cfg)
        assert np.allclose(s, [2.0, 0.0], atol=1e-15)

    def test_single_step_with_penalty(self):
        cfg = TeacherConfig(k=2, c=1.0, lam=0.5)
        s = teacher_logits(_history(2, [(0, 2.0)]), cfg)
        assert np.allclose(s, [1.5, 0.0], atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidConfigError):
            teacher_logits(History(3), TeacherConfig(k=4))

    def test_identity_no_penalty_reduces_to_scaled_rewards(self):
        cfg = TeacherConfig(k=3, c=2.0, lam=0.0)
        h = _history(3, [(0, 1.0), (2, -0.5), (0, 0.25)])
        assert np.array_equal(teacher_logits(h, cfg), (2.0 / 3) * h.g)

    def test_linearity_in_rewards(self):
        cfg = TeacherConfig(k=3, c=1.0, lam=0.4)
        steps = [(0, 1.0), (1, -2.0), (0, 0.5)]
        doubled = [(a, 2 * r) for a, r in steps]
        s1 = teacher_logits(_history(3, steps), cfg)
        s2 = teacher_logits(_history(3, doubled), cfg)
        # Doubling rewards doubles the reward-channel part exactly; the
        # penalty part is unchanged.
        h = _history(3, steps)
        penalty = (cfg.c / 3) * (cfg.v @ h.n)
        assert np.allclose(s2 - penalty, 2 * (s1 - penalty), atol=1e-14)


class TestMixPolicy:
    def test_zero_logits_uniform(self):
        for gamma in (0.0, 0.2, 0.9):
            assert np.allclose(mix_policy(np.zeros(4), gamma), 0.25, atol=1e-15)

    def test_softmax_evaluation(self):
        p = mix_policy(np.array([math.log(3.0), 0.0]), 0.0)
        assert np.allclose(p, [0.75, 0.25], atol=1e-12)

    def test_formula_evaluation(self):
        # Independent scalar route: 0.8 * sigmoid(10) + 0.1.
        sigmoid = 1.0 / (1.0 + math.exp(-10.0))
        p = mix_policy(np.array([10.0, 0.0]), 0.2)
        assert p[0] == pytest.approx(0.8 * sigmoid + 0.1, abs=1e-12)

    @given(
        st.lists(st.floats(-30, 30), min_size=2, max_size=8),
        st.floats(0, 200),
        st.floats(0, 0.99),
    )
    @settings(deadline=None, max_examples=100)
    def test_shift_invariance(self, logits, shift, gamma):
        s = np.asarray(logits)
        p1 = mix_policy(s, gamma)
        p2 = mix_policy(s + shift, gamma)
        assert np.abs(p1 - p2).max() < 1e-12

    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=8), st.floats(0, 1))
    @settings(deadline=None, max_examples=100)
    def test_floor_and_normalization(self, logits, gamma):
        p = mix_policy(np.asarray(logits), gamma)
        k = len(logits)
        assert p.min() >= gamma / k - 1e-12
        assert abs(p.sum() - 1.0) < 1e-12

    def test_row_does_not_depend_on_batch_position_or_layout(self):
        """A row's mixed policy is the same wherever it sits in a batch, for C-
        and F-ordered input; up to 7 arms it is the plain numpy formula."""
        rng = np.random.default_rng(21)
        for k in (2, 5, 7, 8, 10, 16):
            s = rng.normal(size=(3, 50, k)) * 4
            alone = np.stack([[mix_policy(row, 0.3) for row in block] for block in s])
            for batch in (s, np.asfortranarray(s), s.reshape(150, k), np.asfortranarray(s.reshape(150, k))):
                assert np.array_equal(mix_policy(batch, 0.3).reshape(s.shape), alone)
            assert np.array_equal(mix_policy(s[:, ::-1], 0.3)[:, ::-1], alone)
            if k <= 7:
                z = np.exp(s - s.max(axis=-1, keepdims=True))
                assert np.array_equal(alone, 0.7 * (z / z.sum(axis=-1, keepdims=True)) + 0.3 / k)


class TestCoverageMargin:
    def test_zero_noise(self):
        cfg = TeacherConfig(k=10, c=1.0, gamma=0.2, tau_w=1.0, sigma_xi=0.0)
        assert coverage_margin(cfg) == pytest.approx(0.02, abs=1e-15)

    def test_matching_config_value(self, matching_cfg):
        # Direct arithmetic: 1.0*0.2/10 - (1-0.2)*1.0*1.0*0.5^2/2.
        expected = 0.02 - 0.8 * 0.25 / 2.0
        assert coverage_margin(matching_cfg) == pytest.approx(expected, abs=1e-15)
        assert coverage_margin(matching_cfg) < 0  # flagged, never fatal

    def test_small_exploration_goes_negative(self):
        cfg = TeacherConfig(k=5, c=1.0, gamma=1e-6, tau_w=1.0, sigma_xi=0.5)
        assert coverage_margin(cfg) < 0
