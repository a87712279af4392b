"""Closed-loop tests: the batched kernel, rollouts, coupling, matching, shock constants and envelope."""

import math

import numpy as np
import pytest

from icpo_lab.bandit import CrnStream, History, coupled_sample, draw_reward, sample_task
from icpo_lab.errors import InvalidConfigError
from icpo_lab.loop import (
    BLOCK_ROWS,
    closed_loop,
    matching_experiment,
    rollout,
    sample_b_distribution,
    shock_bound,
    shock_constants,
    shock_experiment,
)
from icpo_lab.lsa import TwoChannelParams, expert_two_channel, teacher_two_channel, two_channel_logits
from icpo_lab.pretrain import generate_dataset
from icpo_lab.teacher import TeacherConfig, mix_policy, teacher_logits


def _cfg(**kwargs):
    defaults = dict(k=5, c=0.5, gamma=0.8, lam=0.1, tau_w=0.5, sigma_xi=0.1)
    defaults.update(kwargs)
    return TeacherConfig(**defaults)


def _scalar_loop(drive, score, w, cfg, uniforms, noise, shock=None):
    """One task one round at a time on a History: the kernel's oracle.

    `drive` and `score` map a history to logits; `drive` chooses the actions.
    Returns both operators' mixed policies per round and the actions.
    """
    history = History(cfg.k)
    driven, scored, actions = [], [], []
    for t in range(1, len(uniforms) + 1):
        p = mix_policy(drive(history), cfg.gamma).p
        driven.append(p)
        scored.append(mix_policy(score(history), cfg.gamma).p)
        action = coupled_sample(p, uniforms[t - 1])
        reward = draw_reward(w, action, noise[t - 1], cfg.sigma_xi)
        if shock is not None and t == shock[0]:
            reward += shock[1]
        history.append(action, reward)
        actions.append(action)
    return np.array(driven), np.array(scored), np.array(actions)


def _random_cfg(rng, k):
    h = None
    if rng.random() < 0.5:
        a = rng.normal(size=(k, k))
        h = a @ a.T + 0.5 * np.eye(k)
    return TeacherConfig(
        k=k,
        c=float(rng.uniform(0.2, 2.0)),
        gamma=float(rng.uniform(0.05, 0.9)),
        lam=float(rng.uniform(0.0, 1.0)),
        tau_w=float(rng.uniform(0.3, 1.5)),
        sigma_xi=float(rng.uniform(0.0, 0.7)),
        h=h,
    )


class TestClosedLoopKernel:
    def test_matches_scalar_oracle(self):
        """A perturbed student drives while the expert is scored, with and without a shock."""
        rng = np.random.default_rng(2024)
        for trial in range(24):
            k = int(rng.choice([2, 5, 10]))
            cfg = _random_cfg(rng, k)
            expert = teacher_two_channel(cfg)
            student = TwoChannelParams(
                w_n=expert.w_n + 0.3 * rng.normal(size=(k, k)),
                w_g=expert.w_g + 0.3 * rng.normal(size=(k, k)),
            )
            b, t_max = 7, 15
            streams = [CrnStream(500 + trial, tau) for tau in range(b)]
            w = np.stack([sample_task(st, k, cfg.tau_w) for st in streams])
            uniforms = np.stack([st.uniforms(t_max) for st in streams])
            noise = np.stack([st.normals(t_max) for st in streams])
            shock = None if trial % 2 else (int(rng.integers(1, t_max + 1)), rng.normal(size=b))
            ops = np.stack([student.stacked, expert_two_channel(cfg).stacked])
            rounds = list(closed_loop(ops, w, uniforms, noise, cfg, shock))
            for i in range(b):
                driven, scored, actions = _scalar_loop(
                    lambda h: two_channel_logits(h, student),
                    lambda h: teacher_logits(h, cfg),
                    w[i],
                    cfg,
                    uniforms[i],
                    noise[i],
                    None if shock is None else (shock[0], shock[1][i]),
                )
                assert np.array_equal([rnd.actions[i] for rnd in rounds], actions)
                assert np.abs(np.stack([rnd.policies[0, i] for rnd in rounds]) - driven).max() <= 1e-12
                assert np.abs(np.stack([rnd.policies[1, i] for rnd in rounds]) - scored).max() <= 1e-12

    def test_rows_do_not_depend_on_block(self):
        """B=3 equals the first three of B=1100, and rows either side of a
        block boundary equal their own one-row rollout, bit for bit."""
        cfg = _cfg(k=10, c=0.7, gamma=0.3, sigma_xi=0.5, h=np.diag(np.linspace(0.5, 3.0, 10)))
        n = 6
        small = generate_dataset(cfg, b=3, n=n, seed=31)
        large = generate_dataset(cfg, b=1100, n=n, seed=31)
        for t1, t2 in zip(small.trajectories, large.trajectories):
            for field in ("w", "actions", "rewards", "logits", "policies"):
                assert np.array_equal(getattr(t1, field), getattr(t2, field))
        expert = expert_two_channel(cfg)
        for tau in (0, BLOCK_ROWS - 1, BLOCK_ROWS, 1099):
            traj = large.trajectories[tau]
            single = rollout(expert, traj.w, cfg, n, CrnStream(31, tau))
            assert np.array_equal(single.actions, traj.actions)
            assert np.array_equal(single.rewards, traj.rewards)
            assert np.array_equal(single.policies[: n - 1], traj.policies)


class TestRollout:
    def test_null_shock_is_identical_to_baseline(self):
        cfg = _cfg()
        tc = teacher_two_channel(cfg)
        w = sample_task(CrnStream(1, 0), cfg.k, cfg.tau_w)
        base = rollout(tc, w, cfg, 8, CrnStream(7, 0))
        shocked = rollout(tc, w, cfg, 8, CrnStream(7, 0), shock=(3, 0.0))
        assert np.array_equal(base.policies, shocked.policies)
        assert np.array_equal(base.actions, shocked.actions)
        assert np.array_equal(base.rewards, shocked.rewards)

    def test_expert_channels_reproduce_expert_rollout(self):
        cfg = _cfg()
        w = sample_task(CrnStream(5, 0), cfg.k, cfg.tau_w)
        student = rollout(teacher_two_channel(cfg), w, cfg, 12, CrnStream(9, 0))
        expert = rollout(expert_two_channel(cfg), w, cfg, 12, CrnStream(9, 0))
        assert np.array_equal(student.actions, expert.actions)
        assert np.abs(student.policies - expert.policies).max() <= 1e-10

    def test_first_round_policy_is_uniform(self):
        cfg = _cfg()
        res = rollout(teacher_two_channel(cfg), np.zeros(cfg.k), cfg, 1, CrnStream(2, 0))
        assert np.allclose(res.policies[0], 1.0 / cfg.k, atol=1e-15)

    def test_shock_round_out_of_range(self):
        cfg = _cfg()
        with pytest.raises(InvalidConfigError):
            rollout(teacher_two_channel(cfg), np.zeros(cfg.k), cfg, 5, CrnStream(0), shock=(6, 1.0))

    def test_coupled_prefix_identity(self):
        """Everything before the shock round agrees exactly across the pair."""
        cfg = _cfg()
        tc = teacher_two_channel(cfg)
        w = sample_task(CrnStream(8, 0), cfg.k, cfg.tau_w)
        s = 4
        base = rollout(tc, w, cfg, 9, CrnStream(17, 0))
        shocked = rollout(tc, w, cfg, 9, CrnStream(17, 0), shock=(s, 1.0))
        assert np.array_equal(base.actions[: s - 1], shocked.actions[: s - 1])
        assert np.array_equal(base.rewards[: s - 1], shocked.rewards[: s - 1])
        # Policies are computed before the shocked reward lands, so they
        # agree through round s itself.
        assert np.array_equal(base.policies[:s], shocked.policies[:s])

    def test_shocked_reward_recorded_in_history_only(self):
        cfg = _cfg(sigma_xi=0.0)
        tc = teacher_two_channel(cfg)
        w = np.arange(cfg.k, dtype=float)
        base = rollout(tc, w, cfg, 4, CrnStream(3, 0))
        shocked = rollout(tc, w, cfg, 4, CrnStream(3, 0), shock=(2, 5.0))
        assert shocked.rewards[1] == base.rewards[1] + 5.0
        assert shocked.actions[1] == base.actions[1]  # same round, same draw


class TestMatchingExperiment:
    def test_exact_student_has_negligible_gap(self):
        cfg = _cfg(k=3)
        rep = matching_experiment(cfg, teacher_two_channel(cfg), b_test=6, n=8, seed=3)
        assert rep.mean.max() <= 1e-10
        assert rep.rounds.tolist() == list(range(1, 9))
        assert np.all(rep.mean >= 0)


class TestShockConstants:
    def test_full_exploration_kills_both(self):
        cfg = _cfg(gamma=1.0)
        a, b = shock_constants(cfg, np.ones(cfg.k))
        assert a == 0.0 and b == 0.0

    def test_noiseless_zero_task_no_penalty(self):
        cfg = _cfg(lam=0.0, sigma_xi=0.0, gamma=0.0, c=1.0)
        a, b = shock_constants(cfg, np.zeros(cfg.k))
        assert a == pytest.approx(0.5)
        assert b == pytest.approx(0.0, abs=1e-15)

    def test_formula_against_independent_evaluation(self):
        """Diagonal case oracle: the operator norm is max_i |w_i - lambda|."""
        cfg = _cfg(lam=0.3, gamma=0.6, c=0.8, sigma_xi=0.2)
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = rng.normal(size=cfg.k)
            a, b = shock_constants(cfg, w)
            lead = 0.8 * 0.4 / 2.0
            want_b = lead * math.sqrt(cfg.k / 2.0) * (
                np.abs(w - 0.3).max() + math.sqrt(2.0 / math.pi) * 0.2
            )
            assert a == pytest.approx(lead)
            assert b == pytest.approx(want_b, rel=1e-12)

    def test_nonnegative_over_task_draws(self):
        cfg = _cfg()
        bs = sample_b_distribution(cfg, 64, seed=1)
        assert np.all(bs >= 0.0)


class TestShockBound:
    def test_value_at_shock_round(self):
        assert shock_bound(0.05, 0.1, 1.2, s=2, t=2, delta_r=1.0) == pytest.approx(0.05 * 2.2 / 2)

    def test_decreasing_for_small_exponent(self):
        values = [shock_bound(0.05, 0.3, 1.0, s=2, t=t, delta_r=1.0) for t in range(2, 40)]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_zero_shock_zero_bound(self):
        assert shock_bound(0.05, 0.3, 1.0, s=2, t=5, delta_r=0.0) == 0.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            shock_bound(0.05, 0.3, 1.0, s=5, t=4, delta_r=1.0)


@pytest.fixture(scope="module")
def small_report():
    cfg = _cfg(k=3)
    return shock_experiment(cfg, teacher_two_channel(cfg), b_test=24, n=8, s=3, delta_r=1.0, seed=5)


class TestShockExperiment:
    def test_pre_shock_rounds_exactly_zero(self, small_report):
        assert np.array_equal(small_report.mean[:3], np.zeros(3))
        assert np.array_equal(small_report.std[:3], np.zeros(3))

    def test_bound_positive_from_shock_round(self, small_report):
        assert np.all(small_report.bound[2:] > 0)
        assert np.array_equal(small_report.bound[:2], np.zeros(2))

    def test_null_shock_gives_zero_drift(self):
        cfg = _cfg(k=3)
        rep = shock_experiment(cfg, teacher_two_channel(cfg), b_test=6, n=6, s=2, delta_r=0.0, seed=5)
        assert np.array_equal(rep.mean, np.zeros(6))

    def test_shock_round_out_of_range(self):
        cfg = _cfg(k=3)
        with pytest.raises(InvalidConfigError):
            shock_experiment(cfg, teacher_two_channel(cfg), b_test=2, n=4, s=5, delta_r=1.0, seed=0)

    def test_c_b_override_scales_bound(self):
        cfg = _cfg(k=3)
        tc = teacher_two_channel(cfg)
        auto = shock_experiment(cfg, tc, b_test=4, n=6, s=2, delta_r=1.0, seed=9)
        fixed = shock_experiment(cfg, tc, b_test=4, n=6, s=2, delta_r=1.0, seed=9, c_b_override=9.0)
        assert np.all(fixed.bound[1:] > auto.bound[1:])
        assert np.array_equal(fixed.mean, auto.mean)
