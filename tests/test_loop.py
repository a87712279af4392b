"""Closed-loop tests: the batched kernel, rollouts, coupling, matching, shock constants and envelope."""

import math
import re

import numpy as np
import pytest

from icpo_lab.bandit import coupled_sample, draw_reward
from icpo_lab.errors import InvalidConfigError
from icpo_lab.loop import (
    BLOCK_ROWS,
    closed_loop,
    matching_experiment,
    shock_constants,
    shock_experiment,
    task_blocks,
)
from icpo_lab.lsa import TwoChannelParams, expert_two_channel, teacher_two_channel
from icpo_lab.pretrain import generate_dataset
from icpo_lab.reference import (
    CrnStream,
    History,
    rollout,
    sample_b_distribution,
    sample_task,
    shock_bound,
    teacher_logits,
    two_channel_logits,
)
from icpo_lab.teacher import TeacherConfig, mix_policy


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
        p = mix_policy(drive(history), cfg.gamma)
        driven.append(p)
        scored.append(mix_policy(score(history), cfg.gamma))
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
        """B=3 equals the first three of a B that spans three blocks, and rows
        either side of a block boundary equal their own one-row rollout, bit for bit."""
        cfg = _cfg(k=10, c=0.7, gamma=0.3, sigma_xi=0.5, h=np.diag(np.linspace(0.5, 3.0, 10)))
        n = 6
        b = 2 * BLOCK_ROWS + 76
        expert = expert_two_channel(cfg)

        def kernel_policies(tasks):
            policies = np.zeros((tasks, n, cfg.k))
            for rows, w, uniforms, noise in task_blocks(cfg, tasks, n, 31):
                for rnd in closed_loop(expert.stacked[np.newaxis], w, uniforms, noise, cfg):
                    policies[rows, rnd.t - 1] = rnd.policies[0]
            return policies

        small = generate_dataset(cfg, b=3, n=n, seed=31)
        large = generate_dataset(cfg, b=b, n=n, seed=31)
        for field in ("w", "actions", "rewards"):
            assert np.array_equal(getattr(small, field), getattr(large, field)[:3])
        policies = kernel_policies(b)
        assert np.array_equal(kernel_policies(3), policies[:3])
        for tau in (0, BLOCK_ROWS - 1, BLOCK_ROWS, b - 1):
            single = rollout(expert, large.w[tau], cfg, n, CrnStream(31, tau))
            assert np.array_equal(single.actions, large.actions[tau])
            assert np.array_equal(single.rewards, large.rewards[tau])
            assert np.array_equal(single.policies, policies[tau])

    def test_running_logits_equal_the_full_product(self):
        """Every yielded logits array is ops @ [counts | reward sums] / t, rebuilt
        from the yielded actions and rewards, and later rounds leave it as it was."""
        rng = np.random.default_rng(41)
        k, b, t_max = 6, 9, 40
        cfg = _cfg(k=k, sigma_xi=0.5)
        ops = rng.normal(size=(2, k, 2 * k))
        w, uniforms, noise = rng.normal(size=(b, k)), rng.random((b, t_max)), rng.normal(size=(b, t_max))
        rounds, copies = [], []
        for rnd in closed_loop(ops, w, uniforms, noise, cfg, shock=(5, rng.normal(size=b))):
            rounds.append(rnd)
            copies.append(rnd.logits.copy())
        state = np.zeros((b, 2 * k))
        for rnd, logits in zip(rounds, copies):
            state[np.arange(b), rnd.actions] += 1.0
            state[np.arange(b), k + rnd.actions] += rnd.rewards
            assert np.abs(rnd.logits - np.einsum("rkj,bj->rbk", ops, state) / rnd.t).max() <= 1e-12
            assert np.array_equal(rnd.logits, logits)


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

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_its_range_is_refused(self, seed):
        """Seed -1 used to return seed 2**64 - 1's report."""
        cfg = _cfg(k=3)
        with pytest.raises(InvalidConfigError, match=rf"^seed must be in \[0, 2\*\*64\), got {seed}$"):
            matching_experiment(cfg, teacher_two_channel(cfg), b_test=2, n=3, seed=seed)

    @pytest.mark.parametrize("b_test, n", [(0, 6), (-2, 6), (4, 0)])
    def test_empty_run_is_rejected(self, b_test, n):
        cfg = _cfg(k=3)
        with pytest.raises(InvalidConfigError, match="need b_test >= 1"):
            matching_experiment(cfg, teacher_two_channel(cfg), b_test=b_test, n=n, seed=3)


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

    @pytest.mark.parametrize("h", ["identity", "spd"])
    def test_batch_matches_per_task_calls(self, h):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(5, 5))
        cfg = _cfg(lam=0.3, h=None if h == "identity" else m @ m.T + np.eye(5))
        w = rng.normal(size=(20, cfg.k))
        a, b = shock_constants(cfg, w)
        assert b.shape == (20,)
        for row, b_row in zip(w, b):
            a_row, want = shock_constants(cfg, row)
            assert isinstance(want, float) and a_row == a and b_row == want
            # The per-task form it replaced: V + U diag(w) built as a matrix product, normed by SVD.
            # Equal for a diagonal H; for a dense one the eigenvalue route moves the last bits.
            vw_norm = float(np.linalg.norm(cfg.v + cfg.u @ np.diag(row), ord=2))
            lead = cfg.c * (1.0 - cfg.gamma) / 2.0
            u_norm = float(np.linalg.norm(cfg.u, ord=2))
            svd = lead * math.sqrt(cfg.k / 2.0) * (vw_norm + math.sqrt(2.0 / math.pi) * cfg.sigma_xi * u_norm)
            assert want == svd if h == "identity" else want == pytest.approx(svd, rel=2e-15, abs=0)

    @pytest.mark.parametrize("h", ["identity", "diagonal", "dense"])
    def test_norm_against_svd(self, h):
        """||V + U diag(w)||_2 as the root of a top eigenvalue: the SVD's bits for a diagonal H,
        within 2e-15 relative of them for a dense one, over 1000 tasks at K = 5."""
        rng = np.random.default_rng(12)
        m = rng.normal(size=(5, 5))
        regularizers = {"identity": None, "diagonal": np.diag(rng.uniform(0.5, 3.0, 5)), "dense": m @ m.T + np.eye(5)}
        cfg = _cfg(h=regularizers[h])
        w = rng.normal(size=(1000, cfg.k))
        svd = np.linalg.norm(cfg.v + cfg.u * w[:, np.newaxis, :], ord=2, axis=(-2, -1))
        lead = cfg.c * (1.0 - cfg.gamma) / 2.0
        u_norm = float(np.linalg.norm(cfg.u, ord=2))
        want = lead * math.sqrt(cfg.k / 2.0) * (svd + math.sqrt(2.0 / math.pi) * cfg.sigma_xi * u_norm)
        b = shock_constants(cfg, w)[1]
        if h == "dense":
            np.testing.assert_allclose(b, want, rtol=2e-15, atol=0)
        else:
            assert np.array_equal(b, want)

    def test_distribution_matches_per_task_loop(self):
        """The tasks span two blocks; each task's b is its own one-task call."""
        cfg = _cfg()
        b = BLOCK_ROWS + 88
        want = [shock_constants(cfg, task)[1] for _, w, _, _ in task_blocks(cfg, b, 0, 11) for task in w]
        assert len(want) == b
        assert np.array_equal(sample_b_distribution(cfg, b, seed=11), want)


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

    @pytest.mark.parametrize("b_test, n", [(0, 6), (-2, 6), (4, 0)])
    def test_empty_run_is_rejected(self, b_test, n):
        cfg = _cfg(k=3)
        with pytest.raises(InvalidConfigError, match="need b_test >= 1"):
            shock_experiment(cfg, teacher_two_channel(cfg), b_test=b_test, n=n, s=1, delta_r=1.0, seed=0)

    @staticmethod
    def _reference_bounds(rep, task):
        """Task's envelope row from `shock_bound`, zero before the shock round."""
        a, b, c_b, s = rep.a, float(rep.b_values[task]), float(rep.c_b_values[task]), rep.s
        tail = [shock_bound(a, b, c_b, s, max(u - 1, s), rep.delta_r) for u in range(s, rep.n + 1)]
        return np.array([0.0] * (s - 1) + tail)

    @pytest.mark.parametrize("c_b_override", [None, 9.0])
    @pytest.mark.parametrize("s", [1, 3, 6])
    def test_bounds_are_shock_bound_bit_for_bit(self, c_b_override, s):
        cfg = _cfg(k=3)
        tc = teacher_two_channel(cfg)
        for seed in range(4):
            # One task: the averaged bound is that task's row.
            rep = shock_experiment(cfg, tc, b_test=1, n=6, s=s, delta_r=-0.7, seed=seed, c_b_override=c_b_override)
            assert np.array_equal(rep.bound, self._reference_bounds(rep, 0))
            want_c_b = math.exp(rep.b_values[0]) if c_b_override is None else c_b_override
            assert rep.c_b_values[0] == want_c_b
        # Tasks in more than one block: the average of every task's row.
        b_test = BLOCK_ROWS // 2 + 3
        rep = shock_experiment(cfg, tc, b_test=b_test, n=6, s=s, delta_r=-0.7, seed=4, c_b_override=c_b_override)
        want = np.stack([self._reference_bounds(rep, task) for task in range(b_test)])
        assert np.array_equal(rep.bound, want.mean(axis=0))
        # Scalar `math.exp` for every task: numpy's exp differs in the last bit on a few percent of them.
        want_c_b = [math.exp(b) if c_b_override is None else c_b_override for b in rep.b_values.tolist()]
        assert rep.c_b_values.tolist() == want_c_b

    @pytest.mark.parametrize(
        "cfg, b_test, n, s, c_b_override, delta_r, cause",
        [
            (_cfg(c=3400.0), 20, 10, 2, None, 1.0, "largest b = 726.691, |delta_r| = 1"),
            (_cfg(c=3000.0), 20, 10, 2, 1.0, 1.0, "largest b = 641.198, C_b = 1, |delta_r| = 1"),
            (_cfg(c=2535.0), 20, 3, 1, None, 1.0, "largest b = 541.812, |delta_r| = 1"),
            (_cfg(c=0.5), 2, 2, 1, 1e300, 2e9, "largest b = 0.10186, C_b = 1e+300, |delta_r| = 2e+09"),
            (TeacherConfig(k=3), 4, 6, 2, None, 1e308, "largest b = 1.33068, |delta_r| = 1e+308"),
        ],
        ids=["exp", "power", "product", "mean", "delta_r"],
    )
    def test_envelope_past_float64_is_a_config_error(self, cfg, b_test, n, s, c_b_override, delta_r, cause):
        """At c = 3400 some task's b passes 709.78, where exp(b) leaves float64; at c = 3000,
        (t/s)^(b-1) does.  Near b = 540 both stay finite but the envelope, their product, does not.
        With C_b = 1e300 and delta_r = 2e9 each task's envelope is about 1e308, but the mean's sum
        is not; with delta_r = 1e308 the envelope is finite at |delta_r| = 1.  Each error names every
        input that scales the envelope, without evaluating it again: the largest b, C_b when it is
        set, and |delta_r|."""
        assert f"largest b = {sample_b_distribution(cfg, b_test, 0).max():.6g}," in cause
        tc = TwoChannelParams.zeros(cfg.k)
        with pytest.raises(InvalidConfigError, match=rf"^the drift envelope overflows float64: {re.escape(cause)}$"):
            shock_experiment(cfg, tc, b_test=b_test, n=n, s=s, delta_r=delta_r, seed=0, c_b_override=c_b_override)

    def test_c_b_override_scales_bound(self):
        cfg = _cfg(k=3)
        tc = teacher_two_channel(cfg)
        auto = shock_experiment(cfg, tc, b_test=4, n=6, s=2, delta_r=1.0, seed=9)
        fixed = shock_experiment(cfg, tc, b_test=4, n=6, s=2, delta_r=1.0, seed=9, c_b_override=9.0)
        assert np.all(fixed.bound[1:] > auto.bound[1:])
        assert np.array_equal(fixed.mean, auto.mean)
