"""Environment tests: CRN addressing, task sampling, rewards, coupled draws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icpo_lab.bandit import CrnStream, History, coupled_sample, draw_reward, sample_task
from icpo_lab.errors import InvalidConfigError, InvalidDistributionError


class TestCrnStream:
    def test_same_address_same_draw(self):
        a = CrnStream(seed=99, stream_id=3)
        b = CrnStream(seed=99, stream_id=3)
        assert np.array_equal(a.uniforms(17), b.uniforms(17))
        assert np.array_equal(a.normals(17), b.normals(17))

    def test_draws_do_not_depend_on_call_order(self):
        a = CrnStream(seed=5, stream_id=0)
        u_early = a.uniforms(4)
        b = CrnStream(seed=5, stream_id=0)
        b.normals(3)
        b.task_normals(3)
        assert np.array_equal(b.uniforms(4), u_early)

    def test_round_value_does_not_depend_on_horizon(self):
        s = CrnStream(seed=8, stream_id=2)
        assert np.array_equal(s.uniforms(5), s.uniforms(10)[:5])
        assert np.array_equal(s.normals(5), s.normals(10)[:5])

    def test_purposes_are_independent_substreams(self):
        s = CrnStream(seed=1, stream_id=0)
        assert s.uniforms(1)[0] != s.normals(1)[0]

    def test_purposes_share_no_philox_word(self):
        """Purposes sit where the counter never advances, so no output block repeats."""
        s = CrnStream(seed=1, stream_id=4)
        words = [set(s._generator(purpose).bit_generator.random_raw(1024).tolist()) for purpose in range(3)]
        assert all(len(w) == 1024 for w in words)
        assert not words[0] & words[1] and not words[0] & words[2] and not words[1] & words[2]

    def test_distinct_streams_differ(self):
        assert CrnStream(1, 0).uniforms(1)[0] != CrnStream(1, 1).uniforms(1)[0]
        assert CrnStream(1, 0).uniforms(1)[0] != CrnStream(2, 0).uniforms(1)[0]

    def test_uniform_range(self):
        us = CrnStream(seed=7).uniforms(200)
        assert np.all((0.0 <= us) & (us < 1.0))


class TestSampleTask:
    def test_zero_prior_gives_zero_vector(self):
        w = sample_task(CrnStream(0), k=4, tau_w=0.0)
        assert np.array_equal(w, np.zeros(4))

    def test_deterministic_on_repeat(self):
        w1 = sample_task(CrnStream(11, 2), k=3, tau_w=1.0)
        w2 = sample_task(CrnStream(11, 2), k=3, tau_w=1.0)
        assert np.array_equal(w1, w2)

    def test_invalid_config(self):
        with pytest.raises(InvalidConfigError):
            sample_task(CrnStream(0), k=1, tau_w=1.0)
        with pytest.raises(InvalidConfigError):
            sample_task(CrnStream(0), k=3, tau_w=-0.5)

    def test_monte_carlo_variance(self):
        """Per-coordinate sample variance within 5% of tau_w^2 at 1e5 draws."""
        k, n = 10, 100_000
        draws = np.stack([sample_task(CrnStream(123, i), k, 1.0) for i in range(n)])
        var = draws.var(axis=0)
        assert np.all(np.abs(var - 1.0) < 0.05)


class TestDrawReward:
    def test_noiseless(self):
        assert draw_reward(np.array([1.0, 2.0]), 1, noise=0.7, sigma_xi=0.0) == 2.0

    def test_zero_task(self):
        assert draw_reward(np.zeros(3), 0, noise=0.5, sigma_xi=1.0) == 0.5

    def test_direct_evaluation(self):
        got = draw_reward(np.array([0.3, -0.1]), 0, noise=-1.0, sigma_xi=0.5)
        assert got == pytest.approx(-0.2, abs=1e-15)

    def test_out_of_range_action(self):
        with pytest.raises(IndexError):
            draw_reward(np.array([1.0, 2.0]), 2, noise=0.0, sigma_xi=1.0)

    def test_batch_matches_rows(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(6, 4))
        actions = rng.integers(0, 4, size=6)
        noise = rng.normal(size=6)
        got = draw_reward(w, actions, noise, sigma_xi=0.3)
        want = [draw_reward(w[i], int(actions[i]), noise[i], 0.3) for i in range(6)]
        assert np.array_equal(got, want)

    def test_batch_rejects_one_bad_action(self):
        with pytest.raises(IndexError):
            draw_reward(np.zeros((3, 2)), np.array([0, 1, 2]), np.zeros(3), sigma_xi=1.0)


class TestCoupledSample:
    def test_point_mass(self):
        for u in (0.0, 0.3, 0.999999):
            assert coupled_sample(np.array([1.0, 0.0, 0.0]), u) == 0

    def test_cdf_inversion(self):
        assert coupled_sample(np.array([0.5, 0.5]), 0.75) == 1
        assert coupled_sample(np.array([0.5, 0.5]), 0.25) == 0

    def test_off_simplex_rejected(self):
        with pytest.raises(InvalidDistributionError):
            coupled_sample(np.array([0.6, 0.6]), 0.5)
        with pytest.raises(InvalidDistributionError):
            coupled_sample(np.array([-0.1, 1.1]), 0.5)

    def test_batch_matches_rows(self):
        rng = np.random.default_rng(5)
        p = rng.dirichlet(np.ones(5), size=200)
        p[0] = [0.0, 0.0, 0.0, 0.0, 1.0]
        us = rng.random(200)
        us[0] = 0.9999999999
        got = coupled_sample(p, us)
        assert np.array_equal(got, [coupled_sample(p[i], us[i]) for i in range(200)])

    def test_beyond_rounded_mass_falls_back_to_last_arm(self):
        p = np.full(10, 0.1)
        u = np.nextafter(1.0, 0.0)
        assert not np.any(np.cumsum(p) > u)  # ten 0.1s sum to just below 1
        assert coupled_sample(p, u) == 9
        assert coupled_sample(np.stack([p, p]), np.array([u, 0.05])).tolist() == [9, 0]

    def test_batch_rejects_one_bad_row(self):
        p = np.array([[0.5, 0.5], [0.6, 0.6]])
        with pytest.raises(InvalidDistributionError):
            coupled_sample(p, np.array([0.1, 0.2]))

    def test_identical_policies_identical_draws(self):
        """Coupling oracle: same p and shared uniforms give the same actions."""
        rng = np.random.default_rng(0)
        p = np.array([0.2, 0.5, 0.3])
        us = rng.random(10_000)
        seq1 = [coupled_sample(p, u) for u in us]
        seq2 = [coupled_sample(p.copy(), u) for u in us]
        assert seq1 == seq2

    def test_disagreement_rate_is_tv_distance(self):
        """Empirical disagreement matches half the L1 gap within 3 standard errors."""
        rng = np.random.default_rng(42)
        p = np.array([0.5, 0.3, 0.2])
        q = np.array([0.4, 0.4, 0.2])
        tv = 0.5 * np.abs(p - q).sum()
        n = 100_000
        us = rng.random(n)
        disagree = np.mean([coupled_sample(p, u) != coupled_sample(q, u) for u in us])
        se = np.sqrt(tv * (1 - tv) / n)
        assert abs(disagree - tv) <= 3 * se


class TestHistory:
    def test_append_and_stats(self):
        h = History(3)
        h.append(0, 2.0)
        h.append(2, -1.0)
        h.append(0, 0.5)
        assert np.array_equal(h.n, [2.0, 0.0, 1.0])
        assert np.array_equal(h.g, [2.5, 0.0, -1.0])

    def test_out_of_range_action(self):
        with pytest.raises(IndexError):
            History(2).append(2, 1.0)

    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=3), st.floats(-5, 5)),
            max_size=40,
        )
    )
    @settings(deadline=None, max_examples=50)
    def test_stats_match_fresh_recomputation(self, steps):
        h = History(4)
        for action, reward in steps:
            h.append(action, reward)
        n, g = h.recompute_stats()
        assert np.array_equal(h.n, n)
        assert np.array_equal(h.g, g)

    def test_one_hot_invariant(self):
        h = History(5)
        h.append(3, 1.0)
        assert h.steps[0].action == 3
        assert np.array_equal(h.n, np.eye(5)[3])
