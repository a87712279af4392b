"""Environment tests: CRN addressing, task sampling, rewards, coupled draws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icpo_lab.bandit import (
    PURPOSE_ACTION,
    PURPOSE_NOISE,
    PURPOSE_TASK,
    SIMPLEX_ATOL,
    _philox_words,
    arm_fold,
    check_simplex,
    coupled_sample,
    crn_draws,
    draw_reward,
)
from icpo_lab.errors import InvalidConfigError, InvalidDistributionError
from icpo_lab.reference import CrnStream, History, sample_task


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
        """Stream, block and purpose each sit in their own counter word, so no two of them
        share an output block, even where the stream id carries into word 1."""
        ranges = [range(0, 64), range(2**63 - 2, 2**63 + 2), range(2**64 - 4, 2**64)]
        words = np.concatenate([_philox_words(1, ids, p, 16).ravel() for ids in ranges for p in range(3)])
        assert len(np.unique(words)) == len(words) == 72 * 16 * 4 * 3

    def test_distinct_streams_differ(self):
        assert CrnStream(1, 0).uniforms(1)[0] != CrnStream(1, 1).uniforms(1)[0]
        assert CrnStream(1, 0).uniforms(1)[0] != CrnStream(2, 0).uniforms(1)[0]

    def test_uniform_range(self):
        us = CrnStream(seed=7).uniforms(200)
        assert np.all((0.0 <= us) & (us < 1.0))


class TestCrnDraws:
    RANGES = [range(0, 2), range(511, 513), range(19_999, 20_000), range(2**63 - 1, 2**63 + 1), range(2**64 - 2, 2**64)]

    @staticmethod
    def _reference(seed, stream_id, purpose, n):
        """One stream built by hand: block j is the Philox4x64-10 block keyed (seed, 0) at counter
        (stream id + 1, carry, j, purpose); Philox adds the one, with its carry, before it draws."""
        words = []
        for j in range(-(-n // 4)):
            bit_gen = np.random.Philox(
                key=np.array([seed, 0], dtype=np.uint64),
                counter=np.array([stream_id, 0, j, purpose], dtype=np.uint64),
            )
            words += bit_gen.random_raw(4).tolist()
        top = np.array([word >> 11 for word in words], dtype=float)  # 53 bits each
        if purpose == PURPOSE_ACTION:
            return top[:n] * 2.0**-53
        radius = np.sqrt(-2.0 * np.log((top[0::2] + 1.0) * 2.0**-53))
        theta = 2.0 * np.pi * (top[1::2] * 2.0**-53)
        return np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=1).ravel()[:n]

    @pytest.mark.parametrize("seed", [7, 2**64 - 3])
    @pytest.mark.parametrize("purpose", [PURPOSE_ACTION, PURPOSE_NOISE, PURPOSE_TASK])
    def test_rows_match_per_stream_philox(self, seed, purpose):
        for ids in self.RANGES:
            for n in (3, 40):
                got = crn_draws(seed, ids, purpose, n)
                assert got.shape == (len(ids), n)
                for row, stream_id in zip(got, ids):
                    assert np.array_equal(row, self._reference(seed, stream_id, purpose, n))
            assert np.array_equal(crn_draws(seed, ids, purpose, 40)[:, :3], crn_draws(seed, ids, purpose, 3))

    def test_normals_follow_the_scalar_formulas(self):
        """Box-Muller by `math`: numpy's vector log, cos and sin agree within a few ulp."""
        words = _philox_words(5, range(3, 4), PURPOSE_NOISE, 4)[0].tolist()
        want = []
        for a, b in zip(words[0::2], words[1::2]):
            radius = math.sqrt(-2.0 * math.log(((a >> 11) + 1) * 2.0**-53))
            theta = 2.0 * math.pi * (b >> 11) * 2.0**-53
            want += [radius * math.cos(theta), radius * math.sin(theta)]
        assert np.allclose(crn_draws(5, range(3, 4), PURPOSE_NOISE, 16)[0], want, rtol=1e-14, atol=1e-15)

    def test_stream_form_is_one_row(self):
        seed = 2**64 - 3
        s = CrnStream(seed=seed, stream_id=512)
        assert np.array_equal(s.uniforms(9), crn_draws(seed, range(512, 513), PURPOSE_ACTION, 9)[0])
        assert np.array_equal(s.normals(9), crn_draws(seed, range(512, 513), PURPOSE_NOISE, 9)[0])
        assert np.array_equal(s.task_normals(4), crn_draws(seed, range(512, 513), PURPOSE_TASK, 4)[0])

    def test_stream_form_masks_its_id(self):
        last = range(2**64 - 1, 2**64)
        assert CrnStream(7, -1).stream_id == 2**64 - 1
        assert np.array_equal(CrnStream(7, -1).normals(6), crn_draws(7, last, PURPOSE_NOISE, 6)[0])
        assert np.array_equal(CrnStream(7, 2**64).uniforms(6), crn_draws(7, range(1), PURPOSE_ACTION, 6)[0])

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_seed_outside_the_philox_keys_is_refused(self, seed):
        """The key used to be the seed mod 2**64: -1 drew what 2**64 - 1 draws, and 2**64 + 5 what 5 does."""
        with pytest.raises(InvalidConfigError, match=rf"^seed must be in \[0, 2\*\*64\), got {seed}$"):
            crn_draws(seed, range(2), PURPOSE_ACTION, 3)

    def test_seed_that_is_not_an_integer_is_refused(self):
        """A float seed used to be truncated, so 5.5 drew what 5 draws."""
        with pytest.raises(TypeError):
            crn_draws(5.5, range(2), PURPOSE_ACTION, 3)

    @pytest.mark.parametrize("ids", [range(0, 4, 2), range(-1, 1), range(2**64 - 1, 2**64 + 1)])
    def test_ids_outside_one_step_range_rejected(self, ids):
        with pytest.raises(ValueError, match="step-1 range inside"):
            crn_draws(1, ids, PURPOSE_ACTION, 3)

    def test_empty_shapes(self):
        assert crn_draws(1, range(3), PURPOSE_ACTION, 0).shape == (3, 0)
        assert crn_draws(1, range(3), PURPOSE_NOISE, 0).shape == (3, 0)
        assert crn_draws(1, range(0), PURPOSE_NOISE, 5).shape == (0, 5)


class TestCrnDistribution:
    """At fixed seeds, 10^5 draws of each kind: 200 streams x 500 rounds."""

    N = 200 * 500
    # Five standard errors for the mean and the variance, and the KS statistic's 0.1 %
    # critical value 1.95 / sqrt(N).  Var(s^2) is about (mu_4 - sigma^4) / N: 1/80 - 1/144
    # for U(0, 1), and 2 for N(0, 1).
    MEAN_TOL = {"uniform": 5 * math.sqrt(1 / 12 / N), "normal": 5 * math.sqrt(1 / N)}
    VAR_TOL = {"uniform": 5 * math.sqrt((1 / 80 - 1 / 144) / N), "normal": 5 * math.sqrt(2 / N)}
    KS_CRIT = 1.95 / math.sqrt(N)

    @staticmethod
    def _ks(sorted_x, cdf):
        f = np.array([cdf(x) for x in sorted_x.tolist()])
        i = np.arange(1, len(f) + 1) / len(f)
        return max(float(np.max(i - f)), float(np.max(f - (i - 1 / len(f)))))

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("purpose", [PURPOSE_ACTION, PURPOSE_NOISE, PURPOSE_TASK])
    def test_moments_and_ks(self, seed, purpose):
        x = crn_draws(seed, range(200), purpose, 500)
        kind = "uniform" if purpose == PURPOSE_ACTION else "normal"
        mean, var = (0.5, 1 / 12) if kind == "uniform" else (0.0, 1.0)
        assert abs(x.mean() - mean) < self.MEAN_TOL[kind]
        assert abs(x.var() - var) < self.VAR_TOL[kind]
        # Draws 2i and 2i + 1 (a Box-Muller pair for normals) are uncorrelated.
        pairs = x.reshape(-1, 2)
        assert abs(np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1]) < 5 / math.sqrt(len(pairs))
        if kind == "uniform":
            assert np.all((x >= 0.0) & (x < 1.0))
            cdf = float
        else:
            cdf = lambda v: 0.5 * (1.0 + math.erf(v / math.sqrt(2.0)))  # noqa: E731
        assert self._ks(np.sort(x, axis=None), cdf) < self.KS_CRIT


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
        draws = 1.0 * crn_draws(123, range(n), PURPOSE_TASK, k)  # tau_w = 1, as `sample_task` scales
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


class TestCheckSimplex:
    def test_returns_the_checked_floats(self):
        p = check_simplex([[1, 0], [0.25, 0.75]])
        assert p.dtype == float and np.array_equal(p, [[1.0, 0.0], [0.25, 0.75]])

    def test_floor_allows_round_off_below_it(self):
        floor = 0.1
        check_simplex(np.array([floor - SIMPLEX_ATOL / 2, 1.0 - floor + SIMPLEX_ATOL / 2]), floor)
        with pytest.raises(InvalidDistributionError, match="below the floor 0.1"):
            check_simplex(np.array([0.05, 0.95]), floor)
        with pytest.raises(InvalidDistributionError, match="below the floor 0.0"):
            check_simplex(np.array([-1e-9, 1.0 + 1e-9]))

    @pytest.mark.parametrize("bad", [[np.nan, 1.0], [0.5, np.inf], 1.0, [0.5, 0.5 + 1e-11]])
    def test_rejects(self, bad):
        with pytest.raises(InvalidDistributionError):
            check_simplex(np.array(bad))


class TestCoupledSample:
    def test_point_mass(self):
        for u in (0.0, 0.3, 0.999999):
            assert coupled_sample(np.array([1.0, 0.0, 0.0]), u) == 0

    def test_cdf_inversion(self):
        assert coupled_sample(np.array([0.5, 0.5]), 0.75) == 1
        assert coupled_sample(np.array([0.5, 0.5]), 0.25) == 0

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

    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(2, 12),
        shape=st.sampled_from([(), (7,), (3, 4)]),
        below_zero=st.booleans(),
        on_partial_sum=st.booleans(),
    )
    @settings(deadline=None, max_examples=200)
    def test_matches_cumsum_oracle(self, seed, k, shape, below_zero, on_partial_sum):
        """The per-arm count equals the old cumsum / any / argmax formula, with
        entries just below 0 and uniforms exactly on a partial sum."""
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.full(k, 0.5), size=shape)
        if below_zero:
            p[..., rng.integers(k - 1)] = -rng.uniform(0.0, SIMPLEX_ATOL / 2)
            p[..., -1] += 1.0 - p.sum(axis=-1)
        u = rng.random(shape)
        if on_partial_sum:
            u = np.take_along_axis(np.cumsum(p, axis=-1), rng.integers(k - 1, size=shape + (1,)), axis=-1)[..., 0]
            u = np.clip(u, 0.0, np.nextafter(1.0, 0.0))
        above = np.cumsum(p, axis=-1) > u[..., np.newaxis]
        want = np.where(above.any(axis=-1), above.argmax(axis=-1), k - 1)
        got = coupled_sample(p, u)
        assert np.array_equal(got, want)
        assert isinstance(got, int) if shape == () else got.shape == shape

    def test_empty_batch(self):
        got = coupled_sample(np.zeros((0, 4)), np.zeros(0))
        assert got.shape == (0,) and got.dtype == np.intp

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
        disagree = np.mean(coupled_sample(np.tile(p, (n, 1)), us) != coupled_sample(np.tile(q, (n, 1)), us))
        se = np.sqrt(tv * (1 - tv) / n)
        assert abs(disagree - tv) <= 3 * se


class TestArmFold:
    def test_folds_left_to_right(self):
        rng = np.random.default_rng(12)
        for k in (1, 2, 5, 8, 16):
            x = rng.normal(size=(6, 3, k))
            want = x[..., 0].copy()
            for j in range(1, k):
                want = want + x[..., j]
            assert np.array_equal(arm_fold(np.add, x), want)
            assert np.array_equal(arm_fold(np.maximum, x), x.max(axis=-1))

    def test_equals_numpy_row_sums_up_to_seven_arms(self):
        rng = np.random.default_rng(13)
        for k in range(1, 8):
            x = rng.normal(size=(500, k))
            assert np.array_equal(arm_fold(np.add, x), x.sum(axis=-1))

    def test_does_not_depend_on_layout(self):
        x = np.random.default_rng(14).normal(size=(40, 10))
        want = arm_fold(np.add, x)
        assert np.array_equal(arm_fold(np.add, np.asfortranarray(x)), want)
        assert np.array_equal(arm_fold(np.add, np.repeat(x, 2, axis=-1)[..., ::2]), want)
        assert np.array_equal(arm_fold(np.add, x[::-1])[::-1], want)
        assert np.array_equal(arm_fold(np.add, x[3]), want[3])


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
