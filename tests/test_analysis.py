"""Numerical instantiations of the curvature, Lipschitz, sandwich, and PL facts."""

import numpy as np
import pytest

from icpo_lab.analysis import (
    fisher_spectrum_check,
    finite_difference_gradient,
    gamma_min_restricted,
    gradient_fd_relative_error,
    kl_divergence,
    kl_sandwich_check,
    pl_constant,
    run_lemma_suite,
    sigma_min_restricted,
    softmax_lipschitz_check,
)
from icpo_lab import analysis
from icpo_lab.errors import InvalidDistributionError
from icpo_lab.lsa import TwoChannelParams, teacher_two_channel
from icpo_lab.pretrain import empirical_stats, fisher_matrix, gradient, loss_quadratic
from icpo_lab.subspace import helmert_basis, paired_helmert_basis, restricted_eigenvalues
from icpo_lab.teacher import MixedPolicy, coverage_margin, mix_policy, softmax


class TestHelmertBasis:
    def test_orthonormal_and_zero_sum(self):
        for k in (2, 5, 10):
            q = helmert_basis(k)
            assert np.allclose(q.T @ q, np.eye(k - 1), atol=1e-14)
            assert np.abs(q.sum(axis=0)).max() < 1e-14

    def test_paired_layout(self):
        qq = paired_helmert_basis(3)
        assert qq.shape == (6, 4)
        assert np.allclose(qq.T @ qq, np.eye(4), atol=1e-14)
        assert np.allclose(qq[:3, 2:], 0.0)
        assert np.allclose(qq[3:, :2], 0.0)


class TestFisherSpectrum:
    def test_uniform_two_arms(self):
        # Direct eigencomputation: Diag(p) - pp^T at uniform acts as (1/K) I
        # on the zero-sum subspace, so K=2 gives 0.5 (also the 1/2 extreme).
        lo, hi = fisher_spectrum_check(np.array([0.5, 0.5]), gamma=0.0)
        assert lo == pytest.approx(0.5, abs=1e-14)
        assert hi == pytest.approx(0.5, abs=1e-14)

    def test_random_mixture_sweep(self):
        rng = np.random.default_rng(2)
        gamma, k = 0.3, 6
        for _ in range(2_000):
            p = mix_policy(rng.normal(size=k) * 2.5, gamma).p
            lo, hi = fisher_spectrum_check(p, gamma)
            assert lo >= gamma / k - 1e-12
            assert hi <= 0.5 + 1e-12

    def test_full_exploration_limit(self):
        k = 8
        lo, hi = fisher_spectrum_check(np.full(k, 1.0 / k), gamma=1.0)
        assert lo == pytest.approx(1.0 / k, abs=1e-14)
        assert hi == pytest.approx(1.0 / k, abs=1e-14)

    def test_floor_violation_rejected(self):
        with pytest.raises(InvalidDistributionError):
            fisher_spectrum_check(np.array([0.9, 0.05, 0.05]), gamma=0.6)


class TestSoftmaxLipschitz:
    def test_equal_inputs_ratio_zero(self):
        u = np.array([1.0, -2.0, 0.5])
        assert softmax_lipschitz_check(u, u) == 0.0

    def test_two_arm_small_perturbation_approaches_half(self):
        # At the uniform point the two-arm curvature is exactly 1/2 on the
        # zero-sum line, so tiny symmetric perturbations are the extremal
        # case.  eps is kept large enough that the softmax difference is not
        # dominated by cancellation noise.
        eps = 1e-5
        ratio = softmax_lipschitz_check(np.array([eps, -eps]), np.zeros(2))
        assert ratio == pytest.approx(0.5, abs=1e-6)
        assert ratio <= 0.5 + 1e-12

    def test_randomized_sweep(self):
        rng = np.random.default_rng(3)
        for k in (2, 5, 10):
            for _ in range(2_000):
                u = rng.normal(size=k) * 3
                d = rng.normal(size=k)
                d -= d.mean()
                assert softmax_lipschitz_check(u + d, u) <= 0.5 + 1e-12

    def test_unprojected_difference_rejected(self):
        with pytest.raises(InvalidDistributionError):
            softmax_lipschitz_check(np.array([1.0, 0.0]), np.array([0.0, 0.0]))


class TestKlSandwich:
    def test_exact_student_is_degenerate(self, matching_cfg, matching_dataset, matching_stats):
        sample = kl_sandwich_check(teacher_two_channel(matching_cfg), matching_dataset, matching_stats.gamma_hat)
        assert abs(sample.mean_kl) <= 1e-12
        assert sample.mean_quad <= 1e-12
        assert sample.holds

    def test_zero_student(self, matching_dataset, matching_stats):
        sample = kl_sandwich_check(TwoChannelParams.zeros(10), matching_dataset, matching_stats.gamma_hat)
        assert sample.mean_kl > 0
        assert sample.mean_quad > 0
        assert sample.holds

    def test_random_draw_sweep(self, matching_dataset, matching_stats):
        rng = np.random.default_rng(4)
        for _ in range(50):
            tc = TwoChannelParams(
                w_n=rng.normal(size=(10, 10)) * 0.3,
                w_g=rng.normal(size=(10, 10)) * 0.3,
            )
            sample = kl_sandwich_check(tc, matching_dataset, matching_stats.gamma_hat)
            assert sample.lower_slack >= -1e-10
            assert sample.upper_slack >= -1e-10

    def test_kl_requires_positive_inputs(self):
        with pytest.raises(InvalidDistributionError):
            kl_divergence(np.array([1.0, 0.0]), np.array([0.5, 0.5]))

    def test_upper_bound_holds_even_at_large_scale(self, matching_dataset, matching_stats):
        """The upper inequality is global; exercise it far outside the local regime."""
        rng = np.random.default_rng(5)
        for _ in range(10):
            tc = TwoChannelParams(w_n=rng.normal(size=(10, 10)) * 5, w_g=rng.normal(size=(10, 10)) * 5)
            sample = kl_sandwich_check(tc, matching_dataset, matching_stats.gamma_hat)
            assert sample.upper_slack >= -1e-10


class TestRestrictedMinima:
    def test_identity(self):
        assert sigma_min_restricted(np.eye(8)) == pytest.approx(1.0, abs=1e-12)

    def test_constructed_kernel(self):
        k = 4
        block = np.ones((k, k)) / k
        sigma = np.zeros((2 * k, 2 * k))
        sigma[:k, :k] = block
        sigma[k:, k:] = block
        assert sigma_min_restricted(sigma) == pytest.approx(0.0, abs=1e-14)

    def test_positive_under_positive_margin(self, margin_cfg, margin_dataset):
        assert coverage_margin(margin_cfg) > 0
        fs = empirical_stats(margin_dataset)
        assert sigma_min_restricted(fs.sigma_bar) > 0


class TestPlConstant:
    def test_synthetic_half(self):
        k = 4
        pi = np.eye(k) - np.ones((k, k)) / k
        gamma_hat = 0.5 * pi
        sigma = np.zeros((2 * k, 2 * k))
        sigma[:k, :k] = pi
        sigma[k:, k:] = pi
        assert pl_constant(gamma_hat, sigma) == pytest.approx(0.5, abs=1e-12)

    def test_definitional_consistency(self, matching_cfg, matching_stats):
        mu = pl_constant(matching_stats.gamma_hat, matching_stats.sigma_bar)
        floor = (matching_cfg.gamma / matching_cfg.k) * sigma_min_restricted(matching_stats.sigma_bar)
        assert mu > 0
        assert mu >= floor - 1e-12
        assert gamma_min_restricted(matching_stats.gamma_hat) >= matching_cfg.gamma / matching_cfg.k - 1e-10


class TestGradientOracle:
    def test_finite_difference_agreement(self, matching_stats):
        rng = np.random.default_rng(6)
        k = matching_stats.k
        for _ in range(5):
            tc = TwoChannelParams(w_n=rng.normal(size=(k, k)), w_g=rng.normal(size=(k, k)))
            assert gradient_fd_relative_error(tc, matching_stats) <= 1e-6

    def test_fd_gradient_shape(self, matching_stats):
        tc = TwoChannelParams.zeros(matching_stats.k)
        fd = finite_difference_gradient(tc, matching_stats)
        assert fd.shape == (matching_stats.k, 2 * matching_stats.k)


class TestLemmaSuite:
    def test_report_passes_on_margin_config(self, margin_dataset):
        fs = empirical_stats(margin_dataset)
        report = run_lemma_suite(
            margin_dataset, fs, seed=0, spectrum_samples=500, lipschitz_samples=3000, sandwich_draws=10
        )
        assert report["passed"]
        assert set(report["checks"]) == {
            "fisher_spectrum",
            "softmax_lipschitz",
            "kl_sandwich",
            "sigma_restricted_pd",
            "gradient_vs_fd",
            "pl_constant",
        }
        for check in report["checks"].values():
            assert check["worst_slack"] >= -1e-10


def _reference_lemma_sweep(ds, fs, seed, spectrum_samples, lipschitz_samples, sandwich_draws, scale=0.3):
    """One sample per iteration from the scalar building blocks, drawing in suite order."""
    rng = np.random.default_rng(seed)
    k, gamma = ds.cfg.k, ds.cfg.gamma
    q = helmert_basis(k)
    spectrum = np.inf
    for _ in range(spectrum_samples):
        eigs = restricted_eigenvalues(fisher_matrix(mix_policy(rng.normal(size=k) * 2.0, gamma).p), q)
        spectrum = min(spectrum, eigs.min() - gamma / k, 0.5 - eigs.max())
    lipschitz = np.inf
    for dim in (2, 5, 10):
        for _ in range(lipschitz_samples // 3):
            u = rng.normal(size=dim) * 3.0
            delta = rng.normal(size=dim)
            delta -= delta.mean()
            ratio = np.linalg.norm(softmax(u + delta) - softmax(u)) / np.linalg.norm(delta)
            lipschitz = min(lipschitz, 0.5 - ratio)
    sandwich = np.inf
    for _ in range(sandwich_draws):
        tc = TwoChannelParams(w_n=rng.normal(size=(k, k)) * scale, w_g=rng.normal(size=(k, k)) * scale)
        sample = kl_sandwich_check(tc, ds, fs.gamma_hat)
        sandwich = min(sandwich, sample.lower_slack, sample.upper_slack)
    gradient_fd = np.inf
    for _ in range(100):
        tc = TwoChannelParams(w_n=rng.normal(size=(k, k)), w_g=rng.normal(size=(k, k)))
        analytic = gradient(tc, fs)
        rel = np.linalg.norm(analytic - _entrywise_fd(tc, fs)) / max(np.linalg.norm(analytic), 1e-12)
        gradient_fd = min(gradient_fd, 1e-6 - rel)
    return {
        "fisher_spectrum": spectrum,
        "softmax_lipschitz": lipschitz,
        "kl_sandwich": sandwich,
        "gradient_vs_fd": gradient_fd,
    }


def _entrywise_fd(tc, fs, eps=1e-5):
    base = tc.stacked
    grad = np.zeros_like(base)
    for i in range(base.shape[0]):
        for j in range(base.shape[1]):
            up, down = base.copy(), base.copy()
            up[i, j] += eps
            down[i, j] -= eps
            grad[i, j] = (loss_quadratic(up, fs) - loss_quadratic(down, fs)) / (2 * eps)
    return grad


class TestBatchedChecks:
    """Each batched check against the same quantity computed one sample at a time."""

    def test_spectrum_matches_per_sample(self):
        rng = np.random.default_rng(8)
        gamma, k = 0.3, 6
        p = mix_policy(rng.normal(size=(300, k)) * 2.5, gamma).p
        lo, hi = fisher_spectrum_check(p, gamma)
        assert lo.shape == hi.shape == (300,)
        for row, lo_i, hi_i in zip(p, lo, hi):
            eigs = restricted_eigenvalues(fisher_matrix(row), helmert_basis(k))
            assert abs(lo_i - eigs.min()) <= 1e-15 and abs(hi_i - eigs.max()) <= 1e-15

    def test_spectrum_rejects_one_bad_row(self):
        p = np.full((4, 3), 1.0 / 3.0)
        p[2] = [0.9, 0.05, 0.05]
        with pytest.raises(InvalidDistributionError):
            fisher_spectrum_check(p, gamma=0.6)

    def test_lipschitz_matches_per_sample(self):
        rng = np.random.default_rng(9)
        u = rng.normal(size=(300, 5)) * 3
        d = rng.normal(size=(300, 5))
        d -= d.mean(axis=1, keepdims=True)
        d[7] = 0.0
        ratios = softmax_lipschitz_check(u + d, u)
        assert ratios.shape == (300,) and ratios[7] == 0.0
        for ui, di, ratio in zip(u, d, ratios):
            denom = np.linalg.norm(di)
            want = 0.0 if denom == 0 else np.linalg.norm(softmax(ui + di) - softmax(ui)) / denom
            assert abs(ratio - want) <= 1e-15

    def test_lipschitz_rejects_one_unprojected_row(self):
        u = np.zeros((3, 2))
        v = np.array([[0.5, -0.5], [1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(InvalidDistributionError):
            softmax_lipschitz_check(u, v)

    def test_finite_difference_matches_entrywise(self, matching_stats):
        rng = np.random.default_rng(10)
        k = matching_stats.k
        for _ in range(3):
            tc = TwoChannelParams(w_n=rng.normal(size=(k, k)), w_g=rng.normal(size=(k, k)))
            fd = finite_difference_gradient(tc, matching_stats)
            assert np.abs(fd - _entrywise_fd(tc, matching_stats)).max() <= 1e-15

    def test_mix_policy_rows_match_single_calls(self):
        rng = np.random.default_rng(11)
        s = rng.normal(size=(20, 4)) * 2
        batch = mix_policy(s, 0.25).p
        assert np.array_equal(batch, np.stack([mix_policy(row, 0.25).p for row in s]))

    def test_mix_policy_rejects_one_bad_row(self):
        s = np.zeros((5, 4))
        s[3, 1] = np.nan
        with pytest.raises(ValueError):
            mix_policy(s, 0.25)

    def test_sandwich_floor_violation_raises(self, monkeypatch, matching_dataset, matching_stats):
        """The mixed-policy floor is a real check, not an assert that -O strips."""

        def off_floor(s, gamma):
            # Positive, so KL stays defined, but far below gamma/K.
            p = softmax(s)
            p[0, 0] = 1e-6
            return MixedPolicy(logits=s, p=p / p.sum(axis=-1, keepdims=True))

        monkeypatch.setattr(analysis, "mix_policy", off_floor)
        with pytest.raises(InvalidDistributionError):
            kl_sandwich_check(TwoChannelParams.zeros(10), matching_dataset, matching_stats.gamma_hat)

    def test_suite_matches_per_sample_reference(self, margin_dataset):
        """Chunked sweep versus a one-sample-per-iteration loop with the same draws.

        The counts straddle the chunk size so partial chunks are covered.
        """
        fs = empirical_stats(margin_dataset)
        counts = dict(spectrum_samples=analysis.LEMMA_CHUNK + 300, lipschitz_samples=3 * 1100, sandwich_draws=4)
        report = run_lemma_suite(margin_dataset, fs, seed=3, **counts)
        want = _reference_lemma_sweep(margin_dataset, fs, seed=3, **counts)
        checks = report["checks"]
        assert checks["fisher_spectrum"]["samples"] == counts["spectrum_samples"]
        assert checks["softmax_lipschitz"]["samples"] == counts["lipschitz_samples"]
        for name in ("fisher_spectrum", "softmax_lipschitz", "kl_sandwich"):
            assert checks[name]["worst_slack"] == pytest.approx(want[name], abs=1e-12)
        assert checks["gradient_vs_fd"]["worst_slack"] == pytest.approx(want["gradient_vs_fd"], abs=1e-9)
        assert report["passed"]
