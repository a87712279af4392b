"""Executable checks of the curvature, Lipschitz, sandwich, and PL facts.

Each function instantiates one inequality numerically and returns the
quantities a caller needs to assert it, so the test suite and the lemma-suite
report share a single implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDistributionError
from .lsa import TwoChannelParams
from .pretrain import FisherStats, PretrainDataset, fisher_matrix, gradient, loss_quadratic
from .subspace import helmert_basis, paired_helmert_basis, restricted_eigenvalues
from .teacher import mix_policy, softmax

# Samples per batch in the randomized sweep: bounds its working set, since
# whole-sweep batches add tens of MiB of peak memory and no speed.
LEMMA_CHUNK = 1024


def fisher_spectrum_check(p: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalue range of the softmax curvature restricted to the zero-sum subspace.

    For an exploration mixture the range must land in [gamma/K, 1/2].  `p` is
    (..., K); the (min, max) pair has the leading shape.
    """
    p = np.asarray(p, dtype=float)
    k = p.shape[-1]
    if np.any(p < gamma / k - 1e-12):
        raise InvalidDistributionError(
            f"not a gamma-mixture: min entry {p.min()} below floor {gamma / k}"
        )
    eigs = restricted_eigenvalues(fisher_matrix(p), helmert_basis(k))
    return eigs.min(axis=-1), eigs.max(axis=-1)


def softmax_lipschitz_check(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Ratio ||softmax(u) - softmax(v)|| / ||u - v|| for a zero-sum difference.

    Must never exceed 1/2; 0 where u equals v.  (..., K) inputs give one ratio per row.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    diff = u - v
    if np.abs(diff - (diff - diff.mean(axis=-1, keepdims=True))).max() > 1e-10:
        raise InvalidDistributionError("logit difference must lie in the zero-sum subspace")
    denom = np.linalg.norm(diff, axis=-1)
    num = np.linalg.norm(softmax(u) - softmax(v), axis=-1)
    return np.divide(num, denom, out=np.zeros_like(num), where=denom != 0.0)


@dataclass
class SandwichSample:
    """Per-pair quantities entering the KL-vs-quadratic sandwich.

    `fisher_quad` stores the per-pair residual quadratic r^T Gamma r (no 1/2
    factor: that is the normalization the sandwich constants are proved for),
    and `kl` the matching KL divergences, both averaged for the check.
    """

    fisher_quad: np.ndarray
    kl: np.ndarray
    lower_const: float
    upper_const: float

    @property
    def mean_quad(self) -> float:
        return float(self.fisher_quad.mean())

    @property
    def mean_kl(self) -> float:
        return float(self.kl.mean())

    @property
    def lower_slack(self) -> float:
        """mean KL minus the lower bound; must be >= 0."""
        return self.mean_kl - self.lower_const * self.mean_quad

    @property
    def upper_slack(self) -> float:
        """Upper bound minus mean KL; must be >= 0."""
        return self.upper_const * self.mean_quad - self.mean_kl

    @property
    def holds(self) -> bool:
        return self.lower_slack >= -1e-10 and self.upper_slack >= -1e-10


def kl_divergence(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise KL(p || q) in nats; inputs must be strictly positive."""
    p = np.atleast_2d(np.asarray(p, dtype=float))
    q = np.atleast_2d(np.asarray(q, dtype=float))
    if np.any(p <= 0) or np.any(q <= 0):
        raise InvalidDistributionError("KL requires strictly positive probabilities")
    return np.einsum("ij->i", p * (np.log(p) - np.log(q)))


def kl_sandwich_check(tc: TwoChannelParams, ds: PretrainDataset, gamma_hat: np.ndarray) -> SandwichSample:
    """Mean KL between expert and student mixed policies vs the weighted quadratic.

    The sandwich holds per pair against the un-halved quadratic residual, so
    mean KL is trapped between (1-gamma)^2/4 and K/(4 gamma) times its mean.
    """
    z, y, _ = ds.pair_matrices()
    return _kl_sandwich(tc, z, y, gamma_hat, ds.cfg.gamma)


def _kl_sandwich(
    tc: TwoChannelParams, z: np.ndarray, y: np.ndarray, gamma_hat: np.ndarray, gamma: float
) -> SandwichSample:
    """`kl_sandwich_check` on pair matrices (Z, Y) built once by the caller."""
    k = y.shape[-1]
    student_logits = z @ tc.stacked.T
    resid = student_logits - y
    fisher_quad = np.einsum("mi,ij,mj->m", resid, gamma_hat, resid)
    # Next-step mixed policies on both sides.  The stored labels are
    # projected logits, which is harmless: the mixture ignores constant
    # shifts.
    p_teacher = mix_policy(y, gamma).p
    p_student = mix_policy(student_logits, gamma).p
    # Mixed-policy floor: both sides are bounded below, so KL stays finite.
    if min(p_teacher.min(), p_student.min()) < gamma / k - 1e-12:
        raise InvalidDistributionError(f"mixed policy falls below its floor gamma/K = {gamma / k}")
    kl = kl_divergence(p_teacher, p_student)
    return SandwichSample(
        fisher_quad=fisher_quad,
        kl=kl,
        lower_const=(1.0 - gamma) ** 2 / 4.0,
        upper_const=k / (4.0 * gamma),
    )


def finite_difference_gradient(tc: TwoChannelParams, fs: FisherStats, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of the quadratic loss, all entries in one batch."""
    base = tc.stacked
    bumps = np.eye(base.size).reshape(base.size, *base.shape) * eps
    losses = loss_quadratic(np.concatenate([base + bumps, base - bumps]), fs)
    up, down = losses[: base.size], losses[base.size :]
    return ((up - down) / (2 * eps)).reshape(base.shape)


def gradient_fd_relative_error(tc: TwoChannelParams, fs: FisherStats, eps: float = 1e-5) -> float:
    """Relative Frobenius gap between the analytic and finite-difference gradients."""
    analytic = gradient(tc, fs)
    numeric = finite_difference_gradient(tc, fs, eps)
    scale = max(float(np.linalg.norm(analytic)), 1e-12)
    return float(np.linalg.norm(analytic - numeric)) / scale


def sigma_min_restricted(sigma_bar: np.ndarray) -> float:
    """Smallest eigenvalue of the second moment on the paired zero-sum subspace."""
    sigma_bar = np.asarray(sigma_bar, dtype=float)
    k = sigma_bar.shape[0] // 2
    eigs = restricted_eigenvalues(sigma_bar, paired_helmert_basis(k))
    return float(eigs.min())


def gamma_min_restricted(gamma_hat: np.ndarray) -> float:
    """Smallest eigenvalue of the Fisher weight on the zero-sum subspace."""
    gamma_hat = np.asarray(gamma_hat, dtype=float)
    eigs = restricted_eigenvalues(gamma_hat, helmert_basis(gamma_hat.shape[0]))
    return float(eigs.min())


def pl_constant(gamma_hat: np.ndarray, sigma_bar: np.ndarray) -> float:
    """Gradient-dominance constant: product of the two restricted minima."""
    return gamma_min_restricted(gamma_hat) * sigma_min_restricted(sigma_bar)


def _chunks(total: int) -> list[int]:
    return [min(LEMMA_CHUNK, total - start) for start in range(0, total, LEMMA_CHUNK)]


def run_lemma_suite(
    ds: PretrainDataset,
    fs: FisherStats,
    seed: int = 0,
    spectrum_samples: int = 10_000,
    lipschitz_samples: int = 100_000,
    sandwich_draws: int = 50,
    sandwich_scale: float = 0.3,
) -> dict:
    """Randomized sweep over every check; returns a JSON-ready report.

    Each entry records the sample count and the worst slack observed, where
    slack >= 0 means the inequality held.
    """
    rng = np.random.default_rng(seed)
    k = ds.cfg.k
    gamma = ds.cfg.gamma
    report = {"seed": seed, "k": k, "gamma": gamma, "checks": {}}

    lo_slack, hi_slack = np.inf, np.inf
    for c in _chunks(spectrum_samples):
        lo, hi = fisher_spectrum_check(mix_policy(rng.normal(size=(c, k)) * 2.0, gamma).p, gamma)
        lo_slack = min(lo_slack, float((lo - gamma / k).min()))
        hi_slack = min(hi_slack, float((0.5 - hi).min()))
    report["checks"]["fisher_spectrum"] = {
        "samples": spectrum_samples,
        "worst_slack": min(lo_slack, hi_slack),
    }

    worst = np.inf
    for dim in (2, 5, 10):
        for c in _chunks(lipschitz_samples // 3):
            draws = rng.normal(size=(c, 2, dim))
            u = draws[:, 0] * 3.0
            delta = draws[:, 1] - draws[:, 1].mean(axis=-1, keepdims=True)
            worst = min(worst, float((0.5 - softmax_lipschitz_check(u + delta, u)).min()))
    report["checks"]["softmax_lipschitz"] = {
        "samples": 3 * (lipschitz_samples // 3),
        "worst_slack": worst,
    }

    worst = np.inf
    z, y, _ = ds.pair_matrices()
    for _ in range(sandwich_draws):
        tc = TwoChannelParams(
            w_n=rng.normal(size=(k, k)) * sandwich_scale,
            w_g=rng.normal(size=(k, k)) * sandwich_scale,
        )
        sample = _kl_sandwich(tc, z, y, fs.gamma_hat, gamma)
        worst = min(worst, sample.lower_slack, sample.upper_slack)
    report["checks"]["kl_sandwich"] = {
        "samples": sandwich_draws,
        "parameter_scale": sandwich_scale,
        "worst_slack": worst,
    }

    sig = sigma_min_restricted(fs.sigma_bar)
    report["checks"]["sigma_restricted_pd"] = {"samples": fs.m, "worst_slack": sig}

    worst = np.inf
    for _ in range(100):
        tc = TwoChannelParams(w_n=rng.normal(size=(k, k)), w_g=rng.normal(size=(k, k)))
        rel = gradient_fd_relative_error(tc, fs)
        worst = min(worst, 1e-6 - rel)
    report["checks"]["gradient_vs_fd"] = {"samples": 100, "worst_slack": worst}

    mu = pl_constant(fs.gamma_hat, fs.sigma_bar)
    floor = (gamma / k) * sigma_min_restricted(fs.sigma_bar)
    report["checks"]["pl_constant"] = {
        "samples": fs.m,
        "mu": mu,
        "worst_slack": mu - floor + 1e-12,
    }

    report["passed"] = all(c["worst_slack"] >= -1e-10 for c in report["checks"].values())
    return report
