"""Executable checks of the curvature, Lipschitz, sandwich, and PL facts.

Each function instantiates one inequality numerically and returns the
quantities a caller needs to assert it, so the test suite and the lemma-suite
report share a single implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bandit import arm_fold
from .errors import InvalidConfigError, InvalidDistributionError
from .lsa import TwoChannelParams
from .pretrain import FisherStats, PretrainDataset, _stacked, fisher_matrix, gradient, loss_quadratic, pair_stats
from .subspace import helmert_basis, paired_helmert_basis, restricted_eigenvalues
from .teacher import mix_policy, softmax

# Samples per batch in the randomized sweep: bounds its working set, since
# whole-sweep batches add tens of MiB of peak memory and no speed.
LEMMA_CHUNK = 1024
FD_EPS = 1e-5  # central-difference step of `finite_difference_gradient`


def fisher_spectrum_check(p: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalue range of the softmax curvature restricted to the zero-sum subspace.

    For an exploration mixture the range must land in [gamma/K, 1/2].  `p` is
    (..., K); the (min, max) pair has the leading shape.  `eigvalsh` returns
    each row's eigenvalues in ascending order, so they are its ends.
    """
    p = np.asarray(p, dtype=float)
    k = p.shape[-1]
    if np.any(p < gamma / k - 1e-12):
        raise InvalidDistributionError(
            f"not a gamma-mixture: min entry {p.min()} below floor {gamma / k}"
        )
    eigs = restricted_eigenvalues(fisher_matrix(p), helmert_basis(k))
    return eigs[..., 0], eigs[..., -1]


def softmax_lipschitz_check(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Ratio ||softmax(u) - softmax(v)|| / ||u - v|| for a zero-sum difference.

    Must never exceed 1/2; 0 where u equals v.  (..., K) inputs give one ratio per row.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    diff = u - v
    mean = arm_fold(np.add, diff) / diff.shape[-1]
    if np.any(np.abs(diff - (diff - mean[..., np.newaxis])) > 1e-10):
        raise InvalidDistributionError("logit difference must lie in the zero-sum subspace")
    gap = softmax(u) - softmax(v)
    denom = np.sqrt(arm_fold(np.add, diff * diff))
    num = np.sqrt(arm_fold(np.add, gap * gap))
    return np.divide(num, denom, out=np.zeros_like(num), where=denom != 0.0)


@dataclass
class SandwichSample:
    """Means over the training pairs entering the KL-vs-quadratic sandwich.

    `mean_quad` averages the per-pair residual quadratic r^T Gamma r (no 1/2
    factor: that is the normalization the sandwich constants are proved for),
    and `mean_kl` the matching KL divergences.  Both are floats for one
    operator pair and (D,) arrays for a stack of D, as are the slacks.
    """

    mean_quad: float | np.ndarray
    mean_kl: float | np.ndarray
    lower_const: float
    upper_const: float

    @property
    def lower_slack(self) -> float | np.ndarray:
        """mean KL minus the lower bound; must be >= 0."""
        return self.mean_kl - self.lower_const * self.mean_quad

    @property
    def upper_slack(self) -> float | np.ndarray:
        """Upper bound minus mean KL; must be >= 0."""
        return self.upper_const * self.mean_quad - self.mean_kl

    @property
    def holds(self) -> bool:
        """Both bounds hold, for every operator pair of a stack."""
        return bool(np.all(self.lower_slack >= -1e-10) and np.all(self.upper_slack >= -1e-10))


def _check_positive(*ps: np.ndarray) -> None:
    if any(np.any(p <= 0) for p in ps):
        raise InvalidDistributionError("KL requires strictly positive probabilities")


def kl_divergence(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise KL(p || q) in nats over (..., K); inputs must be strictly positive."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    _check_positive(p, q)
    return arm_fold(np.add, p * (np.log(p) - np.log(q)))


def _floored_policy(s: np.ndarray, gamma: float) -> np.ndarray:
    """Mixed policy of logits `s`, checked against its floor gamma/K, which keeps KL finite."""
    p = mix_policy(s, gamma)
    if np.any(p < gamma / p.shape[-1] - 1e-12):
        raise InvalidDistributionError(f"mixed policy falls below its floor gamma/K = {gamma / p.shape[-1]}")
    _check_positive(p)
    return p


def kl_sandwich_check(
    tc: TwoChannelParams | np.ndarray, z: np.ndarray, y: np.ndarray, gamma_hat: np.ndarray, gamma: float
) -> SandwichSample:
    """Mean KL between expert and student mixed policies vs the weighted quadratic,
    on the pair matrices (Z, Y) of `PretrainDataset.pair_matrices`.

    The sandwich holds per pair against the un-halved quadratic residual, so
    mean KL is trapped between (1-gamma)^2/4 and K/(4 gamma) times its mean.
    Also takes stacked operators W = [W_n  W_g] of shape (D, K, 2K): the
    expert side is built once and each pair's student side in turn, and the
    means then hold one entry per pair, equal to a call with that pair alone.
    """
    w = _stacked(tc)
    k = y.shape[-1]
    # Next-step mixed policies on both sides.  The labels are
    # projected logits, which is harmless: the mixture ignores constant
    # shifts.
    p_teacher = _floored_policy(y, gamma)
    log_teacher = np.log(p_teacher)
    quads, kls = [], []
    for pair in w.reshape(-1, k, 2 * k):
        student_logits = z @ pair.T
        resid = student_logits - y
        quads.append(np.einsum("mi,ij,mj->m", resid, gamma_hat, resid).mean())
        p_student = _floored_policy(student_logits, gamma)
        kls.append(arm_fold(np.add, p_teacher * (log_teacher - np.log(p_student))).mean())
    mean_quad, mean_kl = (np.reshape(means, w.shape[:-2]) for means in (quads, kls))
    return SandwichSample(
        mean_quad=float(mean_quad) if mean_quad.ndim == 0 else mean_quad,
        mean_kl=float(mean_kl) if mean_kl.ndim == 0 else mean_kl,
        lower_const=(1.0 - gamma) ** 2 / 4.0,
        upper_const=k / (4.0 * gamma),
    )


def finite_difference_gradient(tc: TwoChannelParams, fs: FisherStats) -> np.ndarray:
    """Central-difference gradient of the quadratic loss, all entries in one batch of step FD_EPS."""
    base = tc.stacked
    bumps = np.eye(base.size).reshape(base.size, *base.shape) * FD_EPS
    losses = loss_quadratic(np.concatenate([base + bumps, base - bumps]), fs)
    up, down = losses[: base.size], losses[base.size :]
    return ((up - down) / (2 * FD_EPS)).reshape(base.shape)


def gradient_fd_relative_error(tc: TwoChannelParams, fs: FisherStats) -> float:
    """Relative Frobenius gap between the analytic and finite-difference gradients."""
    analytic = gradient(tc, fs)
    numeric = finite_difference_gradient(tc, fs)
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
    seed: int = 0,
    spectrum_samples: int = 10_000,
    lipschitz_samples: int = 100_000,
    sandwich_draws: int = 50,
    sandwich_scale: float = 0.3,
) -> dict:
    """Randomized sweep over every check; returns a JSON-ready report.

    Each entry records the sample count and the worst slack observed, where
    slack >= 0 means the inequality held.  The sandwich's upper constant is
    K/(4 gamma), so the teacher's gamma must be > 0.  The pair matrices are
    built once: the Fisher statistics and the sandwich's (Z, Y) share them.
    """
    k = ds.cfg.k
    gamma = ds.cfg.gamma
    if gamma <= 0:
        raise InvalidConfigError(f"the lemma suite needs gamma > 0 (the KL sandwich divides by it), got {gamma}")
    rng = np.random.default_rng(seed)
    report = {"seed": seed, "k": k, "gamma": gamma, "checks": {}}

    lo_slack, hi_slack = np.inf, np.inf
    for c in _chunks(spectrum_samples):
        lo, hi = fisher_spectrum_check(mix_policy(rng.normal(size=(c, k)) * 2.0, gamma), gamma)
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
            delta = draws[:, 1] - (arm_fold(np.add, draws[:, 1]) / dim)[:, np.newaxis]
            worst = min(worst, float((0.5 - softmax_lipschitz_check(u + delta, u)).min()))
    report["checks"]["softmax_lipschitz"] = {
        "samples": 3 * (lipschitz_samples // 3),
        "worst_slack": worst,
    }

    # Pair d is W_n then W_g, drawn in the same order as one pair at a time.
    pairs = rng.normal(size=(sandwich_draws, 2, k, k)) * sandwich_scale
    z, y, p = ds.pair_matrices()
    fs = pair_stats(z, y, p)
    sample = kl_sandwich_check(np.concatenate([pairs[:, 0], pairs[:, 1]], axis=-1), z, y, fs.gamma_hat, gamma)
    slacks = np.concatenate([sample.lower_slack, sample.upper_slack])
    report["checks"]["kl_sandwich"] = {
        "samples": sandwich_draws,
        "parameter_scale": sandwich_scale,
        "worst_slack": float(slacks.min(initial=np.inf)),
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
