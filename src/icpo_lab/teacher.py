"""Expert policy optimizer: regularized logit updates and the mixed policy.

The expert keeps per-arm count and reward sums (n, g) and emits logits
s_{t+1} = (c/t) (U g + V n) with U the inverse regularizer and V = -lambda U,
then acts through a softmax mixed with uniform exploration.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .bandit import arm_fold
from .errors import InvalidConfigError

_EIG_FLOOR = 1e-10


@dataclass(frozen=True)
class TeacherConfig:
    """All expert/environment constants plus the derived operator pair.

    `k` is stored as an int and the five constants as floats.  `h` must be finite, symmetric and
    positive definite; `u = h^-1` and `v = -lam * u` are computed once at construction and validated.
    """

    k: int
    c: float = 1.0
    gamma: float = 0.2
    lam: float = 0.1
    tau_w: float = 1.0
    sigma_xi: float = 0.5
    h: np.ndarray | None = None
    u: np.ndarray = field(init=False, repr=False)
    v: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "k", operator.index(self.k))
        for name in ("c", "gamma", "lam", "tau_w", "sigma_xi"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.k < 2:
            raise InvalidConfigError(f"need at least 2 arms, got K={self.k}")
        for name, value in (("c", self.c), ("lambda", self.lam), ("tau_w", self.tau_w), ("sigma_xi", self.sigma_xi)):
            if not np.isfinite(value):
                raise InvalidConfigError(f"{name} must be finite, got {value}")
        if self.c <= 0:
            raise InvalidConfigError(f"step-size constant must be > 0, got {self.c}")
        # gamma = 1 (pure uniform play) is allowed as a degenerate limit.
        if not 0.0 <= self.gamma <= 1.0:
            raise InvalidConfigError(f"exploration mix must be in [0, 1], got {self.gamma}")
        if self.lam < 0:
            raise InvalidConfigError(f"visit penalty must be >= 0, got {self.lam}")
        if self.tau_w < 0 or self.sigma_xi < 0:
            raise InvalidConfigError("prior and noise stds must be >= 0")

        try:
            h = np.eye(self.k) if self.h is None else np.asarray(self.h, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InvalidConfigError(f"regularizer must be {self.k}x{self.k} floats: {exc}") from None
        if h.shape != (self.k, self.k):
            raise InvalidConfigError(f"regularizer must be {self.k}x{self.k}, got {h.shape}")
        if not np.isfinite(h).all():
            raise InvalidConfigError("regularizer must be finite")
        if not np.allclose(h, h.T, atol=1e-10):
            raise InvalidConfigError("regularizer must be symmetric")
        eigs = np.linalg.eigvalsh(h)
        if eigs.min() <= _EIG_FLOOR:
            raise InvalidConfigError(f"regularizer must be positive definite, min eig {eigs.min()}")

        u = np.linalg.inv(h)
        if not np.allclose(u @ h, np.eye(self.k), atol=1e-10):
            raise InvalidConfigError("inverse regularizer failed the U*H = I check")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", -self.lam * u)

    def to_dict(self) -> dict:
        d = {
            "k": self.k,
            "c": self.c,
            "gamma": self.gamma,
            "lambda": self.lam,
            "tau_w": self.tau_w,
            "sigma_xi": self.sigma_xi,
        }
        if np.array_equal(self.h, np.eye(self.k)):
            d["h"] = "identity"
        else:
            d["h"] = np.asarray(self.h).tolist()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TeacherConfig":
        """Inverse of `to_dict`; every key it writes must be present."""
        h = None if d["h"] == "identity" else d["h"]
        return cls(int(d["k"]), d["c"], d["gamma"], d["lambda"], d["tau_w"], d["sigma_xi"], h)


def softmax(s: np.ndarray) -> np.ndarray:
    """Row-wise softmax of (..., K) logits, shifted by each row's max.

    The max and the normalizer fold over the arm axis from left to right
    (`arm_fold`), so a row's value does not depend on its batch.  For K <= 7
    this equals exp(s - max) / sum bit for bit; from K = 8 the normalizer
    can differ from numpy's pairwise row sum in the last bit.  The logits are
    taken arm-major (Fortran order) so that each pass reads one contiguous
    column; the result is that one copy, worked on in place.
    """
    z = np.array(s, dtype=float, order="F")
    z -= arm_fold(np.maximum, z)[..., np.newaxis]
    np.exp(z, out=z)
    z /= arm_fold(np.add, z)[..., np.newaxis]
    return z


def mix_policy(s: np.ndarray, gamma: float) -> np.ndarray:
    """Softmax of the logits blended with uniform exploration weight gamma.

    `s` is (..., K): leading axes are a batch, mixed row by row into the
    (..., K) probabilities returned; `gamma` is a checked `TeacherConfig`'s.
    """
    p = softmax(s)
    p *= 1.0 - gamma
    p += gamma / p.shape[-1]
    return p


def coverage_margin(cfg: TeacherConfig) -> float:
    """Signal-dominance margin: tau_w*gamma/K - (1-gamma)*c*||U||*sigma_xi^2/2.

    Positive means the task prior outweighs the reward noise.  Advisory only:
    the reference experiment configs violate it and still run fine.
    """
    u_norm = float(np.linalg.norm(cfg.u, ord=2))
    return cfg.tau_w * cfg.gamma / cfg.k - (1.0 - cfg.gamma) * cfg.c * u_norm * cfg.sigma_xi**2 / 2.0
