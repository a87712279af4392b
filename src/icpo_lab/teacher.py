"""Expert policy optimizer: regularized logit updates and the mixed policy.

The expert keeps per-arm count and reward sums (n, g) and emits logits
s_{t+1} = (c/t) (U g + V n) with U the inverse regularizer and V = -lambda U,
then acts through a softmax mixed with uniform exploration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bandit import History
from .errors import InvalidConfigError

_EIG_FLOOR = 1e-10


@dataclass(frozen=True)
class TeacherConfig:
    """All expert/environment constants plus the derived operator pair.

    `h` must be symmetric positive definite; `u = h^-1` and `v = -lam * u`
    are computed once at construction and validated.
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
        if self.k < 2:
            raise InvalidConfigError(f"need at least 2 arms, got K={self.k}")
        if self.c <= 0:
            raise InvalidConfigError(f"step-size constant must be > 0, got {self.c}")
        # gamma = 1 (pure uniform play) is allowed as a degenerate limit.
        if not 0.0 <= self.gamma <= 1.0:
            raise InvalidConfigError(f"exploration mix must be in [0, 1], got {self.gamma}")
        if self.lam < 0:
            raise InvalidConfigError(f"visit penalty must be >= 0, got {self.lam}")
        if self.tau_w < 0 or self.sigma_xi < 0:
            raise InvalidConfigError("prior and noise stds must be >= 0")

        h = np.eye(self.k) if self.h is None else np.asarray(self.h, dtype=float)
        if h.shape != (self.k, self.k):
            raise InvalidConfigError(f"regularizer must be {self.k}x{self.k}, got {h.shape}")
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
        h = d.get("h", "identity")
        h_mat = None if h == "identity" else np.asarray(h, dtype=float)
        return cls(
            k=int(d["k"]),
            c=float(d.get("c", 1.0)),
            gamma=float(d.get("gamma", 0.2)),
            lam=float(d.get("lambda", 0.1)),
            tau_w=float(d.get("tau_w", 1.0)),
            sigma_xi=float(d.get("sigma_xi", 0.5)),
            h=h_mat,
        )


@dataclass
class MixedPolicy:
    """Logits together with the exploration-mixed probabilities they induce."""

    logits: np.ndarray
    p: np.ndarray


def softmax(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    z = np.exp(s - s.max(axis=-1, keepdims=True))
    return z / z.sum(axis=-1, keepdims=True)


def teacher_logits(history: History, cfg: TeacherConfig) -> np.ndarray:
    """Expert logits after `history`: (c/t)(U g + V n); zeros for an empty history."""
    if history.k != cfg.k:
        raise InvalidConfigError(f"history has {history.k} arms but config has {cfg.k}")
    t = history.t
    if t == 0:
        return np.zeros(cfg.k)
    return (cfg.c / t) * (cfg.u @ history.g + cfg.v @ history.n)


def mix_policy(s: np.ndarray, gamma: float) -> MixedPolicy:
    """Softmax of the logits blended with uniform exploration weight gamma.

    `s` is (..., K): leading axes are a batch, mixed row by row.
    """
    if not 0.0 <= gamma <= 1.0:
        raise InvalidConfigError(f"exploration mix must be in [0, 1], got {gamma}")
    s = np.asarray(s, dtype=float)
    if not np.all(np.isfinite(s)):
        raise ValueError("logits must be finite")
    k = s.shape[-1]
    p = (1.0 - gamma) * softmax(s) + gamma / k
    return MixedPolicy(logits=s, p=p)


def coverage_margin(cfg: TeacherConfig) -> float:
    """Signal-dominance margin: tau_w*gamma/K - (1-gamma)*c*||U||*sigma_xi^2/2.

    Positive means the task prior outweighs the reward noise.  Advisory only:
    the reference experiment configs violate it and still run fine.
    """
    u_norm = float(np.linalg.norm(cfg.u, ord=2))
    return cfg.tau_w * cfg.gamma / cfg.k - (1.0 - cfg.gamma) * cfg.c * u_norm * cfg.sigma_xi**2 / 2.0
