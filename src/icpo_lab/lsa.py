"""One-layer linear self-attention student, in the operator form the commands run.

The student's projected next-step logits are Proj(s) = (W_n n + W_g g) / t:
two channel operators on a history's count and reward sums
(`TwoChannelParams`), the form that training and analysis work in.  The raw
attention pass, its query-column closed form and the extraction of the
operators from normal-form weights are in `icpo_lab.reference`, where the
tests pin each agreement to 1e-10.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError
from .teacher import TeacherConfig


def project(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """Remove the constant component along `axis`: v - mean(v).  Idempotent.

    The default centers every row; `axis=0` centers every column of a
    matrix, which is left-multiplication by (I - 11^T/K).
    """
    v = np.asarray(v, dtype=float)
    return v - v.mean(axis=axis, keepdims=True)


@dataclass
class TwoChannelParams:
    """Effective operators from (counts, rewards) to projected logits.

    Both matrices are images of the column-centering projection, so their
    columns sum to zero and every output lies in the zero-sum subspace.
    """

    w_n: np.ndarray
    w_g: np.ndarray

    def __post_init__(self):
        self.w_n = np.asarray(self.w_n, dtype=float)
        self.w_g = np.asarray(self.w_g, dtype=float)
        shape = self.w_n.shape
        if shape != self.w_g.shape or len(shape) != 2 or shape[0] != shape[1]:
            raise InvalidConfigError(f"channel operators must be square and same shape, got {shape} and {self.w_g.shape}")
        if not (np.isfinite(self.w_n).all() and np.isfinite(self.w_g).all()):
            raise InvalidConfigError("parameter values must be finite")

    @property
    def k(self) -> int:
        return self.w_n.shape[0]

    @property
    def stacked(self) -> np.ndarray:
        """K x 2K concatenation [W_n  W_g] acting on (n/t; g/t)."""
        return np.hstack([self.w_n, self.w_g])

    @classmethod
    def from_stacked(cls, w: np.ndarray) -> "TwoChannelParams":
        w = np.asarray(w, dtype=float)
        k = w.shape[0]
        if w.shape != (k, 2 * k):
            raise InvalidConfigError(f"expected shape (K, 2K), got {w.shape}")
        return cls(w_n=w[:, :k].copy(), w_g=w[:, k:].copy())

    @classmethod
    def zeros(cls, k: int) -> "TwoChannelParams":
        return cls(w_n=np.zeros((k, k)), w_g=np.zeros((k, k)))


def expert_two_channel(cfg: TeacherConfig) -> TwoChannelParams:
    """The expert's own update (c V, c U) as channel operators, unprojected.

    Its logits (c V n + c U g) / t are the expert's (c/t)(U g + V n), so
    the closed loop runs the expert through the same code as a student.
    """
    return TwoChannelParams(w_n=cfg.c * cfg.v, w_g=cfg.c * cfg.u)


def teacher_two_channel(cfg: TeacherConfig) -> TwoChannelParams:
    """The target operators c Proj[V U] that exact training recovers."""
    return TwoChannelParams(
        w_n=cfg.c * project(cfg.v, axis=0),
        w_g=cfg.c * project(cfg.u, axis=0),
    )
