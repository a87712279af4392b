"""One-layer linear self-attention student.

Three equivalent views of the same forward map are implemented side by side:
the raw attention pass over the full embedding matrix, the query-column
closed form q_x + (1/t) R G b, and the two-channel operator form
Proj(s) = (W_n n + W_g g) / t that training and analysis work in.  The tests
pin their pairwise agreement to 1e-10.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bandit import History
from .errors import InvalidConfigError, InvalidParamsError
from .teacher import TeacherConfig

NORMAL_FORM_ATOL = 1e-8


def project(v: np.ndarray) -> np.ndarray:
    """Remove the constant component: v - mean(v) per row.  Idempotent."""
    v = np.asarray(v, dtype=float)
    return v - v.mean(axis=-1, keepdims=True)


def project_columns(m: np.ndarray) -> np.ndarray:
    """Left-multiply by (I - 11^T/K): centers every column of m."""
    m = np.asarray(m, dtype=float)
    return m - m.mean(axis=0, keepdims=True)


@dataclass
class LsaParams:
    """Value/key-query weight pair plus the fixed next-token query.

    Normal form means the attention output decomposes into count and reward
    channels: q_r = 0, q_x is constant, and the value matrix's query column
    (rows 1..K of column K+1) is parallel to the all-ones vector.
    """

    w_pv: np.ndarray
    w_kq: np.ndarray
    q_x: np.ndarray | None = None
    q_r: float = 0.0

    def __post_init__(self):
        self.w_pv = np.asarray(self.w_pv, dtype=float)
        self.w_kq = np.asarray(self.w_kq, dtype=float)
        if self.w_pv.shape != self.w_kq.shape or self.w_pv.shape[0] != self.w_pv.shape[1]:
            raise InvalidConfigError(
                f"weight matrices must be square and same shape, got {self.w_pv.shape} and {self.w_kq.shape}"
            )
        k = self.w_pv.shape[0] - 1
        if k < 1:
            raise InvalidConfigError("weight matrices must be at least 2x2")
        if self.q_x is None:
            self.q_x = np.ones(k)
        else:
            self.q_x = np.asarray(self.q_x, dtype=float)
            if self.q_x.shape != (k,):
                raise InvalidConfigError(f"query must have length {k}, got {self.q_x.shape}")

    @property
    def k(self) -> int:
        return self.w_pv.shape[0] - 1

    @property
    def query(self) -> np.ndarray:
        return np.concatenate([self.q_x, [self.q_r]])

    def normal_form_defect(self) -> float:
        """Largest violation of the two-channel normal form (0 when exact)."""
        k = self.k
        defects = [
            abs(self.q_r),
            float(np.abs(project(self.q_x)).max()),
            float(np.abs(project(self.w_pv[:k, k])).max()),
        ]
        return max(defects)

    @property
    def is_normal_form(self) -> bool:
        return self.normal_form_defect() <= NORMAL_FORM_ATOL

    def query_overlap_defect(self) -> float:
        """Size of the query self-attention term the two-channel form drops.

        The query column also attends to itself, adding
        (1^T phi_1 / t) * Proj(W_pv11 @ q_x) to the projected logits.  The
        two-channel operators reproduce the network exactly only when this
        vanishes: either the action block of the transformed query sums to
        zero, or the value block maps the query direction onto itself.  The
        teacher construction satisfies the latter whenever the regularizer
        inverse fixes the all-ones direction (identity included).
        """
        k = self.k
        phi_1 = (self.w_kq @ self.query)[:k]
        return float(np.abs(phi_1.sum() * project(self.w_pv[:k, :k] @ self.q_x)).max())


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
        if self.w_n.shape != self.w_g.shape or self.w_n.ndim != 2:
            raise InvalidConfigError("channel operators must be two same-shape square matrices")
        if self.w_n.shape[0] != self.w_n.shape[1]:
            raise InvalidConfigError(f"channel operators must be square, got {self.w_n.shape}")

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


def build_embedding(history: History, q_x: np.ndarray | None = None, q_r: float = 0.0) -> np.ndarray:
    """(K+1) x (t+1) token matrix: one (one-hot; reward) column per step plus the query."""
    k = history.k
    if q_x is None:
        q_x = np.ones(k)
    q_x = np.asarray(q_x, dtype=float)
    if q_x.shape != (k,):
        raise InvalidConfigError(f"query must have length {k}, got {q_x.shape}")
    t = history.t
    e = np.zeros((k + 1, t + 1))
    for j, step in enumerate(history.steps):
        e[step.action, j] = 1.0
        e[k, j] = step.r
    e[:k, t] = q_x
    e[k, t] = q_r
    return e


def lsa_forward(e: np.ndarray, params: LsaParams, rho: float) -> np.ndarray:
    """Residual attention pass: E + W_pv E (E^T W_kq E / rho)."""
    if rho <= 0:
        raise InvalidConfigError(f"attention normalizer must be > 0, got {rho}")
    e = np.asarray(e, dtype=float)
    attn = e.T @ params.w_kq @ e / rho
    return e + params.w_pv @ e @ attn


def closed_form_logits(history: History, params: LsaParams) -> np.ndarray:
    """Next-step logits without forming the full attention output.

    Equals rows 1..K of the final column of the forward pass with rho = t.
    For an empty history the attention term is vacuous and the query block
    is returned unchanged.
    """
    t = history.t
    if t == 0:
        return params.q_x.copy()
    k = history.k
    e = build_embedding(history, params.q_x, params.q_r)
    gram = e @ e.T
    b = params.w_kq @ params.query
    r_rows = params.w_pv[:k, :]
    return params.q_x + (r_rows @ gram @ b) / t


def two_channel_logits(history: History, tc: TwoChannelParams) -> np.ndarray:
    """Projected logits from the effective operators: (W_n n + W_g g) / t."""
    if history.k != tc.k:
        raise InvalidConfigError(f"history has {history.k} arms but operators have {tc.k}")
    t = history.t
    if t == 0:
        return np.zeros(tc.k)
    return (tc.w_n @ history.n + tc.w_g @ history.g) / t


def extract_two_channel(params: LsaParams) -> TwoChannelParams:
    """Read the (count, reward) channel operators off normal-form weights.

    With b = W_kq q split as (phi_1; phi_2), the channels are
    W_n = Proj(W_pv11 Diag(phi_1)) and W_g = Proj(phi_2 W_pv11).  The
    resulting operators match the projected network output exactly only when
    `params.query_overlap_defect()` also vanishes; see that method.
    """
    defect = params.normal_form_defect()
    if defect > NORMAL_FORM_ATOL:
        raise InvalidParamsError(f"parameters violate normal form by {defect:.3e}")
    k = params.k
    b = params.w_kq @ params.query
    phi_1 = b[:k]
    phi_2 = float(b[k])
    w_pv11 = params.w_pv[:k, :k]
    w_n = project_columns(w_pv11 * phi_1[np.newaxis, :])  # right-multiply by Diag(phi_1)
    w_g = project_columns(phi_2 * w_pv11)
    return TwoChannelParams(w_n=w_n, w_g=w_g)


def realize_teacher_params(cfg: TeacherConfig) -> LsaParams:
    """Weights whose two-channel extraction is (c Proj V, c Proj U).

    Construction: the key-query top-left block is -lambda I (so phi_1 is
    constant at -lambda), its bottom row is 1/K (so phi_2 = 1), and the value
    top-left block is c H^-1.  In closed loop these weights reproduce the
    expert's mixed policy exactly.
    """
    k = cfg.k
    w_kq = np.zeros((k + 1, k + 1))
    w_kq[:k, :k] = -cfg.lam * np.eye(k)
    w_kq[k, :k] = 1.0 / k
    w_pv = np.zeros((k + 1, k + 1))
    w_pv[:k, :k] = cfg.c * cfg.u
    return LsaParams(w_pv=w_pv, w_kq=w_kq)


def expert_two_channel(cfg: TeacherConfig) -> TwoChannelParams:
    """The expert's own update (c V, c U) as channel operators, unprojected.

    Its logits (c V n + c U g) / t are the expert's (c/t)(U g + V n), so
    the closed loop runs the expert through the same code as a student.
    """
    return TwoChannelParams(w_n=cfg.c * cfg.v, w_g=cfg.c * cfg.u)


def teacher_two_channel(cfg: TeacherConfig) -> TwoChannelParams:
    """The target operators c Proj[V U] that exact training recovers."""
    return TwoChannelParams(
        w_n=cfg.c * project_columns(cfg.v),
        w_g=cfg.c * project_columns(cfg.u),
    )
