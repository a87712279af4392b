"""The paper's objects written the direct way, for the tests and for users: the
single-layer linear self-attention network on its full token embedding, the
expert's per-step update on an interaction history, and one task's rollout.
The commands run the batched operator forms, and the tests pin each agreement.
No command imports this module; it imports the program, never the reverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analysis import _check_positive
from .bandit import PURPOSE_ACTION, PURPOSE_NOISE, PURPOSE_TASK, arm_fold, crn_draws
from .errors import IcpoError, InvalidConfigError
from .loop import closed_loop, shock_constants, task_blocks
from .lsa import TwoChannelParams, project
from .pretrain import PretrainDataset
from .teacher import TeacherConfig

NORMAL_FORM_ATOL = 1e-8


class InvalidParamsError(IcpoError):
    """Attention parameters violate the required normal form."""


@dataclass
class HistoryStep:
    """One (action, reward) interaction."""

    action: int
    r: float


@dataclass
class History:
    """Ordered interaction record with maintained count and reward sums.

    `n[i]` counts pulls of arm i and `g[i]` accumulates its rewards; both are
    kept in sync with `steps` on every append.
    """

    k: int
    steps: list[HistoryStep] = field(default_factory=list)
    n: np.ndarray = field(init=False)
    g: np.ndarray = field(init=False)

    def __post_init__(self):
        self.n, self.g = np.zeros(self.k), np.zeros(self.k)

    @property
    def t(self) -> int:
        return len(self.steps)

    def append(self, action: int, reward: float) -> None:
        if not 0 <= action < self.k:
            raise IndexError(f"action {action} out of range for {self.k} arms")
        self.steps.append(HistoryStep(action=action, r=float(reward)))
        self.n[action] += 1.0
        self.g[action] += float(reward)

    def recompute_stats(self) -> tuple[np.ndarray, np.ndarray]:
        """Rebuild (n, g) from the raw steps, in append order."""
        n, g = np.zeros(self.k), np.zeros(self.k)
        for step in self.steps:
            n[step.action] += 1.0
            g[step.action] += step.r
        return n, g


class CrnStream:
    """Deterministic per-trajectory randomness addressed by purpose.

    Backed by Philox, a counter-based generator keyed by the seed, with the
    stream id (masked to 64 bits) and the purpose in its counter.  A purpose's
    draws form one sequence, with round t at position t-1, so a value never
    depends on the horizon or on draws made for other purposes.  This is the
    one-stream form of `bandit.crn_draws`.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed)
        self.stream_id = int(stream_id) & 0xFFFFFFFFFFFFFFFF

    def uniforms(self, n: int) -> np.ndarray:
        """Action-selection uniforms in [0, 1) for rounds 1..n."""
        return crn_draws(self.seed, range(self.stream_id, self.stream_id + 1), PURPOSE_ACTION, n)[0]

    def normals(self, n: int) -> np.ndarray:
        """Standard-normal reward-noise draws for rounds 1..n."""
        return crn_draws(self.seed, range(self.stream_id, self.stream_id + 1), PURPOSE_NOISE, n)[0]

    def task_normals(self, k: int) -> np.ndarray:
        """K standard normals for sampling the task vector."""
        return crn_draws(self.seed, range(self.stream_id, self.stream_id + 1), PURPOSE_TASK, k)[0]


def sample_task(rng: CrnStream, k: int, tau_w: float) -> np.ndarray:
    """Draw a task vector with i.i.d. zero-mean normal entries of std tau_w."""
    if k < 2:
        raise InvalidConfigError(f"need at least 2 arms, got K={k}")
    if tau_w < 0:
        raise InvalidConfigError(f"task prior std must be >= 0, got {tau_w}")
    return tau_w * rng.task_normals(k)


def teacher_logits(history: History, cfg: TeacherConfig) -> np.ndarray:
    """Expert logits after `history`: (c/t)(U g + V n); zeros for an empty history."""
    if history.k != cfg.k:
        raise InvalidConfigError(f"history has {history.k} arms but config has {cfg.k}")
    t = history.t
    if t == 0:
        return np.zeros(cfg.k)
    return (cfg.c / t) * (cfg.u @ history.g + cfg.v @ history.n)


@dataclass
class LsaParams:
    """Value/key-query weight pair plus the fixed next-token query (q_x; q_r).

    Normal form means the projected attention output is exactly the count and
    reward channels: q_x is constant, the value matrix's query column (rows
    1..K of column K+1) is parallel to the all-ones vector, and the query's
    attention to itself adds nothing.  With (phi_1; phi_2) = W_kq q, that term
    is (q_x^T phi_1 + q_r phi_2) Proj(W_pv11 q_x) / t, so it vanishes when its
    coefficient is zero or W_pv11 maps q_x onto a constant.
    """

    w_pv: np.ndarray
    w_kq: np.ndarray
    q_x: np.ndarray | None = None
    q_r: float = 0.0

    def __post_init__(self):
        self.w_pv = np.asarray(self.w_pv, dtype=float)
        self.w_kq = np.asarray(self.w_kq, dtype=float)
        if self.w_pv.shape != self.w_kq.shape or self.w_pv.shape[0] != self.w_pv.shape[1]:
            shapes = f"{self.w_pv.shape} and {self.w_kq.shape}"
            raise InvalidConfigError(f"weight matrices must be square and same shape, got {shapes}")
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
        """Largest violation of the two-channel normal form (0 when exact); the self-attention
        term counts as t = 1, its largest size."""
        k = self.k
        phi = self.w_kq @ self.query
        self_term = (self.q_x @ phi[:k] + self.q_r * phi[k]) * project(self.w_pv[:k, :k] @ self.q_x)
        parts = (project(self.q_x), project(self.w_pv[:k, k]), self_term)
        return max(float(np.abs(part).max()) for part in parts)


def build_embedding(history: History, q_x: np.ndarray | None = None, q_r: float = 0.0) -> np.ndarray:
    """(K+1) x (t+1) token matrix: one (one-hot; reward) column per step plus the query."""
    k = history.k
    q_x = np.ones(k) if q_x is None else np.asarray(q_x, dtype=float)
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
    e = build_embedding(history, params.q_x, params.q_r)
    gram = e @ e.T
    b = params.w_kq @ params.query
    return params.q_x + (params.w_pv[: history.k, :] @ gram @ b) / t


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
    W_n = Proj(W_pv11 Diag(phi_1)) and W_g = Proj(phi_2 W_pv11).  Weights that
    pass the normal-form check give operators whose logits equal the projected
    network output exactly, on every history.
    """
    defect = params.normal_form_defect()
    if defect > NORMAL_FORM_ATOL:
        raise InvalidParamsError(f"parameters violate normal form by {defect:.3e}")
    k = params.k
    b = params.w_kq @ params.query
    phi_1 = b[:k]
    phi_2 = float(b[k])
    w_pv11 = params.w_pv[:k, :k]
    w_n = project(w_pv11 * phi_1[np.newaxis, :], axis=0)  # right-multiply by Diag(phi_1)
    w_g = project(phi_2 * w_pv11, axis=0)
    return TwoChannelParams(w_n=w_n, w_g=w_g)


def realize_teacher_params(cfg: TeacherConfig) -> LsaParams:
    """Weights whose network realizes the expert: projected logits c Proj(V n + U g) / t.

    Construction: the key-query top-left block is -lambda I (so phi_1 is
    constant at -lambda), its bottom row is 1/K (so phi_2 = 1), and the value
    top-left block is c H^-1.  The query's reward slot is q_r = lambda K, which
    zeroes its self-attention coefficient q_x^T phi_1 + q_r phi_2, so the
    network's projected logits are the teacher's for every SPD H.  With q_r = 0
    they would differ by -(lambda K c / t) Proj(H^-1 1).
    """
    k = cfg.k
    w_kq = np.zeros((k + 1, k + 1))
    w_kq[:k, :k] = -cfg.lam * np.eye(k)
    w_kq[k, :k] = 1.0 / k
    w_pv = np.zeros((k + 1, k + 1))
    w_pv[:k, :k] = cfg.c * cfg.u
    return LsaParams(w_pv=w_pv, w_kq=w_kq, q_r=cfg.lam * k)


@dataclass
class RolloutResult:
    """Per-round mixed policies plus the realized actions and observed rewards."""

    policies: np.ndarray  # (T, K)
    actions: np.ndarray  # (T,)
    rewards: np.ndarray  # (T,) as observed (shock included)


def rollout(
    tc: TwoChannelParams,
    w: np.ndarray,
    cfg: TeacherConfig,
    t_max: int,
    stream: CrnStream,
    shock: tuple[int, float] | None = None,
) -> RolloutResult:
    """Run the student loop for `t_max` rounds on task w: one row of `loop.closed_loop`.

    When `shock = (s, delta_r)` is given, the reward observed at round s is
    bumped by delta_r before entering the history; the environment draw
    itself is untouched, so a coupled baseline sees identical randomness.
    """
    if t_max < 1:
        raise InvalidConfigError(f"horizon must be >= 1, got {t_max}")
    if shock is not None and not 1 <= shock[0] <= t_max:
        raise InvalidConfigError(f"shock round {shock[0]} outside horizon [1, {t_max}]")
    row = (tc.stacked, np.asarray(w, dtype=float), stream.uniforms(t_max), stream.normals(t_max))
    rounds = list(closed_loop(*(x[np.newaxis] for x in row), cfg, shock))
    return RolloutResult(
        policies=np.stack([rnd.policies[0, 0] for rnd in rounds]),
        actions=np.array([rnd.actions[0] for rnd in rounds]),
        rewards=np.array([rnd.rewards[0] for rnd in rounds]),
    )


def shock_bound(a: float, b: float, c_b: float, s: int, t: int, delta_r: float) -> float:
    """Envelope value a(1+C_b)/s * (t/s)^(b-1) * |delta_r| for rounds s <= t."""
    if not 1 <= s <= t:
        raise ValueError(f"need 1 <= s <= t, got s={s}, t={t}")
    return a * (1.0 + c_b) / s * (t / s) ** (b - 1.0) * abs(delta_r)


def sample_b_distribution(cfg: TeacherConfig, n_tasks: int, seed: int) -> np.ndarray:
    """Per-task envelope exponents b over freshly sampled tasks."""
    blocks = [shock_constants(cfg, w)[1] for _, w, _, _ in task_blocks(cfg, n_tasks, 0, seed)]
    return np.concatenate(blocks) if blocks else np.zeros(0)


def loss_direct(tc: TwoChannelParams, ds: PretrainDataset, gamma_hat: np.ndarray) -> float:
    """Weighted loss by explicit summation: (1/2M) sum of residual quadratics.

    An independent per-pair computation that cross-checks the moment form,
    `pretrain.loss_quadratic`.
    """
    z, y, _ = ds.pair_matrices()
    resid = z @ tc.stacked.T - y
    per_pair = np.einsum("mi,ij,mj->m", resid, gamma_hat, resid)
    return 0.5 * float(per_pair.mean())


def kl_divergence(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise KL(p || q) in nats over (..., K); inputs must be strictly positive."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    _check_positive(p, q)
    return arm_fold(np.add, p * (np.log(p) - np.log(q)))
