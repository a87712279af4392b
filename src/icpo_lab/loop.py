"""One batched closed-loop kernel and the experiments built on it.

`closed_loop` steps a block of tasks together, one round at a time, and
serves every caller: the expert generating pretraining data, a single
student rollout, the matching run (the student drives while the expert is
scored on the same realized histories) and the shock run (baseline and
perturbed copies of each task share one random-number stream, and a single
observation-side reward bump lands on the perturbed copies only).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .bandit import CrnStream, coupled_sample, draw_reward, sample_task
from .errors import InvalidConfigError
from .lsa import TwoChannelParams, expert_two_channel
from .teacher import TeacherConfig, mix_policy

# Rows stepped together by `closed_loop`.  Bounds the working set: one
# block's per-round arrays are all that is held, whatever the task count.
BLOCK_ROWS = 512


@dataclass
class Round:
    """One round of `closed_loop` for every row of a block."""

    t: int
    policies: np.ndarray  # (R, B, K) each operator's mixed policy before acting
    actions: np.ndarray  # (B,) drawn from operator 0's policy
    rewards: np.ndarray  # (B,) as observed, shock included
    logits: np.ndarray  # (R, B, K) each operator's logits after this round


def closed_loop(
    ops: np.ndarray,
    w: np.ndarray,
    uniforms: np.ndarray,
    noise: np.ndarray,
    cfg: TeacherConfig,
    shock: tuple[int, float | np.ndarray] | None = None,
) -> Iterator[Round]:
    """Step B tasks through the closed loop together and yield every round.

    `ops` stacks R operators [W_n  W_g] as (R, K, 2K).  Operator 0 drives;
    the others are scored on the state it produces.  Row i has task w[i]
    and, at round t, draws uniforms[i, t-1] and noise[i, t-1].  Its state is
    [counts | reward sums], and each operator's logits are ops @ state / t.
    With `shock = (s, bump)`, bump (a scalar or one value per row) is added
    to the reward observed at round s; the environment draw is untouched.
    """
    b, t_max = uniforms.shape
    k = w.shape[-1]
    rows = np.arange(b)
    state = np.zeros((b, 2 * k))
    logits = np.zeros((ops.shape[0], b, k))
    for t in range(1, t_max + 1):
        policies = mix_policy(logits, cfg.gamma).p
        actions = coupled_sample(policies[0], uniforms[:, t - 1])
        rewards = draw_reward(w, actions, noise[:, t - 1], cfg.sigma_xi)
        if shock is not None and t == shock[0]:
            rewards = rewards + shock[1]
        state[rows, actions] += 1.0
        state[rows, k + actions] += rewards
        # Summed column by column, left to right, so a row's logits do not
        # depend on the size of its block or its place in it.
        logits = np.zeros_like(logits)
        for j in range(2 * k):
            logits += ops[:, np.newaxis, :, j] * state[:, j, np.newaxis]
        logits /= t
        yield Round(t=t, policies=policies, actions=actions, rewards=rewards, logits=logits)


def task_blocks(
    cfg: TeacherConfig, b: int, t_max: int, seed: int, rows_per_task: int = 1
) -> Iterator[tuple[slice, np.ndarray, np.ndarray, np.ndarray]]:
    """Tasks 0..b-1 in blocks that fill at most BLOCK_ROWS kernel rows.

    Task tau owns CRN stream id tau.  Each block gives its task range, the
    task vectors (B, K), and the action uniforms and noise draws (B, t_max).
    """
    size = BLOCK_ROWS // rows_per_task
    for start in range(0, b, size):
        streams = [CrnStream(seed, stream_id=tau) for tau in range(start, min(b, start + size))]
        yield (
            slice(start, start + len(streams)),
            np.stack([sample_task(stream, cfg.k, cfg.tau_w) for stream in streams]),
            np.stack([stream.uniforms(t_max) for stream in streams]),
            np.stack([stream.normals(t_max) for stream in streams]),
        )


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
    """Run the student loop for `t_max` rounds on task w.

    When `shock = (s, delta_r)` is given, the reward observed at round s is
    bumped by delta_r before entering the history; the environment draw
    itself is untouched, so a coupled baseline sees identical randomness.
    """
    if t_max < 1:
        raise InvalidConfigError(f"horizon must be >= 1, got {t_max}")
    if shock is not None and not 1 <= shock[0] <= t_max:
        raise InvalidConfigError(f"shock round {shock[0]} outside horizon [1, {t_max}]")
    rounds = list(
        closed_loop(
            tc.stacked[np.newaxis],
            np.asarray(w, dtype=float)[np.newaxis],
            stream.uniforms(t_max)[np.newaxis],
            stream.normals(t_max)[np.newaxis],
            cfg,
            shock,
        )
    )
    return RolloutResult(
        policies=np.stack([rnd.policies[0, 0] for rnd in rounds]),
        actions=np.array([rnd.actions[0] for rnd in rounds]),
        rewards=np.array([rnd.rewards[0] for rnd in rounds]),
    )


@dataclass
class MatchingReport:
    """Round-by-round gap between student and expert mixed policies."""

    rounds: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    b_test: int
    n: int
    seed: int
    cfg: TeacherConfig


def matching_experiment(
    cfg: TeacherConfig,
    tc: TwoChannelParams,
    b_test: int,
    n: int,
    seed: int,
) -> MatchingReport:
    """Student-driven closed loop with the expert scored on the same histories.

    At every round the realized history is held fixed, both mixed policies
    are computed on it, their L2 gap recorded, and the loop continues with
    the student's policy.
    """
    ops = np.stack([tc.stacked, expert_two_channel(cfg).stacked])
    gaps = np.zeros((b_test, n))
    for tasks, w, uniforms, noise in task_blocks(cfg, b_test, n, seed):
        for rnd in closed_loop(ops, w, uniforms, noise, cfg):
            gaps[tasks, rnd.t - 1] = np.linalg.norm(rnd.policies[0] - rnd.policies[1], axis=-1)
    return MatchingReport(
        rounds=np.arange(1, n + 1),
        mean=gaps.mean(axis=0),
        std=gaps.std(axis=0),
        b_test=b_test,
        n=n,
        seed=seed,
        cfg=cfg,
    )


def shock_constants(cfg: TeacherConfig, w: np.ndarray) -> tuple[float, float]:
    """Drift-envelope constants for one task.

    a scales the direct effect of the bumped reward; b collects the
    task-dependent feedback strength through re-sampled actions and noise.
    """
    u_norm = float(np.linalg.norm(cfg.u, ord=2))
    lead = cfg.c * (1.0 - cfg.gamma) / 2.0
    a = lead * u_norm
    vw_norm = float(np.linalg.norm(cfg.v + cfg.u @ np.diag(np.asarray(w, dtype=float)), ord=2))
    b = lead * math.sqrt(cfg.k / 2.0) * (vw_norm + math.sqrt(2.0 / math.pi) * cfg.sigma_xi * u_norm)
    return a, b


def default_c_b(b: float) -> float:
    """Absolute constant in the envelope; exp(b) dominates the recursion product."""
    return math.exp(b)


def shock_bound(a: float, b: float, c_b: float, s: int, t: int, delta_r: float) -> float:
    """Envelope value a(1+C_b)/s * (t/s)^(b-1) * |delta_r| for rounds s <= t."""
    if not 1 <= s <= t:
        raise ValueError(f"need 1 <= s <= t, got s={s}, t={t}")
    return a * (1.0 + c_b) / s * (t / s) ** (b - 1.0) * abs(delta_r)


def sample_b_distribution(cfg: TeacherConfig, n_tasks: int, seed: int) -> np.ndarray:
    """Per-task envelope exponents b over freshly sampled tasks."""
    draws = task_blocks(cfg, n_tasks, 0, seed)
    return np.array([shock_constants(cfg, w)[1] for _, block, _, _ in draws for w in block])


@dataclass
class ShockReport:
    """Measured policy drift under a one-shot reward bump plus its envelope."""

    rounds: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    bound: np.ndarray  # per-task envelopes averaged; zero before the shock round
    s: int
    delta_r: float
    b_test: int
    n: int
    seed: int
    cfg: TeacherConfig
    a: float
    b_values: np.ndarray = field(repr=False)
    c_b_values: np.ndarray = field(repr=False)

    @property
    def post_shock_max(self) -> float:
        return float(self.mean[self.s - 1 :].max())


def shock_experiment(
    cfg: TeacherConfig,
    tc: TwoChannelParams,
    b_test: int,
    n: int,
    s: int,
    delta_r: float,
    seed: int,
    c_b_override: float | None = None,
) -> ShockReport:
    """Coupled baseline/perturbed rollouts per task, drift and envelope per round.

    Both rollouts of a task share one stream, so rounds before the shock agree
    exactly.  The envelope is evaluated per task with its own (a, b) and
    C_b = exp(b) unless overridden, then averaged.  The bound at argument t
    covers the policy one step ahead, so round u >= s+1 uses t = u-1; round s
    itself (where the measured drift is identically zero by coupling) carries
    the envelope's peak value.
    """
    if not 1 <= s <= n:
        raise InvalidConfigError(f"shock round {s} outside horizon [1, {n}]")
    deltas = np.zeros((b_test, n))
    bounds = np.zeros((b_test, n))
    b_values = np.zeros(b_test)
    c_b_values = np.zeros(b_test)
    ops = tc.stacked[np.newaxis]
    for tasks, w, uniforms, noise in task_blocks(cfg, b_test, n, seed, rows_per_task=2):
        # Rows [0, m) are the baselines and rows [m, 2m) their shocked copies.
        m = len(w)
        pair = [np.concatenate([x, x]) for x in (w, uniforms, noise)]
        bump = np.repeat([0.0, delta_r], m)
        for rnd in closed_loop(ops, *pair, cfg, shock=(s, bump)):
            p = rnd.policies[0]
            deltas[tasks, rnd.t - 1] = np.linalg.norm(p[m:] - p[:m], axis=-1)
        for tau, task in zip(range(tasks.start, tasks.stop), w):
            a_const, b_val = shock_constants(cfg, task)
            c_b = default_c_b(b_val) if c_b_override is None else c_b_override
            b_values[tau] = b_val
            c_b_values[tau] = c_b
            for u in range(s, n + 1):
                bounds[tau, u - 1] = shock_bound(a_const, b_val, c_b, s, max(u - 1, s), delta_r)
    return ShockReport(
        rounds=np.arange(1, n + 1),
        mean=deltas.mean(axis=0),
        std=deltas.std(axis=0),
        bound=bounds.mean(axis=0),
        s=s,
        delta_r=delta_r,
        b_test=b_test,
        n=n,
        seed=seed,
        cfg=cfg,
        a=a_const,  # the same for every task
        b_values=b_values,
        c_b_values=c_b_values,
    )
