"""One batched closed-loop kernel and the experiments built on it.

`closed_loop` steps a block of tasks together, one round at a time, and
serves every caller: the expert generating pretraining data, a single
student rollout, the matching run (the student drives while the expert is
scored on the same realized histories) and the shock run (baseline and
perturbed copies of each task share one random-number stream, and a single
observation-side reward bump lands on the perturbed copies only).  A round
changes two of a row's 2K history statistics, so the kernel updates the
logits by two operator columns per row instead of rebuilding them.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .bandit import (
    PURPOSE_ACTION,
    PURPOSE_NOISE,
    PURPOSE_TASK,
    arm_fold,
    coupled_sample,
    crn_draws,
    draw_reward,
)
from .errors import InvalidConfigError
from .lsa import TwoChannelParams, expert_two_channel
from .teacher import TeacherConfig, mix_policy

# Rows stepped together by `closed_loop`, and prefix rows per block of
# `pretrain.empirical_stats`.  Bounds the working set: one block's arrays
# are all that is held, whatever the task count.
# A round pays a fixed numpy call overhead of about 100 us, so the cost per
# row-round falls up to 2048 rows and then levels off or rises (2-core x86-64,
# numpy 2.4: K = 10, R = 2 took 574, 398 and 431 ns per row-round at 512,
# 2048 and 4096 rows; BENCH_shock_fixed_costs.json has the table).
BLOCK_ROWS = 2048


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
    [counts | reward sums] and each operator's logits are ops @ state / t,
    with ops @ state kept as a running sum of two operator columns a round.
    With `shock = (s, bump)`, bump (a scalar or one value per row) is added
    to the reward observed at round s; the environment draw is untouched.
    """
    b, t_max = uniforms.shape
    k = w.shape[-1]
    cols = ops.swapaxes(-2, -1)  # (R, 2K, K): column j of every operator
    acc = np.zeros((ops.shape[0], b, k))  # ops @ state for every row
    logits = acc
    for t in range(1, t_max + 1):
        policies = mix_policy(logits, cfg.gamma)
        actions = coupled_sample(policies[0], uniforms[:, t - 1])
        rewards = draw_reward(w, actions, noise[:, t - 1], cfg.sigma_xi)
        if shock is not None and t == shock[0]:
            rewards = rewards + shock[1]
        # Count `a` gains one and reward sum K+a gains r.  Each row is updated
        # on its own, so its logits do not depend on its block size or place.
        acc += np.take(cols, actions, axis=1)
        acc += np.take(cols, k + actions, axis=1) * rewards[:, np.newaxis]
        logits = acc / t
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
        ids = range(start, min(b, start + size))
        yield (
            slice(ids.start, ids.stop),
            cfg.tau_w * crn_draws(seed, ids, PURPOSE_TASK, cfg.k),  # as `reference.sample_task` scales them
            crn_draws(seed, ids, PURPOSE_ACTION, t_max),
            crn_draws(seed, ids, PURPOSE_NOISE, t_max),
        )


@dataclass
class MatchingReport:
    """Round-by-round gap between student and expert mixed policies."""

    rounds: np.ndarray
    mean: np.ndarray
    std: np.ndarray


def _check_run_size(b_test: int, n: int) -> None:
    if b_test < 1 or n < 1:
        raise InvalidConfigError(f"need b_test >= 1 test tasks and n >= 1 rounds, got b_test={b_test}, n={n}")


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
    _check_run_size(b_test, n)
    ops = np.stack([tc.stacked, expert_two_channel(cfg).stacked])
    gaps = np.zeros((b_test, n))
    for tasks, w, uniforms, noise in task_blocks(cfg, b_test, n, seed):
        for rnd in closed_loop(ops, w, uniforms, noise, cfg):
            gap = rnd.policies[0] - rnd.policies[1]
            gaps[tasks, rnd.t - 1] = np.sqrt(arm_fold(np.add, gap * gap))
    return MatchingReport(
        rounds=np.arange(1, n + 1),
        mean=gaps.mean(axis=0),
        std=gaps.std(axis=0),
    )


def shock_constants(cfg: TeacherConfig, w: np.ndarray) -> tuple[float, float | np.ndarray]:
    """Drift-envelope constants for a task (K,), or for each row of (..., K).

    a scales the direct effect of the bumped reward and is the same for every
    task; b collects the task-dependent feedback strength through re-sampled
    actions and noise, one value per task (a float for a single task).
    """
    u_norm = float(np.linalg.norm(cfg.u, ord=2))
    lead = cfg.c * (1.0 - cfg.gamma) / 2.0
    a = lead * u_norm
    # V + U diag(w) for every task at once: column j of U scaled by w_j.  Its spectral norm is
    # the root of vw^T vw's top eigenvalue, exactly |w_j - lambda|'s maximum when H is diagonal.
    vw = cfg.v + cfg.u * np.asarray(w, dtype=float)[..., np.newaxis, :]
    vw_norm = np.sqrt(np.linalg.eigvalsh(np.swapaxes(vw, -1, -2) @ vw)[..., -1])
    b = lead * math.sqrt(cfg.k / 2.0) * (vw_norm + math.sqrt(2.0 / math.pi) * cfg.sigma_xi * u_norm)
    return a, float(b) if b.ndim == 0 else b


@dataclass
class ShockReport:
    """Measured policy drift under a one-shot reward bump plus its envelope."""

    rounds: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    # Per-task envelopes averaged; zero before the shock round.  It bounds `mean`, the drift
    # averaged over the same tasks (criterion 5); one task's drift may exceed its own envelope.
    bound: np.ndarray
    s: int
    delta_r: float
    n: int
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

    The guarantee (acceptance criterion 5) is on averages over tasks: the mean
    drift over the b_test tasks stays at or below the mean of their envelopes,
    round by round.  It is not a per-task claim, and a single task's drift
    may exceed its own envelope.
    """
    _check_run_size(b_test, n)
    if not 1 <= s <= n:
        raise InvalidConfigError(f"shock round {s} outside horizon [1, {n}]")
    if not math.isfinite(delta_r):
        raise InvalidConfigError(f"delta_r must be finite, got {delta_r}")
    if c_b_override is not None and not (math.isfinite(c_b_override) and c_b_override >= 0):
        raise InvalidConfigError(f"c_b must be finite and >= 0, got {c_b_override}")
    deltas, bounds = np.zeros((b_test, n)), np.zeros((b_test, n))
    b_values, c_b_values = np.zeros(b_test), np.zeros(b_test)
    ops = tc.stacked[np.newaxis]
    for tasks, w, uniforms, noise in task_blocks(cfg, b_test, n, seed, rows_per_task=2):
        # Rows [0, m) are the baselines and rows [m, 2m) their shocked copies.
        m = len(w)
        pair = [np.concatenate([x, x]) for x in (w, uniforms, noise)]
        bump = np.repeat([0.0, delta_r], m)
        for rnd in closed_loop(ops, *pair, cfg, shock=(s, bump)):
            drift = rnd.policies[0, m:] - rnd.policies[0, :m]
            deltas[tasks, rnd.t - 1] = np.sqrt(arm_fold(np.add, drift * drift))
        a_const, b_values[tasks] = shock_constants(cfg, w)
    # Row tau is `reference.shock_bound` over u, in the same left-to-right order, one column at
    # a time, for up to BLOCK_ROWS tasks at once.  C_b = exp(b), the envelope's absolute constant,
    # and the powers stay scalar `math.exp` and `**`: numpy's SIMD exp and power can differ from
    # them in the last bit.  Past float64 they raise OverflowError, and numpy FloatingPointError.
    steps = [max(u - 1, s) / s for u in range(s, n + 1)]
    try:
        with np.errstate(over="raise"):
            c_b_values[:] = list(map(math.exp, b_values.tolist())) if c_b_override is None else c_b_override
            lead = a_const * (1.0 + c_b_values) / s
            for start in range(0, b_test, BLOCK_ROWS):
                tasks = slice(start, start + BLOCK_ROWS)
                powers = np.array([[x**e for e in (b_values[tasks] - 1.0).tolist()] for x in steps])
                bounds[tasks, s - 1 :] = (lead[tasks] * powers * abs(delta_r)).T
            bound = bounds.mean(axis=0)
    except ArithmeticError:
        c_b = "" if c_b_override is None else f", C_b = {c_b_override:.6g}"
        cause = f"largest b = {b_values.max():.6g}{c_b}, |delta_r| = {abs(delta_r):.6g}"
        raise InvalidConfigError(f"the drift envelope overflows float64: {cause}") from None
    return ShockReport(
        rounds=np.arange(1, n + 1),
        mean=deltas.mean(axis=0),
        std=deltas.std(axis=0),
        bound=bound,
        s=s,
        delta_r=delta_r,
        n=n,
        a=a_const,  # the same for every task
        b_values=b_values,
        c_b_values=c_b_values,
    )
