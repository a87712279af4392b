"""K-armed linear bandit environment with counter-based common random numbers.

Every random draw is addressed by (seed, stream id, purpose), with the round
as its position in the draw, so two trajectories that share a stream see
literally the same uniforms and noise.  That makes coupled (baseline vs.
perturbed) runs structural rather than a matter of careful call ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfigError, InvalidDistributionError

SIMPLEX_ATOL = 1e-12

# Purpose tags for the counter-based generator.  Each purpose owns an
# independent substream.
_PURPOSE_ACTION = 0
_PURPOSE_NOISE = 1
_PURPOSE_TASK = 2


class CrnStream:
    """Deterministic per-trajectory randomness addressed by purpose.

    Backed by Philox, a counter-based generator keyed by (seed, stream_id).
    A purpose's draws form one sequence, with round t at position t-1, so a
    value never depends on the horizon or on draws made for other purposes.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._key = np.array(
            [self.seed & 0xFFFFFFFFFFFFFFFF, self.stream_id & 0xFFFFFFFFFFFFFFFF],
            dtype=np.uint64,
        )

    def _generator(self, purpose: int) -> np.random.Generator:
        # Philox advances counter word 0 on every block, so the purpose sits
        # in word 3, which no draw reaches: purposes never share a block.
        counter = np.array([0, 0, 0, purpose], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=self._key, counter=counter))

    def uniforms(self, n: int) -> np.ndarray:
        """Action-selection uniforms in [0, 1) for rounds 1..n."""
        return self._generator(_PURPOSE_ACTION).random(n)

    def normals(self, n: int) -> np.ndarray:
        """Standard-normal reward-noise draws for rounds 1..n."""
        return self._generator(_PURPOSE_NOISE).standard_normal(n)

    def task_normals(self, k: int) -> np.ndarray:
        """K standard normals for sampling the task vector."""
        return self._generator(_PURPOSE_TASK).standard_normal(k)


def sample_task(rng: CrnStream, k: int, tau_w: float) -> np.ndarray:
    """Draw a task vector with i.i.d. zero-mean normal entries of std tau_w."""
    if k < 2:
        raise InvalidConfigError(f"need at least 2 arms, got K={k}")
    if tau_w < 0:
        raise InvalidConfigError(f"task prior std must be >= 0, got {tau_w}")
    return tau_w * rng.task_normals(k)


def draw_reward(
    w: np.ndarray, action: int | np.ndarray, noise: float | np.ndarray, sigma_xi: float
) -> float | np.ndarray:
    """Reward for pulling `action`: the arm mean plus scaled noise.

    `w` is (..., K) with one action and one noise draw per row; a 1-D `w`
    with a scalar action gives a float.
    """
    w = np.asarray(w, dtype=float)
    action = np.asarray(action)
    k = w.shape[-1]
    if np.any((action < 0) | (action >= k)):
        raise IndexError(f"action {action} out of range for {k} arms")
    mean = np.take_along_axis(w, action[..., np.newaxis], axis=-1)[..., 0]
    reward = mean + sigma_xi * np.asarray(noise, dtype=float)
    return float(reward) if reward.ndim == 0 else reward


def _validate_simplex(p: np.ndarray) -> np.ndarray:
    """Check every (..., K) row is a probability vector."""
    p = np.asarray(p, dtype=float)
    if p.ndim == 0:
        raise InvalidDistributionError(f"expected a vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise InvalidDistributionError("probabilities must be finite")
    if np.any(p < -SIMPLEX_ATOL):
        raise InvalidDistributionError(f"negative probability: min={p.min()}")
    totals = p.sum(axis=-1)
    off = np.abs(totals - 1.0)
    if off.max() > max(SIMPLEX_ATOL, 4 * p.shape[-1] * np.finfo(float).eps):
        raise InvalidDistributionError(f"probabilities sum to {totals.flat[off.argmax()]}, not 1")
    return p


def coupled_sample(p: np.ndarray, u: float | np.ndarray) -> int | np.ndarray:
    """Inverse-CDF draw: smallest index whose cumulative mass exceeds u.

    Cumulative sums are accumulated left to right with no re-normalization,
    so two policies fed the same uniform agree except on the total-variation
    shortfall between them.  `p` is (..., K) with one uniform per row; a 1-D
    `p` with a scalar `u` gives an int.
    """
    p = _validate_simplex(p)
    above = np.cumsum(p, axis=-1) > np.asarray(u, dtype=float)[..., np.newaxis]
    # K-1 when u lands beyond the (rounded) total mass.
    index = np.where(above.any(axis=-1), above.argmax(axis=-1), p.shape[-1] - 1)
    return int(index) if index.ndim == 0 else index


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
        self.n = np.zeros(self.k)
        self.g = np.zeros(self.k)

    def __len__(self) -> int:
        return len(self.steps)

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
        n = np.zeros(self.k)
        g = np.zeros(self.k)
        for step in self.steps:
            n[step.action] += 1.0
            g[step.action] += step.r
        return n, g
