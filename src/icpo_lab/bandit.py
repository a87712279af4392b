"""K-armed linear bandit environment with counter-based common random numbers.

Every random draw is addressed by (seed, stream id, purpose), with the round
as its position in the draw, so two trajectories that share a stream see
literally the same uniforms and noise.  That makes coupled (baseline vs.
perturbed) runs structural rather than a matter of careful call ordering.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from .errors import InvalidDistributionError

SIMPLEX_ATOL = 1e-12

# Purpose tags for the counter-based generator.  Each purpose owns an
# independent substream, drawn as uniforms (action) or standard normals.
PURPOSE_ACTION = 0
PURPOSE_NOISE = 1
PURPOSE_TASK = 2

_WORD = 0xFFFFFFFFFFFFFFFF


def _stream_generators(seed: int, stream_ids: Iterable[int], purpose: int) -> Iterator[np.random.Generator]:
    """One generator, set in turn to the start of each stream's purpose.

    The Philox key is (seed, stream id), both masked to 64 bits.  Philox
    advances counter word 0 on every block, so the purpose sits in word 3,
    which no draw reaches: purposes never share a block.  The buffer starts
    empty, as in a freshly built Philox.  Seeding with a constant reads no
    OS entropy; the state set per stream replaces it before any draw.
    """
    gen = np.random.Generator(np.random.Philox(0))
    state = gen.bit_generator.state
    # Plain int lists: the state setter reads them faster than uint64 arrays.
    state["state"]["counter"] = [0, 0, 0, purpose]
    state["state"]["key"] = key = [int(seed) & _WORD, 0]
    state.update(buffer=[0, 0, 0, 0], buffer_pos=4, has_uint32=0, uinteger=0)
    for stream_id in stream_ids:
        key[1] = int(stream_id) & _WORD
        gen.bit_generator.state = state
        yield gen


def crn_draws(seed: int, stream_ids: Iterable[int], purpose: int, n: int) -> np.ndarray:
    """The first n draws of `purpose` for each stream, as (len(stream_ids), n).

    Row i is what a Philox built for stream `stream_ids[i]` alone would draw:
    uniforms in [0, 1) for `PURPOSE_ACTION`, standard normals otherwise.
    Holds no state between calls, so threads may call it concurrently.
    """
    stream_ids = list(stream_ids)
    out = np.empty((len(stream_ids), n))
    if n == 0:
        return out
    for row, gen in zip(out, _stream_generators(seed, stream_ids, purpose)):
        if purpose == PURPOSE_ACTION:
            gen.random(out=row)
        else:
            gen.standard_normal(out=row)
    return out


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


def arm_fold(op: np.ufunc, x: np.ndarray) -> np.ndarray:
    """Fold the binary ufunc `op` over the last (arm) axis, from left to right.

    One whole-batch pass per arm: `out = x[..., 0]`, then `op(out, x[..., j])`
    for j = 1..K-1.  A numpy reduction over a short last axis runs its inner
    loop once per row; these K passes run it once per arm.  The order is the
    same for every batch shape and memory layout, so a row's result never
    depends on the rows beside it.  For `np.add` it equals numpy's row sum
    bit for bit when K <= 7; from K = 8 numpy sums contiguous rows pairwise.
    """
    out = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        op(out, x[..., j], out=out)
    return out


def check_simplex(p: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """`p` as floats, once each (..., K) row is a probability vector: finite, no entry below
    floor - SIMPLEX_ATOL, and a sum within max(SIMPLEX_ATOL, 4 K eps) of 1.  The one such check."""
    p = np.asarray(p, dtype=float)
    if p.ndim == 0:
        raise InvalidDistributionError(f"expected a vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise InvalidDistributionError("probabilities must be finite")
    if np.any(p < floor - SIMPLEX_ATOL):
        raise InvalidDistributionError(f"probability {p.min()} is below the floor {floor}")
    totals = arm_fold(np.add, p)
    off = np.abs(totals - 1.0)
    if np.any(off > max(SIMPLEX_ATOL, 4 * p.shape[-1] * np.finfo(float).eps)):
        raise InvalidDistributionError(f"probabilities sum to {totals.flat[off.argmax()]}, not 1")
    return p


def coupled_sample(p: np.ndarray, u: float | np.ndarray) -> int | np.ndarray:
    """Inverse-CDF draw: smallest index whose cumulative mass exceeds u.

    Cumulative sums are accumulated left to right with no re-normalization,
    so two policies fed the same uniform agree except on the total-variation
    shortfall between them.  `p` is (..., K) with one uniform in [0, 1) per
    row; a 1-D `p` with a scalar `u` gives an int.

    The index is the number of leading arms j < K-1 whose running mass is
    still <= u, built in one whole-batch pass per arm; the running masses are
    exactly `cumsum`'s.  It is K-1 when u lands beyond the rounded total.
    """
    p = check_simplex(p)
    u = np.asarray(u, dtype=float)
    valid = (u >= 0.0) & (u < 1.0)  # NaN fails both
    if not np.all(valid):
        raise InvalidDistributionError(f"uniforms must lie in [0, 1), got {u[~valid].flat[0]}")
    mass = np.zeros(p.shape[:-1])
    below = np.ones(np.broadcast_shapes(mass.shape, u.shape), dtype=bool)
    index = np.zeros(below.shape, dtype=np.intp)
    for j in range(p.shape[-1] - 1):
        mass += p[..., j]
        below &= mass <= u
        index += below
    return int(index) if index.ndim == 0 else index

