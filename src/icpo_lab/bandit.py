"""K-armed linear bandit environment with counter-based common random numbers.

Every random draw is addressed by (seed, stream id, purpose), with the round
as its position in the draw, so two trajectories that share a stream see
literally the same uniforms and noise.  That makes coupled (baseline vs.
perturbed) runs structural rather than a matter of careful call ordering.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import InvalidConfigError, InvalidDistributionError

SIMPLEX_ATOL = 1e-12

# Purpose tags for the counter-based generator.  Each purpose owns an
# independent substream, drawn as uniforms (action) or standard normals.
PURPOSE_ACTION = 0
PURPOSE_NOISE = 1
PURPOSE_TASK = 2

_WORD = 0xFFFFFFFFFFFFFFFF
_UNIT = 2.0**-53  # a 53-bit integer times this is a double in [0, 1)


def check_seed(seed: int) -> int:
    """The one seed check: `seed` as an int in [0, 2**64), the Philox keys, where no two seeds alias."""
    if not 0 <= (seed := operator.index(seed)) < 2**64:
        raise InvalidConfigError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def _philox_words(seed: int, stream_ids: range, purpose: int, blocks: int) -> np.ndarray:
    """Philox4x64-10 words as (len(stream_ids), 4 * blocks): words 4j..4j+3 of row i are
    block j of stream `stream_ids[i]`.

    The key is (seed, 0) for a seed that passes `check_seed`.  Stream s, block j and purpose p
    take counter (s + 1, carry, j, p), where the carry is 1 only for s = 2**64 - 1, so no two
    of them share a counter.  Philox adds one to counter word 0, carrying into word 1, before each
    block, so one state set per block j covers every stream of a step-1 range.
    """
    if stream_ids.step != 1 or (stream_ids and not 0 <= stream_ids.start < stream_ids.stop <= _WORD + 1):
        raise ValueError(f"stream ids must be a step-1 range inside [0, 2**64), got {stream_ids}")
    bit_gen = np.random.Philox(0)  # a constant seed reads no OS entropy; the state set replaces it
    counter = [stream_ids.start & _WORD, 0, 0, purpose]
    # Plain int lists: the state setter reads them faster than uint64 arrays.
    state = dict(bit_generator="Philox", state=dict(counter=counter, key=[check_seed(seed), 0]))
    state.update(buffer=[0, 0, 0, 0], buffer_pos=4, has_uint32=0, uinteger=0)
    words = np.empty((len(stream_ids), blocks, 4), dtype=np.uint64)
    for j in range(blocks):
        counter[2] = j
        bit_gen.state = state
        words[:, j] = bit_gen.random_raw(4 * len(stream_ids)).reshape(-1, 4)
    return words.reshape(len(stream_ids), 4 * blocks)


def crn_draws(seed: int, stream_ids: range, purpose: int, n: int) -> np.ndarray:
    """The first n draws of `purpose` for each stream of a step-1 range, as (len(stream_ids), n).

    Draw t of a stream is made from its Philox word t (`_philox_words`), so it depends
    only on (seed, stream, purpose, t).  `PURPOSE_ACTION` draws uniforms in [0, 1),
    (word >> 11) * 2**-53.  The other purposes draw standard normals by Box-Muller:
    words 2i and 2i + 1 give normals 2i and 2i + 1 as r cos(theta) and r sin(theta), with
    r = sqrt(-2 ln(((word 2i >> 11) + 1) * 2**-53)) and theta = 2 pi (word 2i+1 >> 11) * 2**-53.
    Holds no state between calls, so threads may call it concurrently.
    """
    words = _philox_words(seed, stream_ids, purpose, -(-n // 4))
    if purpose == PURPOSE_ACTION:
        return (words[:, :n] >> 11) * _UNIT
    # The pairs that draws 0..n-1 use.  The shifts make contiguous arrays, so the
    # transcendental ufuncs take the same path for every draw, whatever the range.
    words = words[:, : n + n % 2]
    radius = np.sqrt(-2.0 * np.log(((words[:, 0::2] >> 11) + 1) * _UNIT))
    theta = (2.0 * np.pi) * ((words[:, 1::2] >> 11) * _UNIT)
    out = np.empty(words.shape)
    np.multiply(radius, np.cos(theta), out=out[:, 0::2])
    np.multiply(radius, np.sin(theta), out=out[:, 1::2])
    return out[:, :n]


def draw_reward(
    w: np.ndarray, action: int | np.ndarray, noise: float | np.ndarray, sigma_xi: float
) -> float | np.ndarray:
    """Reward for pulling `action`: the arm mean plus scaled noise.

    `w` is (..., K) with one action and one noise draw per row; a 1-D `w`
    with a scalar action gives a float.  An action of K or more raises IndexError.
    """
    w = np.asarray(w, dtype=float)
    action = np.asarray(action)
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
    row, both unchecked; a 1-D `p` with a scalar `u` gives an int.

    The index is the number of leading arms j < K-1 whose running mass is
    still <= u, built in one whole-batch pass per arm; the running masses are
    exactly `cumsum`'s.  It is K-1 when u lands beyond the rounded total.
    """
    p = np.asarray(p, dtype=float)
    u = np.asarray(u, dtype=float)
    mass = np.zeros(p.shape[:-1])
    below = np.ones(np.broadcast_shapes(mass.shape, u.shape), dtype=bool)
    index = np.zeros(below.shape, dtype=np.intp)
    for j in range(p.shape[-1] - 1):
        mass += p[..., j]
        below &= mass <= u
        index += below
    return int(index) if index.ndim == 0 else index

