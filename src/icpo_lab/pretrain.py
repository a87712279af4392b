"""Supervised pretraining of the two-channel student on expert rollouts.

Covers trajectory generation, the empirical Fisher weight and second moments,
the weighted logit-matching loss in both per-pair and moment form, its
analytic gradient, plain gradient descent, and the exact restricted
least-squares solve.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import write_atomic
from .errors import InvalidConfigError, InvalidDistributionError, RankDeficiencyError, StepSizeError
from .loop import closed_loop, task_blocks
from .lsa import TwoChannelParams, expert_two_channel
from .subspace import paired_helmert_basis
from .teacher import TeacherConfig

DATASET_FORMAT_VERSION = 3
DATASET_FILE = "dataset.bin"


def _layout(b: int, n: int, k: int) -> list[list]:
    """The stored arrays in file order as [name, little-endian dtype, shape],
    the form in which the file header records them."""
    return [
        ["w", "<f8", [b, k]],
        ["actions", "<i8", [b, n]],
        ["rewards", "<f8", [b, n]],
        ["logits", "<f8", [b, n - 1, k]],
        ["policies", "<f8", [b, n - 1, k]],
    ]


@dataclass
class PretrainDataset:
    """B expert rollouts of N rounds, one row per task in stream-id order.

    `logits[i, t-1]` holds the expert's next-step logits after prefix t of
    task i and `policies[i, t-1]` the mixed policy that chose action t, for
    t = 1..N-1.  `sha256` is the stored digest of the file the dataset was
    loaded from, and None for a dataset built in memory.
    """

    cfg: TeacherConfig
    b: int
    n: int
    seed: int
    w: np.ndarray  # (B, K)
    actions: np.ndarray  # (B, N) int64
    rewards: np.ndarray  # (B, N)
    logits: np.ndarray  # (B, N-1, K)
    policies: np.ndarray  # (B, N-1, K)
    sha256: str | None = None

    @property
    def m(self) -> int:
        """Number of training pairs, B * (N - 1)."""
        return self.b * (self.n - 1)

    def _validate(self) -> None:
        """Raise `InvalidConfigError` unless the arrays fit B, N and K and every action is in [0, K)."""
        k = self.cfg.k
        for name, _, shape in _layout(self.b, self.n, k):
            if (got := np.shape(getattr(self, name))) != tuple(shape):
                want = f"{tuple(shape)} for B={self.b}, N={self.n}"
                raise InvalidConfigError(f"{name} has shape {got}, expected {want}")
        bad = np.flatnonzero(((self.actions < 0) | (self.actions >= k)).any(axis=1))
        if bad.size:
            raise InvalidConfigError(f"trajectory {bad[0]} has an action outside [0, {k})")

    def pair_matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Assemble (Z, Y, P): normalized statistics, projected labels, policies.

        Rows are ordered trajectory-major then by prefix length, which fixes
        the summation order of every moment estimate.  Prefix statistics are
        running sums over one-hot actions, accumulated left to right.  Raises
        `InvalidConfigError` unless there are exactly B trajectories, each of
        shape (N, K) with actions in [0, K).  P is a view of `policies`.
        """
        self._validate()
        k, n = self.cfg.k, self.n
        # Z is built in place and the mask freed before Y exists: peak memory stays at (Z, Y).
        actions, rewards = self.actions[:, : n - 1], self.rewards[:, : n - 1]
        onehot = actions[..., np.newaxis] == np.arange(k)
        z = np.zeros((self.b, n - 1, 2 * k))
        counts, sums = z[..., :k], z[..., k:]
        np.cumsum(onehot, axis=1, dtype=float, out=counts)
        np.copyto(sums, rewards[..., np.newaxis], where=onehot)
        np.cumsum(sums, axis=1, out=sums)
        t = np.arange(1, n)[:, np.newaxis]
        counts /= t
        sums /= t
        del onehot
        z = z.reshape(self.m, 2 * k)
        y = self.logits.reshape(self.m, k)
        y = y - y.mean(axis=-1, keepdims=True)  # project()
        return z, y, self.policies.reshape(self.m, k)


def generate_dataset(cfg: TeacherConfig, b: int, n: int, seed: int) -> PretrainDataset:
    """Roll the expert for N steps on B independent tasks and record labels.

    Each trajectory owns CRN stream id tau, so regeneration from (cfg, b, n,
    seed) is bit-exact; trajectories are stored in stream-id order.
    """
    if b < 1:
        raise InvalidConfigError(f"need at least one trajectory, got B={b}")
    if n < 2:
        raise InvalidConfigError(f"need at least two rounds, got N={n}")
    arrays = {name: np.zeros(shape, dtype) for name, dtype, shape in _layout(b, n, cfg.k)}
    ds = PretrainDataset(cfg, b, n, seed, **arrays)
    expert = expert_two_channel(cfg).stacked[np.newaxis]
    for rows, w, uniforms, noise in task_blocks(cfg, b, n, seed):
        ds.w[rows] = w
        for rnd in closed_loop(expert, w, uniforms, noise, cfg):
            ds.actions[rows, rnd.t - 1] = rnd.actions
            ds.rewards[rows, rnd.t - 1] = rnd.rewards
            if rnd.t < n:
                ds.policies[rows, rnd.t - 1] = rnd.policies[0]
                ds.logits[rows, rnd.t - 1] = rnd.logits[0]
    return ds


def fisher_matrix(p: np.ndarray) -> np.ndarray:
    """Softmax curvature Diag(p) - p p^T; (..., K) rows give (..., K, K)."""
    p = np.asarray(p, dtype=float)
    sums = p.sum(axis=-1)
    if np.any(p < -1e-12) or np.any(np.abs(sums - 1.0) > 1e-9):
        raise InvalidDistributionError(f"not a probability vector (sums in [{sums.min()}, {sums.max()}])")
    return np.eye(p.shape[-1]) * p[..., np.newaxis, :] - p[..., :, np.newaxis] * p[..., np.newaxis, :]


@dataclass
class FisherStats:
    """Moment summary of a dataset: everything the quadratic loss needs."""

    gamma_hat: np.ndarray  # K x K averaged Fisher weight
    sigma_bar: np.ndarray  # 2K x 2K second moment of normalized statistics
    sigma_yz: np.ndarray  # K x 2K cross moment of labels and statistics
    sigma_yy: np.ndarray  # K x K label second moment
    m: int

    @property
    def k(self) -> int:
        return self.gamma_hat.shape[0]


def empirical_stats(ds: PretrainDataset) -> FisherStats:
    """Average Fisher weights and second moments over all M prefix pairs."""
    z, y, p = ds.pair_matrices()
    m = ds.m
    gamma_hat = np.diag(p.mean(axis=0)) - (p.T @ p) / m
    return FisherStats(
        gamma_hat=gamma_hat,
        sigma_bar=(z.T @ z) / m,
        sigma_yz=(y.T @ z) / m,
        sigma_yy=(y.T @ y) / m,
        m=m,
    )


def loss_direct(tc: TwoChannelParams, ds: PretrainDataset, gamma_hat: np.ndarray) -> float:
    """Weighted loss by explicit summation: (1/2M) sum of residual quadratics.

    Kept as an independent per-pair computation so it can cross-check the
    moment form below.
    """
    z, y, _ = ds.pair_matrices()
    resid = z @ tc.stacked.T - y
    per_pair = np.einsum("mi,ij,mj->m", resid, gamma_hat, resid)
    return 0.5 * float(per_pair.mean())


def loss_quadratic(tc: TwoChannelParams | np.ndarray, fs: FisherStats) -> float | np.ndarray:
    """Same loss via moment matrices, constant label term included.

    Also takes stacked operators W = [W_n  W_g] of shape (..., K, 2K) and
    then returns one loss per leading index.
    """
    w = tc.stacked if isinstance(tc, TwoChannelParams) else np.asarray(tc, dtype=float)
    w_t = np.swapaxes(w, -1, -2)
    quad = 0.5 * np.trace(fs.gamma_hat @ w @ fs.sigma_bar @ w_t, axis1=-2, axis2=-1)
    lin = np.trace(fs.gamma_hat @ fs.sigma_yz @ w_t, axis1=-2, axis2=-1)
    const = 0.5 * np.trace(fs.gamma_hat @ fs.sigma_yy)
    loss = quad - lin + const
    return float(loss) if loss.ndim == 0 else loss


def gradient(tc: TwoChannelParams, fs: FisherStats) -> np.ndarray:
    """Analytic gradient of the quadratic loss: Gamma (W Sigma - Sigma_yz)."""
    return fs.gamma_hat @ (tc.stacked @ fs.sigma_bar - fs.sigma_yz)


def operator_norm(m: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric PSD matrix."""
    return float(np.linalg.eigvalsh(m)[-1])


@dataclass
class TrainResult:
    params: TwoChannelParams
    losses: np.ndarray  # loss_quadratic before each update, plus the final value
    grad_norms: np.ndarray
    step: float
    converged: bool


def default_step(fs: FisherStats) -> float:
    """0.9 over the curvature bound ||Gamma|| * ||Sigma||, a guaranteed-descent step."""
    lip = operator_norm(fs.gamma_hat) * operator_norm(fs.sigma_bar)
    if lip <= 0:
        raise InvalidConfigError("curvature bound is zero; nothing to train")
    return 0.9 / lip


def train_gd(
    fs: FisherStats,
    step: float | None = None,
    max_iters: int = 200_000,
    tol: float = 1e-10,
    init: TwoChannelParams | None = None,
) -> TrainResult:
    """Full-batch gradient descent on the quadratic loss.

    Stops when the gradient Frobenius norm falls below `tol` or after
    `max_iters` updates.  Raises if the loss blows up by 1000x, which only
    happens when the step exceeds the stable range.
    """
    if step is None:
        step = default_step(fs)
    if step <= 0:
        raise InvalidConfigError(f"step size must be > 0, got {step}")
    k = fs.k
    w = TwoChannelParams.zeros(k) if init is None else init
    mat = w.stacked.copy()
    losses = [loss_quadratic(mat, fs)]
    grad_norms = []
    blowup = 1e3 * max(abs(losses[0]), 1e-12)
    converged = False
    for _ in range(max_iters):
        grad = fs.gamma_hat @ (mat @ fs.sigma_bar - fs.sigma_yz)
        gnorm = float(np.linalg.norm(grad))
        grad_norms.append(gnorm)
        if gnorm <= tol:
            converged = True
            break
        mat = mat - step * grad
        loss = loss_quadratic(mat, fs)
        losses.append(loss)
        if loss > blowup:
            raise StepSizeError(f"loss grew to {loss:.3e} (from {losses[0]:.3e}); reduce the step")
    else:
        grad = fs.gamma_hat @ (mat @ fs.sigma_bar - fs.sigma_yz)
        grad_norms.append(float(np.linalg.norm(grad)))
    return TrainResult(
        params=TwoChannelParams.from_stacked(mat),
        losses=np.asarray(losses),
        grad_norms=np.asarray(grad_norms),
        step=step,
        converged=converged,
    )


def solve_ls(fs: FisherStats, min_eigenvalue: float = 1e-10) -> TwoChannelParams:
    """Exact minimizer of the quadratic loss over operators supported on the
    per-channel zero-sum subspace.

    Works in a 2(K-1)-dimensional Helmert coordinate system per channel;
    inverting the full 2K x 2K moment would be numerically fragile along the
    constant directions.
    """
    k = fs.k
    basis = paired_helmert_basis(k)
    reduced = basis.T @ fs.sigma_bar @ basis
    eigs = np.linalg.eigvalsh(reduced)
    if eigs.min() <= min_eigenvalue:
        raise RankDeficiencyError(
            f"restricted second moment is singular (min eigenvalue {eigs.min():.3e})",
            eigenvalue=float(eigs.min()),
        )
    rhs = fs.sigma_yz @ basis
    coeffs = np.linalg.solve(reduced, rhs.T).T
    w = coeffs @ basis.T
    w = w - w.mean(axis=0, keepdims=True)  # exact zero column sums
    return TwoChannelParams.from_stacked(w)


# --- on-disk form: one file, DATASET_FILE, inside the dataset directory ---
#
#   SHA-256 digest (32 bytes) of everything after it
#   header length (uint64, little-endian)
#   JSON header: version, teacher constants, b, n, seed and `_layout`; padded
#     with spaces so that the arrays start at a multiple of 8 bytes
#   the arrays of `_layout`, in order, C-ordered


def save_dataset(ds: PretrainDataset, directory: str | Path) -> Path:
    """Write `ds` to DATASET_FILE in `directory` with one atomic rename.

    The bytes depend on the dataset alone.  The arrays are hashed and
    written from their own buffers, with no concatenated copy.  Once the
    file is in place, the files of a format 1 or 2 dataset in `directory`
    (`manifest.json`, `config.json`, `traj_*.bin`) are removed.
    """
    ds._validate()
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    layout = _layout(ds.b, ds.n, ds.cfg.k)
    header = dict(
        version=DATASET_FORMAT_VERSION, teacher=ds.cfg.to_dict(), b=ds.b, n=ds.n, seed=ds.seed, arrays=layout
    )
    text = json.dumps(header, sort_keys=True).encode()
    text += b" " * (-(40 + len(text)) % 8)
    buffers = [struct.pack("<Q", len(text)), text]
    buffers += [np.ascontiguousarray(getattr(ds, name), dtype) for name, dtype, _ in layout]
    digest = hashlib.sha256()
    for buf in buffers:
        digest.update(buf)
    write_atomic(directory / DATASET_FILE, [digest.digest(), *buffers])
    if (directory / "manifest.json").exists():  # a format 1 or 2 dataset this one replaces
        for stale in [directory / "manifest.json", directory / "config.json", *directory.glob("traj_*.bin")]:
            stale.unlink(missing_ok=True)
    return directory


def load_dataset(directory: str | Path) -> PretrainDataset:
    """Read a dataset written by `save_dataset`, trusting nothing unchecked.

    The stored digest is verified before anything else is parsed.  Then the
    version, and each array's dtype and shape against B, N and K, must match,
    and the file must end where the last array does.  The arrays are
    read-only views of the file's bytes.
    """
    directory = Path(directory)
    path = directory / DATASET_FILE
    if not path.exists():
        if (directory / "manifest.json").exists():
            raise InvalidConfigError(
                f"{directory} holds a format 1 or 2 dataset (manifest.json, one file per trajectory); "
                f"format {DATASET_FORMAT_VERSION} is a single file, so regenerate the dataset"
            )
        raise InvalidConfigError(f"dataset not found: {path}")
    blob = path.read_bytes()
    if len(blob) < 40 or hashlib.sha256(memoryview(blob)[32:]).digest() != blob[:32]:
        raise InvalidConfigError(f"{path}: SHA-256 does not match the stored digest (file damaged or edited)")
    (size,) = struct.unpack_from("<Q", blob, 32)
    try:
        header = json.loads(blob[40 : 40 + size])
        if header["version"] != DATASET_FORMAT_VERSION:
            raise InvalidConfigError(f"{path}: unsupported dataset version {header['version']!r}")
        cfg = TeacherConfig.from_dict(header["teacher"])
        b, n, seed = int(header["b"]), int(header["n"]), int(header["seed"])
    except (ValueError, KeyError, TypeError) as exc:
        raise InvalidConfigError(f"{path}: malformed header: {exc}") from exc
    if header.get("arrays") != (layout := _layout(b, n, cfg.k)):
        raise InvalidConfigError(f"{path}: header lists arrays {header.get('arrays')}, expected {layout}")
    arrays = np.dtype([(name, dtype, tuple(shape)) for name, dtype, shape in layout])
    if len(blob) != 40 + size + arrays.itemsize:
        raise InvalidConfigError(f"{path}: {len(blob)} bytes, expected {40 + size + arrays.itemsize}")
    record = np.frombuffer(blob, arrays, count=1, offset=40 + size)[0]
    views = {name: record[name] for name in arrays.names}
    return PretrainDataset(cfg, b, n, seed, **views, sha256=blob[:32].hex())
