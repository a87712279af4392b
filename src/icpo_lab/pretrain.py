"""Supervised pretraining of the two-channel student on expert rollouts.

Covers trajectory generation, the empirical Fisher weight and second moments,
the weighted logit-matching loss in both per-pair and moment form, its
analytic gradient, plain gradient descent, the exact restricted
least-squares solve, and the digest-checked files that hold datasets and
fitted operators.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import write_atomic
from .bandit import arm_fold
from .errors import InvalidConfigError, InvalidDistributionError, RankDeficiencyError, StepSizeError
from .loop import closed_loop, task_blocks
from .lsa import TwoChannelParams, expert_two_channel, project, teacher_two_channel
from .subspace import paired_helmert_basis
from .teacher import TeacherConfig, mix_policy

DATASET_FORMAT_VERSION = 4
DATASET_FILE = "dataset.bin"
PARAMS_FORMAT_VERSION = 2


def _layout(b: int, n: int, k: int) -> list[list]:
    """The stored arrays in file order as [name, little-endian dtype, shape],
    the form in which the file header records them; B >= 1 and N >= 2."""
    if b < 1:
        raise InvalidConfigError(f"need at least one trajectory, got B={b}")
    if n < 2:
        raise InvalidConfigError(f"need at least two rounds, got N={n}")
    return [
        ["w", "<f8", [b, k]],
        ["actions", "<i8", [b, n]],
        ["rewards", "<f8", [b, n]],
    ]


@dataclass
class PretrainDataset:
    """B expert rollouts of N rounds, one row per task in stream-id order.

    Only the rollouts are kept: the labels and policies are fixed functions
    of their prefixes and `cfg`, which `pair_matrices` evaluates.  `sha256`
    is the stored digest of the file the dataset was loaded from, and None
    for a dataset built in memory.
    """

    cfg: TeacherConfig
    b: int
    n: int
    seed: int
    w: np.ndarray  # (B, K)
    actions: np.ndarray  # (B, N) int64
    rewards: np.ndarray  # (B, N)
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

        Rows are ordered trajectory-major then by prefix length t = 1..N-1,
        which fixes the summation order of every moment estimate.  Prefix
        statistics are running sums over one-hot actions, accumulated left to
        right.  Y = Z @ T^T with T = c Proj[V U], the teacher's projected
        operators.  P's row t mixes the label of prefix t-1 (the policy that
        chose action t), so each trajectory's first row is uniform.  Raises
        `InvalidConfigError` unless there are exactly B trajectories, each of
        shape (N, K) with actions in [0, K).
        """
        self._validate()
        k, n, m = self.cfg.k, self.n, self.m
        # Z is built in place and the mask freed before P, and P's one buffer freed before Y:
        # peak memory stays at Z plus two (M, K) arrays.  Both products run per trajectory: one
        # (M, 2K) product raised peak RSS by 4 MiB at B = 1000, N = 30, K = 10 (OpenBLAS, 2 cores).
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
        ops = teacher_two_channel(self.cfg).stacked.T
        prev = np.zeros((self.b, n - 1, k))  # the labels of prefixes 0..N-2
        np.matmul(z[:, :-1], ops, out=prev[:, 1:])
        p = mix_policy(prev.reshape(m, k), self.cfg.gamma)
        del prev
        return z.reshape(m, 2 * k), np.matmul(z, ops).reshape(m, k), p


def generate_dataset(cfg: TeacherConfig, b: int, n: int, seed: int) -> PretrainDataset:
    """Roll the expert for N steps on B independent tasks and record the rollouts.

    Each trajectory owns CRN stream id tau, so regeneration from (cfg, b, n,
    seed) is bit-exact; trajectories are stored in stream-id order.
    """
    arrays = {name: np.zeros(shape, dtype) for name, dtype, shape in _layout(b, n, cfg.k)}
    ds = PretrainDataset(cfg, b, n, seed, **arrays)
    expert = expert_two_channel(cfg).stacked[np.newaxis]
    for rows, w, uniforms, noise in task_blocks(cfg, b, n, seed):
        ds.w[rows] = w
        for rnd in closed_loop(expert, w, uniforms, noise, cfg):
            ds.actions[rows, rnd.t - 1] = rnd.actions
            ds.rewards[rows, rnd.t - 1] = rnd.rewards
    return ds


def fisher_matrix(p: np.ndarray) -> np.ndarray:
    """Softmax curvature Diag(p) - p p^T; (..., K) rows give (..., K, K)."""
    p = np.asarray(p, dtype=float)
    sums = arm_fold(np.add, p)
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
    return pair_stats(*ds.pair_matrices())


def pair_stats(z: np.ndarray, y: np.ndarray, p: np.ndarray) -> FisherStats:
    """`FisherStats` of the pair matrices (Z, Y, P) that `PretrainDataset.pair_matrices` builds."""
    m = z.shape[0]
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


def _stacked(tc: TwoChannelParams | np.ndarray) -> np.ndarray:
    return tc.stacked if isinstance(tc, TwoChannelParams) else np.asarray(tc, dtype=float)


def loss_quadratic(tc: TwoChannelParams | np.ndarray, fs: FisherStats) -> float | np.ndarray:
    """Same loss via moment matrices, constant label term included.

    Also takes stacked operators W = [W_n  W_g] of shape (..., K, 2K) and
    then returns one loss per leading index.
    """
    return _loss(_stacked(tc), fs, *_label_terms(fs))


def _label_terms(fs: FisherStats) -> tuple[np.ndarray, float]:
    """Gamma Sigma_yz and 0.5 tr(Gamma Sigma_yy): the loss terms that do not depend on W."""
    return fs.gamma_hat @ fs.sigma_yz, 0.5 * np.trace(fs.gamma_hat @ fs.sigma_yy)


def _loss(w: np.ndarray, fs: FisherStats, gamma_yz: np.ndarray, const: float) -> float | np.ndarray:
    # `Gamma @ Sigma_yz @ W^T` multiplies left to right, so starting from `gamma_yz` changes no bit.
    w_t = np.swapaxes(w, -1, -2)
    quad = 0.5 * np.trace(fs.gamma_hat @ w @ fs.sigma_bar @ w_t, axis1=-2, axis2=-1)
    lin = np.trace(gamma_yz @ w_t, axis1=-2, axis2=-1)
    loss = quad - lin + const
    return float(loss) if loss.ndim == 0 else loss


def gradient(tc: TwoChannelParams | np.ndarray, fs: FisherStats) -> np.ndarray:
    """Analytic gradient of the quadratic loss: Gamma (W Sigma - Sigma_yz).

    Also takes stacked operators of shape (..., K, 2K), as `loss_quadratic` does.
    """
    return fs.gamma_hat @ (_stacked(tc) @ fs.sigma_bar - fs.sigma_yz)


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
    `max_iters` updates.  Raises if the loss blows up by 1000x or turns NaN,
    which only happens when the step exceeds the stable range.
    """
    if step is None:
        step = default_step(fs)
    if not (math.isfinite(step) and step > 0):
        raise InvalidConfigError(f"step size must be finite and > 0, got {step}")
    if not (math.isfinite(tol) and tol >= 0):
        raise InvalidConfigError(f"tol must be finite and >= 0, got {tol}")
    k = fs.k
    w = TwoChannelParams.zeros(k) if init is None else init
    mat = w.stacked.copy()
    label_terms = _label_terms(fs)  # constant across iterations
    losses = [_loss(mat, fs, *label_terms)]
    grad_norms = []
    blowup = 1e3 * max(abs(losses[0]), 1e-12)
    converged = False
    for _ in range(max_iters):
        grad = gradient(mat, fs)
        gnorm = float(np.linalg.norm(grad))
        grad_norms.append(gnorm)
        if gnorm <= tol:
            converged = True
            break
        mat = mat - step * grad
        loss = _loss(mat, fs, *label_terms)
        losses.append(loss)
        if not loss <= blowup:
            raise StepSizeError(f"loss grew to {loss:.3e} (from {losses[0]:.3e}); reduce the step")
    else:
        grad_norms.append(float(np.linalg.norm(gradient(mat, fs))))
    return TrainResult(
        params=TwoChannelParams.from_stacked(mat),
        losses=np.asarray(losses),
        grad_norms=np.asarray(grad_norms),
        step=step,
        converged=converged,
    )


def solve_ls(fs: FisherStats) -> TwoChannelParams:
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
    if eigs.min() <= 1e-10:
        raise RankDeficiencyError(
            f"restricted second moment is singular (min eigenvalue {eigs.min():.3e})",
            eigenvalue=float(eigs.min()),
        )
    rhs = fs.sigma_yz @ basis
    coeffs = np.linalg.solve(reduced, rhs.T).T
    return TwoChannelParams.from_stacked(project(coeffs @ basis.T, axis=0))  # exact zero column sums


def _write_container(path: Path, header: dict, layout: list[list], arrays: dict) -> None:
    """Write the one on-disk form of datasets and parameters, with one atomic rename:
    a SHA-256 digest of all that follows, the header length (uint64, little-endian), the
    JSON header with `arrays` = `layout` space-padded to a multiple of 8 bytes, then the
    arrays, C-ordered, each hashed and written from its own buffer."""
    text = json.dumps({**header, "arrays": layout}, sort_keys=True).encode()
    text += b" " * (-(40 + len(text)) % 8)
    buffers = [struct.pack("<Q", len(text)), text]
    buffers += [np.ascontiguousarray(arrays[name], dtype) for name, dtype, _ in layout]
    digest = hashlib.sha256()
    for buf in buffers:
        digest.update(buf)
    write_atomic(path, [digest.digest(), *buffers])


def _read_container(path: Path, kind: str, version: int, parse, older=None) -> tuple:
    """(fields, arrays, digest hex) of a container.  The digest is checked before anything is
    parsed (`older(blob)` may then name an older format), then the version; `parse(header)`
    gives (the layout the header implies, its fields), which the header must list and the file
    end with; a header `parse` rejects, range errors included, is malformed.  The arrays are
    read-only views of the file's bytes."""
    blob = path.read_bytes()
    if len(blob) < 40 or hashlib.sha256(memoryview(blob)[32:]).digest() != blob[:32]:
        damaged = f"{path}: SHA-256 does not match the stored digest (file damaged or edited)"
        raise InvalidConfigError((older and older(blob)) or damaged)
    (size,) = struct.unpack_from("<Q", blob, 32)
    try:
        header = json.loads(blob[40 : 40 + size])
        found = header["version"]
        layout, fields = parse(header) if found == version else (None, None)
    except (ValueError, KeyError, TypeError, InvalidConfigError) as exc:
        raise InvalidConfigError(f"{path}: malformed header: {exc}") from exc
    if found != version:
        raise InvalidConfigError(f"{path}: unsupported {kind} version {found!r}")
    if header.get("arrays") != layout:
        raise InvalidConfigError(f"{path}: header lists arrays {header.get('arrays')}, expected {layout}")
    arrays = np.dtype([(name, dtype, tuple(shape)) for name, dtype, shape in layout])
    if len(blob) != 40 + size + arrays.itemsize:
        raise InvalidConfigError(f"{path}: {len(blob)} bytes, expected {40 + size + arrays.itemsize}")
    record = np.frombuffer(blob, arrays, count=1, offset=40 + size)[0]
    return fields, {name: record[name] for name in arrays.names}, blob[:32].hex()


def save_dataset(ds: PretrainDataset, directory: str | Path) -> Path:
    """Write `ds` to DATASET_FILE in `directory`; the bytes depend on the dataset alone.

    Once the file is in place, the files of a format 1 or 2 dataset in
    `directory` (`manifest.json`, `config.json`, `traj_*.bin`) are removed.
    """
    ds._validate()
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    header = dict(version=DATASET_FORMAT_VERSION, teacher=ds.cfg.to_dict(), b=ds.b, n=ds.n, seed=ds.seed)
    layout = _layout(ds.b, ds.n, ds.cfg.k)
    _write_container(directory / DATASET_FILE, header, layout, {name: getattr(ds, name) for name, _, _ in layout})
    if (directory / "manifest.json").exists():  # a format 1 or 2 dataset this one replaces
        for stale in [directory / "manifest.json", directory / "config.json", *directory.glob("traj_*.bin")]:
            stale.unlink(missing_ok=True)
    return directory


def load_dataset(directory: str | Path) -> PretrainDataset:
    """Read a dataset written by `save_dataset`: B >= 1 and N >= 2, each array's dtype and shape
    must match B, N and K, and `w` and `rewards` must be finite."""
    directory = Path(directory)
    path = directory / DATASET_FILE
    if not path.exists():
        if (directory / "manifest.json").exists():
            raise InvalidConfigError(
                f"{directory} holds a format 1 or 2 dataset (manifest.json, one file per trajectory); "
                f"format {DATASET_FORMAT_VERSION} is a single file, so regenerate the dataset"
            )
        raise InvalidConfigError(f"dataset not found: {path}")

    def parse(header: dict) -> tuple:
        cfg = TeacherConfig.from_dict(header["teacher"])
        b, n, seed = int(header["b"]), int(header["n"]), int(header["seed"])
        return _layout(b, n, cfg.k), (cfg, b, n, seed)

    (cfg, b, n, seed), arrays, digest = _read_container(path, "dataset", DATASET_FORMAT_VERSION, parse)
    for name in ("w", "rewards"):
        finite = np.isfinite(arrays[name]).all(axis=1)
        if not finite.all():
            raise InvalidConfigError(f"{path}: {name} of trajectory {np.argmin(finite)} is not finite")
    return PretrainDataset(cfg, b, n, seed, **arrays, sha256=digest)


def _params_layout(k: int) -> list[list]:
    return [["w_n", "<f8", [k, k]], ["w_g", "<f8", [k, k]]]


def save_params(tc: TwoChannelParams, path: str | Path, ds: PretrainDataset, training: dict) -> None:
    """Write operators fitted on `ds`; the header holds its teacher, b, n, seed and
    stored digest (None if built in memory), and the `[training]` section as written."""
    if tc.k != ds.cfg.k:
        raise InvalidConfigError(f"operators are {tc.k}x{tc.k} but the dataset's teacher has k = {ds.cfg.k}")
    header = dict(version=PARAMS_FORMAT_VERSION, teacher=ds.cfg.to_dict(), training=training)
    header.update(dataset=dict(b=ds.b, n=ds.n, seed=ds.seed), dataset_sha256=ds.sha256)
    _write_container(Path(path), header, _params_layout(tc.k), {"w_n": tc.w_n, "w_g": tc.w_g})


def load_params(path: str | Path, cfg: TeacherConfig | None = None) -> TwoChannelParams:
    """Read a parameter file written by `save_params`: finite operators and, with `cfg`, the
    same teacher.  Format 1 (no digest: uint32 K and 1, then 2*K*K float64) is to be retrained."""
    path = Path(path)

    def format_1(blob: bytes) -> str | None:
        k, version = struct.unpack_from("<II", blob) if len(blob) >= 8 else (0, 0)
        if version == 1 and len(blob) == 8 + 16 * k * k:
            return f"{path} is a format 1 parameter file, with no digest or teacher; retrain it"

    def parse(header: dict) -> tuple:
        return _params_layout(TeacherConfig.from_dict(header["teacher"]).k), header["teacher"]

    teacher, arrays, _ = _read_container(path, "parameter", PARAMS_FORMAT_VERSION, parse, format_1)
    if cfg is not None and (differ := [key for key, value in cfg.to_dict().items() if teacher.get(key) != value]):
        raise InvalidConfigError(f"{path} was trained for a different [teacher]: {', '.join(differ)} differ")
    if not all(np.isfinite(array).all() for array in arrays.values()):
        raise InvalidConfigError(f"{path}: parameter values must be finite")
    return TwoChannelParams(**arrays)
