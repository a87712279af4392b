"""Supervised pretraining of the two-channel student on expert rollouts.

Covers trajectory generation, the empirical Fisher weight and second moments,
the weighted logit-matching loss in moment form, its analytic gradient, plain
gradient descent, the exact least-squares solve, and the digest-checked files
that hold datasets and fitted operators.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import struct
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .atomic import write_atomic
from .bandit import check_seed, check_simplex
from .errors import InvalidConfigError, RankDeficiencyError, StepSizeError
from .loop import BLOCK_ROWS, closed_loop, task_blocks
from .lsa import TwoChannelParams, expert_two_channel, project, teacher_two_channel
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


def _writable(array: np.ndarray) -> bool:
    """Whether `array`'s memory can be written, through it or through an array or buffer it
    views: numpy lets a view of it be made writable exactly then."""
    try:
        array.view().flags.writeable = True
    except ValueError:
        return False
    return True


@dataclass(frozen=True)
class PretrainDataset:
    """B expert rollouts of N rounds, one row per task in stream-id order.

    Only the rollouts are kept: the labels and policies are fixed functions
    of their prefixes and `cfg`, which `pair_matrices` evaluates.  `sha256`
    is the stored digest of the file the dataset was loaded from, and None
    for a dataset built in memory.  It checks itself when built, stores B, N
    and the seed as ints, and keeps read-only arrays: a view of an input that
    nothing can write, a copy of any other.  `dataclasses.replace` checks again.
    """

    cfg: TeacherConfig
    b: int
    n: int
    seed: int
    w: np.ndarray  # (B, K)
    actions: np.ndarray  # (B, N) int64
    rewards: np.ndarray  # (B, N)
    sha256: str | None = None

    def __post_init__(self):
        """The one dataset check: the seed is one, the arrays fit B, N and K, actions lie in [0, K),
        w and rewards are finite."""
        for name in ("b", "n", "seed"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        check_seed(self.seed)
        k = self.cfg.k
        for name, _, shape in _layout(self.b, self.n, k):
            array = np.asarray(getattr(self, name))
            array = array.copy() if _writable(array) else array.view()
            if array.shape != tuple(shape):
                want = f"{tuple(shape)} for B={self.b}, N={self.n}"
                raise InvalidConfigError(f"{name} has shape {array.shape}, expected {want}")
            ok = ((array >= 0) & (array < k) if name == "actions" else np.isfinite(array)).all(axis=1)
            if not ok.all():
                problem = f"has an entry outside [0, {k})" if name == "actions" else "is not finite"
                raise InvalidConfigError(f"{name} of trajectory {np.argmin(ok)} {problem}")
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def m(self) -> int:
        """Number of training pairs, B * (N - 1)."""
        return self.b * (self.n - 1)

    @cached_property
    def _label_ops(self) -> np.ndarray:
        """(2K, K) transpose of the teacher's projected operators c Proj[V U], built once per
        dataset: every block that `pair_matrices` builds maps Z through it."""
        return teacher_two_channel(self.cfg).stacked.T

    def pair_matrices(self, tasks: slice = slice(None)) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Assemble (Z, Y, P): normalized statistics, projected labels, policies.

        Rows are ordered trajectory-major then by prefix length t = 1..N-1,
        which fixes the summation order of every moment estimate.  Prefix
        statistics are running sums over one-hot actions, accumulated left to
        right.  Y = Z @ T^T with T = c Proj[V U], the teacher's projected
        operators.  P's row t mixes the label of prefix t-1 (the policy that
        chose action t), so each trajectory's first row is uniform.  Builds
        the rows of the trajectories `tasks` selects, all of them by default.
        """
        k, n = self.cfg.k, self.n
        # Z is built in place and the mask freed before P, and P's one buffer freed before Y:
        # peak memory stays at this build's Z plus two (rows, K) arrays.  Both products run per
        # trajectory, so a row's bits do not depend on the range it is built in; one (M, 2K)
        # product raised peak RSS by 4 MiB at B = 1000, N = 30, K = 10 (OpenBLAS, 2 cores).
        actions, rewards = self.actions[tasks, : n - 1], self.rewards[tasks, : n - 1]
        b = len(actions)
        onehot = actions[..., np.newaxis] == np.arange(k)
        z = np.zeros((b, n - 1, 2 * k))
        counts, sums = z[..., :k], z[..., k:]
        np.cumsum(onehot, axis=1, dtype=float, out=counts)
        np.copyto(sums, rewards[..., np.newaxis], where=onehot)
        np.cumsum(sums, axis=1, out=sums)
        t = np.arange(1, n)[:, np.newaxis]
        counts /= t
        sums /= t
        del onehot
        ops = self._label_ops
        prev = np.zeros((b, n - 1, k))  # the labels of prefixes 0..N-2
        np.matmul(z[:, :-1], ops, out=prev[:, 1:])
        p = mix_policy(prev.reshape(-1, k), self.cfg.gamma)
        del prev
        return z.reshape(-1, 2 * k), np.matmul(z, ops).reshape(-1, k), p


def generate_dataset(cfg: TeacherConfig, b: int, n: int, seed: int) -> PretrainDataset:
    """Roll the expert for N steps on B independent tasks and record the rollouts.

    Each trajectory owns CRN stream id tau, so regeneration from (cfg, b, n,
    seed) is bit-exact; trajectories are stored in stream-id order.
    """
    arrays = {name: np.zeros(shape, dtype) for name, dtype, shape in _layout(b, n, cfg.k)}
    expert = expert_two_channel(cfg).stacked[np.newaxis]
    for rows, w, uniforms, noise in task_blocks(cfg, b, n, seed):
        arrays["w"][rows] = w
        for rnd in closed_loop(expert, w, uniforms, noise, cfg):
            arrays["actions"][rows, rnd.t - 1] = rnd.actions
            arrays["rewards"][rows, rnd.t - 1] = rnd.rewards
    for array in arrays.values():
        array.flags.writeable = False  # nothing else holds them, so the dataset need not copy
    return PretrainDataset(cfg, b, n, seed, **arrays)


def fisher_matrix(p: np.ndarray) -> np.ndarray:
    """Softmax curvature Diag(p) - p p^T; (..., K) rows give (..., K, K)."""
    p = check_simplex(p)
    return np.eye(p.shape[-1]) * p[..., np.newaxis, :] - p[..., :, np.newaxis] * p[..., np.newaxis, :]


@dataclass
class FisherStats:
    """Moment summary of a dataset: everything the quadratic loss needs, its W-free terms built once."""

    gamma_hat: np.ndarray  # K x K averaged Fisher weight
    sigma_bar: np.ndarray  # 2K x 2K second moment of normalized statistics
    sigma_yz: np.ndarray  # K x 2K cross moment of labels and statistics
    sigma_yy: np.ndarray  # K x K label second moment
    m: int
    gamma_yz: np.ndarray = field(init=False, repr=False)  # Gamma Sigma_yz
    label_const: float = field(init=False, repr=False)  # 0.5 tr(Gamma Sigma_yy)

    def __post_init__(self):
        self.gamma_yz = self.gamma_hat @ self.sigma_yz
        self.label_const = 0.5 * np.trace(self.gamma_hat @ self.sigma_yy)

    @property
    def k(self) -> int:
        return self.gamma_hat.shape[0]


def empirical_stats(ds: PretrainDataset) -> FisherStats:
    """Average Fisher weights and second moments over all M prefix pairs, built and summed
    in blocks of whole trajectories: at most `BLOCK_ROWS` pairs, or one trajectory when
    N - 1 is more.  Memory does not grow with B, and up to BLOCK_ROWS pairs are one block."""
    per_block = max(1, BLOCK_ROWS // (ds.n - 1))
    return pair_stats(ds.pair_matrices(slice(i, i + per_block)) for i in range(0, ds.b, per_block))


def pair_stats(blocks: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> FisherStats:
    """`FisherStats` of the pair matrices (Z, Y, P) that `PretrainDataset.pair_matrices` builds,
    given as one or more blocks of rows.  Z^T Z, Y^T Z, Y^T Y, P^T P and P's column sums are
    summed in block order, starting from the first block's, and divided by M once."""
    m, sums = 0, None
    for z, y, p in blocks:
        m += len(z)
        terms = [z.T @ z, y.T @ z, y.T @ y, p.T @ p, p.sum(axis=0)]
        sums = terms if sums is None else [total + term for total, term in zip(sums, terms)]
    zz, yz, yy, pp, p_sums = sums
    return FisherStats(
        gamma_hat=np.diag(p_sums / m) - pp / m,
        sigma_bar=zz / m,
        sigma_yz=yz / m,
        sigma_yy=yy / m,
        m=m,
    )


def _stacked(tc: TwoChannelParams | np.ndarray) -> np.ndarray:
    return tc.stacked if isinstance(tc, TwoChannelParams) else np.asarray(tc, dtype=float)


def loss_quadratic(tc: TwoChannelParams | np.ndarray, fs: FisherStats) -> float | np.ndarray:
    """The training loss, (1/2M) times the sum of r^T Gamma r over the pairs (r = W z - y), in moment form.

    Also takes stacked operators W = [W_n  W_g] of shape (..., K, 2K) and
    then returns one loss per leading index.
    """
    w = _stacked(tc)
    w_t = np.swapaxes(w, -1, -2)
    quad = 0.5 * np.trace(fs.gamma_hat @ w @ fs.sigma_bar @ w_t, axis1=-2, axis2=-1)
    lin = np.trace(fs.gamma_yz @ w_t, axis1=-2, axis2=-1)
    loss = quad - lin + fs.label_const
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
    tol: float
    converged: bool  # the last gradient norm is at most `tol`


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
    if max_iters < 0:
        raise InvalidConfigError(f"max_iters must be >= 0, got {max_iters}")
    if step is None:
        step = default_step(fs)
    if not (math.isfinite(step) and step > 0):
        raise InvalidConfigError(f"step size must be finite and > 0, got {step}")
    if not (math.isfinite(tol) and tol >= 0):
        raise InvalidConfigError(f"tol must be finite and >= 0, got {tol}")
    k = fs.k
    w = TwoChannelParams.zeros(k) if init is None else init
    mat = w.stacked.copy()
    losses = [loss_quadratic(mat, fs)]
    grad_norms = []
    blowup = 1e3 * max(abs(losses[0]), 1e-12)
    for _ in range(max_iters):
        grad = gradient(mat, fs)
        gnorm = float(np.linalg.norm(grad))
        grad_norms.append(gnorm)
        if gnorm <= tol:
            break
        mat = mat - step * grad
        loss = loss_quadratic(mat, fs)
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
        tol=tol,
        converged=grad_norms[-1] <= tol,
    )


def solve_ls(fs: FisherStats) -> TwoChannelParams:
    """Exact minimizer of the quadratic loss over operators with zero column sums
    and free inputs, the class `train_gd`'s iterates live in: Proj(Sigma_yz Sigma^-1).

    Gamma-hat annihilates the constants, so the loss sees W only through Proj(W),
    and it is minimized where W Sigma = Sigma_yz.  Exact recovery holds per
    dataset, not on average: when Sigma is positive definite (checked here), the
    result is the teacher's c Proj[V U] up to round-off, for every SPD H.
    """
    eig_min = float(np.linalg.eigvalsh(fs.sigma_bar)[0])
    if eig_min <= 1e-10:
        raise RankDeficiencyError(f"second moment is singular (min eigenvalue {eig_min:.3e})", eigenvalue=eig_min)
    # Sigma is symmetric, so solving Sigma X = Sigma_yz^T gives X^T = Sigma_yz Sigma^-1.
    w = np.linalg.solve(fs.sigma_bar, fs.sigma_yz.T).T
    return TwoChannelParams.from_stacked(project(w, axis=0))  # exact zero column sums


def _header_text(header: dict, layout: list[list]) -> bytes:
    """`header` as stored: sorted-key JSON with `arrays` = `layout`, padded so the arrays start 8-aligned."""
    text = json.dumps({**header, "arrays": layout}, sort_keys=True).encode()
    return text + b" " * (-(40 + len(text)) % 8)


def _write_container(path: Path, header: dict, layout: list[list], arrays: dict) -> None:
    """Write the one on-disk form of datasets and parameters, with one atomic rename:
    a SHA-256 digest of all that follows, the header length (uint64, little-endian), the
    header's text (`_header_text`), then the arrays, C-ordered, each hashed and written from
    its own buffer."""
    text = _header_text(header, layout)
    buffers = [struct.pack("<Q", len(text)), text]
    buffers += [np.ascontiguousarray(arrays[name], dtype) for name, dtype, _ in layout]
    digest = hashlib.sha256()
    for buf in buffers:
        digest.update(buf)
    write_atomic(path, [digest.digest(), *buffers])


def _differences(stored, written, name: str = "") -> list[str]:
    """`name = value` of each field of `stored` whose JSON text is not `written`'s, subtables field by field."""
    if type(stored) is not dict or type(written) is not dict:
        return [] if json.dumps(stored) == json.dumps(written) else [f"{name} = {stored!r}"]
    labels = {key: f"{name}.{key}" if name else key for key in sorted(stored.keys() | written.keys())}
    return [line for key, label in labels.items() for line in _differences(stored.get(key), written.get(key), label)]


def _read_container(path: Path, kind: str, version: int, sizes, parse) -> tuple:
    """(fields, arrays, digest hex) of a container, checked in order: the digest; the version; `sizes(header)`,
    the header with B, N and K as written and their layout, against the header and the file length, so no
    teacher is built for a K the file does not hold; `parse(header)`, (the header written for its values, the
    values), byte for byte.  A header either rejects is malformed.  The arrays view the file's bytes."""
    blob = path.read_bytes()
    if len(blob) < 40 or hashlib.sha256(memoryview(blob)[32:]).digest() != blob[:32]:
        raise InvalidConfigError(f"{path}: SHA-256 does not match the stored digest (file damaged or edited)")
    (size,) = struct.unpack_from("<Q", blob, 32)
    try:
        header = json.loads(blob[40 : 40 + size])
        if (found := header["version"]) == version:
            sized, layout = sizes(header)
            arrays = np.dtype([(name, dtype, tuple(shape)) for name, dtype, shape in layout])
            if differ := _differences(header, {**sized, "arrays": layout}):
                raise InvalidConfigError(f"{', '.join(differ)} is not what this version writes")
            if fits := len(blob) == 40 + size + arrays.itemsize:
                written, fields = parse(header)
    except (ValueError, KeyError, TypeError, OverflowError, InvalidConfigError) as exc:
        problem = f"field {exc} is missing" if isinstance(exc, KeyError) else exc
        raise InvalidConfigError(f"{path}: malformed header: {problem}") from exc
    if found != version:
        raise InvalidConfigError(f"{path}: unsupported {kind} version {found!r}")
    if not fits:
        raise InvalidConfigError(f"{path}: {len(blob)} bytes, expected {40 + size + arrays.itemsize}")
    if _header_text(written, layout) != blob[40 : 40 + size]:
        differ = ", ".join(_differences(header, {**written, "arrays": layout})) or "its JSON text"
        raise InvalidConfigError(f"{path}: malformed header: {differ} is not what this version writes")
    record = np.frombuffer(blob, arrays, count=1, offset=40 + size)[0]
    return fields, {name: record[name] for name in arrays.names}, blob[:32].hex()


def _from_file(path: Path, factory, *args, **kwargs):
    """`factory(*args, **kwargs)` on values read from `path`; a value it rejects names the file."""
    try:
        return factory(*args, **kwargs)
    except InvalidConfigError as exc:
        raise InvalidConfigError(f"{path}: {exc}") from None


def _dataset_header(cfg: TeacherConfig, b: int, n: int, seed: int) -> dict:
    """The header `save_dataset` writes for a dataset of B rollouts of N rounds drawn at `seed`."""
    return dict(version=DATASET_FORMAT_VERSION, teacher=cfg.to_dict(), b=b, n=n, seed=seed)


def save_dataset(ds: PretrainDataset, directory: str | Path) -> Path:
    """Write `ds` to DATASET_FILE in `directory`; the bytes depend on the dataset alone.
    No other file in `directory` is touched."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    layout = _layout(ds.b, ds.n, ds.cfg.k)
    header = _dataset_header(ds.cfg, ds.b, ds.n, ds.seed)
    _write_container(directory / DATASET_FILE, header, layout, {name: getattr(ds, name) for name, _, _ in layout})
    return directory


def load_dataset(directory: str | Path) -> PretrainDataset:
    """Read a dataset written by `save_dataset`: the header `_dataset_header` builds from its values,
    B >= 1 and N >= 2, and arrays that pass the dataset's own check."""
    path = Path(directory) / DATASET_FILE
    if not path.exists():
        raise InvalidConfigError(f"dataset not found: {path}")

    def sizes(header: dict) -> tuple:
        b, n, k = int(header["b"]), int(header["n"]), int(header["teacher"]["k"])
        return dict(header, b=b, n=n, teacher=dict(header["teacher"], k=k)), _layout(b, n, k)

    def parse(header: dict) -> tuple:
        cfg, b, n, seed = TeacherConfig.from_dict(header["teacher"]), header["b"], header["n"], int(header["seed"])
        return _dataset_header(cfg, b, n, seed), (cfg, b, n, seed)

    (cfg, b, n, seed), arrays, digest = _read_container(path, "dataset", DATASET_FORMAT_VERSION, sizes, parse)
    return _from_file(path, PretrainDataset, cfg, b, n, seed, **arrays, sha256=digest)


def _params_layout(k: int) -> list[list]:
    return [["w_n", "<f8", [k, k]], ["w_g", "<f8", [k, k]]]


def _params_header(cfg: TeacherConfig, training: dict, b: int, n: int, seed: int, dataset_sha256: str | None) -> dict:
    """The header `save_params` writes: the dataset's teacher, B, N, seed and stored digest (None or 64
    hex digits), and the `[training]` section as written, a table of strings."""
    if not (isinstance(training, dict) and all(type(text) is str for text in [*training, *training.values()])):
        raise InvalidConfigError(f"training = {training!r} is not a table of strings")
    sha = dataset_sha256
    if sha is not None and not (type(sha) is str and len(sha) == 64 and set(sha) <= set("0123456789abcdef")):
        raise InvalidConfigError(f"dataset_sha256 = {sha!r} is not a SHA-256 digest in hex")
    check_seed(seed)
    _layout(b, n, cfg.k)  # B >= 1 and N >= 2, as for the dataset itself
    header = dict(version=PARAMS_FORMAT_VERSION, teacher=cfg.to_dict(), training=training)
    return dict(header, dataset=dict(b=b, n=n, seed=seed), dataset_sha256=sha)


def save_params(tc: TwoChannelParams, path: str | Path, ds: PretrainDataset, training: dict) -> None:
    """Write operators fitted on `ds`, with the header `_params_header` builds; a `[training]`
    table that is not all strings is refused before anything is written."""
    if tc.k != ds.cfg.k:
        raise InvalidConfigError(f"operators are {tc.k}x{tc.k} but the dataset's teacher has k = {ds.cfg.k}")
    header = _params_header(ds.cfg, training, ds.b, ds.n, ds.seed, ds.sha256)
    _write_container(Path(path), header, _params_layout(tc.k), {"w_n": tc.w_n, "w_g": tc.w_g})


def load_params(path: str | Path, cfg: TeacherConfig | None = None) -> TwoChannelParams:
    """Read a parameter file written by `save_params`: finite operators and, with `cfg`, the
    same teacher."""
    return read_params(path, cfg)[0]


def read_params(path: str | Path, cfg: TeacherConfig | None = None) -> tuple[TwoChannelParams, dict]:
    """`load_params`, and what the operators were fitted from: the file's stored digest
    (`params_sha256`) and its header's dataset digest (`dataset_sha256`, None if the
    dataset was built in memory).  The header is the one `_params_header` builds from its values."""
    path = Path(path)

    def sizes(header: dict) -> tuple:
        k = int(header["teacher"]["k"])
        return dict(header, teacher=dict(header["teacher"], k=k)), _params_layout(k)

    def parse(header: dict) -> tuple:
        trained, source, sha = TeacherConfig.from_dict(header["teacher"]), header["dataset"], header["dataset_sha256"]
        b, n, seed = int(source["b"]), int(source["n"]), int(source["seed"])
        written = _params_header(trained, header["training"], b, n, seed, sha)
        return written, (written["teacher"], sha)

    (teacher, dataset_sha256), arrays, digest = _read_container(path, "parameter", PARAMS_FORMAT_VERSION, sizes, parse)
    if cfg is not None and (differ := [key for key, value in cfg.to_dict().items() if teacher[key] != value]):
        raise InvalidConfigError(f"{path} was trained for a different [teacher]: {', '.join(differ)} differ")
    return _from_file(path, TwoChannelParams, **arrays), {"params_sha256": digest, "dataset_sha256": dataset_sha256}
