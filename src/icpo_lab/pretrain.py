"""Supervised pretraining of the two-channel student on expert rollouts.

Covers trajectory generation, the empirical Fisher weight and second moments,
the weighted logit-matching loss in both per-pair and moment form, its
analytic gradient, plain gradient descent, and the exact restricted
least-squares solve.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InvalidConfigError, InvalidDistributionError, RankDeficiencyError, StepSizeError
from .loop import closed_loop, task_blocks
from .lsa import TwoChannelParams, expert_two_channel
from .subspace import paired_helmert_basis, restricted_eigenvalues
from .teacher import TeacherConfig

DATASET_FORMAT_VERSION = 2


@dataclass
class Trajectory:
    """One expert rollout: the raw steps plus per-prefix labels.

    `logits[t-1]` holds the expert's next-step logits after prefix t and
    `policies[t-1]` the mixed policy that chose action t, for t = 1..N-1.
    """

    w: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    logits: np.ndarray
    policies: np.ndarray


@dataclass
class PretrainDataset:
    cfg: TeacherConfig
    b: int
    n: int
    seed: int
    trajectories: list[Trajectory] = field(default_factory=list)

    @property
    def m(self) -> int:
        """Number of training pairs, B * (N - 1)."""
        return self.b * (self.n - 1)

    def pair_matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Assemble (Z, Y, P): normalized statistics, projected labels, policies.

        Rows are ordered trajectory-major then by prefix length, which fixes
        the summation order of every moment estimate.  Prefix statistics are
        running sums over one-hot actions, accumulated left to right.  Raises
        `InvalidConfigError` unless there are exactly B trajectories, each of
        shape (N, K) with actions in [0, K).
        """
        k, n = self.cfg.k, self.n
        if len(self.trajectories) != self.b:
            raise InvalidConfigError(f"dataset has {len(self.trajectories)} trajectories, expected B={self.b}")
        for i, traj in enumerate(self.trajectories):
            shapes = (traj.actions.shape, traj.rewards.shape, traj.logits.shape, traj.policies.shape)
            if shapes != ((n,), (n,), (n - 1, k), (n - 1, k)):
                raise InvalidConfigError(f"trajectory {i} has shapes {shapes}, expected N={n}, K={k}")
            if traj.actions.min() < 0 or traj.actions.max() >= k:
                raise InvalidConfigError(f"trajectory {i} has an action outside [0, {k})")
        # Everything is built in place and the index arrays are dropped before
        # y and p exist, so peak memory stays at the size of (Z, Y, P) itself.
        actions = np.stack([traj.actions[: n - 1] for traj in self.trajectories])
        rewards = np.stack([traj.rewards[: n - 1] for traj in self.trajectories])
        onehot = actions[..., np.newaxis] == np.arange(k)
        z = np.zeros((self.b, n - 1, 2 * k))
        counts, sums = z[..., :k], z[..., k:]
        np.cumsum(onehot, axis=1, dtype=float, out=counts)
        np.copyto(sums, rewards[..., np.newaxis], where=onehot)
        np.cumsum(sums, axis=1, out=sums)
        t = np.arange(1, n)[:, np.newaxis]
        counts /= t
        sums /= t
        del actions, rewards, onehot
        z = z.reshape(self.m, 2 * k)
        y = np.concatenate([traj.logits for traj in self.trajectories])
        y -= y.mean(axis=-1, keepdims=True)  # project(), in place
        p = np.concatenate([traj.policies for traj in self.trajectories])
        return z, y, p


def generate_dataset(cfg: TeacherConfig, b: int, n: int, seed: int) -> PretrainDataset:
    """Roll the expert for N steps on B independent tasks and record labels.

    Each trajectory owns CRN stream id tau, so regeneration from (cfg, b, n,
    seed) is bit-exact; trajectories are stored in stream-id order.
    """
    if b < 1:
        raise InvalidConfigError(f"need at least one trajectory, got B={b}")
    if n < 2:
        raise InvalidConfigError(f"need at least two rounds, got N={n}")
    ds = PretrainDataset(cfg=cfg, b=b, n=n, seed=seed)
    expert = expert_two_channel(cfg).stacked[np.newaxis]
    for _, w, uniforms, noise in task_blocks(cfg, b, n, seed):
        actions = np.zeros((len(w), n), dtype=np.int64)
        rewards = np.zeros((len(w), n))
        logits = np.zeros((len(w), n - 1, cfg.k))
        policies = np.zeros((len(w), n - 1, cfg.k))
        for rnd in closed_loop(expert, w, uniforms, noise, cfg):
            actions[:, rnd.t - 1] = rnd.actions
            rewards[:, rnd.t - 1] = rnd.rewards
            if rnd.t < n:
                policies[:, rnd.t - 1] = rnd.policies[0]
                logits[:, rnd.t - 1] = rnd.logits[0]
        ds.trajectories.extend(map(Trajectory, w, actions, rewards, logits, policies))
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


def operator_norm(m: np.ndarray, tol: float = 1e-10, max_iters: int = 100_000) -> float:
    """Largest eigenvalue of a symmetric PSD matrix by power iteration.

    The start vector mixes the ones direction with an index ramp so it is
    never orthogonal to the leading eigenvector of the matrices used here
    (whose kernels contain the constant direction).
    """
    m = np.asarray(m, dtype=float)
    dim = m.shape[0]
    v = np.ones(dim) + np.linspace(0.0, 1.0, dim)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iters):
        mv = m @ v
        norm = np.linalg.norm(mv)
        if norm == 0.0:
            return 0.0
        v = mv / norm
        lam_next = float(v @ m @ v)
        if abs(lam_next - lam) <= tol * max(1.0, abs(lam_next)):
            return lam_next
        lam = lam_next
    return lam


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


# --- on-disk form: config snapshot + manifest + per-trajectory binaries ---
#
# Each trajectory file is a flat little-endian float64 sequence:
#   w (K), actions (N, stored as floats), rewards (N),
#   logits ((N-1)*K, row-major), policies ((N-1)*K, row-major).


def save_dataset(ds: PretrainDataset, directory: str | Path) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    config = {
        "version": DATASET_FORMAT_VERSION,
        "teacher": ds.cfg.to_dict(),
        "b": ds.b,
        "n": ds.n,
        "seed": ds.seed,
    }
    (directory / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True))
    names = []
    hashes = []
    for i, traj in enumerate(ds.trajectories):
        name = f"traj_{i:05d}.bin"
        blob = _trajectory_bytes(traj)
        (directory / name).write_bytes(blob)
        names.append(name)
        hashes.append(hashlib.sha256(blob).hexdigest())
    manifest = {
        "version": DATASET_FORMAT_VERSION,
        "k": ds.cfg.k,
        "b": ds.b,
        "n": ds.n,
        "seed": ds.seed,
        "pairs": ds.m,
        "trajectories": names,
        "sha256": hashes,
    }
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return directory


def load_dataset(directory: str | Path) -> PretrainDataset:
    directory = Path(directory)
    config = json.loads((directory / "config.json").read_text())
    if config["version"] == 1:
        raise InvalidConfigError(
            "dataset format version 1 was drawn with an older CRN stream layout, "
            f"which changed in version {DATASET_FORMAT_VERSION}; regenerate the dataset"
        )
    if config["version"] != DATASET_FORMAT_VERSION:
        raise InvalidConfigError(f"unsupported dataset version {config['version']}")
    cfg = TeacherConfig.from_dict(config["teacher"])
    manifest = json.loads((directory / "manifest.json").read_text())
    provenance = {key: config[key] for key in ("version", "b", "n", "seed")}
    provenance["k"] = cfg.k
    for key, want in provenance.items():
        if manifest.get(key) != want:
            raise InvalidConfigError(
                f"manifest.json has {key} = {manifest.get(key)!r} but config.json has {want!r}"
            )
    ds = PretrainDataset(cfg=cfg, b=int(config["b"]), n=int(config["n"]), seed=int(config["seed"]))
    names, hashes = manifest["trajectories"], manifest["sha256"]
    if len(names) != ds.b or len(hashes) != ds.b:
        raise InvalidConfigError(
            f"manifest lists {len(names)} trajectories and {len(hashes)} hashes, expected B={ds.b}"
        )
    for name, digest in zip(names, hashes):
        blob = (directory / name).read_bytes()
        if hashlib.sha256(blob).hexdigest() != digest:
            raise InvalidConfigError(f"{name}: SHA-256 does not match the manifest")
        ds.trajectories.append(_trajectory_from_bytes(blob, cfg.k, ds.n))
    return ds


def _trajectory_bytes(traj: Trajectory) -> bytes:
    parts = [traj.w, traj.actions.astype(float), traj.rewards, traj.logits.ravel(), traj.policies.ravel()]
    return np.concatenate(parts).astype("<f8").tobytes()


def _trajectory_from_bytes(blob: bytes, k: int, n: int) -> Trajectory:
    flat = np.frombuffer(blob, dtype="<f8")
    expected = k + 2 * n + 2 * (n - 1) * k
    if flat.size != expected:
        raise InvalidConfigError(f"trajectory record has {flat.size} floats, expected {expected}")
    w, actions, rewards, logits, policies = np.split(flat.astype(float), np.cumsum([k, n, n, (n - 1) * k]))
    return Trajectory(w, actions.astype(np.int64), rewards, logits.reshape(n - 1, k), policies.reshape(n - 1, k))
