"""Pretraining tests: dataset generation, moments, losses, solvers, persistence."""

import dataclasses
import hashlib
import json
import struct

import numpy as np
import pytest

from icpo_lab import atomic
from icpo_lab.bandit import History
from icpo_lab.errors import (
    InvalidConfigError,
    InvalidDistributionError,
    RankDeficiencyError,
    StepSizeError,
)
from icpo_lab.lsa import TwoChannelParams, project, teacher_two_channel
from icpo_lab.pretrain import (
    DATASET_FILE,
    _layout,
    _write_container,
    default_step,
    empirical_stats,
    fisher_matrix,
    generate_dataset,
    gradient,
    load_dataset,
    loss_direct,
    loss_quadratic,
    operator_norm,
    save_dataset,
    solve_ls,
    train_gd,
)
from icpo_lab.subspace import helmert_basis, restricted_eigenvalues
from icpo_lab.teacher import TeacherConfig, mix_policy, teacher_logits


def _small_cfg(**kwargs):
    defaults = dict(k=4, c=1.0, gamma=0.3, lam=0.2, tau_w=1.0, sigma_xi=0.4)
    defaults.update(kwargs)
    return TeacherConfig(**defaults)


ARRAY_FIELDS = ("w", "actions", "rewards")


def _assert_same_arrays(d1, d2):
    for field in ARRAY_FIELDS:
        assert np.array_equal(getattr(d1, field), getattr(d2, field)), field


def _header(blob):
    """(header length, parsed header) of a container file's bytes: a dataset or a parameter file."""
    (size,) = struct.unpack_from("<Q", blob, 32)
    return size, json.loads(blob[40 : 40 + size])


def _rewrite(path, header=None, body=None):
    """Rewrite a container file (a dataset or a parameter file) with a new header
    and/or array bytes and a freshly computed digest, so that only the checks
    after the digest see it."""
    blob = path.read_bytes()
    size, old = _header(blob)
    text = json.dumps(old if header is None else header).encode()
    text += b" " * (-(40 + len(text)) % 8)
    rest = struct.pack("<Q", len(text)) + text + (blob[40 + size :] if body is None else body)
    path.write_bytes(hashlib.sha256(rest).digest() + rest)


def _reference_pair_matrices(ds):
    """Each prefix replayed into a `History`: its statistics, the expert's
    projected logits on it, and the mixed policy of the prefix one shorter."""
    k = ds.cfg.k
    z, y, p = np.zeros((ds.m, 2 * k)), np.zeros((ds.m, k)), np.zeros((ds.m, k))
    row = 0
    for actions, rewards in zip(ds.actions, ds.rewards):
        history = History(k)
        for t in range(1, ds.n):
            p[row] = mix_policy(teacher_logits(history, ds.cfg), ds.cfg.gamma)
            history.append(int(actions[t - 1]), rewards[t - 1])
            z[row] = np.concatenate([history.n, history.g]) / t
            y[row] = project(teacher_logits(history, ds.cfg))
            row += 1
    return z, y, p


class TestGenerateDataset:
    def test_regeneration_is_bit_exact(self):
        cfg = _small_cfg()
        d1 = generate_dataset(cfg, b=5, n=6, seed=9)
        d2 = generate_dataset(cfg, b=5, n=6, seed=9)
        _assert_same_arrays(d1, d2)

    def test_full_exploration_policies_are_uniform(self):
        ds = generate_dataset(_small_cfg(gamma=1.0), b=1, n=3, seed=0)
        assert np.array_equal(ds.pair_matrices()[2], np.full((2, 4), 0.25))

    def test_pair_count(self):
        ds = generate_dataset(_small_cfg(), b=7, n=5, seed=1)
        assert ds.m == 28
        z, y, p = ds.pair_matrices()
        assert z.shape == (28, 8) and y.shape == (28, 4) and p.shape == (28, 4)

    def test_invalid_sizes(self):
        with pytest.raises(InvalidConfigError):
            generate_dataset(_small_cfg(), b=0, n=5, seed=0)
        with pytest.raises(InvalidConfigError):
            generate_dataset(_small_cfg(), b=1, n=1, seed=0)

    def test_labels_match_recorded_prefix_statistics(self):
        """Derived labels equal a fresh evaluation of the update rule per prefix."""
        cfg = _small_cfg()
        ds = generate_dataset(cfg, b=3, n=6, seed=4)
        z, y, _ = ds.pair_matrices()
        row = 0
        for actions, rewards in zip(ds.actions, ds.rewards):
            for t in range(1, ds.n):
                n_vec = np.bincount(actions[:t], minlength=cfg.k).astype(float)
                g_vec = np.zeros(cfg.k)
                for a, r in zip(actions[:t], rewards[:t]):
                    g_vec[a] += r
                s = (cfg.c / t) * (cfg.u @ g_vec + cfg.v @ n_vec)
                assert np.allclose(z[row, : cfg.k], n_vec / t, atol=1e-15)
                assert np.allclose(y[row], project(s), atol=1e-12)
                row += 1

    def test_save_load_round_trip(self, tmp_path):
        ds = generate_dataset(_small_cfg(), b=4, n=5, seed=12)
        save_dataset(ds, tmp_path / "ds")
        back = load_dataset(tmp_path / "ds")
        assert back.b == ds.b and back.n == ds.n and back.seed == ds.seed
        assert back.cfg.to_dict() == ds.cfg.to_dict()
        _assert_same_arrays(ds, back)
        assert [p.name for p in (tmp_path / "ds").iterdir()] == [DATASET_FILE]

    def test_dataset_file_identical_across_reruns(self, tmp_path):
        ds = generate_dataset(_small_cfg(), b=3, n=4, seed=2)
        save_dataset(ds, tmp_path / "a")
        save_dataset(generate_dataset(_small_cfg(), b=3, n=4, seed=2), tmp_path / "b")
        assert (tmp_path / "a" / DATASET_FILE).read_bytes() == (tmp_path / "b" / DATASET_FILE).read_bytes()
        assert load_dataset(tmp_path / "a").sha256 == load_dataset(tmp_path / "b").sha256
        save_dataset(load_dataset(tmp_path / "a"), tmp_path / "c")
        assert (tmp_path / "c" / DATASET_FILE).read_bytes() == (tmp_path / "a" / DATASET_FILE).read_bytes()


class TestPairMatrices:
    def test_equals_stepwise_reference(self, matching_dataset):
        h = np.diag(np.linspace(0.5, 3.0, 4))
        for ds in (matching_dataset, generate_dataset(_small_cfg(h=h), b=7, n=5, seed=1)):
            for got, want in zip(ds.pair_matrices(), _reference_pair_matrices(ds)):
                assert np.allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("gamma", [0.0, 0.2, 1.0])
    @pytest.mark.parametrize("k", [2, 5, 10, 16])
    def test_policies_start_uniform_and_lie_on_the_simplex(self, k, gamma):
        ds = generate_dataset(_small_cfg(k=k, gamma=gamma, c=3.0), b=6, n=12, seed=k)
        p = ds.pair_matrices()[2]
        eps = np.finfo(float).eps
        assert np.abs(p.reshape(ds.b, ds.n - 1, k)[:, 0] - 1.0 / k).max() <= eps
        assert p.min() >= 0.0
        assert np.abs(p.sum(axis=1) - 1.0).max() <= 4 * k * eps

    def test_missing_trajectory_rejected(self):
        ds = generate_dataset(_small_cfg(), b=4, n=5, seed=2)
        for field in ARRAY_FIELDS:
            short = dataclasses.replace(ds, **{field: getattr(ds, field)[:-1]})
            with pytest.raises(InvalidConfigError, match=rf"{field} has shape \(3, .*for B=4"):
                short.pair_matrices()

    def test_wrong_shape_rejected(self):
        ds = generate_dataset(_small_cfg(), b=4, n=5, seed=2)
        ds = dataclasses.replace(ds, rewards=ds.rewards[:, :-1])
        with pytest.raises(InvalidConfigError, match=r"rewards has shape \(4, 4\), expected \(4, 5\)"):
            ds.pair_matrices()

    def test_action_out_of_range_rejected(self):
        ds = generate_dataset(_small_cfg(), b=2, n=5, seed=2)
        ds.actions[1, 2] = 4
        with pytest.raises(InvalidConfigError, match="trajectory 1 has an action"):
            ds.pair_matrices()


class TestDatasetIntegrity:
    def test_dropped_trajectory_rejected(self, tmp_path):
        """A file cut short by one trajectory's bytes is rejected."""
        save_dataset(generate_dataset(_small_cfg(), b=4, n=5, seed=12), tmp_path)
        path = tmp_path / DATASET_FILE
        blob = path.read_bytes()
        path.write_bytes(blob[: -8 * (4 + 5 + 5)])
        with pytest.raises(InvalidConfigError, match="SHA-256"):
            load_dataset(tmp_path)

    def test_flipped_byte_rejected(self, tmp_path):
        """A flipped bit in the digest, the header or the arrays is rejected."""
        save_dataset(generate_dataset(_small_cfg(), b=4, n=5, seed=12), tmp_path)
        path = tmp_path / DATASET_FILE
        original = path.read_bytes()
        for position in (0, 40, len(original) // 2, -1):
            blob = bytearray(original)
            blob[position] ^= 0x01
            path.write_bytes(bytes(blob))
            with pytest.raises(InvalidConfigError, match=f"{DATASET_FILE}: SHA-256"):
                load_dataset(tmp_path)

    @pytest.mark.parametrize("field, value", [("version", 42), ("k", 99), ("b", 3), ("n", 7), ("seed", 12345)])
    def test_manifest_provenance_must_match_config(self, tmp_path, field, value):
        """The header now carries what the manifest and config.json did; an
        edit to any of its fields fails the digest."""
        save_dataset(generate_dataset(_small_cfg(), b=4, n=5, seed=12), tmp_path)
        path = tmp_path / DATASET_FILE
        blob = path.read_bytes()
        size, header = _header(blob)
        (header["teacher"] if field == "k" else header)[field] = value
        text = json.dumps(header).encode()
        path.write_bytes(blob[:32] + struct.pack("<Q", len(text)) + text + blob[40 + size :])
        with pytest.raises(InvalidConfigError, match="SHA-256"):
            load_dataset(tmp_path)

    def test_edited_teacher_constant_rejected(self, tmp_path):
        save_dataset(generate_dataset(_small_cfg(), b=4, n=5, seed=12), tmp_path)
        path = tmp_path / DATASET_FILE
        blob = path.read_bytes()
        assert blob.count(b'"c": 1.0,') == 1
        path.write_bytes(blob.replace(b'"c": 1.0,', b'"c": 5.0,'))
        with pytest.raises(InvalidConfigError, match="SHA-256"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("extra", [b"\x00" * 8, b"\x00"])
    def test_trailing_bytes_rejected_behind_a_valid_digest(self, tmp_path, extra):
        save_dataset(generate_dataset(_small_cfg(), b=4, n=5, seed=12), tmp_path)
        path = tmp_path / DATASET_FILE
        size, _ = _header(path.read_bytes())
        _rewrite(path, body=path.read_bytes()[40 + size :] + extra)
        with pytest.raises(InvalidConfigError, match="bytes, expected"):
            load_dataset(tmp_path)

    def test_short_arrays_rejected_behind_a_valid_digest(self, tmp_path):
        save_dataset(generate_dataset(_small_cfg(), b=4, n=5, seed=12), tmp_path)
        path = tmp_path / DATASET_FILE
        size, _ = _header(path.read_bytes())
        _rewrite(path, body=path.read_bytes()[40 + size : -8])
        with pytest.raises(InvalidConfigError, match="bytes, expected"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda h: h.update(b=3), "header lists arrays"),
            (lambda h: h["arrays"][1].__setitem__(1, "<f8"), "header lists arrays"),
            (lambda h: h["arrays"][2][2].__setitem__(1, 6), "header lists arrays"),
            (lambda h: h.update(version=2), "unsupported dataset version 2"),
            (lambda h: h.pop("seed"), "malformed header"),
        ],
        ids=["b", "dtype", "shape", "version", "no-seed"],
    )
    def test_header_must_agree_with_its_arrays(self, tmp_path, edit, message):
        """Behind a valid digest, the header's dtypes and shapes must match B, N and K."""
        save_dataset(generate_dataset(_small_cfg(), b=4, n=5, seed=12), tmp_path)
        path = tmp_path / DATASET_FILE
        _, header = _header(path.read_bytes())
        edit(header)
        _rewrite(path, header=header)
        with pytest.raises(InvalidConfigError, match=message):
            load_dataset(tmp_path)

    def test_out_of_range_teacher_behind_a_valid_digest_names_the_file(self, tmp_path):
        save_dataset(generate_dataset(_small_cfg(), b=4, n=5, seed=12), tmp_path)
        path = tmp_path / DATASET_FILE
        _, header = _header(path.read_bytes())
        header["teacher"]["c"] = -1
        _rewrite(path, header=header)
        with pytest.raises(InvalidConfigError) as info:
            load_dataset(tmp_path)
        assert str(info.value) == f"{path}: malformed header: step-size constant must be > 0, got -1.0"

    @pytest.mark.parametrize("name, value", [("w", np.nan), ("rewards", np.inf), ("rewards", -np.inf)])
    def test_non_finite_value_names_the_file_array_and_trajectory(self, tmp_path, name, value):
        """`save_dataset` hashes the arrays as given, so the loader checks their values."""
        ds = generate_dataset(_small_cfg(), b=4, n=5, seed=12)
        getattr(ds, name)[2].flat[1] = value
        save_dataset(ds, tmp_path)
        with pytest.raises(InvalidConfigError) as info:
            load_dataset(tmp_path)
        assert str(info.value) == f"{tmp_path / DATASET_FILE}: {name} of trajectory 2 is not finite"

    @pytest.mark.parametrize(
        "b, n, problem",
        [
            (0, 5, "need at least one trajectory, got B=0"),
            (2, 1, "need at least two rounds, got N=1"),
            (2, 0, "need at least two rounds, got N=0"),
        ],
    )
    def test_header_size_rules_behind_a_valid_digest(self, tmp_path, b, n, problem):
        """The loader applies `generate_dataset`'s size rules, so no empty dataset reaches training."""
        save_dataset(generate_dataset(_small_cfg(), b=4, n=5, seed=12), tmp_path)
        path = tmp_path / DATASET_FILE
        _, header = _header(path.read_bytes())
        header.update(b=b, n=n)
        _rewrite(path, header=header)
        with pytest.raises(InvalidConfigError) as info:
            load_dataset(tmp_path)
        assert str(info.value) == f"{path}: malformed header: {problem}"

    def test_file_holds_only_the_rollouts(self, tmp_path):
        b, n, k = 4, 5, 4
        save_dataset(generate_dataset(_small_cfg(k=k), b=b, n=n, seed=12), tmp_path)
        blob = (tmp_path / DATASET_FILE).read_bytes()
        size, header = _header(blob)
        assert header["version"] == 4
        assert [name for name, _, _ in header["arrays"]] == ["w", "actions", "rewards"]
        assert len(blob) == 40 + size + 8 * b * (k + 2 * n)

    def test_format_version_3_rejected(self, tmp_path):
        """A format 3 file, which also stored logits and policies, names its version."""
        b, n, k = 2, 3, 4
        layout = _layout(b, n, k) + [["logits", "<f8", [b, n - 1, k]], ["policies", "<f8", [b, n - 1, k]]]
        header = dict(version=3, teacher=_small_cfg(k=k).to_dict(), b=b, n=n, seed=12)
        arrays = {name: np.zeros(shape, dtype) for name, dtype, shape in layout}
        _write_container(tmp_path / DATASET_FILE, header, layout, arrays)
        with pytest.raises(InvalidConfigError) as info:
            load_dataset(tmp_path)
        assert str(info.value) == f"{tmp_path / DATASET_FILE}: unsupported dataset version 3"

    def test_loaded_arrays_are_read_only_views(self, tmp_path):
        save_dataset(generate_dataset(_small_cfg(), b=4, n=5, seed=12), tmp_path)
        ds = load_dataset(tmp_path)
        for field in ARRAY_FIELDS:
            array = getattr(ds, field)
            assert not array.flags.writeable and array.base is not None
        assert ds.actions.dtype == np.int64
        assert ds.sha256 == (tmp_path / DATASET_FILE).read_bytes()[:32].hex()

    def test_different_seed_gives_different_digest(self, tmp_path):
        save_dataset(generate_dataset(_small_cfg(), b=4, n=5, seed=12), tmp_path / "a")
        save_dataset(generate_dataset(_small_cfg(), b=4, n=5, seed=13), tmp_path / "b")
        assert load_dataset(tmp_path / "a").sha256 != load_dataset(tmp_path / "b").sha256

    def test_format_version_1_rejected_for_its_stream_layout(self, tmp_path):
        for name in ("config.json", "manifest.json"):
            (tmp_path / name).write_text(json.dumps({"version": 1, "k": 4, "b": 2, "n": 3, "seed": 12}))
        (tmp_path / "traj_00000.bin").write_bytes(b"\x00" * 8)
        with pytest.raises(InvalidConfigError, match="regenerate the dataset"):
            load_dataset(tmp_path)

    def test_format_version_2_directory_rejected(self, tmp_path):
        """A directory the per-trajectory writer left behind names the fix."""
        manifest = {"version": 2, "k": 4, "b": 1, "n": 3, "seed": 12, "trajectories": ["traj_00000.bin"]}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        (tmp_path / "config.json").write_text(json.dumps({"version": 2}))
        (tmp_path / "traj_00000.bin").write_bytes(b"\x00" * 8)
        with pytest.raises(InvalidConfigError, match="format 1 or 2 dataset .*regenerate the dataset"):
            load_dataset(tmp_path)

    def test_save_over_a_format_2_directory_removes_its_files(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps({"version": 2}))
        (tmp_path / "config.json").write_text(json.dumps({"version": 2}))
        for i in range(3):
            (tmp_path / f"traj_{i:05d}.bin").write_bytes(b"\x00" * 8)
        (tmp_path / "notes.txt").write_text("kept")
        save_dataset(generate_dataset(_small_cfg(), b=4, n=5, seed=12), tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [DATASET_FILE, "notes.txt"]
        assert load_dataset(tmp_path).b == 4

    def test_missing_dataset_names_the_file(self, tmp_path):
        with pytest.raises(InvalidConfigError, match=f"dataset not found: .*{DATASET_FILE}"):
            load_dataset(tmp_path)

    def test_interrupted_write_keeps_the_previous_dataset(self, tmp_path, monkeypatch):
        save_dataset(generate_dataset(_small_cfg(), b=4, n=5, seed=12), tmp_path)
        before = (tmp_path / DATASET_FILE).read_bytes()

        def killed(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(atomic.os, "replace", killed)
        with pytest.raises(KeyboardInterrupt):
            save_dataset(generate_dataset(_small_cfg(), b=4, n=5, seed=99), tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == [DATASET_FILE]
        assert (tmp_path / DATASET_FILE).read_bytes() == before
        assert load_dataset(tmp_path).seed == 12

    def test_interrupted_first_write_leaves_no_dataset(self, tmp_path, monkeypatch):
        def killed(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(atomic.os, "replace", killed)
        with pytest.raises(KeyboardInterrupt):
            save_dataset(generate_dataset(_small_cfg(), b=4, n=5, seed=12), tmp_path / "ds")
        assert list((tmp_path / "ds").iterdir()) == []

    def test_save_streams_buffers_without_a_joined_copy(self, tmp_path, monkeypatch):
        """Each array reaches the file as its own buffer, none larger than it."""
        ds = generate_dataset(_small_cfg(), b=4, n=5, seed=12)
        sizes = []
        real = atomic.write_atomic

        def spy(path, data):
            sizes.extend(memoryview(buf).nbytes for buf in data)
            real(path, data)

        monkeypatch.setattr("icpo_lab.pretrain.write_atomic", spy)
        save_dataset(ds, tmp_path)
        assert sizes[-3:] == [getattr(ds, field).nbytes for field in ARRAY_FIELDS]
        assert sum(sizes) == (tmp_path / DATASET_FILE).stat().st_size


class TestFisherMatrix:
    def test_uniform_two_arms(self):
        f = fisher_matrix(np.array([0.5, 0.5]))
        assert np.allclose(f, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15)

    def test_point_mass_is_zero(self):
        assert np.allclose(fisher_matrix(np.array([0.0, 1.0, 0.0])), 0.0, atol=1e-15)

    def test_off_simplex_rejected(self):
        with pytest.raises(InvalidDistributionError):
            fisher_matrix(np.array([0.5, 0.6]))

    def test_batch_matches_rows(self):
        rng = np.random.default_rng(3)
        p = mix_policy(rng.normal(size=(2, 7, 5)) * 2, 0.2)
        f = fisher_matrix(p)
        assert f.shape == (2, 7, 5, 5)
        for idx in np.ndindex(2, 7):
            assert np.array_equal(f[idx], np.diag(p[idx]) - np.outer(p[idx], p[idx]))

    def test_batch_rejects_one_bad_row(self):
        p = np.full((6, 3), 1.0 / 3.0)
        p[4] = [0.5, 0.6, -0.1]
        with pytest.raises(InvalidDistributionError):
            fisher_matrix(p)

    def test_annihilates_ones_and_psd(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            p = mix_policy(rng.normal(size=6) * 2, 0.15)
            f = fisher_matrix(p)
            assert np.abs(f @ np.ones(6)).max() < 1e-12
            assert np.linalg.eigvalsh(f).min() >= -1e-12

    def test_mixture_eigenvalue_window(self):
        """Restricted spectrum of mixture Fishers stays in [gamma/K, 1/2]."""
        rng = np.random.default_rng(1)
        gamma, k = 0.25, 5
        q = helmert_basis(k)
        for _ in range(500):
            p = mix_policy(rng.normal(size=k) * 3, gamma)
            eigs = restricted_eigenvalues(fisher_matrix(p), q)
            assert eigs.min() >= gamma / k - 1e-12
            assert eigs.max() <= 0.5 + 1e-12


class TestEmpiricalStats:
    def test_single_pair_is_uniform_fisher(self):
        ds = generate_dataset(_small_cfg(), b=1, n=2, seed=3)
        fs = empirical_stats(ds)
        assert fs.m == 1
        assert np.allclose(fs.gamma_hat, fisher_matrix(np.full(4, 0.25)), atol=1e-15)

    def test_zero_reward_dataset_has_zero_reward_blocks(self):
        ds = generate_dataset(_small_cfg(tau_w=0.0, sigma_xi=0.0), b=3, n=5, seed=8)
        fs = empirical_stats(ds)
        k = 4
        assert np.allclose(fs.sigma_bar[k:, :], 0.0, atol=1e-15)
        assert np.allclose(fs.sigma_bar[:, k:], 0.0, atol=1e-15)
        # Labels still carry the count penalty, but nothing loads on rewards.
        assert np.allclose(fs.sigma_yz[:, k:], 0.0, atol=1e-15)

    def test_fisher_weight_floor_and_kernel(self, matching_stats, matching_cfg):
        g = matching_stats.gamma_hat
        assert np.abs(g @ np.ones(matching_cfg.k)).max() < 1e-10
        lo = restricted_eigenvalues(g, helmert_basis(matching_cfg.k)).min()
        assert lo >= matching_cfg.gamma / matching_cfg.k - 1e-10
        assert np.allclose(g, g.T, atol=1e-12)

    def test_moment_matrices_psd(self, matching_stats):
        assert np.linalg.eigvalsh(matching_stats.sigma_bar).min() >= -1e-10
        assert np.linalg.eigvalsh(matching_stats.gamma_hat).min() >= -1e-10


class TestLosses:
    def test_quadratic_equals_direct(self, matching_dataset, matching_stats):
        rng = np.random.default_rng(17)
        k = matching_dataset.cfg.k
        for _ in range(100):
            tc = TwoChannelParams(w_n=rng.normal(size=(k, k)), w_g=rng.normal(size=(k, k)))
            a = loss_direct(tc, matching_dataset, matching_stats.gamma_hat)
            b = loss_quadratic(tc, matching_stats)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a))

    def test_batched_operators_match_single_calls(self, matching_stats):
        rng = np.random.default_rng(19)
        w = rng.normal(size=(12, 10, 20))
        batch = loss_quadratic(w, matching_stats)
        assert batch.shape == (12,)
        for wi, loss in zip(w, batch):
            assert abs(loss - loss_quadratic(TwoChannelParams.from_stacked(wi), matching_stats)) <= 1e-15

    def test_zero_operator_values(self, matching_dataset, matching_stats):
        tc = TwoChannelParams.zeros(10)
        # Independent summation oracle for the zero operator.
        _, y, _ = matching_dataset.pair_matrices()
        want = 0.5 * np.einsum("mi,ij,mj->", y, matching_stats.gamma_hat, y) / matching_dataset.m
        assert loss_direct(tc, matching_dataset, matching_stats.gamma_hat) == pytest.approx(want, rel=1e-12)
        const = 0.5 * np.trace(matching_stats.gamma_hat @ matching_stats.sigma_yy)
        assert loss_quadratic(tc, matching_stats) == pytest.approx(const, rel=1e-12)

    def test_realizable_labels_have_zero_residual(self, matching_dataset, matching_cfg, matching_stats):
        """The expert's own channel operators fit every pair exactly."""
        tc = teacher_two_channel(matching_cfg)
        z, y, _ = matching_dataset.pair_matrices()
        resid = z @ tc.stacked.T - y
        assert np.abs(resid).max() <= 1e-10
        assert loss_direct(tc, matching_dataset, matching_stats.gamma_hat) <= 1e-20

    def test_polynomial_structure_in_scale(self, matching_stats):
        rng = np.random.default_rng(23)
        tc = TwoChannelParams(w_n=rng.normal(size=(10, 10)), w_g=rng.normal(size=(10, 10)))
        losses = {}
        for alpha in (0.0, 1.0, 2.0, 3.0):
            scaled = TwoChannelParams.from_stacked(alpha * tc.stacked)
            losses[alpha] = loss_quadratic(scaled, matching_stats)
        # L(a W) = a^2 Q - a l + const; recover Q and l from a = 1, 2 and
        # predict a = 3.
        const = losses[0.0]
        q = (losses[2.0] - 2 * losses[1.0] + const) / 2.0
        lin = q + const - losses[1.0]
        predicted = 9 * q - 3 * lin + const
        assert losses[3.0] == pytest.approx(predicted, rel=1e-10)


class TestGradient:
    def test_matches_finite_differences(self, matching_stats):
        rng = np.random.default_rng(29)
        k = matching_stats.k
        eps = 1e-5
        for _ in range(20):
            tc = TwoChannelParams(w_n=rng.normal(size=(k, k)), w_g=rng.normal(size=(k, k)))
            analytic = gradient(tc, matching_stats)
            fd = np.zeros_like(analytic)
            base = tc.stacked
            for i in range(k):
                for j in range(2 * k):
                    up = base.copy()
                    up[i, j] += eps
                    down = base.copy()
                    down[i, j] -= eps
                    fd[i, j] = (
                        loss_quadratic(TwoChannelParams.from_stacked(up), matching_stats)
                        - loss_quadratic(TwoChannelParams.from_stacked(down), matching_stats)
                    ) / (2 * eps)
            rel = np.linalg.norm(analytic - fd) / np.linalg.norm(analytic)
            assert rel <= 1e-6

    def test_batched_operators_match_single_calls(self, matching_stats):
        w = np.random.default_rng(31).normal(size=(4, 3, 10, 20))
        batch = gradient(w, matching_stats)
        assert batch.shape == w.shape
        for wi, grad in zip(w.reshape(-1, 10, 20), batch.reshape(-1, 10, 20)):
            np.testing.assert_allclose(grad, gradient(TwoChannelParams.from_stacked(wi), matching_stats), rtol=1e-14)

    def test_zero_at_least_squares_optimum(self, matching_stats, matching_student):
        assert np.linalg.norm(gradient(matching_student, matching_stats)) <= 1e-8

    def test_zero_cross_moment_zero_point(self, matching_stats):
        import dataclasses

        fs = dataclasses.replace(matching_stats, sigma_yz=np.zeros_like(matching_stats.sigma_yz))
        assert np.array_equal(gradient(TwoChannelParams.zeros(10), fs), np.zeros((10, 20)))


class TestOperatorNorm:
    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.normal(size=(8, 8))
            m = a @ a.T
            assert operator_norm(m) == pytest.approx(np.linalg.eigvalsh(m).max(), rel=1e-8)

    def test_singular_direction_does_not_trap_iteration(self):
        # Kernel along the ones direction, like the Fisher weight.
        pi = np.eye(4) - np.ones((4, 4)) / 4
        assert operator_norm(2.5 * pi) == pytest.approx(2.5, rel=1e-9)

    def test_exact_when_the_top_eigengap_is_tiny(self):
        # Top eigengap ratio 0.999, which stalls a power iteration short of the top.
        q, _ = np.linalg.qr(np.random.default_rng(2).normal(size=(6, 6)))
        m = q @ np.diag([1.0, 0.999, 0.7, 0.3, 0.1, 0.0]) @ q.T
        m = (m + m.T) / 2
        assert np.linalg.eigvalsh(m)[-1] == pytest.approx(1.0, rel=1e-14)
        assert operator_norm(m) == pytest.approx(np.linalg.eigvalsh(m)[-1], rel=1e-12, abs=0)

    def test_default_step_is_the_exact_curvature_bound(self, matching_stats):
        lip = np.linalg.eigvalsh(matching_stats.gamma_hat)[-1] * np.linalg.eigvalsh(matching_stats.sigma_bar)[-1]
        assert default_step(matching_stats) == 0.9 / lip


class TestTrainGd:
    def test_starts_at_optimum_returns_immediately(self, matching_stats, matching_student):
        result = train_gd(matching_stats, tol=1e-8, init=matching_student)
        assert len(result.losses) == 1
        assert result.converged

    def test_monotone_descent_to_floor(self, matching_stats, matching_student):
        result = train_gd(matching_stats, tol=1e-10)
        assert np.all(np.diff(result.losses) <= 1e-14)
        floor = loss_quadratic(matching_student, matching_stats)
        assert result.losses[-1] - floor <= 1e-8

    def test_rate_at_least_half_of_pl_prediction(self, matching_stats, matching_student):
        from icpo_lab.analysis import pl_constant

        result = train_gd(matching_stats, tol=1e-12)
        floor = loss_quadratic(matching_student, matching_stats)
        excess = result.losses - floor
        mask = excess > 1e-12
        iters = np.arange(len(excess))[mask]
        slope = np.polyfit(iters, np.log(excess[mask]), 1)[0]
        predicted = 2.0 * pl_constant(matching_stats.gamma_hat, matching_stats.sigma_bar) * result.step
        assert -slope >= 0.5 * predicted

    def test_oversized_step_raises(self, matching_stats):
        from icpo_lab.pretrain import default_step

        with pytest.raises(StepSizeError):
            train_gd(matching_stats, step=60.0 * default_step(matching_stats), max_iters=5_000)

    def test_agrees_with_least_squares(self, matching_stats, matching_student):
        result = train_gd(matching_stats, tol=1e-12)
        gap = np.linalg.norm(result.params.stacked - matching_student.stacked)
        assert gap <= 1e-6

    def test_logs_each_iterates_loss_and_gradient_norm_bit_for_bit(self, matching_stats):
        """The loss terms that do not depend on W are computed once, with no change in any bit."""
        iters = 40
        result = train_gd(matching_stats, max_iters=iters)
        assert len(result.losses) == len(result.grad_norms) == iters + 1
        mat = TwoChannelParams.zeros(matching_stats.k).stacked
        for i in range(iters + 1):
            if i:
                mat = mat - result.step * grad
            grad = gradient(mat, matching_stats)
            assert result.losses[i] == loss_quadratic(mat, matching_stats)
            assert result.grad_norms[i] == np.linalg.norm(grad)
        assert np.array_equal(result.params.stacked, mat)

    @pytest.mark.parametrize(
        "setting",
        [
            dict(step=float("nan")),
            dict(step=float("inf")),
            dict(step=0.0),
            dict(step=-1e-3),
            dict(tol=float("nan")),
            dict(tol=float("inf")),
            dict(tol=-1e-9),
        ],
        ids=["step-nan", "step-inf", "step-zero", "step-negative", "tol-nan", "tol-inf", "tol-negative"],
    )
    def test_unusable_step_or_tol_rejected(self, matching_stats, setting):
        with pytest.raises(InvalidConfigError, match="must be finite"):
            train_gd(matching_stats, max_iters=10, **setting)

    def test_nan_loss_is_a_blow_up(self, matching_stats):
        init = TwoChannelParams.zeros(matching_stats.k)
        init.w_n[0, 0] = np.nan
        with pytest.raises(StepSizeError, match="nan"):
            train_gd(matching_stats, max_iters=10, init=init)


class TestSolveLs:
    def test_recovers_expert_channels(self, matching_cfg, matching_stats, matching_student):
        target = teacher_two_channel(matching_cfg)
        assert np.linalg.norm(matching_student.stacked - target.stacked) <= 1e-6

    def test_single_pair_is_rank_deficient(self):
        ds = generate_dataset(_small_cfg(), b=1, n=2, seed=0)
        with pytest.raises(RankDeficiencyError) as info:
            solve_ls(empirical_stats(ds))
        assert info.value.eigenvalue <= 1e-10

    def test_channel_columns_are_centered(self, matching_student):
        assert np.abs(matching_student.w_n.sum(axis=0)).max() <= 1e-10
        assert np.abs(matching_student.w_g.sum(axis=0)).max() <= 1e-10


class TestConcentrationShrinkage:
    def test_doubling_b_shrinks_moment_error_like_sqrt_two(self):
        """Soft sanity: deviations at 2B are about sqrt(2) below those at B."""
        cfg = _small_cfg()
        ref = empirical_stats(generate_dataset(cfg, b=4000, n=4, seed=999)).sigma_bar
        ratios = []
        for rep in range(10):
            small = empirical_stats(generate_dataset(cfg, b=100, n=4, seed=1000 + rep)).sigma_bar
            big = empirical_stats(generate_dataset(cfg, b=200, n=4, seed=2000 + rep)).sigma_bar
            e_small = np.linalg.norm(small - ref, ord=2)
            e_big = np.linalg.norm(big - ref, ord=2)
            ratios.append(e_small / e_big)
        median = float(np.median(ratios))
        assert np.sqrt(2.0) / 2.0 <= median <= 2.0 * np.sqrt(2.0)
