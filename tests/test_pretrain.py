"""Pretraining tests: dataset generation, moments, losses, solvers, persistence."""

import dataclasses
import json

import numpy as np
import pytest

from icpo_lab.errors import (
    InvalidConfigError,
    InvalidDistributionError,
    RankDeficiencyError,
    StepSizeError,
)
from icpo_lab.lsa import TwoChannelParams, project, teacher_two_channel
from icpo_lab.pretrain import (
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
from icpo_lab.teacher import TeacherConfig, mix_policy


def _small_cfg(**kwargs):
    defaults = dict(k=4, c=1.0, gamma=0.3, lam=0.2, tau_w=1.0, sigma_xi=0.4)
    defaults.update(kwargs)
    return TeacherConfig(**defaults)


def _reference_pair_matrices(ds):
    """Prefix statistics accumulated one step at a time."""
    k = ds.cfg.k
    z, y, p = np.zeros((ds.m, 2 * k)), np.zeros((ds.m, k)), np.zeros((ds.m, k))
    row = 0
    for traj in ds.trajectories:
        n_vec, g_vec = np.zeros(k), np.zeros(k)
        for t in range(1, ds.n):
            a = int(traj.actions[t - 1])
            n_vec[a] += 1.0
            g_vec[a] += traj.rewards[t - 1]
            z[row, :k] = n_vec / t
            z[row, k:] = g_vec / t
            y[row] = project(traj.logits[t - 1])
            p[row] = traj.policies[t - 1]
            row += 1
    return z, y, p


class TestGenerateDataset:
    def test_regeneration_is_bit_exact(self):
        cfg = _small_cfg()
        d1 = generate_dataset(cfg, b=5, n=6, seed=9)
        d2 = generate_dataset(cfg, b=5, n=6, seed=9)
        for t1, t2 in zip(d1.trajectories, d2.trajectories):
            assert np.array_equal(t1.w, t2.w)
            assert np.array_equal(t1.actions, t2.actions)
            assert np.array_equal(t1.rewards, t2.rewards)
            assert np.array_equal(t1.logits, t2.logits)
            assert np.array_equal(t1.policies, t2.policies)

    def test_full_exploration_policies_are_uniform(self):
        ds = generate_dataset(_small_cfg(gamma=1.0), b=1, n=3, seed=0)
        assert np.array_equal(ds.trajectories[0].policies, np.full((2, 4), 0.25))

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
        """Stored logits equal a fresh evaluation of the update rule per prefix."""
        cfg = _small_cfg()
        ds = generate_dataset(cfg, b=3, n=6, seed=4)
        z, y, _ = ds.pair_matrices()
        row = 0
        for traj in ds.trajectories:
            for t in range(1, ds.n):
                n_vec = np.bincount(traj.actions[:t], minlength=cfg.k).astype(float)
                g_vec = np.zeros(cfg.k)
                for a, r in zip(traj.actions[:t], traj.rewards[:t]):
                    g_vec[a] += r
                s = (cfg.c / t) * (cfg.u @ g_vec + cfg.v @ n_vec)
                assert np.allclose(traj.logits[t - 1], s, atol=1e-12)
                assert np.allclose(z[row, : cfg.k], n_vec / t, atol=1e-15)
                assert np.allclose(y[row], project(s), atol=1e-12)
                row += 1

    def test_save_load_round_trip(self, tmp_path):
        ds = generate_dataset(_small_cfg(), b=4, n=5, seed=12)
        save_dataset(ds, tmp_path / "ds")
        back = load_dataset(tmp_path / "ds")
        assert back.b == ds.b and back.n == ds.n and back.seed == ds.seed
        for t1, t2 in zip(ds.trajectories, back.trajectories):
            assert np.array_equal(t1.w, t2.w)
            assert np.array_equal(t1.actions, t2.actions)
            assert np.array_equal(t1.rewards, t2.rewards)
            assert np.array_equal(t1.logits, t2.logits)
            assert np.array_equal(t1.policies, t2.policies)

    def test_manifest_identical_across_reruns(self, tmp_path):
        ds = generate_dataset(_small_cfg(), b=3, n=4, seed=2)
        save_dataset(ds, tmp_path / "a")
        save_dataset(generate_dataset(_small_cfg(), b=3, n=4, seed=2), tmp_path / "b")
        assert (tmp_path / "a/manifest.json").read_bytes() == (tmp_path / "b/manifest.json").read_bytes()


class TestPairMatrices:
    def test_equals_stepwise_reference(self, matching_dataset):
        for ds in (matching_dataset, generate_dataset(_small_cfg(), b=7, n=5, seed=1)):
            for got, want in zip(ds.pair_matrices(), _reference_pair_matrices(ds)):
                assert np.array_equal(got, want)

    def test_missing_trajectory_rejected(self):
        ds = generate_dataset(_small_cfg(), b=4, n=5, seed=2)
        ds.trajectories.pop()
        with pytest.raises(InvalidConfigError, match="3 trajectories"):
            ds.pair_matrices()

    def test_wrong_shape_rejected(self):
        ds = generate_dataset(_small_cfg(), b=4, n=5, seed=2)
        ds.trajectories[1] = dataclasses.replace(ds.trajectories[1], logits=ds.trajectories[1].logits[:-1])
        with pytest.raises(InvalidConfigError, match="trajectory 1"):
            ds.pair_matrices()

    def test_action_out_of_range_rejected(self):
        ds = generate_dataset(_small_cfg(), b=2, n=5, seed=2)
        ds.trajectories[0].actions[2] = 4
        with pytest.raises(InvalidConfigError, match="action"):
            ds.pair_matrices()


class TestDatasetIntegrity:
    def test_dropped_trajectory_rejected(self, tmp_path):
        save_dataset(generate_dataset(_small_cfg(), b=4, n=5, seed=12), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        (tmp_path / manifest["trajectories"].pop()).unlink()
        manifest["sha256"].pop()
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(InvalidConfigError, match="expected B=4"):
            load_dataset(tmp_path)

    def test_flipped_byte_rejected(self, tmp_path):
        save_dataset(generate_dataset(_small_cfg(), b=4, n=5, seed=12), tmp_path)
        path = tmp_path / "traj_00002.bin"
        blob = bytearray(path.read_bytes())
        blob[40] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(InvalidConfigError, match="traj_00002.bin"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("field, value", [("version", 42), ("k", 99), ("b", 3), ("n", 7), ("seed", 12345)])
    def test_manifest_provenance_must_match_config(self, tmp_path, field, value):
        save_dataset(generate_dataset(_small_cfg(), b=4, n=5, seed=12), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest[field] = value
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(InvalidConfigError, match=f"manifest.json has {field} = {value}"):
            load_dataset(tmp_path)

    def test_format_version_1_rejected_for_its_stream_layout(self, tmp_path):
        save_dataset(generate_dataset(_small_cfg(), b=2, n=3, seed=12), tmp_path)
        for name in ("config.json", "manifest.json"):
            record = json.loads((tmp_path / name).read_text())
            record["version"] = 1
            (tmp_path / name).write_text(json.dumps(record))
        with pytest.raises(InvalidConfigError, match="stream layout"):
            load_dataset(tmp_path)


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
        p = mix_policy(rng.normal(size=(2, 7, 5)) * 2, 0.2).p
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
            p = mix_policy(rng.normal(size=6) * 2, 0.15).p
            f = fisher_matrix(p)
            assert np.abs(f @ np.ones(6)).max() < 1e-12
            assert np.linalg.eigvalsh(f).min() >= -1e-12

    def test_mixture_eigenvalue_window(self):
        """Restricted spectrum of mixture Fishers stays in [gamma/K, 1/2]."""
        rng = np.random.default_rng(1)
        gamma, k = 0.25, 5
        q = helmert_basis(k)
        for _ in range(500):
            p = mix_policy(rng.normal(size=k) * 3, gamma).p
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
