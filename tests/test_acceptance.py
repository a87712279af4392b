"""Acceptance gate: every shipped guarantee at its stated tolerance.

Each test exercises one criterion end to end on fresh objects, enforces the
stated numeric tolerance and runtime budget, and prints one pass/fail line
(run pytest with -s to see them inline).
"""

import math
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from icpo_lab.bandit import CrnStream, History, coupled_sample, draw_reward, sample_task
from icpo_lab.analysis import (
    gradient_fd_relative_error,
    kl_sandwich_check,
    pl_constant,
    run_lemma_suite,
    sigma_min_restricted,
)
from icpo_lab.cli import main
from icpo_lab.lsa import (
    LsaParams,
    TwoChannelParams,
    build_embedding,
    closed_form_logits,
    extract_two_channel,
    lsa_forward,
    project,
    teacher_two_channel,
    two_channel_logits,
)
from icpo_lab.loop import (
    matching_experiment,
    rollout,
    sample_b_distribution,
    shock_experiment,
)
from icpo_lab.meicpo.answers import canonicalize, majority_vote
from icpo_lab.meicpo.generator import FunctionGenerator
from icpo_lab.meicpo.loop import MeIcpoConfig, run_me_icpo
from icpo_lab.meicpo.metrics import compute_metrics
from icpo_lab.meicpo.prompts import system_prompt
from icpo_lab.pretrain import (
    empirical_stats,
    generate_dataset,
    loss_quadratic,
    solve_ls,
    train_gd,
)
from icpo_lab.teacher import TeacherConfig, mix_policy, teacher_logits

PRESETS = Path(__file__).resolve().parent.parent / "presets"


def _report(name: str, passed: bool, detail: str) -> None:
    print(f"[ACCEPTANCE] {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{name}: {detail}"


def _scalar_expert_rollout(w, cfg, t_max, stream):
    """The expert's closed loop one round at a time on a History: the oracle."""
    history = History(cfg.k)
    uniforms, noise = stream.uniforms(t_max), stream.normals(t_max)
    policies, actions = [], []
    for t in range(t_max):
        p = mix_policy(teacher_logits(history, cfg), cfg.gamma)
        action = coupled_sample(p, uniforms[t])
        history.append(action, draw_reward(w, action, noise[t], cfg.sigma_xi))
        policies.append(p)
        actions.append(action)
    return np.array(policies), np.array(actions)


def _random_history(rng, k, t):
    h = History(k)
    for _ in range(t):
        h.append(int(rng.integers(k)), float(rng.normal()))
    return h


def _matching_cfg():
    return TeacherConfig(k=10, c=1.0, gamma=0.2, lam=0.1, tau_w=1.0, sigma_xi=0.5)


def _shock_cfg(lam=0.1):
    return TeacherConfig(k=5, c=0.5, gamma=0.8, lam=lam, tau_w=0.5, sigma_xi=0.1)


class TestCriterion1ClosedForm:
    def test_forward_pass_equals_closed_form(self):
        """Raw attention output and the query-column closed form agree to 1e-10."""
        rng = np.random.default_rng(1001)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(1000):
            k = int(rng.choice([2, 5, 10]))
            t = int(rng.integers(1, 51))
            h = _random_history(rng, k, t)
            params = LsaParams(
                w_pv=0.5 * rng.normal(size=(k + 1, k + 1)),
                w_kq=0.5 * rng.normal(size=(k + 1, k + 1)),
            )
            via_forward = lsa_forward(build_embedding(h), params, rho=t)[:k, t]
            worst = max(worst, float(np.abs(via_forward - closed_form_logits(h, params)).max()))
        elapsed = time.perf_counter() - start
        _report(
            "1 closed-form equivalence",
            worst <= 1e-10 and elapsed < 10.0,
            f"max abs diff {worst:.3e}, {elapsed:.1f}s over 1000 instances",
        )


class TestCriterion2TwoChannel:
    def test_projected_logits_equal_channel_form(self):
        """Under exact-decomposition weights the channel form matches to 1e-10."""
        rng = np.random.default_rng(1002)
        worst = 0.0
        for _ in range(1000):
            k = int(rng.choice([2, 5, 10]))
            t = int(rng.integers(1, 51))
            h = _random_history(rng, k, t)
            w_pv = 0.5 * rng.normal(size=(k + 1, k + 1))
            w_kq = 0.5 * rng.normal(size=(k + 1, k + 1))
            w_pv[:k, k] = 0.5 * rng.normal()
            if rng.random() < 0.5:
                w_kq[:k, :k] -= w_kq[:k, :k].sum() / k**2
            else:
                v = w_pv[:k, :k] @ np.ones(k)
                w_pv[:k, :k] -= np.outer(v - v.mean(), np.ones(k)) / k
            params = LsaParams(w_pv=w_pv, w_kq=w_kq)
            got = two_channel_logits(h, extract_two_channel(params))
            want = project(closed_form_logits(h, params))
            worst = max(worst, float(np.abs(got - want).max()))
        _report("2 two-channel equivalence", worst <= 1e-10, f"max abs diff {worst:.3e}")


class TestCriterion3PopulationEquivalence:
    def test_expert_channels_reproduce_expert_in_closed_loop(self):
        """Student with c*Proj[V U] matches the expert policy at every round."""
        rng = np.random.default_rng(1003)
        start = time.perf_counter()
        worst = 0.0
        for trial in range(100):
            k = int(rng.choice([2, 5, 10]))
            if trial % 3 == 0:
                a = rng.normal(size=(k, k))
                h_mat = a @ a.T + 0.5 * np.eye(k)
            else:
                h_mat = None
            cfg = TeacherConfig(
                k=k,
                c=float(rng.uniform(0.2, 2.0)),
                gamma=float(rng.uniform(0.05, 0.9)),
                lam=float(rng.uniform(0.0, 1.0)),
                tau_w=float(rng.uniform(0.3, 1.5)),
                sigma_xi=float(rng.uniform(0.0, 0.7)),
                h=h_mat,
            )
            tc = teacher_two_channel(cfg)
            stream = CrnStream(9000 + trial, 0)
            w = sample_task(stream, k, cfg.tau_w)
            student = rollout(tc, w, cfg, 20, CrnStream(9000 + trial, 0))
            expert_policies, expert_actions = _scalar_expert_rollout(w, cfg, 20, CrnStream(9000 + trial, 0))
            assert np.array_equal(student.actions, expert_actions)
            worst = max(worst, float(np.abs(student.policies - expert_policies).max()))
        elapsed = time.perf_counter() - start
        _report(
            "3 population equivalence",
            worst <= 1e-10 and elapsed < 30.0,
            f"sup policy gap {worst:.3e}, {elapsed:.1f}s over 100 tasks/configs",
        )


class TestCriterion4FiniteSampleRecovery:
    def test_least_squares_recovers_expert_and_matching_gap_vanishes(self):
        cfg = _matching_cfg()
        start = time.perf_counter()
        ds = generate_dataset(cfg, b=100, n=30, seed=123)
        assert ds.m == 2900
        student = solve_ls(empirical_stats(ds))
        recovery = float(np.linalg.norm(student.stacked - teacher_two_channel(cfg).stacked))
        report = matching_experiment(cfg, student, b_test=64, n=30, seed=777)
        max_gap = float(report.mean.max())
        elapsed = time.perf_counter() - start
        _report(
            "4 finite-sample recovery",
            recovery <= 1e-6 and max_gap <= 1e-6 and elapsed < 120.0,
            f"recovery {recovery:.3e}, max mean gap {max_gap:.3e}, {elapsed:.1f}s",
        )


class TestCriterion5ShockStability:
    def test_drift_is_zero_then_bounded_then_decaying(self):
        start = time.perf_counter()
        cfg = _shock_cfg(lam=0.1)
        train = generate_dataset(cfg, b=200, n=5, seed=42)
        student = solve_ls(empirical_stats(train))
        report = shock_experiment(cfg, student, b_test=256, n=10, s=2, delta_r=1.0, seed=2024)

        pre_shock_zero = bool(np.all(report.mean[: report.s - 1] == 0.0))
        final_below_peak = report.mean[-1] < report.post_shock_max
        below_bound = bool(np.all(report.mean[report.s - 1 :] <= report.bound[report.s - 1 :]))

        overlap_lams = []
        for lam in (0.0, 0.25, 0.5, 1.0):
            bs = sample_b_distribution(_shock_cfg(lam=lam), 256, seed=2024)
            if np.any((bs >= 0.1236) & (bs <= 0.2127)):
                overlap_lams.append(lam)
        elapsed = time.perf_counter() - start

        _report(
            "5a pre-shock drift exactly zero",
            pre_shock_zero,
            f"rounds < {report.s} max {report.mean[: report.s - 1].max() if report.s > 1 else 0.0}",
        )
        _report(
            "5b post-shock decay",
            bool(final_below_peak),
            f"final {report.mean[-1]:.3e} < peak {report.post_shock_max:.3e}",
        )
        _report(
            "5c empirical below analytic envelope",
            below_bound,
            f"min margin {(report.bound - report.mean)[report.s - 1:].min():.3e}",
        )
        _report(
            "5d envelope exponent range overlap",
            len(overlap_lams) >= 1,
            f"overlapping penalty values {overlap_lams}",
        )
        assert elapsed < 120.0


class TestCriterion6LemmaSuite:
    def test_randomized_suite_all_hold(self):
        start = time.perf_counter()
        margin_cfg = TeacherConfig(k=5, c=0.5, gamma=0.5, lam=0.1, tau_w=1.0, sigma_xi=0.1)
        margin_ds = generate_dataset(margin_cfg, b=200, n=8, seed=7)
        fs = empirical_stats(margin_ds)
        report = run_lemma_suite(
            margin_ds,
            seed=0,
            spectrum_samples=10_000,
            lipschitz_samples=99_999,
            sandwich_draws=50,
        )
        # The sandwich sweep also runs on the reference matching dataset.
        cfg = _matching_cfg()
        ds = generate_dataset(cfg, b=100, n=30, seed=123)
        stats = empirical_stats(ds)
        z, y, _ = ds.pair_matrices()
        rng = np.random.default_rng(1006)
        sandwich_ok = True
        for _ in range(50):
            tc = TwoChannelParams(
                w_n=0.3 * rng.normal(size=(10, 10)),
                w_g=0.3 * rng.normal(size=(10, 10)),
            )
            sample = kl_sandwich_check(tc, z, y, stats.gamma_hat, cfg.gamma)
            sandwich_ok = sandwich_ok and sample.lower_slack >= -1e-10 and sample.upper_slack >= -1e-10
        restricted_pd = sigma_min_restricted(fs.sigma_bar)
        grad_rel = gradient_fd_relative_error(
            TwoChannelParams(w_n=rng.normal(size=(5, 5)), w_g=rng.normal(size=(5, 5))), fs
        )
        elapsed = time.perf_counter() - start
        _report(
            "6 lemma suite",
            report["passed"] and sandwich_ok and restricted_pd > 0 and grad_rel <= 1e-6 and elapsed < 60.0,
            f"worst slack {min(c['worst_slack'] for c in report['checks'].values()):.3e}, "
            f"restricted PD {restricted_pd:.3e}, grad rel {grad_rel:.3e}, {elapsed:.1f}s",
        )


class TestCriterion7Convergence:
    def test_gradient_descent_rate_matches_pl_prediction(self):
        cfg = TeacherConfig(k=5, c=1.0, gamma=0.5, lam=0.1, tau_w=1.0, sigma_xi=0.3)
        ds = generate_dataset(cfg, b=200, n=8, seed=31)
        fs = empirical_stats(ds)
        result = train_gd(fs, tol=1e-12)
        floor = loss_quadratic(solve_ls(fs), fs)
        excess = result.losses - floor
        monotone = bool(np.all(np.diff(result.losses) <= 1e-14))
        reached = excess[-1] <= 1e-8
        mask = excess > 1e-12
        iters = np.arange(len(excess))[mask]
        slope = np.polyfit(iters, np.log(excess[mask]), 1)[0]
        predicted = 2.0 * pl_constant(fs.gamma_hat, fs.sigma_bar) * result.step
        rate_ok = -slope >= 0.5 * predicted
        _report(
            "7 convergence",
            monotone and bool(reached) and bool(rate_ok),
            f"final excess {excess[-1]:.2e}, fitted rate {-slope:.3e} vs 0.5x prediction "
            f"{0.5 * predicted:.3e} over {len(excess) - 1} iterations",
        )


class TestCriterion8MeIcpoLoop:
    def test_vote_rewards_match_brute_force(self):
        rng = np.random.default_rng(1008)
        pool = ["1", "2", "2.0", "3", "4", None]
        checked = 0
        for _ in range(500):
            answers = [pool[i] for i in rng.integers(0, len(pool), size=int(rng.integers(1, 10)))]
            if all(a is None for a in answers):
                continue
            vote = majority_vote(answers, "numeric")
            counts = Counter(canonicalize(a, "numeric") for a in answers if a is not None)
            top = max(counts.values())
            assert vote.answer == sorted(a for a, c in counts.items() if c == top)[0]
            assert vote.rewards == [
                int(a is not None and canonicalize(a, "numeric") == vote.answer) for a in answers
            ]
            checked += 1
        _report("8a majority-vote brute force", checked > 400, f"{checked} random vote sets")

    def test_committed_candidate_is_entropy_argmin(self):
        def respond(req):
            text = "\n".join(m.text for m in req.messages)
            if text.startswith("Provide a concise summary"):
                for j in range(4):
                    if f"CAND{j}" in text:
                        return [f"summary-{j}"]
            if req.temperature == 0.0:
                return ["final boxed{0}"]
            for j, distinct in {0: 4, 1: 2, 2: 1, 3: 2}.items():
                if f"summary-{j}" in text:
                    return [f"boxed{{{i % distinct}}}" for i in range(req.n)]
            return [f"CAND{j} boxed{{7}}" for j in range(req.n)]

        result = run_me_icpo(
            "Q?", MeIcpoConfig(rounds=1, k=4, m=4, mode="numeric"), FunctionGenerator(respond)
        )
        candidates = result.rounds[0].candidates
        entropies = [c.entropy for c in candidates]
        selected = [j for j, c in enumerate(candidates) if c.selected]
        ok = selected == [2] and entropies[2] == min(entropies) == 0.0
        _report("8b minimum-entropy selection", ok, f"entropies {np.round(entropies, 3).tolist()}")

    def test_history_grows_once_per_effective_round(self):
        def respond(req):
            text = "\n".join(m.text for m in req.messages)
            if text.startswith("Provide a concise summary"):
                return ["an idea"]
            if req.temperature == 0.0:
                return ["final boxed{1}"]
            if req.n == 3:  # candidate sampling; second round yields no answers
                if "an idea" in text:
                    return ["nothing here", "no answer", "still none"]
                return ["c boxed{1}", "c boxed{1}", "c boxed{2}"]
            return ["boxed{1}"] * req.n

        result = run_me_icpo(
            "Q?", MeIcpoConfig(rounds=2, k=3, m=2, mode="numeric"), FunctionGenerator(respond)
        )
        grew = len(result.history.pairs)
        skipped = [r.round_index for r in result.rounds if r.skipped]
        _report(
            "8c history growth with skip logging",
            grew == 1 and skipped == [2],
            f"pairs {grew}, skipped rounds {skipped}",
        )

    def test_metrics_match_enumeration_oracle(self):
        answers = [["3", None, "3", "4"], ["1", "2", "2", "2"]]
        golds = ["3", "2"]
        m = compute_metrics(answers, golds, mode="numeric", tie_seed=5)
        # Enumerated by hand: per-sample correctness (1,0,1,0) and (0,1,1,1).
        ok = (
            m.mean_at_k == pytest.approx((0.5 + 0.75) / 2)
            and m.accuracy == pytest.approx(0.5)
            and m.maj_at_k == 1.0
            and m.ties == 0
        )
        tie = compute_metrics([["5", "5", "6", "6"]], ["5"], mode="numeric", tie_seed=0)
        rates = [
            compute_metrics([["5", "5", "6", "6"]], ["5"], mode="numeric", tie_seed=s).maj_at_k
            for s in range(400)
        ]
        ok = ok and tie.ties == 1 and abs(float(np.mean(rates)) - 0.5) < 0.075
        _report("8d metrics enumeration oracle", bool(ok), f"tie rate {float(np.mean(rates)):.3f}")

    def test_ablation_flags_produce_structural_variants(self):
        def respond(req):
            text = "\n".join(m.text for m in req.messages)
            if text.startswith("Provide a concise summary"):
                return ["idea"]
            if req.temperature == 0.0:
                return ["final boxed{1}"]
            return [f"c{j} boxed{{{1 if j < 2 else 2}}}" for j in range(req.n)]

        # Variant 1: no reward tags anywhere in any prompt.
        gen = FunctionGenerator(respond)
        run_me_icpo(
            "Q?",
            MeIcpoConfig(rounds=2, k=3, m=2, mode="numeric", include_reward_tags=False),
            gen,
        )
        no_reward_ok = all("reward" not in m.text for r in gen.requests for m in r.messages)

        # Variant 2: reward-greedy selection, no lookahead calls at all.
        gen2 = FunctionGenerator(respond)
        result = run_me_icpo(
            "Q?", MeIcpoConfig(rounds=1, k=3, m=2, mode="numeric", selection="reward"), gen2
        )
        reward_greedy_ok = (
            result.rounds[0].candidates[0].selected
            and all(c.entropy is None for c in result.rounds[0].candidates)
            and result.accounting.by_purpose.get("entropy", {"calls": 0})["calls"] == 0
        )
        default_system = system_prompt("numeric")
        untagged_system = system_prompt("numeric", include_rewards=False)
        _report(
            "8e ablation variants",
            no_reward_ok and reward_greedy_ok and "reward" not in untagged_system and "reward" in default_system,
            "w/o-reward prompts untagged; w/o-entropy selects by reward with zero lookahead calls",
        )


class TestCriterion9Reproducibility:
    def _run_pipeline(self, preset: str, out: Path, needs_params: bool) -> None:
        config = str(PRESETS / preset)
        if needs_params:
            assert main(["generate", "--config", config, "--out", str(out)]) == 0
            assert main(["train", "--config", config, "--dataset", str(out / "dataset"), "--out", str(out)]) == 0
            assert (
                main(
                    ["experiment", "--config", config, "--params", str(out / "params.bin"), "--out", str(out)]
                )
                == 0
            )
        else:
            assert main(["experiment", "--config", config, "--out", str(out)]) == 0

    @pytest.mark.parametrize(
        "preset,artifact,needs_params",
        [
            ("matching.ini", "matching.csv", True),
            ("shock.ini", "shock.csv", True),
            ("lemma_suite.ini", "lemma_suite.json", False),
        ],
    )
    def test_rerun_is_byte_identical(self, tmp_path, preset, artifact, needs_params):
        self._run_pipeline(preset, tmp_path / "first", needs_params)
        self._run_pipeline(preset, tmp_path / "second", needs_params)
        first = (tmp_path / "first" / artifact).read_bytes()
        second = (tmp_path / "second" / artifact).read_bytes()
        _report(
            f"9 reproducibility ({preset})",
            first == second,
            f"{artifact}: {len(first)} bytes, identical across reruns",
        )
