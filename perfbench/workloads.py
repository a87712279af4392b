"""The four benchmark workloads: their INI files, CLI stages and output checks.

Every dataset, experiment and question seed is derived from the workload
seed.  Teacher constants mirror the shipped presets but are written here, so
the benchmark does not change when a preset does.  The checks read only what
the CLI wrote, through the public loaders or plain CSV and JSON parsing; they
never parse `traj_*.bin` bytes.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

MATCHING_TEACHER = dict(k=10, c=1.0, gamma=0.2, lam=0.1, tau_w=1.0, sigma_xi=0.5)
SHOCK_TEACHER = dict(k=5, c=0.5, gamma=0.8, lam=0.1, tau_w=0.5, sigma_xi=0.1)
LEMMA_TEACHER = dict(k=5, c=0.5, gamma=0.5, lam=0.1, tau_w=1.0, sigma_xi=0.1)

MATCHING_B_TEST, MATCHING_N = 500, 30
SHOCK_B_TEST, SHOCK_N, SHOCK_S = 1000, 10, 2
LEMMA_SAMPLES = dict(spectrum_samples=10_000, lipschitz_samples=100_000, sandwich_draws=50)
ME_ICPO_QUESTIONS = 4
ME_ICPO_CALLS = {"candidates": 5, "summarize": 80, "entropy": 80, "final": 1}
GD_TOL = 1e-10
GD_MAX_ITERS = 200_000
OPERATOR_TOL = 1e-6


@dataclass
class Workload:
    configs: Callable[[int, str], dict[str, str]]  # (seed, endpoint) -> file name -> INI text
    stages: Callable[[Path, Path], list[tuple[str, list[str]]]]  # (config dir, out dir)
    check: Callable[[Path], list[str]]  # out dir -> problems found
    rounds: int  # closed-loop rounds stepped by one `experiment` call
    needs_backend: bool = False


def _seeds(workload: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


def _teacher_ini(t: dict) -> str:
    return (
        f"[teacher]\nk = {t['k']}\nc = {t['c']}\ngamma = {t['gamma']}\nlambda = {t['lam']}\n"
        f"tau_w = {t['tau_w']}\nsigma_xi = {t['sigma_xi']}\nh = identity\n"
    )


def _read_csv(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _operator_error(out: Path, teacher: dict) -> float:
    import numpy as np
    from icpo_lab.cli import load_params
    from icpo_lab.lsa import teacher_two_channel
    from icpo_lab.teacher import TeacherConfig

    trained = load_params(out / "params.bin")
    expert = teacher_two_channel(TeacherConfig(**teacher))
    return float(
        max(np.abs(trained.w_n - expert.w_n).max(), np.abs(trained.w_g - expert.w_g).max())
    )


def _pipeline(config: Path, out: Path, experiment_kind: str) -> list[tuple[str, list[str]]]:
    c = str(config / f"{experiment_kind}.ini")
    return [
        ("generate", ["generate", "--config", c, "--out", str(out)]),
        ("train", ["train", "--config", c, "--dataset", str(out / "dataset"), "--out", str(out)]),
        (
            "experiment",
            ["experiment", "--config", c, "--params", str(out / "params.bin"), "--out", str(out)],
        ),
    ]


# --- matching ---------------------------------------------------------------


def _matching_configs(seed: int, endpoint: str) -> dict[str, str]:
    ds_seed, ex_seed = _seeds("matching", seed, 2)
    return {
        "matching.ini": _teacher_ini(MATCHING_TEACHER)
        + f"\n[dataset]\nb = 1000\nn = 30\nseed = {ds_seed}\n"
        + "\n[training]\nsolver = ls\n"
        + f"\n[experiment]\nkind = matching\nb_test = {MATCHING_B_TEST}\nn = {MATCHING_N}\n"
        + f"seed = {ex_seed}\n"
    }


def _matching_check(out: Path) -> list[str]:
    problems = []
    err = _operator_error(out, MATCHING_TEACHER)
    if not err <= OPERATOR_TOL:
        problems.append(f"trained operators differ from the teacher's by {err:.3e}")
    rows = _read_csv(out / "matching.csv")
    if len(rows) != MATCHING_N:
        problems.append(f"matching.csv has {len(rows)} rounds, expected {MATCHING_N}")
    gap = max((float(r["mean"]) for r in rows), default=float("nan"))
    if not gap <= OPERATOR_TOL:
        problems.append(f"max mean policy gap {gap:.3e} exceeds {OPERATOR_TOL}")
    return problems


# --- shock ------------------------------------------------------------------


def _shock_configs(seed: int, endpoint: str) -> dict[str, str]:
    ds_seed, ex_seed = _seeds("shock", seed, 2)
    return {
        "shock.ini": _teacher_ini(SHOCK_TEACHER)
        + f"\n[dataset]\nb = 200\nn = 5\nseed = {ds_seed}\n"
        + f"\n[training]\nsolver = gd\nstep = auto\nmax_iters = {GD_MAX_ITERS}\ntol = {GD_TOL}\n"
        + f"\n[experiment]\nkind = shock\nb_test = {SHOCK_B_TEST}\nn = {SHOCK_N}\ns = {SHOCK_S}\n"
        + f"delta_r = 1.0\nc_b = auto\nseed = {ex_seed}\n"
    }


def _shock_check(out: Path) -> list[str]:
    problems = []
    log = _read_csv(out / "train_log.csv")
    final_grad = float(log[-1]["grad_norm"]) if log else float("nan")
    if not (final_grad <= GD_TOL and len(log) <= GD_MAX_ITERS):
        problems.append(f"gradient descent did not converge: {len(log)} rows, |grad| {final_grad:.3e}")
    err = _operator_error(out, SHOCK_TEACHER)
    if not err <= OPERATOR_TOL:
        problems.append(f"trained operators differ from the teacher's by {err:.3e}")
    rows = _read_csv(out / "shock.csv")
    if len(rows) != SHOCK_N:
        problems.append(f"shock.csv has {len(rows)} rounds, expected {SHOCK_N}")
    for row in rows:
        t, mean, bound = int(row["round"]), float(row["mean"]), float(row["bound"])
        if t < SHOCK_S and mean != 0.0:
            problems.append(f"pre-shock drift {mean!r} at round {t} is not exactly 0")
        if t >= SHOCK_S and not mean <= bound:
            problems.append(f"drift {mean:.3e} exceeds envelope {bound:.3e} at round {t}")
    return problems


# --- lemma suite ------------------------------------------------------------


def _lemma_configs(seed: int, endpoint: str) -> dict[str, str]:
    ds_seed, ex_seed = _seeds("lemma-suite", seed, 2)
    samples = "".join(f"{k} = {v}\n" for k, v in LEMMA_SAMPLES.items())
    return {
        "lemma-suite.ini": _teacher_ini(LEMMA_TEACHER)
        + f"\n[dataset]\nb = 200\nn = 8\nseed = {ds_seed}\n"
        + f"\n[experiment]\nkind = lemma-suite\nseed = {ex_seed}\n{samples}sandwich_scale = 0.3\n"
    }


def _lemma_stages(config: Path, out: Path) -> list[tuple[str, list[str]]]:
    return [("experiment", ["experiment", "--config", str(config / "lemma-suite.ini"), "--out", str(out)])]


def _lemma_check(out: Path) -> list[str]:
    report = json.loads((out / "lemma_suite.json").read_text())["report"]
    checks = report["checks"]
    expected = {
        "fisher_spectrum": LEMMA_SAMPLES["spectrum_samples"],
        "softmax_lipschitz": 3 * (LEMMA_SAMPLES["lipschitz_samples"] // 3),
        "kl_sandwich": LEMMA_SAMPLES["sandwich_draws"],
        "gradient_vs_fd": 100,
    }
    problems = [] if report["passed"] is True else ["lemma suite did not pass"]
    for name, samples in expected.items():
        got = checks.get(name, {}).get("samples")
        if got != samples:
            problems.append(f"{name} ran {got} samples, expected {samples}")
    return problems


# --- me-icpo ----------------------------------------------------------------


def _me_icpo_configs(seed: int, endpoint: str) -> dict[str, str]:
    rng = random.Random(f"me-icpo:{seed}")
    configs = {}
    for i in range(ME_ICPO_QUESTIONS):
        a, b = rng.randrange(2, 100), rng.randrange(2, 100)
        configs[f"q{i}.ini"] = (
            "[me-icpo]\ngenerator = http\n"
            f"endpoint = {endpoint}\nmodel = perfbench-fake\ntimeout = 30\nmax_retries = 3\n"
            "rounds = 5\nk = 16\nm = 16\nmode = numeric\n"
            f"question = What is {a} times {b}?\n"
        )
    return configs


def _me_icpo_stages(config: Path, out: Path) -> list[tuple[str, list[str]]]:
    return [
        ("me_icpo", ["me-icpo", "--config", str(config / f"q{i}.ini"), "--out", str(out / f"q{i}")])
        for i in range(ME_ICPO_QUESTIONS)
    ]


def _me_icpo_check(out: Path) -> list[str]:
    problems = []
    for i in range(ME_ICPO_QUESTIONS):
        q = out / f"q{i}"
        result = json.loads((q / "result.json").read_text())
        calls = {p: slot["calls"] for p, slot in result["accounting"]["by_purpose"].items()}
        if calls != ME_ICPO_CALLS or result["accounting"]["calls"] != sum(ME_ICPO_CALLS.values()):
            problems.append(f"q{i}: calls by purpose {calls}, expected {ME_ICPO_CALLS}")
        records = [json.loads(line) for line in (q / "trace.jsonl").read_text().splitlines()]
        if any(rec["skipped"] for rec in records):
            problems.append(f"q{i}: a refinement round was skipped")
        if result["final_answer"] is None:
            problems.append(f"q{i}: final answer is null")
    return problems


WORKLOADS = {
    "matching": Workload(
        _matching_configs,
        lambda c, o: _pipeline(c, o, "matching"),
        _matching_check,
        rounds=MATCHING_B_TEST * MATCHING_N,
    ),
    "shock": Workload(
        _shock_configs,
        lambda c, o: _pipeline(c, o, "shock"),
        _shock_check,
        rounds=2 * SHOCK_B_TEST * SHOCK_N,
    ),
    "lemma-suite": Workload(_lemma_configs, _lemma_stages, _lemma_check, rounds=0),
    "me-icpo": Workload(
        _me_icpo_configs, _me_icpo_stages, _me_icpo_check, rounds=0, needs_backend=True
    ),
}
