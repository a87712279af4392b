"""Command-line entry point: generate datasets, train, and run experiments.

Configs are INI files (sections of key = value pairs); unknown sections or
keys are rejected with the offending line number.  Every artifact written to
disk carries the exact config and seed that produced it, and contains no
timestamps, so reruns are byte-identical.

Parameter file format (version 1): an 8-byte little-endian header of two
uint32 fields (K, format version), followed by the count-channel operator
W_n and the reward-channel operator W_g, each K*K row-major float64.

CSV numbers are printed with 17 significant digits so float64 values
round-trip exactly.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import struct
import sys
from pathlib import Path

import numpy as np

from .analysis import run_lemma_suite
from .atomic import write_atomic
from .errors import IcpoError, InvalidConfigError
from .loop import matching_experiment, shock_experiment
from .lsa import TwoChannelParams
from .meicpo.generator import HttpGenerator, ScriptedGenerator, demo_generator
from .meicpo.loop import MeIcpoConfig, run_me_icpo, write_trace_jsonl
from .pretrain import (
    PretrainDataset,
    empirical_stats,
    generate_dataset,
    gradient,
    load_dataset,
    loss_quadratic,
    save_dataset,
    solve_ls,
    train_gd,
)
from .teacher import TeacherConfig

PARAMS_FORMAT_VERSION = 1

_ALLOWED_KEYS = {
    "teacher": {"k", "c", "gamma", "lambda", "tau_w", "sigma_xi", "h"},
    "dataset": {"b", "n", "seed"},
    "training": {"solver", "step", "max_iters", "tol"},
    "experiment": {
        "kind",
        "b_test",
        "n",
        "seed",
        "s",
        "delta_r",
        "c_b",
        "spectrum_samples",
        "lipschitz_samples",
        "sandwich_draws",
        "sandwich_scale",
    },
    "me-icpo": {
        "generator",
        "rounds",
        "k",
        "m",
        "temperature",
        "top_p",
        "entropy_temperature",
        "max_tokens",
        "lookahead_max_tokens",
        "summary_cap_tokens",
        "mode",
        "include_reward_tags",
        "selection",
        "final_vote",
        "question",
        "gold",
        "script",
        "endpoint",
        "model",
        "api_key_env",
        "timeout",
        "max_retries",
    },
    "output": {"dir"},
}


def _find_line(path: Path, section: str, key: str | None = None) -> int:
    """Best-effort line number of a section or key for error messages."""
    in_section = False
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if line.startswith("[") and line.endswith("]"):
            if key is None and line == f"[{section}]":
                return lineno
            in_section = line == f"[{section}]"
        elif key is not None and in_section:
            name = line.split("=", 1)[0].split(":", 1)[0].strip()
            if name == key:
                return lineno
    return 0


def load_config(path: str | Path) -> configparser.ConfigParser:
    path = Path(path)
    if not path.exists():
        raise InvalidConfigError(f"config file not found: {path}")
    # No interpolation: values may legitimately contain '%' (question text).
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";", "#"))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise InvalidConfigError(f"{path}: {exc}") from exc
    for section in parser.sections():
        if section not in _ALLOWED_KEYS:
            raise InvalidConfigError(
                f"{path}:{_find_line(path, section)}: unknown section [{section}]"
            )
        for key in parser[section]:
            if key not in _ALLOWED_KEYS[section]:
                raise InvalidConfigError(
                    f"{path}:{_find_line(path, section, key)}: unknown key '{key}' in [{section}]"
                )
    return parser


def teacher_from_config(parser: configparser.ConfigParser) -> TeacherConfig:
    if "teacher" not in parser:
        raise InvalidConfigError("config is missing the [teacher] section")
    sec = parser["teacher"]
    h_text = sec.get("h", "identity").strip()
    k = sec.getint("k")
    if h_text == "identity":
        h = None
    else:
        diag = np.array([float(x) for x in h_text.split(",")])
        if diag.size != k:
            raise InvalidConfigError(f"h needs {k} diagonal entries, got {diag.size}")
        h = np.diag(diag)
    return TeacherConfig(
        k=k,
        c=sec.getfloat("c", 1.0),
        gamma=sec.getfloat("gamma", 0.2),
        lam=sec.getfloat("lambda", 0.1),
        tau_w=sec.getfloat("tau_w", 1.0),
        sigma_xi=sec.getfloat("sigma_xi", 0.5),
        h=h,
    )


def save_params(tc: TwoChannelParams, path: str | Path) -> None:
    header = struct.pack("<II", tc.k, PARAMS_FORMAT_VERSION)
    body = np.concatenate([tc.w_n.ravel(), tc.w_g.ravel()]).astype("<f8").tobytes()
    write_atomic(path, header + body)


def load_params(path: str | Path) -> TwoChannelParams:
    blob = Path(path).read_bytes()
    if len(blob) < 8:
        raise InvalidConfigError(f"parameter file too short: {path}")
    k, version = struct.unpack("<II", blob[:8])
    if version != PARAMS_FORMAT_VERSION:
        raise InvalidConfigError(f"unsupported parameter format version {version}")
    flat = np.frombuffer(blob[8:], dtype="<f8")
    if flat.size != 2 * k * k:
        raise InvalidConfigError(f"expected {2 * k * k} floats for K={k}, got {flat.size}")
    return TwoChannelParams(
        w_n=flat[: k * k].reshape(k, k).copy(),
        w_g=flat[k * k :].reshape(k, k).copy(),
    )


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_csv(path: Path, header: str, rounds: np.ndarray, *columns: np.ndarray) -> None:
    rows = [",".join([str(r), *(_fmt(col[i]) for col in columns)]) for i, r in enumerate(rounds)]
    write_atomic(path, "\n".join([header, *rows]) + "\n")


def _write_json(payload: dict, path: Path) -> None:
    write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _out_dir(parser: configparser.ConfigParser, override: str | None) -> Path:
    if override:
        out = Path(override)
    elif "output" in parser and parser["output"].get("dir"):
        out = Path(parser["output"]["dir"])
    else:
        out = Path("out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_generate(args: argparse.Namespace) -> int:
    parser = load_config(args.config)
    cfg = teacher_from_config(parser)
    if "dataset" not in parser:
        raise InvalidConfigError("config is missing the [dataset] section")
    sec = parser["dataset"]
    b, n = sec.getint("b"), sec.getint("n")
    seed = args.seed_override if args.seed_override is not None else sec.getint("seed")
    ds = generate_dataset(cfg, b=b, n=n, seed=seed)
    out = _out_dir(parser, args.out) / "dataset"
    save_dataset(ds, out)
    print(f"wrote {ds.m} training pairs to {out}")
    return 0


def _train(parser: configparser.ConfigParser, ds: PretrainDataset, out: Path) -> Path:
    sec = parser["training"] if "training" in parser else {}
    solver = sec.get("solver", "ls")
    fs = empirical_stats(ds)
    log_lines = ["iteration,loss,grad_norm"]
    if solver == "ls":
        tc = solve_ls(fs)
        log_lines.append(f"0,{_fmt(loss_quadratic(tc, fs))},{_fmt(np.linalg.norm(gradient(tc, fs)))}")
    elif solver == "gd":
        step_text = str(sec.get("step", "auto"))
        step = None if step_text == "auto" else float(step_text)
        result = train_gd(
            fs,
            step=step,
            max_iters=int(sec.get("max_iters", 200_000)),
            tol=float(sec.get("tol", 1e-10)),
        )
        tc = result.params
        for i, (loss, gnorm) in enumerate(zip(result.losses, result.grad_norms)):
            log_lines.append(f"{i},{_fmt(loss)},{_fmt(gnorm)}")
    else:
        raise InvalidConfigError(f"unknown solver {solver!r}; expected 'ls' or 'gd'")
    params_path = out / "params.bin"
    save_params(tc, params_path)
    write_atomic(out / "train_log.csv", "\n".join(log_lines) + "\n")
    _write_json(
        {
            "teacher": ds.cfg.to_dict(),
            "dataset": {"b": ds.b, "n": ds.n, "seed": ds.seed},
            "training": dict(sec),
            "params_sha256": hashlib.sha256(params_path.read_bytes()).hexdigest(),
        },
        out / "params.json",
    )
    return params_path


def cmd_train(args: argparse.Namespace) -> int:
    parser = load_config(args.config)
    dataset_dir = Path(args.dataset)
    if not dataset_dir.exists():
        raise InvalidConfigError(f"dataset directory not found: {dataset_dir}")
    ds = load_dataset(dataset_dir)
    out = _out_dir(parser, args.out)
    params_path = _train(parser, ds, out)
    print(f"wrote {params_path}")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    parser = load_config(args.config)
    if "experiment" not in parser:
        raise InvalidConfigError("config is missing the [experiment] section")
    sec = parser["experiment"]
    kind = sec.get("kind")
    if kind not in ("lemma-suite", "matching", "shock"):
        raise InvalidConfigError(f"unknown experiment kind {kind!r}")
    out = _out_dir(parser, args.out)
    cfg = teacher_from_config(parser)
    seed = args.seed_override if args.seed_override is not None else sec.getint("seed", 0)
    sidecar = {"teacher": cfg.to_dict(), "experiment": dict(sec), "seed": seed}

    if kind == "lemma-suite":
        if "dataset" not in parser:
            raise InvalidConfigError("config is missing the [dataset] section")
        dsec = parser["dataset"]
        ds = generate_dataset(cfg, b=dsec.getint("b"), n=dsec.getint("n"), seed=dsec.getint("seed"))
        report = run_lemma_suite(
            ds,
            empirical_stats(ds),
            seed=seed,
            spectrum_samples=sec.getint("spectrum_samples", 10_000),
            lipschitz_samples=sec.getint("lipschitz_samples", 100_000),
            sandwich_draws=sec.getint("sandwich_draws", 50),
            sandwich_scale=sec.getfloat("sandwich_scale", 0.3),
        )
        sidecar["dataset"] = dict(dsec)
        _write_json({"config": sidecar, "report": report}, out / "lemma_suite.json")
        print(f"lemma suite {'passed' if report['passed'] else 'FAILED'}; wrote {out}")
        return 0 if report["passed"] else 1

    if args.params is None:
        raise InvalidConfigError(f"experiment kind {kind!r} needs --params")
    tc = load_params(args.params)
    if kind == "matching":
        report = matching_experiment(cfg, tc, b_test=sec.getint("b_test"), n=sec.getint("n"), seed=seed)
        _write_csv(out / "matching.csv", "round,mean,std", report.rounds, report.mean, report.std)
        _write_json(sidecar, out / "matching.json")
        print(f"max mean policy gap {report.mean.max():.3e}; wrote {out}")
        return 0
    c_b_text = sec.get("c_b", "auto")
    report = shock_experiment(
        cfg,
        tc,
        b_test=sec.getint("b_test"),
        n=sec.getint("n"),
        s=sec.getint("s"),
        delta_r=sec.getfloat("delta_r"),
        seed=seed,
        c_b_override=None if c_b_text == "auto" else float(c_b_text),
    )
    _write_csv(out / "shock.csv", "round,mean,std,bound", report.rounds, report.mean, report.std, report.bound)
    sidecar["a"] = report.a
    sidecar["b_min"] = float(report.b_values.min())
    sidecar["b_max"] = float(report.b_values.max())
    sidecar["b_mean"] = float(report.b_values.mean())
    _write_json(sidecar, out / "shock.json")
    print(f"post-shock peak {report.post_shock_max:.3e}; wrote {out}")
    return 0


def cmd_me_icpo(args: argparse.Namespace) -> int:
    parser = load_config(args.config)
    out = _out_dir(parser, args.out)
    if "me-icpo" not in parser:
        raise InvalidConfigError("config is missing the [me-icpo] section")
    sec = parser["me-icpo"]
    question = sec.get("question")
    if not question:
        raise InvalidConfigError("[me-icpo] needs a question")
    cfg = MeIcpoConfig(
        rounds=sec.getint("rounds", 5),
        k=sec.getint("k", 16),
        m=sec.getint("m", 16),
        temperature=sec.getfloat("temperature", 0.6),
        top_p=sec.getfloat("top_p", 0.95),
        entropy_temperature=sec.getfloat("entropy_temperature", 0.6),
        max_tokens=sec.getint("max_tokens", 1024),
        lookahead_max_tokens=sec.getint("lookahead_max_tokens", 256),
        summary_cap_tokens=sec.getint("summary_cap_tokens", 500),
        mode=sec.get("mode", "numeric"),
        include_reward_tags=sec.getboolean("include_reward_tags", True),
        selection=sec.get("selection", "entropy"),
        final_vote=sec.getboolean("final_vote", False),
    )
    backend = sec.get("generator", "mock")
    if backend == "mock":
        script_path = sec.get("script", "")
        if script_path:
            script = json.loads(Path(script_path).read_text())
            generator = ScriptedGenerator(script)
        else:
            generator = demo_generator()
    elif backend == "http":
        endpoint = sec.get("endpoint")
        model = sec.get("model")
        if not endpoint or not model:
            raise InvalidConfigError("http generator needs endpoint and model")
        generator = HttpGenerator(
            endpoint=endpoint,
            model=model,
            api_key_env=sec.get("api_key_env", "ICPO_API_KEY"),
            timeout=sec.getfloat("timeout", 120.0),
            max_retries=sec.getint("max_retries", 3),
        )
    else:
        raise InvalidConfigError(f"unknown generator {backend!r}; expected 'mock' or 'http'")

    result = run_me_icpo(question, cfg, generator)
    payload = {
        "question": question,
        "final_answer": result.final_answer,
        "final_text": result.final_text,
        "history_pairs": list(result.history.pairs),
        "accounting": result.accounting.to_dict(),
        "config": dict(sec),
    }
    gold = sec.get("gold", "")
    if gold:
        from .meicpo.answers import canonicalize

        payload["gold"] = gold
        payload["correct"] = canonicalize(gold, cfg.mode) == result.final_answer
    _write_json(payload, out / "result.json")
    write_trace_jsonl(result, out / "trace.jsonl")
    print(f"final answer: {result.final_answer}; wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icpo-lab",
        description="Generate expert rollouts, train the attention student, and run experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate and persist a pretraining dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed-override", type=int, default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="fit the two-channel operators on a dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("experiment", help="run matching / shock / lemma-suite")
    p.add_argument("--config", required=True)
    p.add_argument("--params", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--seed-override", type=int, default=None)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("me-icpo", help="run the refinement loop on one question")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_me_icpo)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (IcpoError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
