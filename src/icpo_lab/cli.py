"""Command-line entry point: generate datasets, train, and run experiments.

Configs are INI files (sections of key = value pairs).  `_KEYS` names each
section's keys and the type of each; an unknown section or key, or a value
that does not parse as its type, is rejected at load with the offending line
number.  Defaults and ranges belong to the code each value is passed to.
Every artifact written to disk carries the exact config and seed that
produced it, and contains no timestamps, so reruns are byte-identical.
`train` writes one parameter file whose header records the teacher, the
dataset and the training section (`pretrain.save_params`); `experiment`
rejects one trained for another [teacher].

CSV numbers are printed with 17 significant digits so float64 values
round-trip exactly.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .analysis import run_lemma_suite
from .atomic import write_atomic
from .errors import IcpoError, InvalidConfigError
from .loop import matching_experiment, shock_experiment
from .meicpo.generator import HttpGenerator, ScriptedGenerator, demo_generator
from .meicpo.loop import MeIcpoConfig, run_me_icpo, write_trace_jsonl
from .pretrain import (
    PretrainDataset,
    empirical_stats,
    generate_dataset,
    gradient,
    load_dataset,
    load_params,
    loss_quadratic,
    save_dataset,
    save_params,
    solve_ls,
    train_gd,
)
from .teacher import TeacherConfig


def _boolean(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(text) from None


def _float_or_auto(text: str) -> float | None:
    """A float, or None for `auto`: the callee then derives the value."""
    return None if text == "auto" else float(text)


# Every key each section accepts, and the converter of its value.  No defaults
# and no ranges: a command passes on only the keys the file sets, so both stay
# with the constructor or function that takes them.
_KEYS = {
    "teacher": {"k": int, "c": float, "gamma": float, "lambda": float, "tau_w": float, "sigma_xi": float, "h": str},
    "dataset": {"b": int, "n": int, "seed": int},
    "training": {"solver": str, "step": _float_or_auto, "max_iters": int, "tol": float},
    "experiment": {
        "kind": str, "b_test": int, "n": int, "seed": int, "s": int, "delta_r": float, "c_b": _float_or_auto,
        "spectrum_samples": int, "lipschitz_samples": int, "sandwich_draws": int, "sandwich_scale": float,
    },
    "me-icpo": {
        "generator": str, "rounds": int, "k": int, "m": int, "temperature": float, "top_p": float,
        "entropy_temperature": float, "max_tokens": int, "lookahead_max_tokens": int, "summary_cap_tokens": int,
        "mode": str, "include_reward_tags": _boolean, "selection": str, "final_vote": _boolean,
        "question": str, "gold": str, "script": str,
        "endpoint": str, "model": str, "api_key_env": str, "timeout": float, "max_retries": int,
    },
    "output": {"dir": str},
}
_TYPE_NAMES = {int: "an int", float: "a float", _float_or_auto: "a float", _boolean: "a boolean"}


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


def _pick(sec: dict, *names: str) -> dict:
    """The keys among `names` that `sec` sets, as keyword arguments."""
    return {name: sec[name] for name in names if name in sec}


class Config:
    """A loaded config: each section's values as written (`raw`) and as converted (`values`)."""

    def __init__(self, path: Path, raw: dict[str, dict[str, str]]):
        self.path = path
        self.raw = raw  # what the sidecars embed, so it is never rewritten
        self.values = {
            name: {key: self._convert(name, key, text) for key, text in sec.items()} for name, sec in raw.items()
        }

    def _convert(self, section: str, key: str, text: str):
        convert = _KEYS[section][key]
        try:
            return convert(text)
        except ValueError:
            raise self.invalid(section, key, text, f"is not {_TYPE_NAMES[convert]}") from None

    def _where(self, section: str, key: str | None = None) -> str:
        return f"{self.path}:{_find_line(self.path, section, key)}: [{section}]"

    def invalid(self, section: str, key: str, text: str, problem: str) -> InvalidConfigError:
        return InvalidConfigError(f"{self._where(section, key)} {key} = {text!r} {problem}")

    def require(self, section: str, *keys: str) -> dict:
        """The converted [section], which must exist and set each key in `keys` to a non-empty value."""
        if section not in self.values:
            raise InvalidConfigError(f"{self.path}: config is missing the [{section}] section")
        if missing := [key for key in keys if self.values[section].get(key) in (None, "")]:
            raise InvalidConfigError(f"{self._where(section)} is missing required key(s): {', '.join(missing)}")
        return self.values[section]

    def build(self, section: str, factory, *args, **kwargs):
        """`factory(*args, **kwargs)`; a range error it raises names the file and the [section] line."""
        try:
            return factory(*args, **kwargs)
        except InvalidConfigError as exc:
            raise InvalidConfigError(f"{self._where(section)} {exc}") from None


def load_config(path: str | Path) -> Config:
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
        if section not in _KEYS:
            raise InvalidConfigError(f"{path}:{_find_line(path, section)}: unknown section [{section}]")
        for key in parser[section]:
            if key not in _KEYS[section]:
                raise InvalidConfigError(f"{path}:{_find_line(path, section, key)}: unknown key '{key}' in [{section}]")
    return Config(path, {name: dict(parser[name]) for name in parser.sections()})


def teacher_from_config(config: Config) -> TeacherConfig:
    sec = config.require("teacher", "k")
    kwargs = {("lam" if key == "lambda" else key): value for key, value in sec.items()}
    if kwargs.get("h") == "identity":
        del kwargs["h"]
    elif "h" in kwargs:
        try:
            diag = [float(x) for x in sec["h"].split(",")]
        except ValueError:
            diag = []
        if len(diag) != sec["k"] or not np.all(np.isfinite(diag)):
            problem = f"is not 'identity' or {sec['k']} comma-separated finite floats"
            raise config.invalid("teacher", "h", sec["h"], problem)
        kwargs["h"] = np.diag(diag)
    return config.build("teacher", TeacherConfig, **kwargs)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_csv(path: Path, header: str, rounds: np.ndarray, *columns: np.ndarray) -> None:
    rows = [",".join([str(r), *(_fmt(col[i]) for col in columns)]) for i, r in enumerate(rounds)]
    write_atomic(path, "\n".join([header, *rows]) + "\n")


def _write_json(payload: dict, path: Path) -> None:
    write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _out_dir(config: Config, override: str | None) -> Path:
    out = Path(override or config.raw.get("output", {}).get("dir") or "out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_generate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    cfg = teacher_from_config(config)
    sec = config.require("dataset", "b", "n", *(("seed",) if args.seed_override is None else ()))
    seed = args.seed_override if args.seed_override is not None else sec["seed"]
    ds = config.build("dataset", generate_dataset, cfg, b=sec["b"], n=sec["n"], seed=seed)
    out = _out_dir(config, args.out) / "dataset"
    save_dataset(ds, out)
    print(f"wrote {ds.m} training pairs to {out}")
    return 0


def _train(config: Config, ds: PretrainDataset, out: Path) -> Path:
    sec = config.values.get("training", {})
    solver = sec.get("solver", "ls")
    fs = empirical_stats(ds)
    log_lines = ["iteration,loss,grad_norm"]
    if solver == "ls":
        tc = solve_ls(fs)
        log_lines.append(f"0,{_fmt(loss_quadratic(tc, fs))},{_fmt(np.linalg.norm(gradient(tc, fs)))}")
    elif solver == "gd":
        result = config.build("training", train_gd, fs, **_pick(sec, "step", "max_iters", "tol"))
        tc = result.params
        for i, (loss, gnorm) in enumerate(zip(result.losses, result.grad_norms)):
            log_lines.append(f"{i},{_fmt(loss)},{_fmt(gnorm)}")
    else:
        raise config.invalid("training", "solver", solver, "is not 'ls' or 'gd'")
    params_path = out / "params.bin"
    save_params(tc, params_path, ds, config.raw.get("training", {}))
    (out / "params.json").unlink(missing_ok=True)  # an earlier version's sidecar, which no longer matches
    write_atomic(out / "train_log.csv", "\n".join(log_lines) + "\n")
    return params_path


def cmd_train(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    ds = load_dataset(args.dataset)
    out = _out_dir(config, args.out)
    params_path = _train(config, ds, out)
    print(f"wrote {params_path}")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    sec = config.require("experiment", "kind")
    kind = sec["kind"]
    if kind not in ("lemma-suite", "matching", "shock"):
        raise config.invalid("experiment", "kind", kind, "is not 'lemma-suite', 'matching' or 'shock'")
    out = _out_dir(config, args.out)
    cfg = teacher_from_config(config)
    seed = args.seed_override if args.seed_override is not None else sec.get("seed", 0)
    sidecar = {"teacher": cfg.to_dict(), "experiment": config.raw["experiment"], "seed": seed}

    if kind == "lemma-suite":
        dsec = config.require("dataset", "b", "n", "seed")
        ds = config.build("dataset", generate_dataset, cfg, **dsec)
        checks = _pick(sec, "spectrum_samples", "lipschitz_samples", "sandwich_draws", "sandwich_scale")
        report = config.build("experiment", run_lemma_suite, ds, seed=seed, **checks)
        sidecar["dataset"] = config.raw["dataset"]
        _write_json({"config": sidecar, "report": report}, out / "lemma_suite.json")
        print(f"lemma suite {'passed' if report['passed'] else 'FAILED'}; wrote {out}")
        return 0 if report["passed"] else 1

    config.require("experiment", "b_test", "n", *(("s", "delta_r") if kind == "shock" else ()))
    if args.params is None:
        raise InvalidConfigError(f"experiment kind {kind!r} needs --params")
    tc = load_params(args.params, cfg)
    if kind == "matching":
        report = config.build("experiment", matching_experiment, cfg, tc, seed=seed, **_pick(sec, "b_test", "n"))
        _write_csv(out / "matching.csv", "round,mean,std", report.rounds, report.mean, report.std)
        _write_json(sidecar, out / "matching.json")
        print(f"max mean policy gap {report.mean.max():.3e}; wrote {out}")
        return 0
    shock = _pick(sec, "b_test", "n", "s", "delta_r")
    report = config.build("experiment", shock_experiment, cfg, tc, seed=seed, c_b_override=sec.get("c_b"), **shock)
    _write_csv(out / "shock.csv", "round,mean,std,bound", report.rounds, report.mean, report.std, report.bound)
    sidecar["a"] = report.a
    sidecar["b_min"] = float(report.b_values.min())
    sidecar["b_max"] = float(report.b_values.max())
    sidecar["b_mean"] = float(report.b_values.mean())
    _write_json(sidecar, out / "shock.json")
    print(f"post-shock peak {report.post_shock_max:.3e}; wrote {out}")
    return 0


def cmd_me_icpo(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    out = _out_dir(config, args.out)
    sec = config.require("me-icpo", "question")
    question = sec["question"]
    loop_keys = [f.name for f in dataclasses.fields(MeIcpoConfig)]
    cfg = config.build("me-icpo", MeIcpoConfig, **_pick(sec, *loop_keys))
    backend = sec.get("generator", "mock")
    if backend == "mock":
        script_path = sec.get("script")
        if script_path:
            try:
                generator = ScriptedGenerator(json.loads(Path(script_path).read_text()))
            except (ValueError, InvalidConfigError) as exc:
                raise InvalidConfigError(f"{script_path}: {exc}") from None
        else:
            generator = demo_generator()
    elif backend == "http":
        config.require("me-icpo", "endpoint", "model")
        http_keys = ("endpoint", "model", "api_key_env", "timeout", "max_retries")
        generator = config.build("me-icpo", HttpGenerator, **_pick(sec, *http_keys))
    else:
        raise config.invalid("me-icpo", "generator", backend, "is not 'mock' or 'http'")

    try:
        result = run_me_icpo(question, cfg, generator)
    finally:
        generator.close()
    payload = {
        "question": question,
        "final_answer": result.final_answer,
        "final_text": result.final_text,
        "history_pairs": list(result.history.pairs),
        "accounting": result.accounting.to_dict(),
        "config": config.raw["me-icpo"],
    }
    if gold := sec.get("gold"):
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
