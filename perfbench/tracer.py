"""Outside-in layer trace: spans around calls into each module's public functions.

Nothing under `src/` changes.  `Tracer.install` replaces each target function
at every name an `icpo_lab` module binds it to (so both
`icpo_lab.pretrain.coupled_sample` and `icpo_lab.loop.coupled_sample` are
traced), and class attributes on the class itself.  A target that a later
version no longer has is reported as absent and simply records no calls.

A per-thread span stack gives each span its parent, so a span's self time is
its duration minus its children's.  Stage-level spans are kept one by one;
per-round primitive spans are aggregated in memory into count, total and self
time per (parent, name).  Everything is written out by `dump` at the end.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import sys
import threading
import time
from pathlib import Path

# (module, attribute, span name, kept one by one)
TARGETS = [
    ("icpo_lab.bandit", "CrnStream.uniform", "bandit.crn", False),
    ("icpo_lab.bandit", "CrnStream.normal", "bandit.crn", False),
    ("icpo_lab.bandit", "CrnStream.task_normals", "bandit.crn", False),
    ("icpo_lab.bandit", "coupled_sample", "bandit.sample", False),
    ("icpo_lab.bandit", "History.append", "bandit.history", False),
    ("icpo_lab.bandit", "draw_reward", "bandit.reward", False),
    ("icpo_lab.teacher", "teacher_logits", "teacher.logits", False),
    ("icpo_lab.teacher", "mix_policy", "teacher.mix", False),
    ("icpo_lab.lsa", "two_channel_logits", "lsa.logits", False),
    ("icpo_lab.pretrain", "generate_dataset", "pretrain.generate", True),
    ("icpo_lab.pretrain", "save_dataset", "pretrain.save", True),
    ("icpo_lab.pretrain", "load_dataset", "pretrain.load", True),
    ("icpo_lab.pretrain", "empirical_stats", "pretrain.stats", True),
    ("icpo_lab.pretrain", "PretrainDataset.pair_matrices", "pretrain.pair_builds", False),
    ("icpo_lab.pretrain", "solve_ls", "pretrain.solve", True),
    ("icpo_lab.pretrain", "train_gd", "pretrain.solve", True),
    ("icpo_lab.loop", "matching_experiment", "loop.experiment", True),
    ("icpo_lab.loop", "shock_experiment", "loop.experiment", True),
    ("icpo_lab.loop", "rollout", "loop.rollout", False),
    ("icpo_lab.loop", "shock_constants", "loop.shock_constants", False),
    ("icpo_lab.analysis", "run_lemma_suite", "analysis.suite", True),
    ("icpo_lab.analysis", "fisher_spectrum_check", "analysis.fisher_spectrum", False),
    ("icpo_lab.analysis", "softmax_lipschitz_check", "analysis.lipschitz", False),
    ("icpo_lab.analysis", "kl_sandwich_check", "analysis.kl_sandwich", False),
    ("icpo_lab.analysis", "gradient_fd_relative_error", "analysis.gradient_fd", False),
    ("icpo_lab.analysis", "sigma_min_restricted", "analysis.restricted", False),
    ("icpo_lab.analysis", "gamma_min_restricted", "analysis.restricted", False),
    ("icpo_lab.analysis", "pl_constant", "analysis.restricted", False),
    ("icpo_lab.meicpo.loop", "run_me_icpo", "meicpo.run", True),
    ("icpo_lab.meicpo.loop", "summarize", "meicpo.summarize", False),
    ("icpo_lab.meicpo.loop", "estimate_entropy", "meicpo.entropy", False),
    ("icpo_lab.meicpo.generator", "HttpGenerator.generate", "meicpo.http", False),
]

# Observed without a span: pairs each accounted response with its call time.
ACCOUNTING = ("icpo_lab.meicpo.generator", "CallAccounting.add")

PURPOSES = ("candidates", "summarize", "entropy", "final")
CLI_STAGES = ("generate", "train", "experiment", "me_icpo")


def _dir_bytes(path) -> int:
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.pass_id: str | None = None
        self.kept: list[dict] = []
        self._next_id = 0
        self.reset()

    def reset(self) -> None:
        self.agg: dict[tuple[str | None, str], list] = {}  # (parent, name) -> [count, total, self]
        self.counters: dict[str, float] = {}
        self.call_times: list[float] = []
        # Response id -> (response, call seconds); holding the response keeps its id unique.
        self._pending: dict[int, tuple[object, float]] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    # --- spans --------------------------------------------------------------

    def _enter(self, name: str, keep: bool) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = None
        if keep:
            with self._lock:
                self._next_id += 1
                span_id = self._next_id
        frame = [name, 0.0, parent, span_id, 0.0]
        stack.append(frame)
        frame[4] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> float:
        end = time.perf_counter()
        duration = end - frame[4]
        stack = self._stack()
        stack.pop()
        name, child, parent, span_id, start = frame
        if parent is not None:
            parent[1] += duration
        key = (parent[0] if parent is not None else None, name)
        with self._lock:
            slot = self.agg.get(key)
            if slot is None:
                slot = self.agg[key] = [0, 0.0, 0.0]
            slot[0] += 1
            slot[1] += duration
            slot[2] += duration - child
            if span_id is not None:
                self.kept.append(
                    {
                        "pass": self.pass_id,
                        "id": span_id,
                        "parent": parent[3] if parent is not None else None,
                        "name": name,
                        "start": start,
                        "end": end,
                        "self_s": duration - child,
                    }
                )
        return duration

    @contextlib.contextmanager
    def span(self, name: str):
        """A kept span around a block of the benchmark's own code."""
        frame = self._enter(name, True)
        try:
            yield
        finally:
            self._exit(frame)

    def _wrap(self, fn, name: str, keep: bool, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer._exit(frame)
            if hook is not None:
                hook(args, result, duration)
            return result

        return wrapper

    # --- hooks recording counts at the same boundaries ----------------------

    def _on_save(self, args, result, duration) -> None:
        self._add("pretrain.save.bytes", _dir_bytes(args[1]))

    def _on_load(self, args, result, duration) -> None:
        self._add("pretrain.load.bytes", _dir_bytes(args[0]))

    def _on_gd(self, args, result, duration) -> None:
        self._add("pretrain.gd.iters", len(result.losses) - 1)

    def _on_http(self, args, result, duration) -> None:
        with self._lock:
            self.call_times.append(duration)
            self._pending[id(result)] = (result, duration)

    def _on_account(self, args, result, duration) -> None:
        purpose, response = args[1], args[2]
        with self._lock:
            _, call_s = self._pending.pop(id(response), (None, 0.0))
        self._add(f"meicpo.calls.{purpose}", 1)
        self._add(f"meicpo.busy_s.{purpose}", call_s)
        self._add("meicpo.tokens.prompt", response.prompt_tokens)
        self._add("meicpo.tokens.completion", response.completion_tokens)

    # --- installation -------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        hooks = {
            "save_dataset": self._on_save,
            "load_dataset": self._on_load,
            "train_gd": self._on_gd,
            "HttpGenerator.generate": self._on_http,
        }
        for module_name, attr, name, keep in TARGETS:
            hook = hooks.get(attr)
            self._replace(module_name, attr, lambda fn: self._wrap(fn, name, keep, hook))
        self._replace(*ACCOUNTING, lambda fn: self._observer(fn, self._on_account))

    def _replace(self, module_name: str, attr: str, make) -> None:
        """Swap `attr` for `make(original)` on its class, or at every module binding."""
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        owner_name, _, leaf = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner_name and not isinstance(owner, type):
            owner = None
        original = vars(owner).get(leaf) if owner is not None else None
        if original is None:
            self.absent.append(f"{module_name}.{attr}")
            return
        replacement = make(original)
        if owner_name:
            self._set(owner, leaf, replacement)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "icpo_lab" and mod is not None:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, binding, replacement)

    def _observer(self, fn, hook):
        @functools.wraps(fn)
        def observer(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(args, result, 0.0)
            return result

        return observer

    def _set(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    # --- per-pass metrics ---------------------------------------------------

    def layer_metrics(self, wall_s: float, rounds: int, backend_requests: int, backend_busy_s: float) -> dict:
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        for (_, name), (count, tot, own) in self.agg.items():
            calls[name] = calls.get(name, 0) + count
            total[name] = total.get(name, 0.0) + tot
            self_s[name] = self_s.get(name, 0.0) + own

        m: dict[str, float] = {}
        for layer in (
            "bandit.crn",
            "bandit.sample",
            "bandit.history",
            "teacher.logits",
            "teacher.mix",
            "lsa.logits",
            "loop.shock_constants",
            "analysis.fisher_spectrum",
            "analysis.lipschitz",
            "analysis.kl_sandwich",
            "analysis.gradient_fd",
            "analysis.restricted",
        ):
            m[f"{layer}.calls"] = calls.get(layer, 0)
            m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        m["bandit.reward.calls"] = calls.get("bandit.reward", 0)
        m["pretrain.generate.s"] = total.get("pretrain.generate", 0.0)
        m["pretrain.generate.self_s"] = self_s.get("pretrain.generate", 0.0)
        m["pretrain.save.s"] = total.get("pretrain.save", 0.0)
        m["pretrain.save.bytes"] = self.counters.get("pretrain.save.bytes", 0)
        m["pretrain.load.s"] = total.get("pretrain.load", 0.0)
        m["pretrain.load.bytes"] = self.counters.get("pretrain.load.bytes", 0)
        m["pretrain.stats.s"] = total.get("pretrain.stats", 0.0)
        m["pretrain.pair_builds"] = calls.get("pretrain.pair_builds", 0)
        m["pretrain.solve.s"] = total.get("pretrain.solve", 0.0)
        m["pretrain.gd.iters"] = self.counters.get("pretrain.gd.iters", 0)
        m["loop.experiment.s"] = total.get("loop.experiment", 0.0)
        m["loop.experiment.self_s"] = self_s.get("loop.experiment", 0.0)
        m["loop.rollout.calls"] = calls.get("loop.rollout", 0)
        m["loop.round_us"] = 1e6 * m["loop.experiment.s"] / rounds if rounds else 0.0
        m["analysis.suite.self_s"] = self_s.get("analysis.suite", 0.0)

        accounted = 0
        for purpose in PURPOSES:
            accounted += int(self.counters.get(f"meicpo.calls.{purpose}", 0))
            m[f"meicpo.calls.{purpose}"] = self.counters.get(f"meicpo.calls.{purpose}", 0)
        m["meicpo.tokens.prompt"] = self.counters.get("meicpo.tokens.prompt", 0)
        m["meicpo.tokens.completion"] = self.counters.get("meicpo.tokens.completion", 0)
        for purpose in PURPOSES:
            m[f"meicpo.busy_s.{purpose}"] = self.counters.get(f"meicpo.busy_s.{purpose}", 0.0)
        ms = sorted(1e3 * t for t in self.call_times)
        if len(ms) >= 2:
            deciles = statistics.quantiles(ms, n=10)
            m["meicpo.call.p50_ms"], m["meicpo.call.p90_ms"] = statistics.median(ms), deciles[8]
        else:
            m["meicpo.call.p50_ms"] = m["meicpo.call.p90_ms"] = ms[0] if ms else 0.0
        m["meicpo.backend.busy_s"] = backend_busy_s
        m["meicpo.client_overhead_s"] = sum(self.call_times) - backend_busy_s
        m["meicpo.self_s"] = sum(self_s.get(n, 0.0) for n in ("meicpo.run", "meicpo.summarize", "meicpo.entropy"))
        m["meicpo.concurrency"] = backend_busy_s / wall_s if wall_s > 0 else 0.0
        m["meicpo.attempts_per_call"] = backend_requests / accounted if accounted else 0.0

        for stage in CLI_STAGES:
            m[f"cli.{stage}.s"] = total.get(f"cli.{stage}", 0.0)
        m["cli.self_s"] = sum(self_s.get(f"cli.{stage}", 0.0) for stage in CLI_STAGES)
        return m

    def dump(self, path: Path, passes: list[dict]) -> None:
        """Write kept spans, per-pass aggregates and absent targets as JSON."""
        path.write_text(
            json.dumps(
                {"absent_targets": self.absent, "passes": passes, "stage_spans": self.kept},
                indent=1,
            )
        )

    def snapshot(self) -> list[dict]:
        """The current pass's aggregate table, JSON-ready."""
        return [
            {"parent": parent, "name": name, "count": c, "total_s": t, "self_s": s}
            for (parent, name), (c, t, s) in sorted(self.agg.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))
        ]
