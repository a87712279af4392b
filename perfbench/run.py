"""Benchmark entry point: one workload of the icpo-lab CLI, measured and checked.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: matching, shock, lemma-suite, me-icpo (workloads.py says what each
runs; BENCHMARK.json says why it was chosen).  Every workload is a closed loop with a single client:
a stage or backend call starts only when the previous one returns.

With `--trace 0` the end-to-end metrics of BENCHMARK.json are reported:
  wall_s        median seconds for one pass of the workload's CLI stages
  setup_s       median, over several fresh worker processes, of the time
                from spawning the process to its first timed CLI call
  peak_rss_mib  peak resident memory (ru_maxrss) of the measuring process
With `--trace 1` a separate run reports the per-layer metrics of
BENCHMARK.json, from spans the benchmark records around calls into each
module (see tracer.py), plus the tracing overhead.

Every pass's artifacts are checked for correctness and must be
byte-identical to the first pass's; a pass that fails either check counts as
a failed operation.  All outputs go under `.perfbench_out/` in the checkout.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 6  # set-up-only processes, besides the measuring one
TIME_LIMIT_S = 170
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def git_commit(root: Path) -> str | None:
    """HEAD's commit read from .git without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def worker_env(run_dir: Path) -> dict[str, str]:
    # The fake backend listens on loopback; no request may go through a proxy.
    env = {k: v for k, v in os.environ.items() if not k.lower().endswith("_proxy")}
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    env["TMPDIR"] = str(run_dir / "tmp")
    return env


def spawn(args, work: Path, env: dict, deadline: float, *extra: str) -> dict:
    """Run one worker process to completion and return its measurements."""
    work.mkdir(parents=True)
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--dir", str(work),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *extra,
    ]
    with open(work / "worker.log", "w") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [*cmd, "--spawned-at", repr(spawned)],
            cwd=ROOT,
            env=env,
            stdout=log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            pass
        finally:
            try:  # also ends a backend the worker left behind
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    if proc.returncode != 0:
        log_tail = (work / "worker.log").read_text()[-2000:]
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{log_tail}")
    return json.loads((work / "worker.json").read_text())


def end_to_end(setups: list[float], main: dict) -> dict[str, float]:
    return {
        "wall_s": statistics.median(p["wall_s"] for p in main["passes"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": main["peak_rss_mib"],
    }


def per_layer(main: dict) -> tuple[dict[str, float], dict]:
    traced = [p for p in main["passes"] if p["traced"]]
    untraced_wall = statistics.median(p["wall_s"] for p in main["passes"] if not p["traced"])
    metrics = {name: statistics.median(p["layers"][name] for p in traced) for name in traced[0]["layers"]}
    metrics["cli.bytes_written"] = statistics.median(p["bytes_written"] for p in traced)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    stage_sum = statistics.median(sum(p["stage_s"].values()) for p in traced)
    coverage = {
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "traced_stage_spans_s": stage_sum,
        "absent_targets": main.get("absent_targets", []),
    }
    return metrics, coverage


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    # SIGTERM unwinds through spawn(), which then ends the worker's process group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "icpo_lab" / "__init__.py").is_file():
        print(f"error: no icpo_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + TIME_LIMIT_S
    run_dir = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "tmp").mkdir(parents=True)
    env = worker_env(run_dir)

    setups = []
    if not args.trace:
        for i in range(SETUP_PROBES):
            setups.append(spawn(args, run_dir / f"setup{i}", env, deadline, "--setup-only")["setup_s"])
    main_run = spawn(args, run_dir / "main", env, deadline)
    setups.append(main_run["setup_s"])

    passes = main_run["passes"]
    failed = sum(1 for p in passes if p["problems"])
    for p in passes:
        for problem in p["problems"]:
            print(f"pass {p['pass']}: {problem}", file=sys.stderr)
    if args.trace:
        measured, coverage = per_layer(main_run)
    else:
        measured, coverage = end_to_end(setups, main_run), None

    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    provenance = {
        "workload": args.workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "seed": args.seed,
        "trace": args.trace,
        "commit": git_commit(ROOT),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": main_run["python"],
        "numpy": main_run["numpy"],
        "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "platform": platform.platform(),
        "passes": [
            {k: p[k] for k in ("pass", "traced", "wall_s", "stage_s", "bytes_written")} for p in passes
        ],
        "setup_samples_s": setups,
        "trace_coverage": coverage,
    }
    result = {"correct": failed == 0, "attempted": len(passes), "failed": failed, "metrics": metrics}
    (run_dir / "result.json").write_text(json.dumps({"provenance": provenance, **result}, indent=1))
    shutil.rmtree(run_dir / "tmp", ignore_errors=True)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
