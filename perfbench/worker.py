"""One workload process: set up, run passes of the CLI stages, check every output.

Started by run.py, which records the monotonic clock just before spawning it
(`--spawned-at`), so set-up time covers the interpreter, `import icpo_lab`,
writing the INI files and, for me-icpo, the fake backend becoming ready.

Passes call `icpo_lab.cli.main` in this process, one stage after another,
until `--seconds` would be exceeded (at least two passes).  With `--trace 1`
passes alternate between untraced and traced, so both see the same machine
conditions and their difference is the tracing overhead.  Each pass's
artifacts are checked and must be byte-identical to the first pass's.

Usage: python3 worker.py --workload W --seed N --dir D --spawned-at T
       --seconds S --trace 0|1 [--setup-only]
Writes D/worker.json (and D/trace.json when traced).
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

MAX_PASSES = 50


class FakeBackend:
    """The loopback chat-completion server, in its own process."""

    def __init__(self, seed: int, log: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "backend.py"), "--seed", str(seed), "--log", str(log)],
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("READY "):
            self.close()
            raise RuntimeError(f"fake backend did not start: {line!r}")
        self.port = int(line.split()[1])
        self.endpoint = f"http://127.0.0.1:{self.port}/v1/chat/completions"

    def stats(self) -> tuple[int, float]:
        """(requests served, summed service seconds) so far."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", "/stats")
            body = json.loads(conn.getresponse().read())
        finally:
            conn.close()
        return int(body["requests"]), float(body["busy_s"])

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def digest(out: Path) -> dict[str, str]:
    return {
        str(f.relative_to(out)): hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(out.rglob("*"))
        if f.is_file()
    }


def run_pass(cli, stages, tracer) -> tuple[float, dict[str, float], list[str]]:
    """Run the stages in order; (wall seconds, seconds per stage, problems)."""
    times: dict[str, float] = {}
    start = time.perf_counter()
    for stage, argv in stages:
        t0 = time.perf_counter()
        if tracer is None:
            code = cli.main(argv)
        else:
            with tracer.span(f"cli.{stage}"):
                code = cli.main(argv)
        times[stage] = times.get(stage, 0.0) + time.perf_counter() - t0
        if code != 0:
            return time.perf_counter() - start, times, [f"`{argv[0]}` exited with {code}"]
    return time.perf_counter() - start, times, []


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import icpo_lab.cli as cli
    import numpy as np
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    work = Path(args.dir)
    config_dir = work / "config"
    config_dir.mkdir(parents=True, exist_ok=True)
    backend = FakeBackend(args.seed, work / "backend.log") if workload.needs_backend else None
    try:
        endpoint = backend.endpoint if backend else ""
        for name, text in workload.configs(args.seed, endpoint).items():
            (config_dir / name).write_text(text)
        result = {
            "setup_s": time.monotonic() - args.spawned_at,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
            "passes": [],
        }
        if not args.setup_only:
            tracer = Tracer() if args.trace else None
            result["passes"] = run_passes(args, workload, cli, config_dir, work, backend, tracer)
            if tracer is not None:
                result["absent_targets"] = tracer.absent
                tracer.dump(work / "trace.json", [p.pop("aggregates") for p in result["passes"] if p["traced"]])
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        if backend is not None:
            backend.close()
    (work / "worker.json").write_text(json.dumps(result, indent=1))
    return 0


def run_passes(args, workload, cli, config_dir, work, backend, tracer) -> list[dict]:
    passes: list[dict] = []
    reference: dict[str, str] | None = None
    started = time.monotonic()
    for i in range(MAX_PASSES):
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install()
            tracer.reset()
            tracer.pass_id = f"{args.workload}:{args.seed}:{i}"
        out = work / f"pass{i}"
        stages = workload.stages(config_dir, out)
        before = backend.stats() if backend else (0, 0.0)
        try:
            wall, stage_s, problems = run_pass(cli, stages, tracer if traced else None)
        except Exception:  # a crash in the program is a failed pass, not a failed benchmark
            wall, stage_s, problems = float("nan"), {}, [traceback.format_exc()]
        after = backend.stats() if backend else (0, 0.0)
        record = {"pass": i, "traced": traced, "wall_s": wall, "stage_s": stage_s}
        if traced:
            record["layers"] = tracer.layer_metrics(
                wall, workload.rounds, after[0] - before[0], after[1] - before[1]
            )
            record["aggregates"] = {"pass": tracer.pass_id, "spans": tracer.snapshot()}
            tracer.uninstall()
        if not problems:
            try:
                problems = workload.check(out)
            except Exception:  # a missing or malformed artifact fails the pass
                problems = [traceback.format_exc()]
        files = digest(out)
        if reference is None:
            reference = files
        elif files != reference:
            changed = sorted(k for k in set(files) | set(reference) if files.get(k) != reference.get(k))
            problems.append(f"artifacts differ from pass 0: {changed[:5]} ({len(changed)} files)")
        record["bytes_written"] = sum(f.stat().st_size for f in out.rglob("*") if f.is_file())
        record["problems"] = problems
        passes.append(record)
        shutil.rmtree(out, ignore_errors=True)
        walls = [p["wall_s"] for p in passes]
        elapsed = time.monotonic() - started
        if len(passes) >= 2 and (elapsed > args.seconds or elapsed + statistics.median(walls) > args.seconds):
            break
    return passes


if __name__ == "__main__":
    sys.exit(main())
