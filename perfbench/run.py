"""Benchmark of cesaro_bergman: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: eigen-quad, parseval-scan, user-norm, spectra-crosscheck (see
README.md).  The program is imported from ``src/`` of this checkout; there is
nothing to build.  The workload runs in a child process (worker.py) that
repeats whole rounds of its seeded batch for about S seconds, single-threaded
and closed-loop, and checks every result.  With --trace 0 the run first
starts SETUP_REPEATS - 1 set-up-only children so that ``setup_s`` is a median.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics (end-to-end with --trace 0, per-layer with --trace 1).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("eigen-quad", "parseval-scan", "user-norm", "spectra-crosscheck")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150.0


def run_worker(args, extra: list[str], timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    spawn_ns = time.monotonic_ns()
    proc = subprocess.run(cmd + ["--spawn-ns", str(spawn_ns)], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cesaro_bergman" / "__init__.py").is_file():
        print(f"no cesaro_bergman sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + 170.0
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                setups.append(run_worker(args, ["--setup-only"], 30.0)["setup_s"])
        result = run_worker(args, [], min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    metrics = result["metrics"]
    if not args.trace:
        setups.append(result["setup_s"])
        metrics["setup_s"] = statistics.median(setups)
    units = {"wall_s": "s", "op_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    if args.trace:
        from tracing import PER_LAYER
        units = dict(PER_LAYER)
    print(f"# {args.workload} seed={args.seed}: {result['rounds']} rounds, "
          f"setups {setups if not args.trace else '-'}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
