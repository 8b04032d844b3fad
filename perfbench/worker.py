"""One workload in its own process: set up, run timed rounds, check, report.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \\
        --trace 0|1 --spawn-ns NS [--setup-only]

run.py starts it.  --spawn-ns is the CLOCK_MONOTONIC time at which the parent
started the process, so that set-up time covers interpreter start, the import
of cesaro_bergman and the construction of the program's inputs.  The last
line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def pin_to_one_cpu() -> None:
    """Confine the worker, and every thread it or the program starts later,
    to one CPU.  The program keeps its own threads (the FFT's workers=-1,
    OpenBLAS), but they share that CPU.  On a shared 2-vCPU machine the two
    vCPUs' speeds drift apart, and unconfined rounds, whose FFT threads wait
    on each other, spread twice as widely between 25 s windows."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def import_program() -> types.SimpleNamespace:
    sys.path.insert(0, str(SRC))
    import cesaro_bergman
    from cesaro_bergman import cli, norms, scans, series, spectra

    where = Path(cesaro_bergman.__file__).resolve().parent
    if where != SRC / "cesaro_bergman":
        raise SystemExit(f"cesaro_bergman was imported from {where}, not {SRC}")
    return types.SimpleNamespace(cli=cli, norms=norms, scans=scans,
                                 series=series, spectra=spectra)


def program_caches(pkg) -> list:
    """The functools caches of the program, cleared before every operation:
    each cesaro-bergman invocation starts with them cold."""
    found = {}
    for mod in vars(pkg).values():
        for obj in vars(mod).values():
            if (hasattr(obj, "cache_clear") and hasattr(obj, "cache_info")
                    and getattr(obj, "__module__", "").startswith("cesaro_bergman")):
                found[id(obj)] = obj
    return list(found.values())


def run_round(ops, caches):
    times, results = [], []
    start = time.perf_counter()
    for op in ops:
        for cache in caches:
            cache.cache_clear()
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            out = exc
        times.append(time.perf_counter() - t0)
        results.append(out)
    return time.perf_counter() - start, times, results


def measure(ops, caches, seconds: float, tracer=None) -> dict:
    """Run whole rounds of ops until about `seconds` have passed, and check
    every result.  With a tracer, every second round is traced, and the
    result holds the per-layer metrics instead of the end-to-end ones."""
    walls = {False: [], True: []}
    op_times: list[float] = []
    attempted = failed = 0
    wrong: set[str] = set()
    rnd = 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and rnd % 2 == 1
        if traced:
            tracer.round = rnd
            tracer.install()
        try:
            wall, times, results = run_round(ops, caches)
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(wall)
        if not traced:
            op_times.extend(times)
        for op, result in zip(ops, results):
            attempted += 1
            if not op.check(result):
                failed += 1
                if not op.fault:
                    wrong.add(f"{op.label}: {result!r}"[:300])
        rnd += 1
        elapsed = time.perf_counter() - start
        if rnd >= (2 if tracer else 1) and elapsed + elapsed / rnd > seconds:
            break
    if tracer is None:
        metrics = {
            "wall_s": statistics.median(walls[False]),
            "op_p50_s": statistics.median(op_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        metrics = tracer.metrics(list(range(1, rnd, 2)))
        metrics["trace.overhead_s"] = (statistics.median(walls[True])
                                       - statistics.median(walls[False]))
    return {"correct": not wrong, "attempted": attempted, "failed": failed,
            "rounds": rnd, "metrics": metrics, "wrong": sorted(wrong)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawn-ns", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    pin_to_one_cpu()
    pkg = import_program()
    import workloads
    ops = workloads.WORKLOADS[args.workload](pkg, args.seed)
    setup_s = (time.monotonic_ns() - args.spawn_ns) / 1e9
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    for op in ops:
        op.prepare()
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer(vars(pkg))

    result = measure(ops, program_caches(pkg), args.seconds, tracer)
    if tracer is not None:
        tracer.write(HERE / "runs" / f"trace-{args.workload}-seed{args.seed}.json")
    for line in result.pop("wrong"):
        print(f"incorrect: {line}", file=sys.stderr)
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
