"""Quick self-check of the benchmark at tiny sizes (about ten seconds).

    python3 perfbench/selfcheck.py

For each workload it runs a few operations of the workload's kinds on small
inputs and asserts that

* every check passes on the program's real results, and the checks of the
  known faults fail;
* the same checks fail on a result with one value scaled by 1 + 1e-6, and on
  a result with a flipped verdict, so that no check passes because it
  checked nothing.  The eigen-quad values are checked to the scan
  tolerance 1e-4, so there the scale is 1 + 1e-3;
* an untraced run leaves every module attribute the tracer can replace
  untouched, and a traced run puts each one back.

Exit code 0 when all of this holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import worker
import workloads
from tracing import Tracer

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def flip_kind(pkg, scan):
    kinds = pkg.scans.GrowthKind
    new = kinds.POWER_DIVERGENT if scan.classification.is_converged else kinds.CONVERGED
    return dataclasses.replace(scan, classification=pkg.scans.GrowthClass(new, 1.0))


def scale_values(scan, factor):
    return dataclasses.replace(scan, values=tuple(v * factor for v in scan.values))


def run_once(op):
    op.prepare()
    return worker.run_round([op], [])[2][0]


def eigen_quad(pkg):
    for m, p, alpha in ((1, 4.0, 4.0), (2, 4.0, 1.0)):
        op = workloads.EigenScan(pkg, m, p, alpha, 1 << 10)
        scan = run_once(op)
        expect(op.check(scan), f"eigen-quad {op.label}: real result passes")
        expect(not op.check(scale_values(scan, 1.0 + 1e-3)),
               f"eigen-quad {op.label}: values x (1 + 1e-3) fail")
        expect(not op.check(flip_kind(pkg, scan)),
               f"eigen-quad {op.label}: flipped verdict fails")


def parseval_scan(pkg):
    op = workloads.EigenScan(pkg, 1, 2.0, 2.0, 1 << 12)
    scan = run_once(op)
    expect(op.check(scan), "parseval-scan m=1: real result passes")
    expect(not op.check(scale_values(scan, 1.0 + 1e-6)),
           "parseval-scan m=1: values x (1 + 1e-6) fail")
    expect(not op.check(flip_kind(pkg, scan)), "parseval-scan m=1: flipped verdict fails")
    m, alpha = workloads.PARSEVAL_FAULT
    fault = workloads.EigenScan(pkg, m, 2.0, alpha, workloads.PARSEVAL_N_MAX, fault=True)
    expect(not fault.check(run_once(fault)), f"parseval-scan known fault {fault.label} fails")

    ce = workloads.Counterexample(pkg, "frechet", 1.0, 0.4, 1 << 12)
    report = run_once(ce)
    expect(ce.check(report), "parseval-scan counterexample: real result passes")
    expect(not ce.check(dataclasses.replace(
        report, source_scan=flip_kind(pkg, report.source_scan))),
        "parseval-scan counterexample: flipped verdict fails")

    sch = workloads.Schauder(pkg, "frechet", 1, 4.5, 1 << 11, (1, 2, 3))
    report = run_once(sch)
    expect(sch.check(report), "parseval-scan schauder: real result passes")
    (n, tail), *rest = report.tails
    expect(not sch.check(dataclasses.replace(
        report, tails=((n, flip_kind(pkg, tail)), *rest))),
        "parseval-scan schauder: flipped verdict fails")

    gp = workloads.GpSum(pkg, 3, 1.0, 10 ** 4)
    scan = run_once(gp)
    expect(gp.check(scan), "parseval-scan gp: real result passes")
    expect(not gp.check(flip_kind(pkg, scan)), "parseval-scan gp: flipped verdict fails")


def user_norm(pkg):
    doc = json.loads(workloads.REFS_FILE.read_text(encoding="utf-8"))
    entry = doc["pool"][0]
    coeffs = [complex(*c) for c in entry["coeffs"]]
    ops = [workloads.QuadNorm(pkg, entry["id"], coeffs, 1.5, 1.0,
                              ref=entry["refs"]["1.5"]["1.0"]),
           workloads.QuadNorm(pkg, "p4", [0.3, -1.0, 0.5j, 0.25], 4.0, 2.0)]
    for op in ops:
        result = run_once(op)
        expect(op.check(result), f"user-norm {op.label}: real result passes")
        value, rule = result
        expect(not op.check((value * (1.0 + 1e-6), rule)),
               f"user-norm {op.label}: value x (1 + 1e-6) fails")
        flipped = pkg.norms.NonConvergedQuadrature("not converged", value, 1.0)
        expect(not op.check(flipped), f"user-norm {op.label}: non-converged verdict fails")
    for entry in doc["faults"]:
        op = workloads.QuadNorm(pkg, entry["id"], [complex(*c) for c in entry["coeffs"]],
                                entry["p"], entry["alpha"], ref=entry["ref"], fault=True)
        expect(not op.check(run_once(op)), f"user-norm known fault {op.label} fails")


def spectra_crosscheck(pkg):
    p, alpha = 2.0, 2.0
    lambdas = [0j, 0.5 + 0j, 0.2 + 0.05j, 0.9 + 0.3j, -0.4 + 0j]
    op = workloads.SpectrumCheck(pkg, "lb", p, alpha, (30, 30), 30, lambdas)
    (cross, queries) = result = run_once(op)
    expect(op.check(result), "spectra-crosscheck: real result passes")
    doc = json.loads(cross[1])
    doc["n_checked"] *= 1.0 + 1e-6
    expect(not op.check(((cross[0], json.dumps(doc)), queries)),
           "spectra-crosscheck: n_checked x (1 + 1e-6) fails")
    doc = json.loads(queries[1])
    verdict = doc["verdicts"][3]
    verdict["verdict"] = "in" if verdict["verdict"] == "out" else "out"
    expect(not op.check((cross, (queries[0], json.dumps(doc)))),
           "spectra-crosscheck: flipped verdict fails")


def snapshot(pkg) -> dict:
    out = {}
    for name, mod in vars(pkg).items():
        out.update({(name, k): v for k, v in vars(mod).items()})
    out.update({("DiskQuadrature", k): v
                for k, v in vars(pkg.norms.DiskQuadrature).items()})
    return out


def wrappers(pkg):
    ops = [workloads.EigenScan(pkg, 2, 4.0, 1.0, 1 << 8),
           workloads.EigenScan(pkg, 1, 2.0, 1.0, 1 << 8)]
    for op in ops:
        op.prepare()
    before = snapshot(pkg)
    result = worker.measure(ops, worker.program_caches(pkg), 0.0)
    expect(result["correct"] and snapshot(pkg) == before,
           "untraced run installs no wrapper")
    tracer = Tracer(vars(pkg))
    result = worker.measure(ops, worker.program_caches(pkg), 0.0, tracer)
    expect(result["correct"] and snapshot(pkg) == before,
           "traced run restores every wrapped name")
    expect(result["metrics"]["norms.passes"] > 0 and result["metrics"]["scans.self_s"] > 0,
           "traced run records spans in norms and scans")


def main() -> int:
    pkg = worker.import_program()
    for check in (eigen_quad, parseval_scan, user_norm, spectra_crosscheck, wrappers):
        check(pkg)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
