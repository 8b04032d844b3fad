"""Command-line front end.

Subcommands: norm, spectrum, scan, selftest.  Output is deterministic JSON
(fixed field order, floats with 17 significant digits) or CSV series data;
exit codes: 0 success, 2 validation, 3 numerical non-convergence,
4 cross-check disagreement, 1 selftest failure.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import run_selftest
from .norms import (
    NonConvergedQuadrature,
    SpaceKind,
    SpaceSpec,
    inclusion_ratio_scan,
    monomial_norm,
    monomial_norm_asymptote,
    norm_quadrature,
)
from .scans import (
    DEFAULT_N_MAX,
    GrowthKind,
    NormScan,
    counterexample_blowup,
    eigen_membership_scan,
    expected_eigen_membership,
    gp_nuclearity_sum,
    schauder_partial_sum_check,
    seminorm_family,
    truncation_norms,
)
from .series import (
    TaylorTruncation,
    binomial_series_coeffs,
    eigenfunction_truncation,
)
from .spectra import spectrum, step_union_crosscheck, waelbroeck

SCHEMA_VERSION = 3
EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_CROSSCHECK = 4


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "null"
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(float(x), ".17g")


def dumps_json(obj) -> str:
    """JSON with insertion-ordered keys and floats at 17 significant digits."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, complex):
        return dumps_json([obj.real, obj.imag])
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {dumps_json(v)}"
                          for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(dumps_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _write_output(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text + "\n", encoding="utf-8")
    else:
        sys.stdout.write(text + "\n")


def _write_record(command: str, fields: dict, out_path: str | None) -> None:
    """One JSON record: the schema version and command, then the fields."""
    _write_output(dumps_json({"schema": SCHEMA_VERSION, "command": command,
                              **fields}), out_path)


def _csv_rows(rows: list[tuple], header: tuple[str, ...]) -> str:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, (float, np.floating)):
                cells.append("" if math.isnan(cell) else format(float(cell), ".17g"))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    return "\n".join(lines)


def _classification_record(scan: NormScan) -> dict:
    c = scan.classification
    return {
        "kind": c.kind.value,
        "exponent": c.exponent,
        "stderr": c.stderr,
        "r_squared": c.r_squared,
    }


def _scan_record(scan: NormScan) -> dict:
    return {
        "degrees": list(scan.degrees),
        "values": list(scan.values),
        "classification": _classification_record(scan),
    }


# ---------------------------------------------------------------------------
# argument helpers
# ---------------------------------------------------------------------------

def _parse_complex(text: str) -> complex:
    s = text.strip()
    if "," in s:
        re_s, im_s = s.split(",", 1)
        return complex(float(re_s), float(im_s))
    return complex(s.replace("i", "j"))


def _checked(parse, ok, expected: str):
    """argparse type: parse the text, then reject what ok() refuses."""
    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return convert


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _load_coeffs(path: str) -> TaylorTruncation:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, list) or not data:
        raise ValueError("coefficient file must be a nonempty JSON array")
    coeffs = []
    for entry in data:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise ValueError("coefficient entries must be [re, im] pairs")
        if any(isinstance(x, bool) for x in entry):
            raise ValueError("coefficients must be numbers, not booleans")
        coeffs.append(complex(float(entry[0]), float(entry[1])))
    arr = np.array(coeffs, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise ValueError("coefficients must be finite")
    return TaylorTruncation(arr)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_norm(args: argparse.Namespace) -> int:
    if args.format == "csv" and not args.family:
        raise ValueError("norm --format csv needs --family")
    if args.monomial:
        if args.index is None:
            raise ValueError("norm --monomial requires -j/--index")
        value = monomial_norm(args.index, args.p, args.alpha)
        record = {
            "mode": "monomial",
            "j": args.index,
            "p": args.p,
            "alpha": args.alpha,
            "value": value,
        }
        if args.check_asymptotic:
            scaled = value ** args.p * float(args.index) ** (args.alpha + 1.0)
            limit = monomial_norm_asymptote(args.p, args.alpha)
            record["asymptotic"] = {
                "scaled": scaled,
                "limit": limit,
                "rel_gap": abs(scaled - limit) / limit,
            }
        _write_record("norm", record, args.out)
        return EXIT_OK
    if args.coeffs_file is None:
        raise ValueError("this norm mode requires --coeffs-file")
    f = _load_coeffs(args.coeffs_file)
    if args.parseval:
        if args.p != 2.0:
            raise ValueError("norm --parseval is defined for p = 2 only")
        record = {
            "mode": "parseval",
            "alpha": args.alpha,
            "degree": f.degree,
            "value": float(truncation_norms(f.coeffs, 2.0, args.alpha,
                                            [f.degree])[0]),
        }
        _write_record("norm", record, args.out)
        return EXIT_OK
    if args.quadrature:
        value = norm_quadrature(f, args.p, args.alpha, rel_tol=args.rel_tol)
        record = {
            "mode": "quadrature",
            "p": args.p,
            "alpha": args.alpha,
            "degree": f.degree,
            "rel_tol": args.rel_tol,
            "value": value,
        }
        _write_record("norm", record, args.out)
        return EXIT_OK
    # seminorm family
    spec = SpaceSpec(args.p, args.alpha, SpaceKind(args.family))
    entries = seminorm_family(f, spec, args.nmax_steps, args.rel_tol)
    if args.format == "csv":
        rows = [(e.n, e.alpha, e.value) for e in entries]
        _write_output(_csv_rows(rows, ("n", "alpha", "value")), args.out)
        return EXIT_OK
    record = {
        "mode": "family",
        "kind": args.family,
        "p": args.p,
        "alpha": args.alpha,
        "n_max": args.nmax_steps,
        "entries": [
            {"n": e.n, "alpha": e.alpha, "value": e.value, "ok": e.ok}
            for e in entries
        ],
    }
    _write_record("norm", record, args.out)
    return EXIT_OK


def _describe_record(desc) -> dict:
    return {
        "disk_r": desc.disk_r,
        "disk_center": desc.disk_center,
        "disk_radius": desc.disk_radius,
        "disk_boundary": desc.disk_boundary.value,
        "includes_origin": True,  # every spectrum holds 0; kept for schema 3
        "points": list(desc.points),
    }


def _cmd_spectrum(args: argparse.Namespace) -> int:
    if args.crosscheck:
        if args.lam or args.waelbroeck:
            raise ValueError("--crosscheck takes neither --lambda nor "
                             "--waelbroeck")
        nx, ny = args.grid
        rect = args.rect
        report = step_union_crosscheck(
            args.kind, args.p, args.alpha, args.nmax, re_range=rect[:2],
            im_range=rect[2:], nx=nx, ny=ny, band=args.band)
        record = {
            "mode": "crosscheck",
            "kind": args.kind,
            "p": args.p,
            "alpha": args.alpha,
            "n_max": args.nmax,
            "grid": [nx, ny],
            "rect": list(rect),
            "band": args.band,
            "n_checked": report.n_checked,
            "n_excluded": nx * ny - report.n_checked,
            "disagreements": [[z.real, z.imag] for z in report.disagreements],
        }
        _write_record("spectrum", record, args.out)
        return EXIT_OK if report.ok else EXIT_CROSSCHECK
    desc = spectrum(SpaceSpec(args.p, args.alpha, SpaceKind(args.kind)))
    if args.waelbroeck:
        desc = waelbroeck(desc)
    record = {
        "mode": "membership" if args.lam else "describe",
        "kind": args.kind,
        "p": args.p,
        "alpha": args.alpha,
        "waelbroeck": bool(args.waelbroeck),
        "set": _describe_record(desc),
    }
    if args.lam:
        record["verdicts"] = [
            {"lambda": [z.real, z.imag], "verdict": desc.membership(z).value}
            for z in args.lam
        ]
    _write_record("spectrum", record, args.out)
    return EXIT_OK


# Each scan target returns its record fields, its CSV rows and header, and
# the scans that --strict checks.

def _scan_eigen(args: argparse.Namespace):
    from concurrent.futures import ThreadPoolExecutor

    # one worker per m, at most one per CPU this process may run on
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=min(len(args.ms), cpus)) as pool:
        scans = list(pool.map(
            lambda m: eigen_membership_scan(m, args.p, args.alpha, args.nmax),
            args.ms))
    results = [dict(m=m, expected_member=expected_eigen_membership(
                        m, args.p, args.alpha), **_scan_record(scan))
               for m, scan in zip(args.ms, scans)]
    fields = {"p": args.p, "alpha": args.alpha, "n_max": args.nmax,
              "results": results}
    rows = [(m, d, v) for m, s in zip(args.ms, scans)
            for d, v in zip(s.degrees, s.values)]
    return fields, rows, ("m", "degree", "value"), scans


def _scan_counterexample(args: argparse.Namespace):
    report = counterexample_blowup(args.p, args.alpha, args.epsilon,
                                   args.kind, args.nmax, steps=args.steps)
    fields = {
        "kind": args.kind, "p": args.p, "alpha": args.alpha,
        "epsilon": args.epsilon,
        "source_exponent": report.source_exponent,
        "home_step": report.home_step,
        "source": _scan_record(report.source_scan),
        "inverse": [dict(step=n, **_scan_record(s))
                    for n, s in report.inverse_scans],
    }
    series = [("source", report.home_step, report.source_scan)]
    series += [("inverse", n, s) for n, s in report.inverse_scans]
    rows = [(name, n, d, v) for name, n, s in series
            for d, v in zip(s.degrees, s.values)]
    return (fields, rows, ("series", "step", "degree", "value"),
            [s for _, _, s in series])


def _scan_gp(args: argparse.Namespace):
    scan = gp_nuclearity_sum(args.p, args.alpha, args.m, args.jmax)
    fields = {"p": args.p, "alpha": args.alpha, "m": args.m,
              "j_max": args.jmax,
              "expected_exponent": 1.0 - (1.0 - 1.0 / args.m) / args.p,
              **_scan_record(scan)}
    rows = list(zip(scan.degrees, scan.values))
    return fields, rows, ("degree", "value"), [scan]


def _scan_inclusion(args: argparse.Namespace):
    result = inclusion_ratio_scan(args.p, args.mu, args.gamma, args.jmax)
    subsample = [d for d in (2 ** k for k in range(0, 30)) if d <= args.jmax]
    fields = {
        "p": args.p, "mu": args.mu, "gamma": args.gamma,
        "j_max": args.jmax,
        "exponent": result.exponent,
        "r_squared": result.r_squared,
        "expected_exponent": -(args.gamma - args.mu) / args.p,
        "degrees": subsample,
        "ratios": [float(result.ratios[d - 1]) for d in subsample],
    }
    rows = list(zip(result.degrees.tolist(), result.ratios.tolist()))
    return fields, rows, ("degree", "value"), []


def _scan_schauder(args: argparse.Namespace):
    if (args.m is None) == (args.function == "eigenfunction"):
        raise ValueError("--function eigenfunction requires -m; no other "
                         "takes it")
    if (args.exponent is None) == (args.function == "binomial-plus"):
        raise ValueError("--function binomial-plus requires --exponent; no "
                         "other takes it")
    top = 2 * args.nmax
    if args.function == "constant":
        coeffs = np.zeros(top + 1)
        coeffs[0] = 1.0
        f = TaylorTruncation(coeffs)
    elif args.function == "eigenfunction":
        f = eigenfunction_truncation(args.m, top)
    else:  # binomial-plus
        f = binomial_series_coeffs(args.exponent, top)
    spec = SpaceSpec(args.p, args.alpha, SpaceKind(args.kind))
    report = schauder_partial_sum_check(
        f, spec, args.nmax, steps=tuple(args.basis_steps))
    fields = {
        "kind": args.kind, "p": args.p, "alpha": args.alpha,
        "function": args.function, "n_big": report.n_big,
        "tails": [dict(step=n, **_scan_record(s)) for n, s in report.tails],
    }
    rows = [("tail", n, d, v) for n, s in report.tails
            for d, v in zip(s.degrees, s.values)]
    return (fields, rows, ("series", "step", "degree", "value"),
            [s for _, s in report.tails])


def _cmd_scan(args: argparse.Namespace) -> int:
    fields, rows, header, checked = args.run(args)
    if args.format == "csv":
        _write_output(_csv_rows(rows, header), args.out)
    else:
        _write_record("scan", {"target": args.target, **fields}, args.out)
    if getattr(args, "strict", False) and any(
            s.classification.kind is GrowthKind.UNDETERMINED for s in checked):
        print("strict mode: at least one scan is undetermined", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _cmd_selftest(args: argparse.Namespace) -> int:
    results = run_selftest(quick=args.quick)
    if args.format == "json":
        record = {
            "quick": args.quick,
            "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                       for r in results],
            "all_passed": all(r.passed for r in results),
        }
        _write_record("selftest", record, args.out)
    else:
        lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}"
                 for r in results]
        _write_output("\n".join(lines), args.out)
    return EXIT_OK if all(r.passed for r in results) else EXIT_SELFTEST


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use."""
    # no option prefixes: --jm is not --jmax, --nmax not --nmax-steps
    strict_parser = functools.partial(argparse.ArgumentParser,
                                      allow_abbrev=False)
    parser = strict_parser(
        prog="cesaro-bergman",
        description="Cesàro operator on weighted Bergman spaces: norms, "
                    "spectra, and divergence scans.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=strict_parser)

    def common(sp, *formats):
        sp.add_argument("--out", default=None, help="write output to this path")
        if formats:
            sp.add_argument("--format", choices=formats, default=formats[0])

    p_norm = sub.add_parser("norm", help="Bergman norms and seminorm families")
    mode = p_norm.add_mutually_exclusive_group(required=True)
    mode.add_argument("--monomial", action="store_true")
    mode.add_argument("--parseval", action="store_true")
    mode.add_argument("--quadrature", action="store_true")
    mode.add_argument("--family", choices=("frechet", "lb"))
    p_norm.add_argument("-j", "--index", type=int, default=None,
                        help="monomial degree")
    p_norm.add_argument("-p", type=float, default=2.0)
    p_norm.add_argument("--alpha", type=float, required=True)
    p_norm.add_argument("--coeffs-file", default=None,
                        help="JSON array of [re, im] coefficient pairs")
    p_norm.add_argument("--rel-tol", type=float, default=1e-9)
    p_norm.add_argument("--nmax-steps", type=int, default=8,
                        help="largest step index for --family")
    p_norm.add_argument("--check-asymptotic", action="store_true",
                        help="report the large-degree norm law for --monomial")
    common(p_norm, "json", "csv")
    p_norm.set_defaults(func=_cmd_norm)

    p_spec = sub.add_parser("spectrum", help="spectral sets and membership")
    p_spec.add_argument("--kind", choices=("banach", "frechet", "lb"),
                        required=True)
    p_spec.add_argument("-p", type=float, default=2.0)
    p_spec.add_argument("--alpha", type=float, required=True)
    p_spec.add_argument("--lambda", dest="lam", action="append", default=[],
                        type=_checked(_parse_complex, cmath.isfinite,
                                      "a finite re or re,im"),
                        help="query value, e.g. '0.5' or '0.5,0.25' (re,im)")
    p_spec.add_argument("--waelbroeck", action="store_true",
                        help="use the Waelbroeck spectrum (closure)")
    p_spec.add_argument("--crosscheck", action="store_true",
                        help="compare limit spectrum against step assembly")
    p_spec.add_argument("--grid", type=_checked(
        lambda s: tuple(int(t) for t in s.lower().split("x")),
        lambda g: len(g) == 2 and min(g) >= 1, "NxM with N, M >= 1"),
        default=(100, 100), help="cross-check lattice size, e.g. 100x100")
    p_spec.add_argument("--rect", type=_checked(
        lambda s: tuple(float(t) for t in s.split(",")),
        lambda r: (len(r) == 4 and all(map(math.isfinite, r))
                   and r[0] <= r[1] and r[2] <= r[3]),
        "four finite re0,re1,im0,im1 with re0 <= re1, im0 <= im1"),
        default=(-1.0, 2.0, -1.0, 1.0), help="re0,re1,im0,im1 lattice bounds")
    p_spec.add_argument("--nmax", type=int, default=100,
                        help="number of step spaces in the assembly")
    p_spec.add_argument("--band", type=_checked(
        float, lambda b: math.isfinite(b) and b >= 0.0, "finite band >= 0"),
        default=1e-9, help="boundary exclusion band")
    common(p_spec)
    p_spec.set_defaults(func=_cmd_spectrum)

    p_scan = sub.add_parser("scan", help="truncation-norm divergence scans")
    p_scan.set_defaults(func=_cmd_scan)
    targets = p_scan.add_subparsers(dest="target", required=True,
                                    parser_class=strict_parser)

    indices = _checked(_parse_int_list, lambda v: len(set(v)) == len(v),
                       "distinct comma-separated integers")

    def target(name, run, summary, alpha=True, nmax=True, strict=True):
        t = targets.add_parser(name, help=summary)
        t.add_argument("-p", type=float, default=2.0)
        if alpha:
            t.add_argument("--alpha", type=float, default=1.0)
        if nmax:
            t.add_argument("--nmax", type=int, default=DEFAULT_N_MAX,
                           help="largest truncation degree")
        if strict:
            t.add_argument("--strict", action="store_true", help="exit 3 "
                           "when any classification is undetermined")
        common(t, "json", "csv")
        t.set_defaults(run=run)
        return t

    eigen = target("eigen", _scan_eigen, "eigenvalue thresholds")
    ms = eigen.add_mutually_exclusive_group(required=True)
    ms.add_argument("-m", dest="ms", metavar="M", type=_checked(
        lambda s: [int(s)], bool, "an integer"))
    ms.add_argument("--m-list", dest="ms", metavar="M,...", type=_checked(
        indices, bool, "one or more m"), help="comma-separated m values")

    counter = target("counterexample", _scan_counterexample,
                     "no bounded inverse")
    counter.add_argument("--epsilon", type=float, required=True)
    counter.add_argument("--kind", choices=("frechet", "lb"), default="frechet")
    counter.add_argument("--steps", type=indices, help="step indices")

    gp = target("gp", _scan_gp, "Grothendieck-Pietsch non-nuclearity",
                nmax=False)
    gp.add_argument("-m", type=int, required=True)
    gp.add_argument("--jmax", type=int, default=10 ** 5, help="largest index")

    inclusion = target("inclusion", _scan_inclusion, "compact inclusions",
                       alpha=False, nmax=False, strict=False)
    inclusion.add_argument("--mu", type=float, required=True)
    inclusion.add_argument("--gamma", type=float, required=True)
    inclusion.add_argument("--jmax", type=int, default=10 ** 4,
                           help="largest index")

    schauder = target("schauder", _scan_schauder, "monomial Schauder basis")
    schauder.add_argument("--kind", choices=("frechet", "lb"), default="frechet")
    schauder.add_argument("--function", choices=(
        "constant", "eigenfunction", "binomial-plus"), default="eigenfunction")
    schauder.add_argument("-m", type=int, help="eigenfunction index")
    schauder.add_argument("--exponent", type=float, help="binomial exponent")
    schauder.add_argument("--basis-steps", type=indices, default=[1, 2, 3],
                          help="step seminorms tested")

    p_test = sub.add_parser("selftest", help="run the built-in invariant suite")
    p_test.add_argument("--quick", action="store_true",
                        help="smaller sizes, finishes in seconds")
    common(p_test, "text", "json")
    p_test.set_defaults(func=_cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse validation or --help/--version
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NonConvergedQuadrature as exc:
        print(f"quadrature did not converge: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:  # InvalidEpsilon, JSONDecodeError too
        print(f"invalid request: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
