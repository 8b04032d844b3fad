"""The four workloads: their seeded inputs, their operations and the checks.

An operation is one call into the program, timed on its own.  Its check
compares the result with a value computed in refs.py, apart from the
program, or with a property the paper proves.  An operation marked ``fault``
runs on a fixed input on which a known program fault makes it fail every
time; it is counted as failed, and every other failure makes the run
incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

import refs

HERE = Path(__file__).resolve().parent
REFS_FILE = HERE / "user_norm_refs.json"

# half the CLI default 2^14, so that a run holds four rounds instead of two
EIGEN_QUAD_N_MAX = 1 << 13
PARSEVAL_N_MAX = 1 << 20
GP_J_MAX = 10 ** 6
USER_NORM_REL_TOL = 1e-9
USER_NORM_ALPHAS = (0.5, 1.0, 2.0)
# seeded p = 4 polynomials: one per (degree, alpha), so that the seed moves
# the zeros but not the work
USER_NORM_P4_DEGREES = tuple(range(2, 9))
SPECTRA_GRID = (250, 250)
# frechet assembles its union step by step, lb through one boolean stack;
# these step counts make the two cross-checks equally long (about 2.1 s)
SPECTRA_NMAX = {"frechet": 1500, "lb": 1000}
# each kind draws p in [2.5, 3.5] and (2+alpha)/p in the given range, so that
# every step circle has (2+alpha')/p in (1, 2): one eigenvalue per step, and a
# cost that the seed does not change
SPECTRA_P = (2.5, 3.5)
SPECTRA_R = {"frechet": (1.1, 1.5), "lb": (1.6, 1.9)}
SPECTRA_LAMBDAS = 8

# (m, alpha) per p for eigen-quad: off the threshold (|m - (2+alpha)/p| >= 1/2)
# and of the same cost within each p (20 adaptive passes per scan at
# N_max = 2^13), so that the seed does not change the work.  Converged scans
# at p = 4 run about 20% faster than divergent ones, so p = 4 keeps only the
# divergent cases; both verdicts occur at p = 1.5 and p = 3.
EIGEN_QUAD_CASES = {
    1.5: ((1, 0.5), (2, 2.0), (3, 4.0), (3, 1.0), (4, 2.0), (5, 3.0)),
    3.0: ((1, 2.0), (1, 4.0), (2, 6.0), (2, 2.0), (3, 1.0), (3, 4.0)),
    4.0: ((2, 1.0), (2, 4.0), (3, 2.0)),
}
# eigen scans at m >= 40 overflow when the Parseval scan squares the
# binomial coefficients, and end Undetermined instead of divergent
PARSEVAL_FAULT = (40, 1.0)
# relative tolerance of the Parseval scan at m = 1 against the beta sums
PARSEVAL_M1_TOL = 1e-10
# the eigen-quad scans run the quadrature at the scan tolerance 5e-5
EIGEN_P4_TOL = 1e-4


def _failed(result) -> bool:
    return isinstance(result, BaseException)


def _kind(scan) -> str:
    return scan.classification.kind.value


def _divergent(scan) -> bool:
    return _kind(scan) in ("power_divergent", "log_divergent")


def _close(values, ref, tol) -> bool:
    return len(values) == len(ref) and all(
        abs(v - r) <= tol * abs(r) for v, r in zip(values, ref))


class Op:
    """One timed call into the program and the check of its result."""

    label = "op"
    fault = False

    def run(self):
        raise NotImplementedError

    def prepare(self) -> None:
        """Compute the benchmark's own reference values (untimed)."""

    def check(self, result) -> bool:
        raise NotImplementedError


class EigenScan(Op):
    """eigen_membership_scan; the verdict must follow m < (2+alpha)/p.

    At p = 4 the values must match ||f^2||_2^(1/2) by Parseval, and at p = 2,
    m = 1 the partial sums of 2 B(2j+2, alpha+1).
    """

    def __init__(self, pkg, m: int, p: float, alpha: float, n_max: int,
                 fault: bool = False):
        self.pkg, self.m, self.p, self.alpha, self.n_max = pkg, m, p, alpha, n_max
        self.fault = fault
        self.label = f"eigen m={m} p={p:g} alpha={alpha:.4g} N={n_max}"
        self.ref = None

    def run(self):
        return self.pkg.scans.eigen_membership_scan(self.m, self.p, self.alpha,
                                                    self.n_max)

    def prepare(self) -> None:
        self.degrees = refs.scan_degrees(self.n_max)
        if self.p == 4.0:
            self.ref = refs.eigen_p4_scan(self.m, self.alpha, self.n_max)
            self.tol = EIGEN_P4_TOL
        elif self.p == 2.0 and self.m == 1:
            self.ref = refs.constant_one_p2_scan(self.alpha, self.n_max)
            self.tol = PARSEVAL_M1_TOL

    def check(self, scan) -> bool:
        if _failed(scan) or list(scan.degrees) != self.degrees:
            return False
        if refs.eigen_member(self.m, self.p, self.alpha):
            ok = _kind(scan) == "converged"
        else:
            ok = _divergent(scan)
        return ok and (self.ref is None or _close(scan.values, self.ref, self.tol))


class Counterexample(Op):
    """counterexample_blowup at p = 2: the source converges in its home step
    and the inverse-Cesaro image diverges in every finer step."""

    def __init__(self, pkg, kind: str, alpha: float, epsilon: float, n_max: int):
        self.pkg, self.kind, self.alpha, self.epsilon, self.n_max = (
            pkg, kind, alpha, epsilon, n_max)
        self.label = f"counterexample {kind} alpha={alpha:.4g} eps={epsilon:.4g}"

    def run(self):
        return self.pkg.scans.counterexample_blowup(2.0, self.alpha, self.epsilon,
                                                    self.kind, self.n_max)

    def check(self, report) -> bool:
        if _failed(report):
            return False
        return (_kind(report.source_scan) == "converged"
                and len(report.inverse_scans) > 0
                and all(_divergent(s) for _, s in report.inverse_scans))


class Schauder(Op):
    """schauder_partial_sum_check on an eigenfunction that lies in the space:
    every tail scan converges, decreases, and ends below 1e-6 of its start."""

    def __init__(self, pkg, kind: str, m: int, alpha: float, n_max: int,
                 steps: tuple[int, ...]):
        self.pkg, self.kind, self.m, self.alpha, self.n_max, self.steps = (
            pkg, kind, m, alpha, n_max, steps)
        self.label = f"schauder {kind} m={m} alpha={alpha:.4g}"

    def run(self):
        norms = self.pkg.norms
        f = self.pkg.series.eigenfunction_truncation(self.m, 2 * self.n_max)
        spec = norms.SpaceSpec(2.0, self.alpha, norms.SpaceKind(self.kind))
        return self.pkg.scans.schauder_partial_sum_check(f, spec, self.n_max,
                                                         steps=self.steps)

    def check(self, report) -> bool:
        if _failed(report) or [n for n, _ in report.tails] != list(self.steps):
            return False
        for _, scan in report.tails:
            v = scan.values
            if (_kind(scan) != "converged" or not v[0] > 0.0
                    or any(b > a for a, b in zip(v, v[1:]))
                    or not v[-1] <= 1e-6 * v[0]):
                return False
        return True


class GpSum(Op):
    """gp_nuclearity_sum at p = 2: power divergence with the exponent
    1 - (1 - 1/m)/p, to 5%."""

    def __init__(self, pkg, m: int, alpha: float, j_max: int):
        self.pkg, self.m, self.alpha, self.j_max = pkg, m, alpha, j_max
        self.label = f"gp m={m} alpha={alpha:.4g}"

    def run(self):
        return self.pkg.scans.gp_nuclearity_sum(2.0, self.alpha, self.m, self.j_max)

    def check(self, scan) -> bool:
        if _failed(scan) or _kind(scan) != "power_divergent":
            return False
        expected = refs.gp_exponent(2.0, self.m)
        return abs(scan.classification.exponent - expected) <= 0.05 * expected


class QuadNorm(Op):
    """norm_quadrature_with_rule at rel_tol 1e-9: the value must lie within
    rel_tol of the reference (from user_norm_refs.json, or by Parseval of
    f^2 at p = 4)."""

    def __init__(self, pkg, label: str, coeffs, p: float, alpha: float,
                 ref: float | None = None, fault: bool = False):
        self.pkg, self.p, self.alpha, self.ref, self.fault = pkg, p, alpha, ref, fault
        self.coeffs = np.asarray(coeffs, dtype=complex)
        self.f = pkg.series.TaylorTruncation(self.coeffs)
        self.label = f"{label} p={p:g} alpha={alpha:g}"

    def run(self):
        return self.pkg.norms.norm_quadrature_with_rule(
            self.f, self.p, self.alpha, rel_tol=USER_NORM_REL_TOL)

    def prepare(self) -> None:
        if self.p == 4.0:
            self.ref = refs.p4_norm(self.coeffs, self.alpha)

    def check(self, result) -> bool:
        if _failed(result):
            return False
        value = result[0]
        return abs(value - self.ref) <= USER_NORM_REL_TOL * self.ref


class SpectrumCheck(Op):
    """``spectrum --crosscheck`` then ``spectrum --lambda`` for one limit
    space, through cli.main in-process.  The cross-check must exit 0 with no
    disagreement and n_checked + n_excluded = nx*ny, n_checked > 0; the
    verdicts must match refs.spectrum_membership."""

    def __init__(self, pkg, kind: str, p: float, alpha: float,
                 grid: tuple[int, int], n_max: int, lambdas: list[complex]):
        self.pkg, self.kind, self.p, self.alpha = pkg, kind, p, alpha
        self.grid, self.lambdas = grid, lambdas
        self.label = f"spectrum {kind} p={p:.4g} alpha={alpha:.4g}"
        common = ["spectrum", "--kind", kind, "-p", repr(p), "--alpha", repr(alpha)]
        self.cross_argv = common + ["--crosscheck", "--grid", f"{grid[0]}x{grid[1]}",
                                    "--nmax", str(n_max)]
        self.lambda_argv = common + [f"--lambda={z.real!r},{z.imag!r}" for z in lambdas]

    def _cli(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.pkg.cli.main(argv)
        return code, buf.getvalue()

    def run(self):
        return self._cli(self.cross_argv), self._cli(self.lambda_argv)

    def check(self, result) -> bool:
        if _failed(result):
            return False
        (code_x, out_x), (code_l, out_l) = result
        if code_x != 0 or code_l != 0:
            return False
        cross = json.loads(out_x)
        nx, ny = self.grid
        if (cross["disagreements"] or cross["n_checked"] <= 0
                or cross["n_checked"] + cross["n_excluded"] != nx * ny):
            return False
        verdicts = json.loads(out_l)["verdicts"]
        want = [refs.spectrum_membership(self.kind, self.p, self.alpha, z)
                for z in self.lambdas]
        return [v["verdict"] for v in verdicts] == want


# ---------------------------------------------------------------------------
# seeded batches
# ---------------------------------------------------------------------------

def eigen_quad(pkg, seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for p, cases in EIGEN_QUAD_CASES.items():
        m, alpha = cases[rng.integers(len(cases))]
        ops.append(EigenScan(pkg, m, p, alpha, EIGEN_QUAD_N_MAX))
    return ops


def _eigen_alpha(rng, m: int) -> float:
    # off the threshold by at least 1/2, so that the scan can decide
    while True:
        alpha = float(rng.uniform(0.5, 2.0 * m + 3.0))
        if abs(m - (2.0 + alpha) / 2.0) >= 0.5:
            return alpha


def parseval_scan(pkg, seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    n = PARSEVAL_N_MAX
    ops: list[Op] = [EigenScan(pkg, 1, 2.0, float(rng.uniform(0.5, 4.0)), n)]
    for m in rng.integers(2, 21, size=4):
        ops.append(EigenScan(pkg, int(m), 2.0, _eigen_alpha(rng, int(m)), n))
    fault_m, fault_alpha = PARSEVAL_FAULT
    ops.append(EigenScan(pkg, fault_m, 2.0, fault_alpha, n, fault=True))
    kind = ("frechet", "lb")[rng.integers(2)]
    ops.append(Counterexample(pkg, kind, float(rng.uniform(0.5, 3.0)),
                              float(rng.uniform(0.2, 0.45)), n))
    # tails of z^(m-1)(1-z)^(-m) at step weight mu fall like N^(-(mu-2(m-1))/2);
    # mu - 2(m-1) >= 2.5 puts the last tail below 1e-6 of the first
    kind = ("frechet", "lb")[rng.integers(2)]
    m = int(rng.integers(1, 3))
    alpha = 2.0 * (m - 1) + float(rng.uniform(3.0, 4.0))
    steps = (1, 2, 3) if kind == "frechet" else (2, 3, 4)
    ops.append(Schauder(pkg, kind, m, alpha, n // 2, steps))
    ops.append(GpSum(pkg, int(rng.integers(2, 7)), float(rng.uniform(0.5, 3.0)),
                     GP_J_MAX))
    return ops


def _random_poly(rng, degree: int, zero_moduli) -> np.ndarray:
    mod = rng.uniform(*zero_moduli, degree)
    zeros = mod * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, degree))
    c = np.poly(zeros)[::-1].astype(complex)
    return c / np.abs(c).max()


def user_norm(pkg, seed: int) -> list[Op]:
    doc = json.loads(REFS_FILE.read_text(encoding="utf-8"))
    rng = np.random.default_rng(seed)
    ops: list[Op] = []
    # p = 1.5 and p = 3: the whole reference pool at every alpha
    for p in (1.5, 3.0):
        for entry in doc["pool"]:
            coeffs = [complex(*c) for c in entry["coeffs"]]
            for alpha in USER_NORM_ALPHAS:
                ops.append(QuadNorm(pkg, entry["id"], coeffs, p, alpha,
                                    ref=entry["refs"][str(p)][str(alpha)]))
    # p = 4: fresh polynomials with zeros inside and outside the disk
    for degree in USER_NORM_P4_DEGREES:
        for alpha in USER_NORM_ALPHAS:
            ops.append(QuadNorm(pkg, f"seeded-deg{degree}",
                                _random_poly(rng, degree, (0.2, 3.0)), 4.0, alpha))
    order = rng.permutation(len(ops))
    ops = [ops[i] for i in order]
    for entry in doc["faults"]:
        ops.append(QuadNorm(pkg, entry["id"], [complex(*c) for c in entry["coeffs"]],
                            entry["p"], entry["alpha"], ref=entry["ref"], fault=True))
    return ops


def _lambdas(rng, p: float, alpha: float) -> list[complex]:
    r = (2.0 + alpha) / p
    center = radius = 0.5 / r
    eigen = [1.0 / m for m in range(1, math.ceil(r)) if m < r]
    out = [0j] + [complex(x) for x in eigen[:2]]
    inside = 3
    while len(out) < SPECTRA_LAMBDAS:
        rho = rng.uniform(0.0, 0.9) if inside > 0 else rng.uniform(1.1, 3.0)
        z = center + rho * radius * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        if inside <= 0 and min((abs(z - e) for e in eigen), default=1.0) < 1e-3:
            continue
        inside -= 1
        out.append(complex(z))
    return out


def spectra_crosscheck(pkg, seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops: list[Op] = []
    for kind in ("frechet", "lb"):
        p = float(rng.uniform(*SPECTRA_P))
        alpha = float(rng.uniform(*SPECTRA_R[kind])) * p - 2.0
        ops.append(SpectrumCheck(pkg, kind, p, alpha, SPECTRA_GRID,
                                 SPECTRA_NMAX[kind], _lambdas(rng, p, alpha)))
    return ops


WORKLOADS = {
    "eigen-quad": eigen_quad,
    "parseval-scan": parseval_scan,
    "user-norm": user_norm,
    "spectra-crosscheck": spectra_crosscheck,
}
