"""Built-in invariant suite behind the selftest command.

Each check recomputes a structural identity along two independent routes and
compares; a fresh checkout passes all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import norms, scans, series, spectra


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_roundtrip(quick: bool) -> CheckResult:
    rng = np.random.default_rng(20240511)
    trials = 20 if quick else 100
    worst = 0.0
    for _ in range(trials):
        coeffs = rng.uniform(-1, 1, 201) + 1j * rng.uniform(-1, 1, 201)
        f = series.TaylorTruncation(coeffs)
        back = series.cesaro_inverse_apply(series.cesaro_apply(f))
        worst = max(worst, float(np.max(np.abs(back.coeffs - f.coeffs))))
        rec = series.recover_from_cesaro(series.cesaro_apply(f))
        worst = max(worst, float(np.max(np.abs(rec.coeffs - f.coeffs[:-1]))))
    return CheckResult("roundtrip", worst < 1e-12, f"max coeff error {worst:.3e}")


def _check_eigen_residual(quick: bool) -> CheckResult:
    degree = 200 if quick else 500
    for m in range(1, 11):
        if not series.eigen_residual_exact(m, degree):
            return CheckResult("eigen-residual", False,
                               f"integer identity failed at m={m}")
        f = series.eigenfunction_truncation(m, degree)
        resid = series.cesaro_apply(f).coeffs - f.coeffs / m
        scale = np.maximum(1.0, np.abs(f.coeffs))
        rel = float(np.max(np.abs(resid) / scale))
        if rel > 1e-12:
            return CheckResult("eigen-residual", False,
                               f"float residual {rel:.3e} at m={m}")
    return CheckResult("eigen-residual", True, f"m=1..10 at degree {degree}")


def _check_parseval_agreement(quick: bool) -> CheckResult:
    rng = np.random.default_rng(987)
    degree = 60 if quick else 100
    coeffs = rng.uniform(-1, 1, degree + 1) + 1j * rng.uniform(-1, 1, degree + 1)
    f = series.TaylorTruncation(coeffs)
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0):
        a = norms.norm_parseval(f, alpha)
        b = norms.norm_quadrature(f, 2.0, alpha, rel_tol=1e-10)
        worst = max(worst, abs(a - b) / a)
    return CheckResult("parseval-quadrature", worst < 1e-8,
                       f"max relative gap {worst:.3e}")


def _check_predicate_equivalence(quick: bool) -> CheckResult:
    rng = np.random.default_rng(4242)
    count = 10_000 if quick else 100_000
    lam = rng.uniform(-2, 2, count) + 1j * rng.uniform(-2, 2, count)
    lam = lam[np.abs(lam) > 1e-12]
    for spec in (norms.SpaceSpec(2.0, 2.0),
                 norms.SpaceSpec(1.5, 0.7, norms.SpaceKind.FRECHET_INTERSECTION),
                 norms.SpaceSpec(3.0, 2.5, norms.SpaceKind.LB_UNION)):
        desc = spectra.spectrum(spec)
        direct = np.array([desc.disk_member_direct(z) for z in lam])
        recip = np.array([desc.disk_member_reciprocal(z) for z in lam])
        # the predicates may legitimately differ within rounding of the circle
        edge = np.abs(np.abs(lam - desc.disk_center) - desc.disk_radius) < 1e-12
        if np.any(direct[~edge] != recip[~edge]):
            return CheckResult("predicate-equivalence", False,
                               f"disagreement at r={desc.disk_r}")
    return CheckResult("predicate-equivalence", True, f"{len(lam)} samples")


def _check_classifier(quick: bool) -> CheckResult:
    degs = scans.scan_degrees(1 << (10 if quick else 14))
    const = scans.classify_growth(degs, [3.7] * len(degs))
    if const.kind is not scans.GrowthKind.CONVERGED:
        return CheckResult("classifier", False, "constant misclassified")
    logs = scans.classify_growth(degs, [math.log(n) for n in degs])
    if logs.kind is not scans.GrowthKind.LOG_DIVERGENT:
        return CheckResult("classifier", False, "log growth misclassified")
    for beta in (0.1, 0.25, 0.5, 0.75, 1.0):
        got = scans.classify_growth(degs, [n ** beta for n in degs])
        if got.kind is not scans.GrowthKind.POWER_DIVERGENT:
            return CheckResult("classifier", False, f"N^{beta} misclassified")
        if abs(got.exponent - beta) > 0.05 * beta:
            return CheckResult("classifier", False,
                               f"N^{beta} exponent off: {got.exponent:.4f}")
    return CheckResult("classifier", True, "constant/log/power suite")


_CHECKS = [
    _check_roundtrip,
    _check_eigen_residual,
    _check_parseval_agreement,
    _check_predicate_equivalence,
    _check_classifier,
]


def run_selftest(quick: bool = False) -> list[CheckResult]:
    """Run every invariant check in turn."""
    return [check(quick) for check in _CHECKS]
