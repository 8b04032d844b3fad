"""Truncation-norm scans: quantitative proxies for membership statements.

A statement "f belongs to A^p_alpha" becomes: Bergman norms of the degree-N
truncations of f stay bounded as N grows; "f does not belong" becomes: they
diverge.  Scans sample the norms at geometrically spaced degrees and a
regression classifier labels the growth as Converged, PowerDivergent,
LogDivergent, or Undetermined.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .norms import (
    NonConvergedQuadrature,
    SpaceKind,
    SpaceSpec,
    _line_fit,
    _log_monomial_ratio,
    norm_quadrature,
    parseval_weights,
)
from .series import (
    TaylorTruncation,
    binomial_series_coeffs,
    cesaro_inverse_apply,
    eigenfunction_truncation,
)

__all__ = [
    "GrowthKind",
    "GrowthClass",
    "NormScan",
    "InvalidEpsilon",
    "CounterexampleReport",
    "SchauderReport",
    "SeminormEntry",
    "scan_degrees",
    "classify_growth",
    "truncation_norms",
    "seminorm_family",
    "eigen_membership_scan",
    "expected_eigen_membership",
    "counterexample_blowup",
    "gp_nuclearity_sum",
    "schauder_partial_sum_check",
]

DEFAULT_N_MAX = 1 << 14
_SCAN_START = 16  # first scan degree
_TOL_CONV, _R2_MIN, _MIN_POWER = 1e-2, 0.99, 0.01  # see classify_growth
_SCAN_QUAD_TOL = 5e-5  # classification needs ~1% values; leave margin


class InvalidEpsilon(ValueError):
    """epsilon outside (0, 1) or incompatible with p (need p >= 1 + 2 eps)."""


class GrowthKind(enum.Enum):
    CONVERGED = "converged"
    POWER_DIVERGENT = "power_divergent"
    LOG_DIVERGENT = "log_divergent"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class GrowthClass:
    kind: GrowthKind
    exponent: float | None = None
    stderr: float | None = None
    r_squared: float | None = None

    @property
    def is_converged(self) -> bool:
        return self.kind is GrowthKind.CONVERGED

    @property
    def is_divergent(self) -> bool:
        return self.kind in (GrowthKind.POWER_DIVERGENT, GrowthKind.LOG_DIVERGENT)


@dataclass(frozen=True)
class NormScan:
    """Norms of truncations at increasing degrees plus the fitted growth law."""

    degrees: tuple[int, ...]
    values: tuple[float, ...]
    classification: GrowthClass


def scan_degrees(n_max: int = DEFAULT_N_MAX) -> list[int]:
    """Powers of two from _SCAN_START to n_max (n_max appended if not a power).

    classify_growth needs 4 degrees, so n_max must exceed 4 * _SCAN_START.
    """
    if n_max <= 4 * _SCAN_START:
        raise ValueError(f"n_max must be >= {4 * _SCAN_START + 1} to give the "
                         f"classifier 4 scan degrees, got {n_max}")
    out = []
    d = _SCAN_START
    while d <= n_max:
        out.append(d)
        d *= 2
    if out[-1] != n_max:
        out.append(n_max)
    return out


def classify_growth(degrees, values) -> GrowthClass:
    """Label a nonnegative scan sequence.

    Converged: the last two relative increments are below _TOL_CONV, or the
    sequence decreases (tail scans).  Divergent labels come from comparing a
    power law log v = a + b log N against v = a + b log N over the last half
    of the points, and over the last 3 when the half has fewer (a two-point
    fit would report R^2 = 1); the better model wins if its own R^2 exceeds
    _R2_MIN, a power law only with b > _MIN_POWER.
    """
    d = np.asarray(degrees, dtype=float)
    v = np.asarray(values, dtype=float)
    if d.shape != v.shape or d.ndim != 1 or len(d) < 4:
        raise ValueError("need matching 1-d arrays with at least 4 scan points")
    if not np.all(np.isfinite(v)):
        return GrowthClass(GrowthKind.UNDETERMINED)
    scale = float(v.max())
    if scale <= 0.0:
        return GrowthClass(GrowthKind.CONVERGED)
    diffs = np.diff(v)
    if np.all(diffs <= 1e-12 * scale) and v[-1] < v[0]:
        return GrowthClass(GrowthKind.CONVERGED)  # decreasing tail scan
    rel_inc = np.abs(diffs) / np.maximum(v[1:], 1e-300)
    if rel_inc[-1] < _TOL_CONV and rel_inc[-2] < _TOL_CONV:
        return GrowthClass(GrowthKind.CONVERGED)
    start = min(len(v) // 2, len(v) - 3)
    x = np.log(d[start:])
    y = v[start:]
    if np.any(y <= 0.0):
        return GrowthClass(GrowthKind.UNDETERMINED)
    bp, fit_p, ss_res_p, r2_p = _line_fit(x, np.log(y))
    sxx = float(np.sum((x - x.mean()) ** 2))
    dof = max(len(x) - 2, 1)
    stderr = math.sqrt(ss_res_p / dof / sxx) if sxx > 0 else math.inf
    bl, fit_l, _, r2_l = _line_fit(x, y)
    # compare the two models in value space
    err_p = float(np.sqrt(np.mean((np.exp(fit_p) - y) ** 2))) / float(y.mean())
    err_l = float(np.sqrt(np.mean((fit_l - y) ** 2))) / float(y.mean())
    power = GrowthClass(GrowthKind.POWER_DIVERGENT, float(bp), stderr, r2_p)
    logc = GrowthClass(GrowthKind.LOG_DIVERGENT, None, None, r2_l)
    first, second = (power, logc) if err_p <= err_l else (logc, power)
    for cand in (first, second):
        if cand.kind is GrowthKind.POWER_DIVERGENT:
            if r2_p > _R2_MIN and bp > _MIN_POWER:
                return cand
        else:
            if r2_l > _R2_MIN and bl > 0.0:
                return cand
    return GrowthClass(GrowthKind.UNDETERMINED, r_squared=max(r2_p, r2_l))


# ---------------------------------------------------------------------------
# norm evaluation over truncation degrees
# ---------------------------------------------------------------------------

def truncation_norms(coeffs: np.ndarray, p: float, alpha: float, degrees,
                     tails: bool = False,
                     rel_tol: float = _SCAN_QUAD_TOL) -> np.ndarray:
    """A^p_alpha norms of the truncations of coeffs at the given degrees, or
    with tails=True the norms of what each truncation leaves out.

    The one place that picks the method: Parseval sums over the weights of
    degree len(coeffs) - 1 at p = 2, adaptive quadrature at rel_tol
    otherwise.  A quadrature that does not converge, or a part with a
    coefficient that overflowed to inf, gives nan.
    """
    if p == 2.0:
        w = parseval_weights(alpha, len(coeffs) - 1)
        cum = np.cumsum(np.abs(coeffs) ** 2 * w)
        if tails:
            return np.sqrt(np.maximum(cum[-1] - cum[np.asarray(degrees)], 0.0))
        return np.sqrt(cum[np.asarray(degrees)])
    out = np.empty(len(degrees))
    for i, n in enumerate(degrees):
        if tails:
            part = coeffs.copy()
            part[: n + 1] = 0.0
        else:
            part = coeffs[: n + 1]
        if not np.isfinite(part).all():
            # norm_quadrature refuses it; eigenfunctions at m near 200
            # overflow past degree 2^11
            out[i] = math.nan
            continue
        try:
            out[i] = norm_quadrature(TaylorTruncation(part), p, alpha,
                                     rel_tol=rel_tol)
        except NonConvergedQuadrature:
            out[i] = math.nan
    return out


def _norm_scan(degrees: list[int], values) -> NormScan:
    return NormScan(tuple(degrees), tuple(float(x) for x in values),
                    classify_growth(degrees, values))


@dataclass(frozen=True)
class SeminormEntry:
    n: int
    alpha: float
    value: float
    ok: bool  # False when the quadrature failed to converge for this step


def seminorm_family(
    f: TaylorTruncation, spec: SpaceSpec, n_max: int, rel_tol: float = 1e-9
) -> list[SeminormEntry]:
    """Step seminorms ||f||_{p, alpha +/- 1/n} for the admissible n <= n_max.

    Entries where the quadrature fails to converge are marked ok=False (value
    nan) instead of aborting the family; p = 2 uses Parseval summation.
    Raises ValueError on rel_tol outside (0, 1) or no admissible n <= n_max.
    """
    if spec.kind is SpaceKind.BANACH:
        raise ValueError("seminorm families are defined for limit spaces only")
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    steps = spec.admissible_steps(n_max)
    if not steps:
        raise ValueError(f"no admissible step n <= {n_max}: the first is "
                         f"n = {spec.min_step()}")
    out: list[SeminormEntry] = []
    for n in steps:
        mu = spec.step_alpha(n)
        value = float(truncation_norms(f.coeffs, spec.p, mu, [f.degree],
                                       rel_tol=rel_tol)[0])
        out.append(SeminormEntry(n, mu, value, not math.isnan(value)))
    return out


# ---------------------------------------------------------------------------
# the scans
# ---------------------------------------------------------------------------

def expected_eigen_membership(m: int, p: float, alpha: float) -> bool:
    """Eigenvalue threshold: 1/m is an eigenvalue iff m < (2 + alpha)/p."""
    return m < (2.0 + alpha) / p


def eigen_membership_scan(m: int, p: float, alpha: float,
                          n_max: int = DEFAULT_N_MAX) -> NormScan:
    """Norm scan of the eigenfunction z^(m-1)(1-z)^(-m) truncations in
    A^p_alpha; Converged is expected exactly when m < (2+alpha)/p."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    degrees = scan_degrees(n_max)
    coeffs = eigenfunction_truncation(m, degrees[-1]).coeffs
    return _norm_scan(degrees, truncation_norms(coeffs, p, alpha, degrees))


@dataclass(frozen=True)
class CounterexampleReport:
    """Bounded-inverse counterexample: the source function lies in the limit
    space while its inverse image escapes every sufficiently fine step."""

    kind: SpaceKind
    epsilon: float
    source_exponent: float
    home_step: int
    source_scan: NormScan
    inverse_scans: tuple[tuple[int, NormScan], ...]


def counterexample_blowup(
    p: float,
    alpha: float,
    epsilon: float,
    kind: SpaceKind | str,
    n_max_degree: int = DEFAULT_N_MAX,
    steps: list[int] | None = None,
) -> CounterexampleReport:
    """Scan (1+z)^(-s) and its inverse-Cesàro image across step seminorms.

    Frechet case: s = (alpha+1-eps)/p; the source scan (at the first step n0
    with 1/n0 < eps) must converge while the inverse scans diverge for every
    step n >= n0.  LB case: s = (alpha+1-2 eps)/p, home step n_eps with
    1/n_eps < eps; inverse scans at finer steps m > n_eps all diverge.
    """
    if not (0.0 < epsilon < 1.0) or p < 1.0 + 2.0 * epsilon:
        raise InvalidEpsilon(
            f"need epsilon in (0,1) with p >= 1 + 2*epsilon, got p={p}, "
            f"epsilon={epsilon}")
    spec = SpaceSpec(p, alpha, SpaceKind(kind))
    if spec.kind is SpaceKind.BANACH:
        raise ValueError("counterexample applies to limit spaces only")
    degrees = scan_degrees(n_max_degree)
    lb = spec.kind is SpaceKind.LB_UNION
    s = (alpha + 1.0 - (2.0 if lb else 1.0) * epsilon) / p
    # the home step is the first admissible n with 1/n < epsilon; LB tests
    # the finer steps only
    home = max(int(math.floor(1.0 / epsilon)) + 1, spec.min_step())
    first = home + 1 if lb else home
    tested = steps if steps is not None else list(range(first, first + 4))
    if any(n < first for n in tested):
        raise ValueError(f"steps must be >= {first} (1/n < epsilon"
                         f"{', finer than the home step' if lb else ''})")
    source = binomial_series_coeffs(s, degrees[-1]).coeffs
    inverse = cesaro_inverse_apply(TaylorTruncation(source)).coeffs
    source_scan = _norm_scan(degrees, truncation_norms(
        source, p, spec.step_alpha(home), degrees))
    inv_scans = tuple(
        (n, _norm_scan(degrees, truncation_norms(
            inverse, p, spec.step_alpha(n), degrees)))
        for n in tested)
    return CounterexampleReport(spec.kind, epsilon, s, home, source_scan,
                                inv_scans)


def gp_nuclearity_sum(p: float, alpha: float, m: int,
                      j_max: int = 10 ** 5) -> NormScan:
    """Partial sums of the Grothendieck-Pietsch ratios
    ||z^j||_{p,alpha+1} / ||z^j||_{p,alpha+1/m}.

    The ratios behave like j^{(1/m-1)/p}, so the sums grow like
    N^{1-(1-1/m)/p}: divergence for every m > 1 rules nuclearity out.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if j_max < 128:  # the scan runs to the power of two at or below j_max
        raise ValueError(
            f"j_max must be >= 128 to give the classifier 4 scan degrees, "
            f"got {j_max}")
    j = np.arange(1, j_max + 1, dtype=float)
    sums = np.cumsum(np.exp(_log_monomial_ratio(j, p, alpha + 1.0,
                                                alpha + 1.0 / m)))
    degrees = scan_degrees(1 << int(math.floor(math.log2(j_max))))
    return _norm_scan(degrees, sums[np.asarray(degrees) - 1])


@dataclass(frozen=True)
class SchauderReport:
    """Per-step tail scans ||f_(N_big) - f_(N)|| of the monomial expansion."""

    spec: SpaceSpec
    n_big: int
    tails: tuple[tuple[int, NormScan], ...]  # (step index, tail scan)


def schauder_partial_sum_check(
    f_full: TaylorTruncation,
    spec: SpaceSpec,
    n_max: int = DEFAULT_N_MAX,
    steps: tuple[int, ...] = (1, 2, 3),
) -> SchauderReport:
    """Monomial-basis convergence: tail seminorms must decrease to zero.

    f_full is the reference truncation (degree at least 2 * n_max) standing
    in for the infinite expansion; its membership in the space is the
    caller's responsibility.  The squared values are the Parseval tail sums
    at p = 2.
    """
    if spec.kind is SpaceKind.BANACH:
        raise ValueError("basis check targets the limit spaces")
    if f_full.degree < 2 * n_max:
        raise ValueError("reference truncation must have degree >= 2 * n_max")
    degrees = scan_degrees(n_max)
    tails = tuple(
        (n, _norm_scan(degrees, truncation_norms(
            f_full.coeffs, spec.p, spec.step_alpha(n), degrees, tails=True)))
        for n in steps)
    return SchauderReport(spec, f_full.degree, tails)
