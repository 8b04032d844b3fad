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
from functools import lru_cache

import numpy as np

from .norms import (
    NonConvergedQuadrature,
    SpaceKind,
    SpaceSpec,
    monomial_norm,
    norm_quadrature,
    parseval_weights,
)
from .series import (
    BinomialSign,
    TaylorTruncation,
    binomial_series_coeffs,
    cesaro_inverse_apply,
    eigen_residual_exact,
    eigenfunction_truncation,
)

__all__ = [
    "GrowthKind",
    "GrowthClass",
    "NormScan",
    "InvalidEpsilon",
    "CounterexampleReport",
    "SchauderReport",
    "scan_degrees",
    "classify_growth",
    "eigen_membership_scan",
    "expected_eigen_membership",
    "counterexample_blowup",
    "gp_nuclearity_sum",
    "schauder_partial_sum_check",
]

DEFAULT_N_MAX = 1 << 14
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


def scan_degrees(n_max: int = DEFAULT_N_MAX, start: int = 16) -> list[int]:
    """Powers of two from start to n_max (n_max appended if not a power).

    classify_growth needs 4 degrees, so n_max must exceed 4 * start.
    """
    if n_max <= 4 * start:
        raise ValueError(f"n_max must be >= {4 * start + 1} to give the "
                         f"classifier 4 scan degrees, got {n_max}")
    out = []
    d = start
    while d <= n_max:
        out.append(d)
        d *= 2
    if out[-1] != n_max:
        out.append(n_max)
    return out


def classify_growth(
    degrees,
    values,
    tol_conv: float = 1e-2,
    r2_min: float = 0.99,
    min_power: float = 0.01,
) -> GrowthClass:
    """Label a nonnegative scan sequence.

    Converged: the last two relative increments are below tol_conv, or the
    sequence decreases (tail scans).  Divergent labels come from comparing a
    power law log v = a + b log N against v = a + b log N over the last half
    of the points; the better model wins if its own R^2 exceeds r2_min.
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
    if rel_inc[-1] < tol_conv and rel_inc[-2] < tol_conv:
        return GrowthClass(GrowthKind.CONVERGED)
    half = len(v) // 2
    x = np.log(d[half:])
    y = v[half:]
    if np.any(y <= 0.0):
        return GrowthClass(GrowthKind.UNDETERMINED)
    ly = np.log(y)
    bp, ap = np.polyfit(x, ly, 1)
    fit_p = ap + bp * x
    ss_tot_p = float(np.sum((ly - ly.mean()) ** 2))
    ss_res_p = float(np.sum((ly - fit_p) ** 2))
    r2_p = 1.0 - ss_res_p / ss_tot_p if ss_tot_p > 0 else 0.0
    sxx = float(np.sum((x - x.mean()) ** 2))
    dof = max(len(x) - 2, 1)
    stderr = math.sqrt(ss_res_p / dof / sxx) if sxx > 0 else math.inf
    bl, al = np.polyfit(x, y, 1)
    fit_l = al + bl * x
    ss_tot_l = float(np.sum((y - y.mean()) ** 2))
    ss_res_l = float(np.sum((y - fit_l) ** 2))
    r2_l = 1.0 - ss_res_l / ss_tot_l if ss_tot_l > 0 else 0.0
    # compare the two models in value space
    err_p = float(np.sqrt(np.mean((np.exp(fit_p) - y) ** 2))) / float(y.mean())
    err_l = float(np.sqrt(np.mean((fit_l - y) ** 2))) / float(y.mean())
    power = GrowthClass(GrowthKind.POWER_DIVERGENT, float(bp), stderr, r2_p)
    logc = GrowthClass(GrowthKind.LOG_DIVERGENT, None, None, r2_l)
    first, second = (power, logc) if err_p <= err_l else (logc, power)
    for cand in (first, second):
        if cand.kind is GrowthKind.POWER_DIVERGENT:
            if r2_p > r2_min and bp > min_power:
                return cand
        else:
            if r2_l > r2_min and bl > 0.0:
                return cand
    return GrowthClass(GrowthKind.UNDETERMINED, r_squared=max(r2_p, r2_l))


# ---------------------------------------------------------------------------
# norm evaluation over truncation degrees
# ---------------------------------------------------------------------------

def _parseval_scan_values(coeffs: np.ndarray, alpha: float,
                          degrees: list[int]) -> np.ndarray:
    w = parseval_weights(alpha, len(coeffs) - 1)
    cum = np.cumsum(np.abs(coeffs) ** 2 * w)
    return np.sqrt(cum[np.asarray(degrees)])


def _quadrature_scan_values(coeffs: np.ndarray, p: float, alpha: float,
                            degrees: list[int]) -> np.ndarray:
    out = np.empty(len(degrees))
    for i, n in enumerate(degrees):
        try:
            out[i] = norm_quadrature(TaylorTruncation(coeffs[: n + 1]), p, alpha,
                                     rel_tol=_SCAN_QUAD_TOL)
        except NonConvergedQuadrature:
            out[i] = math.nan
    return out


def _truncation_norm_scan(coeffs: np.ndarray, p: float, alpha: float,
                          degrees: list[int]) -> NormScan:
    if p == 2.0:
        values = _parseval_scan_values(coeffs, alpha, degrees)
    else:
        values = _quadrature_scan_values(coeffs, p, alpha, degrees)
    return NormScan(tuple(degrees), tuple(float(x) for x in values),
                    classify_growth(degrees, values))


# ---------------------------------------------------------------------------
# the scans
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _eigen_oracle_checked(m: int) -> bool:
    return eigen_residual_exact(m, 360)


def expected_eigen_membership(m: int, p: float, alpha: float) -> bool:
    """Eigenvalue threshold: 1/m is an eigenvalue iff m < (2 + alpha)/p."""
    return m < (2.0 + alpha) / p


def eigen_membership_scan(m: int, p: float, alpha: float,
                          n_max: int = DEFAULT_N_MAX) -> NormScan:
    """Norm scan of the eigenfunction z^(m-1)(1-z)^(-m) truncations in
    A^p_alpha; Converged is expected exactly when m < (2+alpha)/p."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    if not _eigen_oracle_checked(m):  # exact-arithmetic eigen identity
        raise AssertionError("eigen residual oracle failed; refusing to scan")
    degrees = scan_degrees(n_max)
    coeffs = eigenfunction_truncation(m, degrees[-1]).coeffs
    return _truncation_norm_scan(coeffs, p, alpha, degrees)


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
    kind = SpaceKind(kind) if isinstance(kind, str) else kind
    if not (0.0 < epsilon < 1.0) or p < 1.0 + 2.0 * epsilon:
        raise InvalidEpsilon(
            f"need epsilon in (0,1) with p >= 1 + 2*epsilon, got p={p}, "
            f"epsilon={epsilon}")
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    degrees = scan_degrees(n_max_degree)
    top = degrees[-1]
    n0 = int(math.floor(1.0 / epsilon)) + 1
    if kind is SpaceKind.FRECHET_INTERSECTION:
        s = (alpha + 1.0 - epsilon) / p
        home = n0
        tested = steps if steps is not None else list(range(n0, n0 + 4))
        if any(n < n0 for n in tested):
            raise ValueError(f"steps must satisfy 1/n < epsilon (n >= {n0})")
        step_alpha = {n: alpha + 1.0 / n for n in tested}
        home_alpha = alpha + 1.0 / home
    elif kind is SpaceKind.LB_UNION:
        s = (alpha + 1.0 - 2.0 * epsilon) / p
        home = max(n0, int(math.floor(1.0 / alpha)) + 1)
        tested = steps if steps is not None else list(range(home + 1, home + 5))
        if any(n <= home for n in tested):
            raise ValueError(f"LB steps must be finer than the home step {home}")
        step_alpha = {n: alpha - 1.0 / n for n in tested}
        home_alpha = alpha - 1.0 / home
    else:
        raise ValueError("counterexample applies to limit spaces only")
    source = binomial_series_coeffs(s, BinomialSign.PLUS_Z, top).coeffs
    inverse = cesaro_inverse_apply(TaylorTruncation(source)).coeffs
    source_scan = _truncation_norm_scan(source, p, home_alpha, degrees)
    inv_scans = tuple(
        (n, _truncation_norm_scan(inverse, p, step_alpha[n], degrees))
        for n in tested)
    return CounterexampleReport(kind, epsilon, s, home, source_scan, inv_scans)


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
    j = np.arange(1, j_max + 1)
    ratios = monomial_norm(j, p, alpha + 1.0) / monomial_norm(j, p, alpha + 1.0 / m)
    sums = np.cumsum(ratios)
    degrees = scan_degrees(1 << int(math.floor(math.log2(j_max))))
    values = sums[np.asarray(degrees) - 1]
    return NormScan(tuple(degrees), tuple(float(x) for x in values),
                    classify_growth(degrees, values))


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
    n_big = f_full.degree
    coeffs = f_full.coeffs
    out = []
    for n in steps:
        mu = spec.step_alpha(n)
        if spec.p == 2.0:
            w = parseval_weights(mu, n_big)
            cum = np.cumsum(np.abs(coeffs) ** 2 * w)
            tails = np.sqrt(np.maximum(cum[-1] - cum[np.asarray(degrees)], 0.0))
        else:
            tails = np.empty(len(degrees))
            for i, nn in enumerate(degrees):
                sliced = coeffs.copy()
                sliced[: nn + 1] = 0.0
                try:
                    tails[i] = norm_quadrature(TaylorTruncation(sliced), spec.p,
                                               mu, rel_tol=_SCAN_QUAD_TOL)
                except NonConvergedQuadrature:
                    tails[i] = math.nan
        scan = NormScan(tuple(degrees), tuple(float(x) for x in tails),
                        classify_growth(degrees, tails))
        out.append((n, scan))
    return SchauderReport(spec, n_big, tuple(out))
