"""Truncation-norm scans: quantitative proxies for membership statements.

A statement "f belongs to A^p_alpha" becomes: Bergman norms of the degree-N
truncations of f stay bounded as N grows; "f does not belong" becomes: they
diverge.  Scans sample the norms v at geometrically spaced degrees; one line
fit of the increments of v^p in log N labels the growth Converged,
PowerDivergent, LogDivergent (v^p ~ log N, as at m = (2+alpha)/p) or
Undetermined.
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
    _check_exponents,
    _first_step_below,
    _line_fit,
    _log_monomial_ratio,
    norm_quadrature,
    parseval_weights,
)
from .series import (
    TaylorTruncation,
    _index,
    binomial_series_coeffs,
    cesaro_inverse_apply,
    eigenfunction_truncation,
)
from .spectra import _last_eigen_index

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
# slopes of log Delta(v^p) within _BAND of 0 read as the threshold's log law
_BAND = 0.05
_SCAN_QUAD_TOL = 5e-5  # classification needs ~1% values; leave margin


class InvalidEpsilon(ValueError):
    """epsilon outside (0, 1), incompatible with p (need p >= 1 + 2 eps), or
    so small that the home step's weight alpha +/- 1/n rounds to alpha."""


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
    if _index(n_max, "n_max") <= 4 * _SCAN_START:
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


def classify_growth(degrees, values, power: float = 1.0) -> GrowthClass:
    """Label a nonnegative scan sequence by the growth law of values**power.

    One line is fitted to log(increment of v^power per unit of log N) against
    log N at the midpoints, over the last half of the increments (at least
    3).  For an eigenfunction scan at power = p its slope is pm - 2 - alpha:
    above _BAND PowerDivergent, below -_BAND Converged, and in between
    LogDivergent (v^p ~ log N); the exponent is slope / power.  A slope
    within 3 stderr of a band edge, a value that is not finite, or a window
    that starts at 0 before the values grow (the law has not set in) is
    Undetermined; any other increment <= 0 in the window, in v or in
    power * log v, is Converged.
    """
    d = np.asarray(degrees, dtype=float)
    v = np.asarray(values, dtype=float)
    if d.shape != v.shape or d.ndim != 1 or len(d) < 4:
        raise ValueError("need matching 1-d arrays with at least 4 scan points")
    if not np.all(np.isfinite(v)):
        return GrowthClass(GrowthKind.UNDETERMINED)
    start = min((len(v) - 1) // 2, len(v) - 4)
    if v[start] <= 0.0 < v[-1]:
        return GrowthClass(GrowthKind.UNDETERMINED)
    if np.any(np.diff(v[start:]) <= 0.0):  # exact zeros, decrease, noise
        return GrowthClass(GrowthKind.CONVERGED)
    logd = np.log(d[start:])
    lv = power * np.log(v[start:])  # in logs: v**power may over/underflow
    if np.any(np.diff(lv) <= 0.0):  # an ulp's increment that the log loses
        return GrowthClass(GrowthKind.CONVERGED)
    log_inc = lv[1:] + np.log(-np.expm1(lv[:-1] - lv[1:]))
    slope, stderr, r2 = _line_fit((logd[1:] + logd[:-1]) / 2.0,
                                  log_inc - np.log(np.diff(logd)))
    if abs(abs(slope) - _BAND) <= 3.0 * stderr:
        kind = GrowthKind.UNDETERMINED
    elif abs(slope) <= _BAND:
        kind = GrowthKind.LOG_DIVERGENT
    else:
        kind = GrowthKind.POWER_DIVERGENT if slope > 0 else GrowthKind.CONVERGED
    return GrowthClass(kind, slope / power, stderr / power, r2)


# ---------------------------------------------------------------------------
# norm evaluation over truncation degrees
# ---------------------------------------------------------------------------

# terms per block of the p = 2 running sums, a multiple of the Parseval
# anchor block: a block's temporaries stay in cache, where whole-array
# passes at 2^20 terms stream 8-16 MB each through memory
_SUM_BLOCK = 1 << 14


def _running_sums(terms, n: int, picks) -> tuple[np.ndarray, float]:
    """The partial sums t_0 + ... + t_d at the indices d in picks, and the
    total, of the n terms that terms(lo, hi) gives as a fresh array of
    t_lo..t_(hi-1), lo a multiple of _SUM_BLOCK.

    np.cumsum adds in sequence, and each block adds the carried sum to its
    first term, so the sums are those of one cumsum over all n terms bit for
    bit.  Every pick must lie in 0..n-1.
    """
    picks = np.asarray(picks, dtype=int)
    out = np.empty(picks.shape)
    total = 0.0
    for lo in range(0, n, _SUM_BLOCK):
        cum = terms(lo, min(lo + _SUM_BLOCK, n))
        cum[0] += total
        np.cumsum(cum, out=cum)
        inside = (picks >= lo) & (picks < lo + len(cum))
        out[inside] = cum[picks[inside] - lo]
        total = cum[-1]
    return out, float(total)


def truncation_norms(coeffs: np.ndarray, p: float, alpha: float, degrees,
                     tails: bool = False,
                     rel_tol: float = _SCAN_QUAD_TOL) -> np.ndarray:
    """A^p_alpha norms of the truncations of coeffs at the given degrees, or
    with tails=True the norms of what each truncation leaves out.

    The one route from coefficients to a norm: Parseval sums at p = 2, adaptive
    quadrature at rel_tol otherwise.  The Parseval sums run in blocks of
    _SUM_BLOCK terms |c_j|^2 w_j, each with its own weights from
    parseval_weights (see _running_sums); a tail is the total less the
    partial sum.  A quadrature that does not converge, or a part with a
    coefficient that overflowed to inf, gives nan; at p = 2 a square that
    overflows gives inf (a tail of inf - inf gives nan), without a warning.
    Raises ValueError on the p, alpha that monomial_norm refuses, a rel_tol
    outside (0, 1) or a degree that is not an integer, and IndexError on a
    degree outside 0..len(coeffs)-1.
    """
    _check_exponents(p, alpha)
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    degrees = [_index(n, "degree") for n in degrees]
    if len(degrees) and not 0 <= min(degrees) <= max(degrees) < len(coeffs):
        raise IndexError(f"degrees must lie in 0..{len(coeffs) - 1}, got "
                         f"{list(degrees)}")
    if p == 2.0:
        def terms(lo, hi):
            return np.abs(coeffs[lo:hi]) ** 2 * parseval_weights(
                alpha, hi - 1, start=lo)

        with np.errstate(over="ignore", invalid="ignore"):
            part, total = _running_sums(terms, len(coeffs), degrees)
            if tails:
                part = total - part
        return np.sqrt(np.maximum(part, 0.0))
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


def _norm_scan(degrees: list[int], values, power: float) -> NormScan:
    return NormScan(tuple(degrees), tuple(float(x) for x in values),
                    classify_growth(degrees, values, power))


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
    ValueError: a Banach spec, no admissible n <= n_max, rel_tol not in (0, 1).
    """
    steps = spec.steps(n_max)
    out: list[SeminormEntry] = []
    for n, mu in zip(steps.tolist(), spec.step_alphas(steps).tolist()):
        value = float(truncation_norms(f.coeffs, spec.p, mu, [f.degree],
                                       rel_tol=rel_tol)[0])
        out.append(SeminormEntry(n, mu, value, not math.isnan(value)))
    return out


# ---------------------------------------------------------------------------
# the scans
# ---------------------------------------------------------------------------

def expected_eigen_membership(m: int, p: float, alpha: float) -> bool:
    """Eigenvalue threshold m < (2 + alpha)/p, as the Banach spectrum has it."""
    return m <= _last_eigen_index((2.0 + alpha) / p)


def eigen_membership_scan(m: int, p: float, alpha: float,
                          n_max: int = DEFAULT_N_MAX) -> NormScan:
    """Norm scan of the eigenfunction z^(m-1)(1-z)^(-m) truncations in
    A^p_alpha; Converged is expected exactly when m < (2+alpha)/p."""
    if _index(m, "m") < 1:
        raise ValueError("m must be a positive integer")
    degrees = scan_degrees(n_max)
    coeffs = eigenfunction_truncation(m, degrees[-1]).coeffs
    return _norm_scan(degrees, truncation_norms(coeffs, p, alpha, degrees), p)


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
    degrees = scan_degrees(n_max_degree)
    lb = spec.kind is SpaceKind.LB_UNION
    s = (alpha + 1.0 - (2.0 if lb else 1.0) * epsilon) / p
    # the home step is the first admissible n with 1/n < epsilon; LB tests
    # the finer steps only
    home = max(_first_step_below(epsilon), spec.min_step())
    first = home + 1 if lb else home
    tested = steps if steps is not None else list(range(first, first + 4))
    if any(n < first for n in tested):
        raise ValueError(f"steps must be >= {first} (1/n < epsilon"
                         f"{', finer than the home step' if lb else ''})")
    alphas = spec.step_alphas(tested).tolist()
    home_alpha, = spec.step_alphas([home]).tolist()
    if home_alpha == alpha:
        raise InvalidEpsilon(f"epsilon={epsilon} moves no weight: at its home "
                             f"step n, alpha +/- 1/n rounds to alpha={alpha}")
    if alpha in alphas:
        raise ValueError(f"step {tested[alphas.index(alpha)]} moves no weight: "
                         f"alpha +/- 1/n rounds to alpha={alpha}")
    source = binomial_series_coeffs(s, degrees[-1])
    inverse = cesaro_inverse_apply(source).coeffs
    source_scan = _norm_scan(degrees, truncation_norms(
        source.coeffs, p, home_alpha, degrees), p)
    inv_scans = tuple(
        (n, _norm_scan(degrees, truncation_norms(inverse, p, mu, degrees), p))
        for n, mu in zip(tested, alphas))
    return CounterexampleReport(spec.kind, epsilon, s, home, source_scan,
                                inv_scans)


def gp_nuclearity_sum(p: float, alpha: float, m: int,
                      j_max: int = 10 ** 5) -> NormScan:
    """Partial sums of the Grothendieck-Pietsch ratios
    ||z^j||_{p,alpha+1} / ||z^j||_{p,alpha+1/m}.

    The ratios behave like j^{(1/m-1)/p}, so the sums grow like
    N^{1-(1-1/m)/p}: divergence for every m > 1 rules nuclearity out.  The
    scan stops at the last power of two 2^floor(log2 j_max), so only that
    many ratios are evaluated, in blocks of _SUM_BLOCK (see _running_sums).
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if j_max < 128:  # the scan runs to the power of two at or below j_max
        raise ValueError(
            f"j_max must be >= 128 to give the classifier 4 scan degrees, "
            f"got {j_max}")
    spec = SpaceSpec(p, alpha, SpaceKind.FRECHET_INTERSECTION)  # alpha > 0
    gamma, mu = spec.step_alphas([1, m]).tolist()  # Frechet steps 1 and m
    degrees = scan_degrees(1 << int(math.floor(math.log2(j_max))))

    def terms(lo, hi):
        j = np.arange(lo + 1.0, hi + 1.0)
        return np.exp(_log_monomial_ratio(j, p, gamma, mu))

    sums, _ = _running_sums(terms, degrees[-1], np.asarray(degrees) - 1)
    return _norm_scan(degrees, sums, 1.0)


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
    at p = 2.  Raises ValueError for a Banach spec, no steps or a step that
    is not admissible (see SpaceSpec.step_alphas).
    """
    alphas = spec.step_alphas(steps).tolist()
    if f_full.degree < 2 * n_max:
        raise ValueError("reference truncation must have degree >= 2 * n_max")
    degrees = scan_degrees(n_max)
    tails = tuple(
        (n, _norm_scan(degrees, truncation_norms(
            f_full.coeffs, spec.p, mu, degrees, tails=True), spec.p))
        for n, mu in zip(steps, alphas))
    return SchauderReport(spec, f_full.degree, tails)
