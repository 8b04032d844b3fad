"""Weighted Bergman norms on the unit disk.

The space A^p_alpha carries the norm

    ||f||_{p,alpha} = ( int_D |f(z)|^p (1-|z|)^alpha dA(z) )^{1/p},

with dA the area measure normalized by pi.  Monomial norms have the closed
form (2 B(jp+2, alpha+1))^{1/p}; at p = 2 the monomials are orthogonal and
Parseval summation applies; for general p the integral is computed by a
Gauss-Jacobi radial rule tensored with uniform angular grids whose size is
graded per radial node and, at p other than an even integer, refined by a
half-grid check (see DiskQuadrature).

The radial rule G_n is Gauss-Jacobi (alpha, 1) on [-1, 1] mapped to [0, 1].
Its nodes are the eigenvalues of the Jacobi matrix J_n (Golub & Welsch,
Math. Comp. 1969), its weights the closed form 1 / ((1 - x_i^2) prod_{j != i}
(x_i - x_j)^2) normalised to B(2, alpha+1).  Its error check is Laurie's
anti-Gauss rule AG_{n+1} (Math. Comp. 1996): the eigenvalues y_i of J_{n+1}
with its last off-diagonal times sqrt(2), with weights 1 / (|prod_k (y_i -
x_k)| prod_{j != i} |y_i - y_j|) (the eigenvector-eigenvalue identity, x_k
the nodes of G_n) normalised the same way.  On polynomials up to degree
2n+1 its error is that of G_n with the opposite sign, so the two bracket
the integral, their average is exact to that degree, and |G - AG| / 2
estimates the error of either from n+1 more nodes, where a G_2n check takes
2n.  Against mpmath at 40 digits, for alpha in {0, 0.5, 1, 2, 6, 40} (first
two, middle and last two nodes), the nodes of both rules are within 3.2e-16.
The Gauss weights are within 1.1e-11 relative at 363 nodes and 6.4e-11 at
1024, the anti-Gauss weights within 3.0e-11 and 2.8e-10.

The Parseval weights w_j = 2 B(2j+2, alpha+1) follow the two-term recurrence
w_j = w_{j-1} a(a+1) / ((a+b)(a+1+b)), a = 2j, b = alpha+1, anchored on one
log-Beta value per block of 256 indices (see parseval_weights for errors).

Node r keeps c_j z^j up to its effective degree, the last j with |c_j| r^j
> cut max_k |c_k| r^k, cut = rel_tol 1e-3 / N for N coefficients.  That max
is <= ||f_r||_{L^1(dtheta/2pi)} <= ||f_r||_p, also in the trapezoid sums
(their grids exceed the kept degree), so the dropped terms move f_r by <= N
cut ||f_r||_p and, by Minkowski, the norm by <= rel_tol / 1000.  Effective
degree and argmax are nondecreasing in r: nodes are graded outside-in.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from numpy import fft as _fft

from .series import TaylorTruncation

__all__ = [
    "SpaceKind",
    "SpaceSpec",
    "DiskQuadrature",
    "NonConvergedQuadrature",
    "InclusionScan",
    "log_beta",
    "monomial_norm",
    "monomial_norm_asymptote",
    "parseval_weights",
    "norm_quadrature",
    "norm_quadrature_with_rule",
    "inclusion_ratio_scan",
]


class NonConvergedQuadrature(RuntimeError):
    """Node doubling hit the cap before a level's Gauss and anti-Gauss
    passes agreed."""

    def __init__(self, message: str, last_value: float, rel_change: float):
        super().__init__(message)
        self.last_value = last_value
        self.rel_change = rel_change


def _stirling_tail(x):
    # gammaln(x) - [(x - 1/2) ln x - x + ln(2 pi)/2] for x >= 32, evaluated
    # in place as xi (1/12 + x2 (-1/360 + x2 (1/1260 - x2/1680)))
    xi = 1.0 / x
    x2 = xi * xi
    t = x2 / 1680.0
    np.subtract(1.0 / 1260.0, t, out=t)
    for c in (-1.0 / 360.0, 1.0 / 12.0):
        t *= x2
        t += c
    t *= xi
    return t


def log_beta(a, b):
    """log B(a, b) accurate to ~1e-14 absolute even for huge arguments.

    Naive gammaln(a) + gammaln(b) - gammaln(a+b) cancels catastrophically
    when one argument is large (absolute error ~1e-16 * gammaln(a)); instead,
    for the larger argument h the difference gammaln(h+l) - gammaln(h) is
    expanded as (h-1/2) log1p(l/h) + l log(h+l) - l plus Stirling tails,
    which stays at the scale of the result.
    """
    from scipy.special import betaln, gammaln

    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    if b_arr.ndim == 0 and a_arr.size and b_arr <= a_arr.min():
        # a scalar b at or below every a, so gammaln(b) is needed once.  The
        # callers pass b = alpha + 1 and a = jp + 2; at b above the smallest
        # a (alpha > 1 for parseval_weights from j = 0) they do not.  Both
        # branches give each entry the same bits
        shape = a_arr.shape
        lo = b_arr[()]
        hi = np.atleast_1d(a_arr)
    else:
        a_arr, b_arr = np.broadcast_arrays(a_arr, b_arr)
        shape = a_arr.shape
        lo = np.atleast_1d(np.minimum(a_arr, b_arr))
        hi = np.atleast_1d(np.maximum(a_arr, b_arr))
    out = np.empty(hi.shape, dtype=float)
    small = hi < 32.0
    big = ~small
    if np.any(small):
        out[small] = betaln(lo if lo.ndim == 0 else lo[small], hi[small])
    if np.any(big):
        h = hi[big]
        l = lo if lo.ndim == 0 else lo[big]
        hl = h + l
        delta = h - 0.5
        delta *= np.log1p(l / h)
        delta += l * np.log(hl)
        delta -= l
        delta += _stirling_tail(hl)
        delta -= _stirling_tail(h)
        out[big] = np.subtract(gammaln(l), delta, out=delta)
    if np.isscalar(a) and np.isscalar(b):
        return float(out[0])
    return out.reshape(shape)


def _check_exponents(p: float, alpha: float) -> None:
    if not (math.isfinite(p) and math.isfinite(alpha) and p >= 1.0
            and alpha >= 0.0):
        raise ValueError(
            f"need finite p >= 1 and alpha >= 0, got p={p}, alpha={alpha}")


def monomial_norm(j, p: float, alpha: float):
    """||z^j||_{p,alpha} = (2 B(jp+2, alpha+1))^{1/p}.

    Parameters
    ----------
    j : int or ndarray of int
        Monomial degree(s), >= 0.
    p : float
        Integrability exponent, p >= 1.
    alpha : float
        Weight exponent, alpha >= 0.
    """
    _check_exponents(p, alpha)
    jarr = np.asarray(j, dtype=float)
    if np.any(jarr < 0):
        raise ValueError("monomial degree must be >= 0")
    val = np.exp((math.log(2.0) + log_beta(jarr * p + 2.0, alpha + 1.0)) / p)
    return float(val) if np.isscalar(j) or jarr.ndim == 0 else val


def monomial_norm_asymptote(p: float, alpha: float) -> float:
    """Limit of ||z^j||^p j^(alpha+1) as j grows: 2 Gamma(alpha+1) / p^(alpha+1)."""
    from scipy.special import gammaln

    return 2.0 * math.exp(gammaln(alpha + 1.0)) / p ** (alpha + 1.0)


# indices per anchored block of parseval_weights: the cumulative product
# carries rounding over one block only (a few hundred ulp at worst), while
# the log-Beta anchors cost one transcendental pass per 256 weights
_PARSEVAL_BLOCK = 256
_TINY = 2.2250738585072014e-308  # smallest normal double


def parseval_weights(alpha: float, degree: int, start: int = 0) -> np.ndarray:
    """Vector of squared monomial norms 2 B(2j+2, alpha+1) for j = start..degree.

    With a = 2j and b = alpha+1 the step ratio is w_j / w_{j-1} =
    a(a+1) / ((a+b)(a+1+b)).  The first weight of every block of
    _PARSEVAL_BLOCK indices is 2 exp(log_beta(2j+2, b)); the rest of the
    block is its cumulative product with the ratios.  start must be a
    multiple of _PARSEVAL_BLOCK, so that the blocks, and with them every
    weight, are the same bits as in the vector from 0.  Measured against
    mpmath at indices up to 2^20, block edges included, the relative error
    is at most 7.5e-15 at alpha = 0.5, 1.9e-14 at 7.5 and 2.4e-13 at 40
    (there from the exp of a log near -500), within 1e-15 (1 + |log w_j|)
    like exp(log_beta) per index.  Weights below the normal float range
    are returned as 0.
    """
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got alpha={alpha}")
    if start < 0 or start % _PARSEVAL_BLOCK:
        raise ValueError(f"start must be a nonnegative multiple of "
                         f"{_PARSEVAL_BLOCK}, got {start}")
    b = alpha + 1.0
    first = start // _PARSEVAL_BLOCK
    rows = max(0, -(-(degree + 1) // _PARSEVAL_BLOCK) - first)
    a = np.arange(2.0 * start, 2.0 * (start + rows * _PARSEVAL_BLOCK),
                  2.0).reshape(rows, _PARSEVAL_BLOCK)
    w = a + 1.0
    w *= a
    den = a + b
    a += b + 1.0
    den *= a
    w /= den
    w[:, 0] = 2.0 * np.exp(log_beta(
        2.0 * _PARSEVAL_BLOCK * np.arange(first, first + rows) + 2.0, b))
    np.multiply.accumulate(w, axis=1, out=w)
    if rows and w[-1, -1] < _TINY:
        # the weights decrease in j; below the normal range the product has
        # too few bits to reach 0 and would stick at the least subnormal
        w[w < _TINY] = 0.0
    return w.ravel()[: degree + 1 - start]


def _check_finite_coeffs(coeffs: np.ndarray) -> None:
    bad = ~np.isfinite(coeffs)
    if bad.any():
        j = int(np.argmax(bad))
        raise ValueError(f"coefficient {j} is not finite: {coeffs[j]}")


# ---------------------------------------------------------------------------
# disk quadrature
# ---------------------------------------------------------------------------

# node pairs per chunk of the radial weights' log-product: memory stays O(n)
# (an unblocked product at 4096 nodes holds 134 MB) and each chunk is 512 kB
_PAIR_BLOCK = 1 << 16


def _log_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # sum_j log |a_i - b_j| for each i, over row chunks of about _PAIR_BLOCK
    # pairs; where a is b the terms j = i are left out
    out = np.empty(len(a))
    rows = max(1, _PAIR_BLOCK // len(b))
    for lo in range(0, len(a), rows):
        diff = np.subtract.outer(a[lo:lo + rows], b)
        if a is b:
            np.fill_diagonal(diff[:, lo:], 1.0)
        np.abs(diff, out=diff)
        np.log(diff, out=diff)
        out[lo:lo + rows] = diff.sum(axis=1)
    return out


@lru_cache(maxsize=128)
def _radial_rule(alpha: float, count: int,
                 anti: bool = False) -> tuple[np.ndarray, np.ndarray]:
    # nodes/weights with int_0^1 (1-r)^alpha r h(r) dr = sum w_i h(r_i) for
    # the count-node Gauss rule, or with anti for its (count+1)-node
    # anti-Gauss partner, as in the module docstring.  Gauss: w_i is
    # proportional to 1 / ((1 - x_i^2) P_n'(x_i)^2), and P_n'(x_i) to
    # prod_{j != i} (x_i - x_j).  Anti-Gauss: the nodes y_i are the
    # eigenvalues of J_{n+1} with its last off-diagonal times sqrt(2), and
    # w_i is proportional to 1 / (|prod_k (y_i - x_k)| prod_{j != i} |y_i -
    # y_j|) over the Gauss nodes x_k, which the cache holds.  scipy.linalg
    # is imported here, since at package import it would add about 60 ms.
    from scipy.linalg import eigvalsh_tridiagonal

    k = np.arange(count + anti, dtype=float)
    s = 2.0 * k + alpha + 1.0
    diag = (1.0 - alpha * alpha) / (s * (s + 2.0))
    k, s = k[1:], s[1:]
    off = np.sqrt(4.0 * k * (k + alpha) * (k + 1.0) * (k + alpha + 1.0)
                  / (s * s * (s + 1.0) * (s - 1.0)))
    if anti:
        off[-1] *= math.sqrt(2.0)
    x = eigvalsh_tridiagonal(diag, off, lapack_driver="sterf",
                             check_finite=False)
    logw = _log_distances(x, x)
    if anti:
        # 2 r - 1 gives back the Gauss nodes to within an ulp of 1
        gauss = 2.0 * _radial_rule(alpha, count, False)[0] - 1.0
        logw += _log_distances(x, gauss)
        logw *= -1.0
    else:
        logw *= -2.0
        logw -= np.log1p(-x) + np.log1p(x)
    w = np.exp(logw - logw.max())
    w *= 1.0 / ((alpha + 1.0) * (alpha + 2.0) * w.sum())
    return (x + 1.0) / 2.0, w


@dataclass(frozen=True)
class DiskQuadrature:
    """Tensor rule for int_D |f|^p (1-|z|)^alpha dA / pi.

    radial_nodes/radial_weights absorb the weight (1-r)^alpha r on [0, 1]:
    the n-node Gauss-Jacobi rule G_n of the module docstring, or with
    anti_gauss its (n+1)-node anti-Gauss partner AG_{n+1}, each cached per
    count.  The driver returns the average of the two, on the 2n+1
    interlaced nodes.  Per radial node the angular size is a power of two of
    at least 64 points (_ANGULAR_MIN), and >= p * eff / 2 + 1 at even p
    (alias bound: exact for |f|^p); eff is the effective degree (cut
    rel_tol/1000N).  At every other p a node starts at the power of two
    T >= 2 (eff + 1), where the T/2-point grid still samples f without
    aliasing, and doubles T until the mean of |f|^p on T points is within
    0.1 rel_tol of the mean on its even points (the T/2-point sum, free from
    the same FFT), or until T reaches the cap T >= 4 p (eff + 1).  The
    trapezoid rule converges geometrically at a rate set by 1 - r, not by p
    (Trefethen & Weideman, SIAM Rev. 2014), so most nodes stop below the
    cap.  A node whose mean is not finite stops at once.  The driver sets
    rel_error_estimate.
    """

    radial_nodes: np.ndarray
    radial_weights: np.ndarray
    rel_error_estimate: float = math.nan

    @classmethod
    def build(cls, alpha: float, radial_count: int,
              anti_gauss: bool = False) -> "DiskQuadrature":
        if not (math.isfinite(alpha) and alpha >= 0.0):
            raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
        if radial_count < 2:
            raise ValueError("radial_count must be >= 2")
        return cls(*_radial_rule(float(alpha), int(radial_count),
                                 bool(anti_gauss)))

    @property
    def radial_count(self) -> int:
        return len(self.radial_nodes)


# cap on the radial count of a pass, and the smallest angular grid
_MAX_RADIAL = 4096
_ANGULAR_MIN = 64
# angular sizes, powers of two >= _ANGULAR_MIN: T >= p * eff / 2 + 1 at even
# p, where the trapezoid rule is exact for |f|^p = |f^{p/2}|^2 of degree
# p * eff / 2.  At every other p, T >= _ANGULAR_FACTOR * p * (eff + 1) caps
# the half-grid refinement
_ANGULAR_FACTOR = 4.0
_GRADE_ELEMENTS = 1 << 16  # terms per grading chunk: one for degree <= 8
# angular points per FFT block: one rfft output holds 4 MB.  The top pass of
# an eigen-quad scan (N = 2^13, p = 3, m = 2, 726 nodes; one CPU, warm rule)
# peaks at 8.3 MB traced, against 14.3 MB at 1 << 20 and 1 << 22 and 4.9 MB
# at 1 << 18; with the half-grid refinement it takes 50 to 80 ms at each of
# these sizes, within the run-to-run spread.  The eigen-quad worker peaks
# near 73-74 MB RSS.
_BATCH_ELEMENTS = 1 << 19


def _effective_degrees(coeffs, logr, log_cut: float) -> np.ndarray:
    # the ascending nodes in chunks from the outermost inward, each over the
    # columns 0..eff of the node just outside it
    js = np.arange(len(coeffs), dtype=float)
    with np.errstate(divide="ignore"):
        logc = np.log(np.abs(coeffs))
    eff = np.empty(len(logr), dtype=int)
    hi, width = len(logr), len(js)
    while hi > 0:
        lo = max(0, hi - max(1, _GRADE_ELEMENTS // width))
        scaled = np.outer(logr[lo:hi], js[:width])
        scaled += logc[:width]
        keep = scaled > scaled.max(axis=1, keepdims=True) + log_cut
        eff[lo:hi] = width - 1 - np.argmax(keep[:, ::-1], axis=1)
        hi, width = lo, int(eff[lo]) + 1
    return eff


def _mean_weights(t: int, real: bool) -> np.ndarray:
    # trapezoid weights on t points; rfft bins 1..t/2-1 of a real block stand
    # for their conjugates too
    mean = np.full(t // 2 + 1 if real else t, (1.0 + real) / t)
    mean[[0, -1]] = 1.0 / t
    return mean


def _pnorm_single_pass(coeffs: np.ndarray, p: float, quad: DiskQuadrature,
                       log_cut: float, rel_tol: float) -> tuple[float, float]:
    # (int_D |f|^p (1-|z|)^alpha dA / pi on the rule, the same sum over each
    # node's gap |s_T - s_{T/2}| on its last grid); the gap is 0 at even p,
    # where the grids are exact
    logr = np.log(quad.radial_nodes)
    eff = _effective_degrees(coeffs, logr, log_cut)
    floor = _ANGULAR_MIN.bit_length() - 1

    def pow2(need):
        return 1 << np.maximum(np.ceil(np.log2(need)), floor).astype(int)

    even = p % 2.0 == 0.0
    ang = pow2(p * eff / 2.0 + 1.0 if even else 2.0 * (eff + 1.0))
    cap = ang if even else pow2(_ANGULAR_FACTOR * p * (eff + 1.0))
    real = not np.any(coeffs.imag)
    coeffs = coeffs.real if real else coeffs
    total = gap = 0.0
    # ang[i] is node i's next grid size, 0 once the node is summed
    with np.errstate(over="ignore", invalid="ignore"):
        while ang.any():
            t = int(ang[ang > 0].min())
            idx = np.nonzero(ang == t)[0]
            mean = _mean_weights(t, real)
            half = _mean_weights(t // 2, real)
            batch = max(1, _BATCH_ELEMENTS // t)
            for k in range(0, len(idx), batch):
                sel = idx[k:k + batch]
                effs = eff[sel]
                jtop = int(effs.max())
                block = coeffs[: jtop + 1] * np.exp(
                    np.outer(logr[sel], np.arange(jtop + 1.0)))
                if effs.min() < jtop:
                    # each node keeps its terms up to its own effective degree
                    block *= np.arange(jtop + 1) <= effs[:, None]
                vals = np.abs((_fft.rfft if real else _fft.fft)(
                    block, n=t, axis=1))
                vals **= p
                s = vals @ mean
                weights = quad.radial_weights[sel]
                if even:
                    total += float(np.dot(weights, s))
                    ang[sel] = 0
                    continue
                # the even bins are the t/2-point sum; a non-finite s never
                # compares as refinable
                diff = np.abs(s - vals[:, ::2] @ half)
                done = (cap[sel] <= t) | ~(diff > 0.1 * rel_tol * s)
                total += float(np.dot(weights[done], s[done]))
                gap += float(np.dot(weights[done], diff[done]))
                ang[sel[done]] = 0
                ang[sel[~done]] = 2 * t
    return 2.0 * total, 2.0 * gap


def _first_radial(n: int) -> int:
    return min(512, max(32, math.ceil(4.0 * math.sqrt(n))))


def _averaged(gauss: DiskQuadrature, anti: DiskQuadrature,
              estimate: float) -> DiskQuadrature:
    # (G_n + AG_{n+1}) / 2 on the 2n+1 nodes, which interlace
    nodes = np.concatenate([gauss.radial_nodes, anti.radial_nodes])
    order = np.argsort(nodes, kind="stable")
    weights = np.concatenate([gauss.radial_weights, anti.radial_weights])
    return DiskQuadrature(nodes[order], 0.5 * weights[order], estimate)


def norm_quadrature_with_rule(
    f: TaylorTruncation,
    p: float,
    alpha: float,
    rel_tol: float = 1e-9,
) -> tuple[float, DiskQuadrature]:
    """A^p_alpha norm by adaptive tensor quadrature, with the final rule.

    Each level n runs two passes: the n-node Gauss-Jacobi rule G_n and its
    (n+1)-node anti-Gauss partner AG_{n+1} (Laurie, Math. Comp. 1996), whose
    error on polynomials up to degree 2n+1 is that of G_n with the opposite
    sign.  The value is ((I_G + I_AG) / 2)^(1/p), I the integral of |f|^p,
    and the returned rule is that average, on the 2n+1 interlaced nodes.
    When the radial estimate |v_G - v_AG| / (2 v), v = I^(1/p), exceeds
    rel_tol, n doubles (re-grading the angular grids accordingly).  The
    reported rel_error_estimate is the larger of the radial estimate and
    an angular one: each node's gap |s_T - s_{T/2}| between the means of
    |f|^p on its last grid and on the half grid, summed with the radial
    weights of both passes and divided by p (I_G + I_AG) (0 at even p,
    where the grids are exact).  Only the radial estimate decides
    convergence.  The first level is
    min(512, max(32, ceil(4 sqrt(N)))) for N coefficients: 4 sqrt(N)
    resolves the 1/N boundary layer, and the floor of 32 spares small
    inputs the 64- and 128-node rule builds.  When the next doubling would
    pass the cap of 4096 (_MAX_RADIAL), the last level runs at the cap if
    that is at least 1.5 times the current n, and the doubling stops
    otherwise (a smaller step would barely refine the value).  Raises
    ValueError when a coefficient is NaN or infinite (naming the first such
    index), and :class:`NonConvergedQuadrature`, naming the last level's
    node counts, when no level converges, which signals an integrand too
    singular at the boundary for the requested tolerance.  A pass that is
    not finite (|f|^p overflows although every coefficient is finite)
    raises it at once, with that pass's value as last_value and rel_change
    nan.
    """
    _check_exponents(p, alpha)
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    coeffs = f.coeffs
    _check_finite_coeffs(coeffs)
    radial = _first_radial(len(coeffs))
    if not np.any(coeffs):
        rule = DiskQuadrature.build(alpha, radial)
        return 0.0, replace(rule, rel_error_estimate=0.0)
    # per-node cutoff, biasing the norm by at most rel_tol / 1000
    log_cut = math.log(rel_tol * 1e-3 / len(coeffs))
    while True:
        passes = []
        for anti in (False, True):
            rule = DiskQuadrature.build(alpha, radial, anti_gauss=anti)
            integral, gap = _pnorm_single_pass(coeffs, p, rule, log_cut,
                                               rel_tol)
            if not math.isfinite(integral):
                value = integral ** (1.0 / p)
                raise NonConvergedQuadrature(
                    f"|f|^p overflows: the pass at {rule.radial_count} radial "
                    f"nodes reads {value}", last_value=value,
                    rel_change=math.nan)
            passes.append((rule, integral, gap))
        (gauss, i_g, gap_g), (anti, i_ag, gap_ag) = passes
        value = (0.5 * (i_g + i_ag)) ** (1.0 / p)
        rel_change = abs(i_g ** (1.0 / p) - i_ag ** (1.0 / p)) / max(
            2.0 * value, 1e-300)
        if rel_change <= rel_tol:
            # I moves by its gap, so v moves by gap / (p I)
            angular = (gap_g + gap_ag) / max(p * (i_g + i_ag), 1e-300)
            return value, _averaged(gauss, anti, max(rel_change, angular))
        if 2 * radial <= _MAX_RADIAL:
            radial *= 2
        elif 2 * _MAX_RADIAL >= 3 * radial:
            radial = _MAX_RADIAL
        else:
            break
    raise NonConvergedQuadrature(
        f"no agreement to rel_tol={rel_tol:g} by the last level: its Gauss "
        f"and anti-Gauss passes at {radial} and {radial + 1} radial nodes "
        f"differ by {rel_change:.3g}", last_value=value,
        rel_change=rel_change)


def norm_quadrature(f: TaylorTruncation, p: float, alpha: float,
                    rel_tol: float = 1e-9) -> float:
    """A^p_alpha norm by adaptive tensor quadrature (value only)."""
    return norm_quadrature_with_rule(f, p, alpha, rel_tol)[0]


# ---------------------------------------------------------------------------
# space parameters and limit-space steps
# ---------------------------------------------------------------------------

class SpaceKind(enum.Enum):
    BANACH = "banach"
    FRECHET_INTERSECTION = "frechet"
    LB_UNION = "lb"


def _first_step_below(x: float) -> int:
    """Smallest n >= 1 with 1.0 / n < x in floats, for finite x > 0.

    floor(1/x) + 1 is one off either way where 1/x rounds across an integer.
    1.0 / n is monotone in n, so a step each way settles it; a step is taken
    only where it decides (past 2^53, neighbouring n share one float).
    """
    inv = 1.0 / x
    if math.isinf(inv):
        raise ValueError(f"no step index n has 1/n < {x}: 1/{x} overflows")
    n = math.floor(inv) + 1
    if n > 1 and 1.0 / (n - 1) < x:
        return n - 1
    if not 1.0 / n < x and 1.0 / (n + 1) < x:
        return n + 1
    return n


@dataclass(frozen=True)
class SpaceSpec:
    """Bergman space parameters plus the limit-space structure.

    The step-index rule: FRECHET_INTERSECTION has the steps n >= 1 at weight
    alpha + 1/n, LB_UNION the n >= min_step() at alpha - 1/n > 0.
    """

    p: float
    alpha: float
    kind: SpaceKind = SpaceKind.BANACH

    def __post_init__(self) -> None:
        _check_exponents(self.p, self.alpha)
        if not (self.alpha > 0.0) and self.kind is not SpaceKind.BANACH:
            raise ValueError("limit spaces need alpha > 0")

    def min_step(self) -> int:
        """1, or for LB_UNION the first n with 1/n < alpha in floats."""
        if self.kind is SpaceKind.LB_UNION:
            return _first_step_below(self.alpha)
        return 1

    def steps(self, n_max: int) -> np.ndarray:
        """The admissible step indices n <= n_max; ValueError if none."""
        first = self.min_step()
        if n_max < first:
            raise ValueError(f"no admissible steps n <= {n_max}: the first "
                             f"is n = {first}")
        return np.arange(first, n_max + 1)

    def step_alphas(self, steps) -> np.ndarray:
        """alpha + 1/n (Frechet) or alpha - 1/n (LB) at each step n, bit for
        bit as the scalar operations give; ValueError for BANACH, no steps
        and a step below min_step()."""
        if self.kind is SpaceKind.BANACH:
            raise ValueError("the banach space has no steps")
        n = np.asarray(steps, dtype=float)
        if n.size == 0:
            raise ValueError("no step indices given")
        first = self.min_step()
        if n.min() < first:
            raise ValueError(f"step n = {int(n.min())} is inadmissible: the "
                             f"first is n = {first}")
        sign = 1.0 if self.kind is SpaceKind.FRECHET_INTERSECTION else -1.0
        # alpha + (-1.0 / n) == alpha - 1.0 / n exactly
        return self.alpha + sign / n


@dataclass(frozen=True)
class InclusionScan:
    """Diagonal entries of the inclusion A^p_mu -> A^p_gamma on monomials."""

    degrees: np.ndarray
    ratios: np.ndarray
    exponent: float
    r_squared: float


def _log_monomial_ratio(j: np.ndarray, p: float, gamma: float,
                        mu: float) -> np.ndarray:
    """log(||z^j||_{p,gamma} / ||z^j||_{p,mu}) at float degrees j.

    The factor 2 of both norms cancels, so the caller's one exp per ratio
    replaces an exp and a 1/p power per norm.  Refuses the exponents that
    monomial_norm refuses.
    """
    _check_exponents(p, gamma)
    _check_exponents(p, mu)
    return (log_beta(j * p + 2.0, gamma + 1.0)
            - log_beta(j * p + 2.0, mu + 1.0)) / p


def _line_fit(x: np.ndarray, y: np.ndarray):
    """Least-squares line y ~ intercept + slope x through 3 or more points.

    Returns (slope, its standard error, R^2).  R^2 is 1 when y has no spread
    (the line is exact; R^2 would be 0/0), and is clamped at 0 for a spread
    of rounding size, where it says nothing.
    """
    slope, intercept = np.polyfit(x, y, 1)
    ss_res = float(np.sum((y - (intercept + slope * x)) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    sxx = float(np.sum((x - x.mean()) ** 2))
    return (float(slope), math.sqrt(ss_res / (len(x) - 2) / sxx),
            max(0.0, 1.0 - ss_res / ss_tot) if ss_tot > 0 else 1.0)


def inclusion_ratio_scan(p: float, mu: float, gamma: float,
                         j_max: int) -> InclusionScan:
    """Ratios d_j = ||z^j||_{p,gamma} / ||z^j||_{p,mu} with a fitted decay law.

    The ratios decay like j^{-(gamma-mu)/p}; d_j -> 0 is the numerical
    witness that the inclusion is compact (at p = 2 it acts diagonally with
    entries d_j).
    """
    if not (0.0 < mu < gamma):
        raise ValueError("need 0 < mu < gamma")
    if j_max < 10:
        raise ValueError(f"j_max must be >= 10 to fit the decay law on 3 "
                         f"points, got {j_max}")
    j = np.arange(1, j_max + 1, dtype=float)
    log_ratio = _log_monomial_ratio(j, p, gamma, mu)
    ratios = np.exp(log_ratio)
    # fit on the upper half of the log range to read off the asymptote
    lo = max(8.0, math.sqrt(j_max))
    mask = j >= lo
    # the log ratios have no spread in floating point only at p near 1e200
    # and above, where they are still a line
    slope, _, r2 = _line_fit(np.log(j[mask]), log_ratio[mask])
    return InclusionScan(j.astype(int), ratios, slope, r2)
