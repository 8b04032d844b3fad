"""Exact coefficient arithmetic for truncated Taylor series on the unit disk.

The Cesàro operator C maps f(z) = sum a_j z^j to the function whose k-th
Taylor coefficient is the mean of a_0..a_k.  Its inverse acts as
h -> (1-z)(h(z) + z h'(z)).  Both are (banded) lower triangular in the
monomial basis, so a degree-N truncation determines the first N+1 output
coefficients exactly; everything in this module is exact up to float
rounding.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TaylorTruncation",
    "cesaro_apply",
    "cesaro_inverse_apply",
    "recover_from_cesaro",
    "binomial_series_coeffs",
    "eigenfunction_truncation",
    "eigen_residual_exact",
]


def _index(value, name: str) -> int:
    # an int or numpy integer as an int; 2.5 or 2.0 would slice or size an
    # array wrongly, or fail there with a TypeError
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class TaylorTruncation:
    """Degree-N Taylor polynomial with coefficients a_0..a_N, read-only.

    The dtype follows the input's dtype, never its values: a bool, integer or
    float input is stored as float64, any other as complex128 (also when
    every imaginary part is 0).  Every operation of this module keeps it.
    """

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs)
        # one copy, owned by self
        arr = arr.astype(float if arr.dtype.kind in "biuf" else complex)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficients must be a nonempty 1-d sequence")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def cesaro_apply(f: TaylorTruncation) -> TaylorTruncation:
    """Coefficient-averaging (Cesàro) operator: output_k = mean(a_0..a_k)."""
    prefix = np.cumsum(f.coeffs)
    denom = np.arange(1, f.degree + 2, dtype=float)
    if prefix.dtype == float:
        prefix /= denom
        prefix += 0.0  # -0.0 to +0.0, as the complex branch's added 0j does
        return TaylorTruncation(prefix)
    # componentwise division: complex/real via Smith's algorithm loses an ulp
    return TaylorTruncation(prefix.real / denom + 1j * (prefix.imag / denom))


def cesaro_inverse_apply(h: TaylorTruncation) -> TaylorTruncation:
    """Inverse Cesàro operator (1-z)(h + z h').

    Output degree equals the input degree; the formal degree-(N+1) coefficient
    is dropped, which is exact when h is the image of a degree-N polynomial.
    """
    if h.degree < 1:
        raise ValueError("cesaro_inverse_apply requires degree >= 1")
    b = h.coeffs
    # (k+1) b_k - k b_(k-1) in two arrays of b's dtype, the products formed
    # in place; k goes before TaylorTruncation copies out
    k = np.arange(len(b), dtype=b.dtype)
    out = k + 1.0
    out *= b
    k[1:] *= b[:-1]
    out[1:] -= k[1:]
    del k
    return TaylorTruncation(out)


def recover_from_cesaro(g: TaylorTruncation) -> TaylorTruncation:
    """Recover f from g = C(f) as C^{-1} g without its last coefficient.

    Coefficient k of (1-z)(g + z g') reads only g_k and g_(k-1), so the
    dropped one is exact too, (N+1) g_N - N g_(N-1) = f_N; the result is
    the degree-(N-1) truncation of f.
    """
    if g.degree < 1:
        raise ValueError("recover_from_cesaro requires degree >= 1")
    return TaylorTruncation(cesaro_inverse_apply(g).coeffs[:-1])


def _fill_binomial(out: np.ndarray, exponent: float, flip: float) -> None:
    # out[k] = flip^k (s)_k / k!, one cumulative product of the real ratios
    # flip (s + k)/(k + 1), each written 1 + (s - 1)/(k + 1): forming s + k
    # rounds away the same low bits of s for every k in a binade, a bias
    # that builds to 2.6e-11 at k = 2^20, against about 1e-13 this way
    out[0] = 1.0
    ratios = out[1:]
    np.divide(exponent - 1.0, np.arange(1.0, len(out)), out=ratios)
    ratios += 1.0
    ratios *= flip
    # past the float range the product reads inf, which the callers handle
    with np.errstate(over="ignore"):
        np.multiply.accumulate(ratios, out=ratios)


def binomial_series_coeffs(exponent: float, degree: int) -> TaylorTruncation:
    """Truncation of the binomial series (1 + z)^(-s) for s > 0.

    c_k = (-1)^k s (s+1) ... (s+k-1) / k!: one cumulative product of the
    real ratios -(s + k)/(k + 1).  Its roundings are unbiased, so the
    relative error stays near 1e-13 at k = 2^20, and s = 1 gives exactly
    (-1)^k at every index.
    """
    if not math.isfinite(exponent) or exponent <= 0.0:
        raise ValueError("binomial exponent must be finite and positive")
    if _index(degree, "degree") < 0:
        raise ValueError("degree must be nonnegative")
    c = np.empty(degree + 1)
    _fill_binomial(c, exponent, -1.0)
    return TaylorTruncation(c)


def eigenfunction_truncation(m: int, degree: int) -> TaylorTruncation:
    """Truncation of z^(m-1) (1-z)^(-m), the eigenfunction for eigenvalue 1/m.

    Its coefficients are the binomial numbers C(j, m-1).  The eigen relation
    C(f_m) = (1/m) f_m holds exactly at coefficient level; use
    :func:`eigen_residual_exact` to verify with integer arithmetic.
    """
    if _index(m, "m") < 1:
        raise ValueError("m must be a positive integer")
    if _index(degree, "degree") < m - 1:
        raise ValueError("degree must be at least m - 1")
    out = np.zeros(degree + 1)
    _fill_binomial(out[m - 1:], float(m), 1.0)
    return TaylorTruncation(out)


def eigen_residual_exact(m: int, degree: int) -> bool:
    """Check m * sum_{j<=k} C(j, m-1) == (k+1) C(k, m-1) for all k <= degree.

    Integer arithmetic, so the verdict is exact regardless of coefficient
    size.  Equivalent to C(f_m) = (1/m) f_m on the computed coefficients.
    """
    prefix = 0
    for k in range(degree + 1):
        prefix += math.comb(k, m - 1)
        if m * prefix != (k + 1) * math.comb(k, m - 1):
            return False
    return True
