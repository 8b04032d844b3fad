"""Reference values computed apart from the program.

Nothing here imports cesaro_bergman.  Each function recomputes a quantity
from its definition with numpy and scipy, so that a check against it cannot
pass because it shares a fault with the program.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import beta, binom

SPECTRUM_POINT_TOL = 1e-12
_INT_TOL = 1e-9


def scan_degrees(n_max: int) -> list[int]:
    """Powers of two from 16 up to n_max, with n_max itself last."""
    out = [1 << k for k in range(4, n_max.bit_length())]
    return out if out[-1] == n_max else out + [n_max]


def squared_monomial_norms(alpha: float, degree: int) -> np.ndarray:
    """||z^j||_{2,alpha}^2 = 2 B(2j+2, alpha+1) for j = 0..degree."""
    j = np.arange(degree + 1, dtype=float)
    return 2.0 * beta(2.0 * j + 2.0, alpha + 1.0)


def p4_norm(coeffs: np.ndarray, alpha: float) -> float:
    """||f||_{4,alpha} = ||f^2||_{2,alpha}^{1/2}, with Parseval for f^2."""
    sq = np.convolve(coeffs, coeffs)
    total = float(np.sum(np.abs(sq) ** 2 * squared_monomial_norms(alpha, len(sq) - 1)))
    return total ** 0.25


def eigen_coeffs(m: int, degree: int) -> np.ndarray:
    """Taylor coefficients C(j, m-1) of z^(m-1)(1-z)^(-m), j = 0..degree."""
    return binom(np.arange(degree + 1, dtype=float), m - 1)


def eigen_p4_scan(m: int, alpha: float, n_max: int) -> list[float]:
    """A^4_alpha norms of the eigenfunction truncations at scan_degrees(n_max)."""
    c = eigen_coeffs(m, n_max)
    return [p4_norm(c[: d + 1], alpha) for d in scan_degrees(n_max)]


def constant_one_p2_scan(alpha: float, n_max: int) -> list[float]:
    """A^2_alpha norms of the truncations of 1/(1-z): partial sums of
    2 B(2j+2, alpha+1), square-rooted."""
    cum = np.cumsum(squared_monomial_norms(alpha, n_max))
    return [math.sqrt(cum[d]) for d in scan_degrees(n_max)]


def eigen_member(m: int, p: float, alpha: float) -> bool:
    """The paper's eigenvalue threshold: 1/m is an eigenvalue iff m < (2+alpha)/p."""
    return m < (2.0 + alpha) / p


def gp_exponent(p: float, m: int) -> float:
    """Growth exponent of the Grothendieck-Pietsch partial sums."""
    return 1.0 - (1.0 - 1.0 / m) / p


def spectrum_membership(kind: str, p: float, alpha: float, lam: complex) -> str:
    """Membership of lam in the spectrum of C on the limit space.

    With r = (2+alpha)/p: the origin, the eigenvalues 1/m for m < r, and the
    disk |lam - 1/(2r)| < 1/(2r), closed for the (LB) union and open for the
    Frechet intersection.  For the intersection at integer r the point 1/r
    is not decided by the closed forms.
    """
    r = (2.0 + alpha) / p
    tol = SPECTRUM_POINT_TOL
    if abs(lam) <= tol:
        return "in"
    m = 1
    while m < r - _INT_TOL:
        if abs(lam - 1.0 / m) <= tol:
            return "in"
        m += 1
    dist = abs(lam - 0.5 / r)
    if dist < 0.5 / r or (kind == "lb" and dist == 0.5 / r):
        return "in"
    if kind == "frechet" and abs(r - round(r)) <= _INT_TOL and abs(lam - 1.0 / round(r)) <= tol:
        return "undetermined"
    return "out"
