"""Closed-form spectra of the Cesàro operator on weighted Bergman spaces.

All three settings share the same geometry: writing r = (2 + alpha) / p, the
spectrum combines the disk

    D_r = { lam : |lam - 1/(2r)| < 1/(2r) } = { lam != 0 : Re(1/lam) > r }

with the origin and eigenvalues 1/m.  The Banach and (LB) settings carry the
closed disk and the 1/m with m < r, strictly outside it.  The Frechet
intersection carries the open disk and the 1/m with m <= r: the eigenfunction
z^(m-1)(1-z)^(-m) lies in A^p_beta exactly when m p < 2 + beta, so at an
integer r it lies in every step A^p_(alpha+1/n), and 1/r is an eigenvalue on
the boundary circle.  Membership is two-valued.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .norms import SpaceKind, SpaceSpec

__all__ = [
    "Membership",
    "DiskBoundary",
    "SpectralDescription",
    "CrosscheckReport",
    "spectrum",
    "waelbroeck",
    "step_union_crosscheck",
]

_INT_DETECT = 1e-9  # treat (2+alpha)/p within this of an integer as integral
_POINT_TOL = 1e-12  # equality tolerance for isolated-point queries
# largest disk parameter: beyond it the gaps 1/m - 1/(m+1) < 1/m^2 between
# neighbouring eigenvalues fall below _POINT_TOL
_R_MAX = 1e6


class Membership(enum.Enum):
    IN = "in"
    OUT = "out"


class DiskBoundary(enum.Enum):
    OPEN = "open"
    CLOSED = "closed"


@dataclass(frozen=True)
class SpectralDescription:
    """Symbolic spectral set: the origin, isolated points {1/m} and a disk
    D_r with a boundary flag."""

    points: tuple[float, ...]
    disk_r: float
    disk_boundary: DiskBoundary

    def __post_init__(self) -> None:
        if not (self.disk_r > 0.0):
            raise ValueError("disk parameter r must be positive")

    @property
    def disk_center(self) -> float:
        return 0.5 / self.disk_r

    @property
    def disk_radius(self) -> float:
        return 0.5 / self.disk_r

    def membership(self, lam: complex) -> Membership:
        if _member_mask(self, np.array([lam], dtype=complex))[0]:
            return Membership.IN
        return Membership.OUT


def _disk_parameter(p: float, alpha: float) -> float:
    r = (2.0 + alpha) / p
    if r > _R_MAX:
        raise ValueError(
            f"disk parameter r = (2+alpha)/p = {r:g} exceeds {_R_MAX:g}: the "
            "eigenvalues 1/m near 1/r lie closer than the point tolerance")
    return r


def _last_eigen_index(r: float, frechet: bool = False) -> int:
    """Largest m with 1/m an eigenvalue: m <= r on the Frechet space, m < r
    otherwise, with r within _INT_DETECT of an integer taken as it."""
    n = round(r)
    if abs(r - n) <= _INT_DETECT:
        return n if frechet else n - 1
    return math.floor(r)


def _eigen_points(r: float, frechet: bool = False) -> tuple[float, ...]:
    return tuple(1.0 / m for m in range(1, _last_eigen_index(r, frechet) + 1))


def spectrum(spec: SpaceSpec) -> SpectralDescription:
    """Spectrum of C on the space spec describes, with r = (2+alpha)/p.

    Every setting has the origin.  The Banach space A^p_alpha and the union
    space (steps alpha - 1/n) carry the closed disk D_r and the eigenvalues
    1/m for m < r.  The intersection space (steps alpha + 1/n) carries the
    open disk and the 1/m for m <= r, 1/r included at an integer r.  The
    limit spaces need p > 1.
    """
    if spec.kind is not SpaceKind.BANACH and not spec.p > 1.0:
        raise ValueError(f"limit spaces need p > 1, got p={spec.p}")
    r = _disk_parameter(spec.p, spec.alpha)
    frechet = spec.kind is SpaceKind.FRECHET_INTERSECTION
    return SpectralDescription(
        points=_eigen_points(r, frechet),
        disk_r=r,
        disk_boundary=DiskBoundary.OPEN if frechet else DiskBoundary.CLOSED,
    )


def waelbroeck(spec: SpectralDescription) -> SpectralDescription:
    """Waelbroeck spectrum of a spectrum of C as a set: its closure, the
    closed disk and the 1/m with m < r.  That is the Banach spectrum at the
    same (p, alpha) in every setting, and the map is idempotent."""
    return replace(spec, disk_boundary=DiskBoundary.CLOSED,
                   points=_eigen_points(spec.disk_r))


# ---------------------------------------------------------------------------
# vectorized membership and the step-union cross-check
# ---------------------------------------------------------------------------

def _disk_mask(desc: SpectralDescription, lams: np.ndarray) -> np.ndarray:
    """The direct disk predicate |lam - 1/(2r)| < 1/(2r), <= when closed."""
    # hypot rounds |lam - c| as abs(complex) does; np.abs on a complex array
    # is an ulp off on about a third of the values
    z = lams - desc.disk_center
    d = np.hypot(z.real, z.imag)
    if desc.disk_boundary is DiskBoundary.CLOSED:
        return d <= desc.disk_radius
    return d < desc.disk_radius


def _near_points(points, lams: np.ndarray, tol: float) -> np.ndarray:
    """|lam - x| <= tol for some real point x, rounded as the per-point test
    rounds it.  |lam - x| >= |Im lam|, and for |Im lam| <= tol it grows with
    |Re lam - x|: the two neighbours of Re lam among the points decide."""
    pts = np.sort(np.asarray(points, dtype=float))
    near = np.zeros(lams.shape, dtype=bool)
    cand = np.flatnonzero(np.abs(lams.imag) <= tol)
    z = lams[cand, None]
    k = np.clip(np.searchsorted(pts, z.real) + [-1, 0], 0, len(pts) - 1)
    near[cand] = (np.abs(z - pts[k]) <= tol).any(axis=1)
    return near


def _member_mask(desc: SpectralDescription, lams: np.ndarray) -> np.ndarray:
    """Membership over an array."""
    return _disk_mask(desc, lams) | _near_points(
        (0.0,) + desc.points, lams, _POINT_TOL)


def _re_reciprocal(lams: np.ndarray) -> np.ndarray:
    """Re(1/lam), inf at 0.  Where 1/lam overflows (subnormal lam) it is
    (Re lam / |lam|) / |lam| instead, without a warning or a NaN."""
    out = np.full(lams.shape, np.inf)
    nz = lams != 0
    with np.errstate(over="ignore", invalid="ignore"):
        out[nz] = (1.0 / lams[nz]).real
        bad = nz & ~np.isfinite(out)
        mod = np.abs(lams[bad])
        out[bad] = lams[bad].real / mod / mod
    return out


def _exclusion_mask(r_limit: float, radii: np.ndarray, lams: np.ndarray,
                    re: np.ndarray, band: float) -> np.ndarray:
    """Points too close to any boundary circle or isolated point to compare
    reliably, plus the crescent between the limit circle and the tightest
    step circle (which only an infinite union would resolve); re is
    _re_reciprocal(lams)."""
    circles = np.sort(np.append(radii, r_limit))
    # The circle of parameter r has center = radius = c = 1/(2r).  For fixed
    # lam, g(c) = |lam - c| - c has slope (c - Re lam)/|lam - c| - 1 <= 0, so
    # it is non-increasing in c and non-decreasing in r, and it vanishes at
    # r = rho = Re(1/lam).  The circles with |g| <= band therefore form a
    # contiguous run in sorted r, and when the run is not empty it contains
    # a nearest neighbour of rho, circles[k-1] or circles[k] with k the
    # insertion index of rho.  Testing the window k-2 .. k+1 with the exact
    # per-circle test gives the same mask as testing every circle; the extra
    # neighbours absorb the rounding of rho.  Re lam <= 0 gives k = 0, and
    # lam = 0 gives rho = inf (k past the end, clipped); there every circle
    # passes.
    k = np.searchsorted(circles, re)
    excl = np.zeros(lams.shape, dtype=bool)
    for offset in (-2, -1, 0, 1):
        center = radius = 0.5 / circles[np.clip(k + offset, 0, len(circles) - 1)]
        excl |= np.abs(np.abs(lams - center) - radius) <= band
    # isolated points of every involved description, limit and steps
    m_top = math.floor(circles[-1] + 1.0 + _INT_DETECT)
    excl |= _near_points(1.0 / np.arange(1, m_top + 1), lams, band)
    # unresolved crescent between the limit circle and the tightest step
    lo, hi = sorted((r_limit, radii[-1]))
    excl |= (re >= lo - band) & (re <= hi + band)
    return excl


def _assembled_mask(kind: SpaceKind, radii: np.ndarray, lams: np.ndarray,
                    re: np.ndarray) -> np.ndarray:
    """Membership in the assembly of the Banach step spectra sigma_n =
    {0} u {1/m : m < r_n} u {Re(1/lam) >= r_n} (the reciprocal predicate),
    with radii the r_n in order of n and re = _re_reciprocal(lams).

    The step disks are nested, shrinking as r_n grows, and the eigenvalue
    sets only grow with r_n.  So the Frechet union is {0}, the eigenvalues
    of the largest r_n and the disk of the smallest.  The LB limsup, the
    intersection over m of the tail unions over m <= n <= n_max, is
    sigma_(n_max): that is the tail from m = n_max, and every other tail
    contains it.  The cost is a fixed number of grid passes at any r.
    """
    if kind is SpaceKind.FRECHET_INTERSECTION:
        r_points, r_disk = float(radii.max()), float(radii.min())
    else:
        r_points = r_disk = float(radii[-1])
    return (re >= r_disk) | _near_points((0.0,) + _eigen_points(r_points),
                                         lams, _POINT_TOL)


@dataclass(frozen=True)
class CrosscheckReport:
    kind: SpaceKind
    p: float
    alpha: float
    n_max: int
    n_checked: int
    disagreements: tuple[complex, ...]

    @property
    def ok(self) -> bool:
        return not self.disagreements


def step_union_crosscheck(
    kind: SpaceKind | str,
    p: float,
    alpha: float,
    n_max: int,
    re_range: tuple[float, float] = (-1.0, 2.0),
    im_range: tuple[float, float] = (-1.0, 1.0),
    nx: int = 100,
    ny: int = 100,
    band: float = 1e-9,
) -> CrosscheckReport:
    """Compare the limit-space spectrum against the assembly of Banach step
    spectra on an nx-by-ny lattice over re_range x im_range.

    Frechet: membership in {0} union of sigma(steps alpha + 1/n), n <= n_max.
    LB: the nested intersection over m of the tail unions of sigma(steps
    alpha - 1/n), m <= n <= n_max.  Both have closed forms: the Frechet
    union is {0}, step 1's eigenvalues and step n_max's disk, the LB set is
    step n_max's spectrum (see _assembled_mask).  The work is a fixed number
    of grid passes plus an O(n_max) array of step radii.  The two sides use
    independent closed forms and independent predicates: the limit side
    judges its disk by the distance |lam - center| <= radius, the step
    assembly by Re(1/lam) >= r.  Lattice points within band of a boundary
    circle or an isolated point, or in the crescent only an infinite union
    resolves, are dropped first (see _exclusion_mask).  Raises ValueError
    if no point is left to check, if there is no step (the Banach kind, or
    none admissible), or if r = (2+alpha)/p is too large (see _R_MAX).
    """
    spec = SpaceSpec(p, alpha, SpaceKind(kind))
    radii = (2.0 + spec.step_alphas(spec.steps(n_max))) / p
    lams = (np.linspace(re_range[0], re_range[1], nx)[:, None]
            + 1j * np.linspace(im_range[0], im_range[1], ny)[None, :]).ravel()
    re = _re_reciprocal(lams)
    keep = ~_exclusion_mask(_disk_parameter(p, alpha), radii, lams, re, band)
    lams, re = lams[keep], re[keep]
    if lams.size == 0:
        raise ValueError("no sample points to check: every grid point was "
                         "excluded or the grid is empty")
    assembled = _assembled_mask(spec.kind, radii, lams, re)
    limit_mask = _member_mask(spectrum(spec), lams)
    diff = limit_mask != assembled
    return CrosscheckReport(
        kind=spec.kind, p=p, alpha=alpha, n_max=n_max, n_checked=len(lams),
        disagreements=tuple(lams[diff]))
