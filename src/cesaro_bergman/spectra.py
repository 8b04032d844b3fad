"""Closed-form spectra of the Cesàro operator on weighted Bergman spaces.

All three settings share the same geometry: writing r = (2 + alpha) / p, the
spectrum combines the disk

    D_r = { lam : |lam - 1/(2r)| < 1/(2r) } = { lam != 0 : Re(1/lam) > r }

with the eigenvalues 1/m for integers m below r (which lie strictly outside
the closed disk).  The Banach and (LB) settings carry the closed disk; the
Frechet intersection carries the open disk plus the origin, and when r is an
integer the membership of 1/r in the point spectrum is not decided, so
queries there answer UNDETERMINED.
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
    "BoundaryTooClose",
    "CrosscheckReport",
    "spectrum",
    "waelbroeck",
    "step_union_crosscheck",
    "filtered_grid",
]

_INT_DETECT = 1e-9  # treat (2+alpha)/p within this of an integer as integral
_POINT_TOL = 1e-12  # equality tolerance for isolated-point queries


class Membership(enum.Enum):
    IN = "in"
    OUT = "out"
    UNDETERMINED = "undetermined"


class DiskBoundary(enum.Enum):
    OPEN = "open"
    CLOSED = "closed"


class BoundaryTooClose(ValueError):
    """A query grid enters the exclusion band around a boundary circle,
    an isolated point, or the region a finite step union cannot resolve."""


@dataclass(frozen=True)
class SpectralDescription:
    """Symbolic spectral set: isolated points {1/m}, a disk D_r with a
    boundary flag, and an origin flag.

    undetermined_points lists values whose membership the closed forms leave
    open (the Frechet point-spectrum boundary case); membership queries on
    them answer UNDETERMINED.
    """

    points: tuple[float, ...]
    disk_r: float
    disk_boundary: DiskBoundary
    includes_origin: bool
    undetermined_points: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not (self.disk_r > 0.0):
            raise ValueError("disk parameter r must be positive")

    @property
    def disk_center(self) -> float:
        return 0.5 / self.disk_r

    @property
    def disk_radius(self) -> float:
        return 0.5 / self.disk_r

    def disk_member_direct(self, lam: complex) -> bool:
        d = abs(lam - self.disk_center)
        if self.disk_boundary is DiskBoundary.CLOSED:
            return d <= self.disk_radius
        return d < self.disk_radius

    def disk_member_reciprocal(self, lam: complex) -> bool:
        """Equivalent predicate Re(1/lam) > r (>= for the closed disk)."""
        if lam == 0:
            return self.disk_boundary is DiskBoundary.CLOSED
        re = (1.0 / lam).real
        if self.disk_boundary is DiskBoundary.CLOSED:
            return re >= self.disk_r
        return re > self.disk_r

    def membership(self, lam: complex, tol: float = _POINT_TOL) -> Membership:
        if self.includes_origin and abs(lam) <= tol:
            return Membership.IN
        for pt in self.points:
            if abs(lam - pt) <= tol:
                return Membership.IN
        if self.disk_member_direct(lam):
            return Membership.IN
        for pt in self.undetermined_points:
            if abs(lam - pt) <= tol:
                return Membership.UNDETERMINED
        return Membership.OUT

    def normalized(self) -> "SpectralDescription":
        """Canonical form: drop listed points already implied by the disk or
        origin flags, sort the rest."""
        pts = tuple(sorted(p for p in self.points
                           if not self.disk_member_direct(p)
                           and not (self.includes_origin and p == 0.0)))
        und = tuple(sorted(p for p in self.undetermined_points
                           if not self.disk_member_direct(p)
                           and all(abs(p - q) > _POINT_TOL for q in pts)))
        return replace(self, points=pts, undetermined_points=und)


def _disk_parameter(p: float, alpha: float) -> float:
    return (2.0 + alpha) / p


def _eigen_points(r: float) -> tuple[float, ...]:
    # {1/m : m natural, m < r}, strict even when r sits on an integer
    top = int(math.floor(r))
    if abs(r - round(r)) <= _INT_DETECT:
        top = int(round(r)) - 1
    return tuple(1.0 / m for m in range(1, top + 1))


def _boundary_integer(r: float) -> int | None:
    m0 = int(round(r))
    if m0 >= 1 and abs(r - m0) <= _INT_DETECT:
        return m0
    return None


def spectrum(spec: SpaceSpec) -> SpectralDescription:
    """Spectrum of C on the space spec describes, with r = (2+alpha)/p.

    Every setting has the origin and the eigenvalues 1/m for m < r.  The
    Banach space A^p_alpha and the union space (steps alpha - 1/n) carry the
    closed disk D_r.  The intersection space (steps alpha + 1/n) carries the
    open disk; when r is an integer the value 1/r may or may not be an
    eigenvalue of the limit space, and it is reported as UNDETERMINED.  The
    limit spaces need p > 1.
    """
    if spec.kind is not SpaceKind.BANACH and not spec.p > 1.0:
        raise ValueError(f"limit spaces need p > 1, got p={spec.p}")
    r = _disk_parameter(spec.p, spec.alpha)
    m0 = _boundary_integer(r)
    frechet = spec.kind is SpaceKind.FRECHET_INTERSECTION
    return SpectralDescription(
        points=_eigen_points(r),
        disk_r=r,
        disk_boundary=DiskBoundary.OPEN if frechet else DiskBoundary.CLOSED,
        includes_origin=True,
        undetermined_points=(1.0 / m0,) if frechet and m0 is not None else (),
    )


def waelbroeck(spec: SpectralDescription) -> SpectralDescription:
    """Waelbroeck spectrum as a set: the topological closure.

    Closing the disk absorbs any boundary-undetermined point (it lies on the
    boundary circle by construction), so the result is two-valued.  Already
    closed descriptions are returned unchanged, and the map is idempotent.
    """
    closed = replace(spec, disk_boundary=DiskBoundary.CLOSED,
                     undetermined_points=())
    return closed.normalized()


# ---------------------------------------------------------------------------
# vectorized membership and the step-union cross-check
# ---------------------------------------------------------------------------

def _member_mask(desc: SpectralDescription, lams: np.ndarray) -> np.ndarray:
    """Two-valued membership over an array (UNDETERMINED points must have
    been excluded beforehand)."""
    mask = np.zeros(lams.shape, dtype=bool)
    if desc.includes_origin:
        mask |= np.abs(lams) <= _POINT_TOL
    for pt in desc.points:
        mask |= np.abs(lams - pt) <= _POINT_TOL
    d = np.abs(lams - desc.disk_center)
    if desc.disk_boundary is DiskBoundary.CLOSED:
        mask |= d <= desc.disk_radius
    else:
        mask |= d < desc.disk_radius
    return mask


def _re_reciprocal(lams: np.ndarray) -> np.ndarray:
    out = np.full(lams.shape, np.inf)
    nz = lams != 0
    out[nz] = (1.0 / lams[nz]).real
    return out


def _step_alphas(kind: SpaceKind, p: float, alpha: float,
                 n_max: int) -> list[float]:
    """Weight exponents of the admissible steps n <= n_max, in order of n."""
    if kind not in (SpaceKind.FRECHET_INTERSECTION, SpaceKind.LB_UNION):
        raise ValueError("cross-check applies to limit spaces only")
    spec = SpaceSpec(p, alpha, kind)
    step_alphas = [spec.step_alpha(n) for n in spec.admissible_steps(n_max)]
    if not step_alphas:
        raise ValueError("no admissible steps: increase n_max")
    return step_alphas


def _exclusion_mask(kind: SpaceKind, p: float, alpha: float, n_max: int,
                    lams: np.ndarray, band: float) -> np.ndarray:
    """Points too close to any boundary circle or isolated point to compare
    reliably, plus the crescent between the limit circle and the tightest
    step circle (which only an infinite union would resolve)."""
    r_limit = _disk_parameter(p, alpha)
    step_alphas = _step_alphas(kind, p, alpha, n_max)
    circles = np.sort([r_limit] + [_disk_parameter(p, a) for a in step_alphas])
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
    re = _re_reciprocal(lams)
    k = np.searchsorted(circles, re)
    excl = np.zeros(lams.shape, dtype=bool)
    for offset in (-2, -1, 0, 1):
        center = radius = 0.5 / circles[np.clip(k + offset, 0, len(circles) - 1)]
        excl |= np.abs(np.abs(lams - center) - radius) <= band
    # isolated points of every involved description, limit and steps
    max_r = circles[-1]
    for m in range(1, int(math.floor(max_r + 1.0 + _INT_DETECT)) + 1):
        excl |= np.abs(lams - 1.0 / m) <= band
    # unresolved crescent between the limit circle and the tightest step
    r_tight = _disk_parameter(p, step_alphas[-1])
    lo, hi = sorted((r_limit, r_tight))
    excl |= (re >= lo - band) & (re <= hi + band)
    return excl


def _assembled_mask(kind: SpaceKind, p: float, alpha: float, n_max: int,
                    lams: np.ndarray) -> np.ndarray:
    """Membership in the assembly of Banach step spectra, streamed over the
    steps in O(grid) memory.

    A step's closed disk is judged by the reciprocal predicate
    Re(1/lam) >= r_n.  The origin is masked once, and so is each distinct
    eigenvalue set {1/m : m < r_n}, which the steps sharing it reuse.
    """
    # each step's (r_n, eigenvalues) is built before the grid arrays: built
    # inside the loop, the peak RSS crept up over repeated cross-checks
    radii = [_disk_parameter(p, a) for a in _step_alphas(kind, p, alpha, n_max)]
    steps = [(r, _eigen_points(r)) for r in radii]
    re = _re_reciprocal(lams)
    origin = np.abs(lams) <= _POINT_TOL
    point_masks: dict[tuple[float, ...], np.ndarray] = {}

    def step_mask(step: tuple[float, tuple[float, ...]]) -> np.ndarray:
        # the Banach step spectrum: origin, eigenvalues and closed disk
        r, points = step
        pts = point_masks.get(points)
        if pts is None:
            pts = origin.copy()
            for pt in points:
                pts |= np.abs(lams - pt) <= _POINT_TOL
            point_masks[points] = pts
        return pts | (re >= r)

    if kind is SpaceKind.FRECHET_INTERSECTION:
        assembled = origin.copy()  # {0} joins the union
        for s in steps:
            assembled |= step_mask(s)
        return assembled
    # LB: intersect over m the tail unions of steps n >= m, walking n down
    running = step_mask(steps[-1])
    assembled = running.copy()
    for s in reversed(steps[:-1]):
        running |= step_mask(s)
        assembled &= running
    return assembled


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
    sample_grid: np.ndarray,
    band: float = 1e-9,
) -> CrosscheckReport:
    """Compare the limit-space spectrum against the assembly of Banach step
    spectra on a grid of sample values.

    Frechet: membership in {0} union of sigma(steps alpha + 1/n), n <= n_max.
    LB: the nested intersection over m of the tail unions of sigma(steps
    alpha - 1/n), m <= n <= n_max.  The two sides use independent closed
    forms and independent predicates: the limit side judges its disk by the
    distance |lam - center| <= radius, the step assembly by Re(1/lam) >= r.
    Memory is O(grid): the steps are streamed, never stacked.  Raises
    :class:`BoundaryTooClose` if the grid enters the exclusion band (see
    :func:`filtered_grid` to build a safe grid), and ValueError if there is
    no sample point to check or no admissible step.
    """
    kind = SpaceKind(kind) if isinstance(kind, str) else kind
    lams = np.asarray(sample_grid, dtype=complex).ravel()
    if lams.size == 0:
        raise ValueError("no sample points to check: every grid point was "
                         "excluded or the grid is empty")
    bad = _exclusion_mask(kind, p, alpha, n_max, lams, band)
    if np.any(bad):
        offender = lams[bad][0]
        raise BoundaryTooClose(
            f"{int(bad.sum())} grid point(s) inside the exclusion band, "
            f"first offender {offender}")
    assembled = _assembled_mask(kind, p, alpha, n_max, lams)
    limit_mask = _member_mask(spectrum(SpaceSpec(p, alpha, kind)), lams)
    diff = limit_mask != assembled
    return CrosscheckReport(
        kind=kind, p=p, alpha=alpha, n_max=n_max, n_checked=len(lams),
        disagreements=tuple(lams[diff]))


def filtered_grid(
    kind: SpaceKind | str,
    p: float,
    alpha: float,
    n_max: int,
    re_range: tuple[float, float] = (-1.0, 2.0),
    im_range: tuple[float, float] = (-1.0, 1.0),
    nx: int = 100,
    ny: int = 100,
    band: float = 1e-9,
) -> np.ndarray:
    """Rectangular lattice of sample values with the exclusion band applied,
    ready for :func:`step_union_crosscheck`."""
    kind = SpaceKind(kind) if isinstance(kind, str) else kind
    re = np.linspace(re_range[0], re_range[1], nx)
    im = np.linspace(im_range[0], im_range[1], ny)
    lams = (re[:, None] + 1j * im[None, :]).ravel()
    bad = _exclusion_mask(kind, p, alpha, n_max, lams, band)
    return lams[~bad]
