import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cesaro_bergman import spectra
from cesaro_bergman.norms import SpaceKind, SpaceSpec
from cesaro_bergman.spectra import (
    _INT_DETECT,
    _assembled_mask,
    _disk_mask,
    _exclusion_mask,
    _member_mask,
    _near_points,
    _re_reciprocal,
)
from cesaro_bergman.spectra import (
    DiskBoundary,
    Membership,
    SpectralDescription,
    spectrum,
    step_union_crosscheck,
    waelbroeck,
)

FRECHET = SpaceKind.FRECHET_INTERSECTION
LB = SpaceKind.LB_UNION


# ---------------------------------------------------------------------------
# oracle: the three per-setting builders that spectrum() replaced
# ---------------------------------------------------------------------------

def _oracle_eigen_points(r):
    top = int(math.floor(r))
    if abs(r - round(r)) <= 1e-9:
        top = int(round(r)) - 1
    return tuple(1.0 / m for m in range(1, top + 1))


def _oracle_boundary_integer(r):
    m0 = int(round(r))
    if m0 >= 1 and abs(r - m0) <= 1e-9:
        return m0
    return None


def oracle_banach_spectrum(p, alpha):
    if p < 1.0 or alpha < 0.0:
        raise ValueError("need p >= 1 and alpha >= 0")
    r = (2.0 + alpha) / p
    return SpectralDescription(points=_oracle_eigen_points(r), disk_r=r,
                               disk_boundary=DiskBoundary.CLOSED)


def oracle_frechet_spectrum(p, alpha):
    # at an integer r, 1/r is an eigenvalue: z^(r-1)(1-z)^(-r) lies in
    # A^p_beta for every beta > alpha, so in every step alpha + 1/n
    if p <= 1.0 or alpha <= 0.0:
        raise ValueError("need p > 1 and alpha > 0")
    r = (2.0 + alpha) / p
    m0 = _oracle_boundary_integer(r)
    return SpectralDescription(
        points=_oracle_eigen_points(r) + ((1.0 / m0,) if m0 is not None else ()),
        disk_r=r, disk_boundary=DiskBoundary.OPEN)


def oracle_lb_spectrum(p, alpha):
    if p <= 1.0 or alpha <= 0.0:
        raise ValueError("need p > 1 and alpha > 0")
    r = (2.0 + alpha) / p
    return SpectralDescription(points=_oracle_eigen_points(r), disk_r=r,
                               disk_boundary=DiskBoundary.CLOSED)


ORACLE_BUILDERS = {SpaceKind.BANACH: oracle_banach_spectrum,
                   FRECHET: oracle_frechet_spectrum, LB: oracle_lb_spectrum}


# ---------------------------------------------------------------------------
# oracle: the scalar disk predicates and membership the vector ones replaced
# ---------------------------------------------------------------------------

def oracle_disk_direct(desc, lam):
    d = abs(lam - desc.disk_center)
    if desc.disk_boundary is DiskBoundary.CLOSED:
        return d <= desc.disk_radius
    return d < desc.disk_radius


def oracle_disk_reciprocal(desc, lam):
    if lam == 0:
        return desc.disk_boundary is DiskBoundary.CLOSED
    re = (1.0 / lam).real
    if desc.disk_boundary is DiskBoundary.CLOSED:
        return re >= desc.disk_r
    return re > desc.disk_r


def oracle_membership(desc, lam, tol=1e-12):
    if abs(lam) <= tol:
        return Membership.IN
    if any(abs(lam - pt) <= tol for pt in desc.points):
        return Membership.IN
    if oracle_disk_direct(desc, lam):
        return Membership.IN
    return Membership.OUT


def reciprocal_mask(desc, lams):
    # Re(1/lam) > r, >= for the closed disk
    re = _re_reciprocal(lams)
    if desc.disk_boundary is DiskBoundary.CLOSED:
        return re >= desc.disk_r
    return re > desc.disk_r


class TestSpectrumOracle:
    """spectrum(SpaceSpec) gives the same description as the old builder of
    each setting, and refuses the same exponents."""

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(list(SpaceKind)),
           p=st.floats(1.0, 8.0),
           alpha=st.floats(0.0, 12.0) | st.integers(0, 12).map(float),
           integral_r=st.booleans())
    # r - 2 = 1.00000008e-9 lies just past _INT_DETECT: 1/2 is an eigenvalue
    @example(kind=SpaceKind.BANACH, p=1.0, alpha=1e-9, integral_r=False)
    def test_matches_old_builders(self, kind, p, alpha, integral_r):
        if integral_r:  # pick p so that r = (2 + alpha)/p is an integer
            m = max(1, round((2.0 + alpha) / p))
            p = (2.0 + alpha) / m
            if p < 1.0:
                return
        try:
            want = ORACLE_BUILDERS[kind](p, alpha)
        except ValueError:
            with pytest.raises(ValueError):
                spectrum(SpaceSpec(p, alpha, kind))
            return
        assert spectrum(SpaceSpec(p, alpha, kind)) == want

    @pytest.mark.parametrize("kind", [FRECHET, LB])
    @pytest.mark.parametrize("p,alpha", [(1.0, 2.0), (2.0, 0.0)])
    def test_limit_kinds_need_p_above_one_and_positive_alpha(self, kind, p,
                                                             alpha):
        with pytest.raises(ValueError):
            spectrum(SpaceSpec(p, alpha, kind))
        spectrum(SpaceSpec(p, alpha))  # the Banach space accepts both

    @pytest.mark.parametrize("kind", list(SpaceKind))
    @pytest.mark.parametrize("p,alpha", [(math.nan, 1.0), (math.inf, 1.0),
                                         (2.0, math.nan), (2.0, math.inf)])
    def test_nonfinite_exponents_rejected(self, kind, p, alpha):
        with pytest.raises(ValueError, match="finite"):
            spectrum(SpaceSpec(p, alpha, kind))


# ---------------------------------------------------------------------------
# brute-force oracle: every circle against every point, every step stacked
# ---------------------------------------------------------------------------

def _oracle_step_alphas(kind, alpha, n_max):
    if kind is SpaceKind.FRECHET_INTERSECTION:
        return [alpha + 1.0 / n for n in range(1, n_max + 1)]
    n_min = 1
    while not alpha - 1.0 / n_min > 0.0:
        n_min += 1
    return [alpha - 1.0 / n for n in range(n_min, n_max + 1)]


def _step_radii(kind, p, alpha, n_max):
    # the disk parameters the cross-check builds from the step rule
    spec = SpaceSpec(p, alpha, SpaceKind(kind))
    return (2.0 + spec.step_alphas(spec.steps(n_max))) / p


def oracle_exclusion_mask(kind, p, alpha, n_max, lams, band):
    step_alphas = _oracle_step_alphas(kind, alpha, n_max)
    r_limit = (2.0 + alpha) / p
    circles = [r_limit] + [(2.0 + a) / p for a in step_alphas]
    excl = np.zeros(lams.shape, dtype=bool)
    for r in circles:
        center = radius = 0.5 / r
        excl |= np.abs(np.abs(lams - center) - radius) <= band
    for m in range(1, int(math.floor(max(circles) + 1.0 + 1e-9)) + 1):
        excl |= np.abs(lams - 1.0 / m) <= band
    re = np.full(lams.shape, np.inf)
    nz = lams != 0
    with np.errstate(over="ignore", invalid="ignore"):  # subnormal lams
        re[nz] = (1.0 / lams[nz]).real
    lo, hi = sorted((r_limit, (2.0 + step_alphas[-1]) / p))
    excl |= (re >= lo - band) & (re <= hi + band)
    return excl


def oracle_assembled_mask(kind, p, alpha, n_max, lams):
    members = np.stack([_member_mask(oracle_banach_spectrum(p, a), lams)
                        for a in _oracle_step_alphas(kind, alpha, n_max)])
    if kind is SpaceKind.FRECHET_INTERSECTION:
        return (np.abs(lams) <= 1e-12) | np.logical_or.reduce(members, axis=0)
    # suffix unions, then intersect over the tail start
    tail_union = np.logical_or.accumulate(members[::-1], axis=0)[::-1]
    return np.logical_and.reduce(tail_union, axis=0)


def _lattice(rect, nx, ny):
    re = np.linspace(rect[0], rect[1], nx)
    im = np.linspace(rect[2], rect[3], ny)
    return (re[:, None] + 1j * im[None, :]).ravel()


def assert_matches_oracle(kind, p, alpha, n_max, lams, band=1e-9):
    """Compare both masks with the oracle on lams plus probes: one point on
    each circle, and points within _POINT_TOL of each eigenvalue (which the
    band would exclude, so the assembly sees them only as extra probes)."""
    kind = SpaceKind(kind)
    rs = [(2.0 + alpha) / p] + [(2.0 + a) / p
                                for a in _oracle_step_alphas(kind, alpha, n_max)]
    on_circles = np.array([0.5 / r * (1.0 + np.exp(1j * (0.3 + 2.1 * i)))
                           for i, r in enumerate(rs)])
    near_eigen = np.array([1.0 / m + 5e-13 for m in range(1, int(max(rs)) + 3)],
                          dtype=complex)
    lams = np.concatenate([lams, on_circles])
    radii = _step_radii(kind, p, alpha, n_max)
    excl = _exclusion_mask((2.0 + alpha) / p, radii, lams,
                           _re_reciprocal(lams), band)
    assert np.array_equal(excl, oracle_exclusion_mask(kind, p, alpha, n_max,
                                                      lams, band))
    probe = np.concatenate([lams[~excl], near_eigen])
    assert np.array_equal(_assembled_mask(kind, radii, probe,
                                          _re_reciprocal(probe)),
                          oracle_assembled_mask(kind, p, alpha, n_max, probe))


class TestBanachSpectrum:
    def test_p2_alpha2_shape(self):
        desc = spectrum(SpaceSpec(2.0, 2.0))
        assert desc.disk_r == 2.0
        assert desc.points == (1.0,)
        assert desc.disk_center == 0.25 and desc.disk_radius == 0.25
        assert desc.disk_boundary is DiskBoundary.CLOSED

    def test_membership_arithmetic(self):
        desc = spectrum(SpaceSpec(2.0, 2.0))
        assert desc.membership(0.3) is Membership.IN  # |0.3-0.25| < 0.25
        assert desc.membership(0.5 + 0.5j) is Membership.OUT  # Re(1/lam) = 1 < 2
        assert desc.membership(0.0) is Membership.IN
        assert desc.membership(1.0) is Membership.IN

    def test_small_disk_parameter_allowed(self):
        # (2+alpha)/p below 1 still yields a consistent disk
        desc = spectrum(SpaceSpec(3.0, 0.5))
        assert desc.disk_r == pytest.approx(2.5 / 3.0)
        assert desc.points == ()


class TestFrechetSpectrum:
    def test_p2_alpha2_sandwich(self):
        # 1/r = 1/2 sits on the open disk's boundary, and is an eigenvalue
        desc = spectrum(SpaceSpec(2.0, 2.0, FRECHET))
        assert desc.points == (1.0, 0.5)
        assert desc.disk_boundary is DiskBoundary.OPEN
        assert desc.membership(0.5) is Membership.IN
        assert desc.membership(0.5 + 1e-6) is Membership.OUT
        assert desc.membership(0.0) is Membership.IN
        assert desc.membership(1.0) is Membership.IN

    def test_boundary_point_not_in_open_disk(self):
        desc = spectrum(SpaceSpec(2.0, 2.0, FRECHET))
        lam = np.array([0.5 + 0j])
        assert not _disk_mask(desc, lam)[0]
        assert not reciprocal_mask(desc, lam)[0]

    def test_no_sandwich_when_threshold_not_integer(self):
        desc = spectrum(SpaceSpec(2.0, 1.0, FRECHET))  # r = 1.5
        assert desc.points == (1.0,)
        assert desc.membership(1.0) is Membership.IN
        assert desc.membership(2.0 / 3.0) is Membership.OUT

    def test_interior_point(self):
        desc = spectrum(SpaceSpec(2.0, 2.0, FRECHET))
        assert desc.membership(1.0 / 3.0) is Membership.IN  # Re(3) > 2


class TestLBSpectrum:
    def test_p2_alpha2(self):
        desc = spectrum(SpaceSpec(2.0, 2.0, LB))
        assert desc.points == (1.0,)
        assert desc.membership(0.5) is Membership.IN  # closed boundary circle
        assert desc.membership(2.0) is Membership.OUT
        assert desc.membership(0.0) is Membership.IN


class TestWaelbroeck:
    def test_frechet_closure_absorbs_sandwich(self):
        # the closed disk holds 1/r = 1/2, so the closure lists 1 alone
        closed = waelbroeck(spectrum(SpaceSpec(2.0, 2.0, FRECHET)))
        assert closed.disk_boundary is DiskBoundary.CLOSED
        assert closed.points == (1.0,)
        assert closed.membership(0.5) is Membership.IN
        assert closed.membership(1.0) is Membership.IN
        # matches the closure assembled directly
        direct = SpectralDescription(
            points=(1.0,), disk_r=2.0, disk_boundary=DiskBoundary.CLOSED)
        assert closed == direct

    def test_idempotent(self):
        for spec in (SpaceSpec(2.0, 1.0), SpaceSpec(2.0, 2.0, FRECHET),
                     SpaceSpec(1.5, 0.7, LB)):
            desc = spectrum(spec)
            once = waelbroeck(desc)
            assert waelbroeck(once) == once

    def test_lb_unchanged(self):
        desc = spectrum(SpaceSpec(2.0, 2.0, LB))
        assert waelbroeck(desc) == desc

    @pytest.mark.parametrize("p,alpha", [
        (2.0, 2.0), (2.0, 4.0), (1.5, 1.0), (2.0, 1000.0),  # integer r
        (2.0, 1.0), (1.5, 0.7), (3.0, 2.5), (1.25, 5.0)])
    def test_closure_of_every_setting_is_banach(self, p, alpha):
        banach = spectrum(SpaceSpec(p, alpha))
        assert waelbroeck(spectrum(SpaceSpec(p, alpha, FRECHET))) == banach
        assert waelbroeck(spectrum(SpaceSpec(p, alpha, LB))) == banach
        assert waelbroeck(banach) == banach


def oracle_near_points(points, lams, tol):
    # the per-point loop _near_points replaced
    near = np.zeros(lams.shape, dtype=bool)
    for pt in points:
        near |= np.abs(lams - pt) <= tol
    return near


class TestNearPoints:
    @settings(max_examples=150, deadline=None)
    @given(m_max=st.integers(1, 20_000), origin=st.booleans(), data=st.data())
    def test_matches_per_point_loop(self, m_max, origin, data):
        points = ((0.0,) if origin else ()) + tuple(
            1.0 / m for m in range(1, m_max + 1))
        gap = 1.0 / m_max - 1.0 / (m_max + 1)
        tol = data.draw(st.sampled_from([0.0, 1e-12, 1e-9, gap, 0.3, 5.0]))
        # at and within 1e-13 of the points, and at distance tol from them
        at = st.one_of(st.integers(1, m_max + 1).map(lambda m: 1.0 / m),
                       st.sampled_from([0.0, 5e-324, -5e-324, 1e-310]),
                       st.floats(-1.0, 2.0))
        offset = st.one_of(
            st.sampled_from([0, 1e-13, -1e-13, tol, -tol, 1j * tol,
                             (0.6 + 0.8j) * tol]),
            st.builds(complex, st.floats(-1e-13, 1e-13),
                      st.floats(-1e-13, 1e-13)))
        probes = data.draw(st.lists(st.builds(lambda x, dz: complex(x) + dz,
                                              at, offset), max_size=40))
        lams = np.array(probes + [complex(-0.0, 0.0), complex(0.0, -0.0),
                                  complex(-0.0, -0.0), complex(5e-324, -5e-324)])
        assert np.array_equal(_near_points(points, lams, tol),
                              oracle_near_points(points, lams, tol))

    def test_gap_near_largest_disk_parameter(self):
        # neighbouring eigenvalues near 1/_R_MAX, probed at the point gap
        m = np.arange(999_990, 1_000_001)
        points = 1.0 / m
        tol = points[-2] - points[-1]
        lams = np.concatenate([points + d for d in (0.0, tol, -tol, tol / 2,
                                                    1j * tol, 2.5 * tol)])
        assert np.array_equal(_near_points(points, lams, tol),
                              oracle_near_points(points, lams, tol))


class TestPredicates:
    def test_equivalence_on_random_samples(self):
        rng = np.random.default_rng(99)
        lam = rng.uniform(-2, 2, 100_000) + 1j * rng.uniform(-2, 2, 100_000)
        lam = lam[np.abs(lam) > 1e-9]
        for desc in (spectrum(SpaceSpec(2.0, 2.0)),
                     spectrum(SpaceSpec(3.0, 2.5, FRECHET))):
            # skip samples within rounding distance of the circle
            edge = np.abs(np.abs(lam - desc.disk_center) - desc.disk_radius) < 1e-12
            check = lam[~edge]
            assert np.array_equal(_disk_mask(desc, check),
                                  reciprocal_mask(desc, check))
            # and each against its scalar form
            sub = check[:2000]
            assert np.array_equal(_disk_mask(desc, sub),
                                  [oracle_disk_direct(desc, z) for z in sub])
            assert np.array_equal(reciprocal_mask(desc, sub),
                                  [oracle_disk_reciprocal(desc, z) for z in sub])

    def test_monotone_disks(self):
        rng = np.random.default_rng(7)
        lam = rng.uniform(-1, 1, 20_000) + 1j * rng.uniform(-1, 1, 20_000)
        small_r = spectrum(SpaceSpec(2.0, 1.0))   # r = 1.5
        large_r = spectrum(SpaceSpec(2.0, 3.0))   # r = 2.5, smaller disk
        inner = _disk_mask(large_r, lam)
        assert inner.any() and np.all(_disk_mask(small_r, lam)[inner])

    def test_frechet_set_not_closed(self):
        # members of the open disk converge to a non-member boundary point
        desc = spectrum(SpaceSpec(2.0, 2.0, FRECHET))
        boundary = desc.disk_center + desc.disk_radius * np.exp(2.4j)
        inside = [desc.disk_center + (1 - 10.0 ** -k) * (boundary - desc.disk_center)
                  for k in range(2, 8)]
        assert all(desc.membership(z) is Membership.IN for z in inside)
        assert desc.membership(boundary) is Membership.OUT


_KINDS = st.sampled_from(list(SpaceKind))
_SPECS = st.one_of(
    st.builds(SpaceSpec, st.floats(1.05, 4.0), st.floats(0.05, 6.0), _KINDS),
    # (2 + alpha)/p = m, so 1/m is the Frechet boundary eigenvalue
    st.builds(lambda p, m, kind: SpaceSpec(p, m * p - 2.0, kind),
              st.floats(1.05, 4.0), st.integers(2, 5), _KINDS),
)


class TestMembershipOracle:
    @settings(max_examples=300, deadline=None)
    @given(spec=_SPECS, closure=st.booleans(), data=st.data())
    def test_matches_scalar_oracle(self, spec, closure, data):
        desc = spectrum(spec)
        if closure:
            desc = waelbroeck(desc)
        # the origin, 1/r, the points 1/m and a little past them, each also
        # moved across the 1e-12 tolerance
        special = [0.0, 1.0 / desc.disk_r] + [
            1.0 / m for m in range(1, int(desc.disk_r) + 3)]
        near = st.builds(lambda z, dz: complex(z) + dz, st.sampled_from(special),
                         st.sampled_from([0, 5e-13, -1e-12, 2e-12, 1e-12j]))
        lam = data.draw(st.one_of(
            near, st.builds(complex, st.floats(-2, 2), st.floats(-2, 2))))
        assert desc.membership(lam) is oracle_membership(desc, lam)
        assert _disk_mask(desc, np.array([lam]))[0] == oracle_disk_direct(desc, lam)

    def test_points_origin_and_boundary_point(self):
        desc = spectrum(SpaceSpec(2.0, 4.0, FRECHET))  # r = 3
        for lam in (0.0, 1.0, 0.5, 1.0 / 3.0, 0.2, 0.25 + 0.1j):
            assert desc.membership(lam) is oracle_membership(desc, lam)
        assert desc.membership(1.0 / 3.0) is Membership.IN


class TestReReciprocal:
    @pytest.mark.filterwarnings("error")
    def test_subnormal_lambdas(self):
        lams = np.array([2e-320j, 1e-320, -1e-320, 1e-320 + 1e-320j, 0j,
                         0.5 + 0.5j])
        got = _re_reciprocal(lams)
        assert got[0] == 0.0
        assert got[1] == np.inf and got[2] == -np.inf and got[3] == np.inf
        assert got[4] == np.inf and got[5] == 1.0

    def test_normal_lambdas_unchanged(self):
        rng = np.random.default_rng(11)
        lams = (rng.uniform(-2, 2, 1000) + 1j * rng.uniform(-2, 2, 1000)) \
            * 10.0 ** rng.uniform(-300, 300, 1000)
        assert _re_reciprocal(lams).tobytes() == (1.0 / lams).real.tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", ["frechet", "lb"])
    def test_subnormal_grid_is_excluded_silently(self, kind):
        with pytest.raises(ValueError, match="no sample points"):
            step_union_crosscheck(kind, 2.0, 2.0, 5, re_range=(1e-320, 2e-320),
                                  im_range=(1e-320, 2e-320), nx=3, ny=3)


# a 1x1 lattice at 5, outside every disk and away from every point
AT_5 = dict(re_range=(5.0, 5.0), im_range=(0.0, 0.0), nx=1, ny=1)


class TestCrosscheck:
    def test_trivial_outside_point(self):
        report = step_union_crosscheck("frechet", 2.0, 2.0, 10, **AT_5)
        assert report.ok and report.n_checked == 1

    def test_sandwich_point_rejected(self):
        # 1/2 lies on the limit circle and is an eigenvalue of every step
        with pytest.raises(ValueError, match="no sample points"):
            step_union_crosscheck("frechet", 2.0, 2.0, 10, re_range=(0.5, 0.5),
                                  im_range=(0.0, 0.0), nx=1, ny=1)

    def test_small_grids_agree(self):
        for kind in ("frechet", "lb"):
            report = step_union_crosscheck(kind, 2.0, 2.0, 40, nx=40, ny=40)
            assert report.n_checked > 1000
            assert report.ok, report.disagreements[:5]

    def test_non_integer_threshold_grid(self):
        report = step_union_crosscheck("lb", 1.5, 0.7, 30, nx=25, ny=25)
        assert report.ok

    @pytest.mark.parametrize("kind", ["frechet", "lb"])
    def test_wrong_limit_spectrum_is_caught(self, kind, monkeypatch):
        # a limit side built at alpha + 0.05 must disagree with the steps
        real = spectra.spectrum
        monkeypatch.setattr(spectra, "spectrum", lambda spec: real(
            SpaceSpec(spec.p, spec.alpha + 0.05, spec.kind)))
        # near 1/r = 0.5, where the two disks' right ends lie 0.006 apart
        report = step_union_crosscheck(kind, 2.0, 2.0, 100,
                                       re_range=(0.45, 0.52),
                                       im_range=(-0.05, 0.05), nx=40, ny=40)
        assert not report.ok and len(report.disagreements) > 10


class TestUnresolvableDiskParameter:
    """Above r = 1e6 the eigenvalues 1/m lie closer than _POINT_TOL."""

    @pytest.mark.parametrize("kind", list(SpaceKind))
    def test_huge_alpha_refused(self, kind):
        with pytest.raises(ValueError, match="disk parameter"):
            spectrum(SpaceSpec(2.0, 2e6, kind))
        with pytest.raises(ValueError, match="disk parameter"):
            spectrum(SpaceSpec(2.0, 1e300, kind))

    @pytest.mark.parametrize("kind", ["frechet", "lb"])
    def test_crosscheck_refuses_before_any_point_loop(self, kind):
        with pytest.raises(ValueError, match="disk parameter"):
            step_union_crosscheck(kind, 2.0, 1e300, 5, nx=10, ny=10)

    def test_large_resolvable_disk_parameter(self):
        desc = spectrum(SpaceSpec(2.0, 1000.0))  # r = 501
        assert len(desc.points) == 500
        assert len(spectrum(SpaceSpec(2.0, 1000.0, FRECHET)).points) == 501
        assert step_union_crosscheck("frechet", 2.0, 1000.0, 5, nx=10,
                                     ny=10).ok


class TestStreamedAssemblyOracle:
    """The windowed exclusion mask and the closed-form step assembly agree
    bit for bit with the brute-force oracle above."""

    # 0, the real axis, the eigenvalues and the circles' far ends
    SPECIAL = np.array([0.0, 1.0, 0.5, 1.0 / 3.0, 0.25, 0.2, -1.0, 2.0,
                        0.1 + 0.0j, 1e-12, -1e-12j, 0.3j, -0.7 + 0.2j])

    @pytest.mark.parametrize("kind,p,alpha,n_max", [
        ("frechet", 2.0, 2.0, 60),    # integral r = 2
        ("lb", 2.0, 2.0, 60),
        ("frechet", 1.5, 4.0, 120),   # r = 4; each step has 1, 1/2, 1/3, 1/4
        ("lb", 1.25, 5.0, 200),       # r = 5.6, several eigenvalues per step
        ("lb", 1.5, 0.7, 40),         # alpha < 1: steps start at n = 2
        ("lb", 3.0, 0.3, 80),         # alpha < 1: steps start at n = 4
        ("frechet", 3.0, 1.6, 300),
        # r_n falls from 2.45 to 1.955 and crosses 2 at n = 10, where the
        # eigenvalue 1/2 leaves the steps
        ("frechet", 2.0, 1.9, 100),
        # r_10 = 2 + 5e-11: step 10 drops 1/2, and only steps 1 to 9 put
        # 1/2 + 5e-13 (just outside every disk) in the union
        ("frechet", 2.0, 1.9000000001, 10),
        # r_10 = 2 + 5e-11 lies within _INT_DETECT of 2: step 10 has
        # eigenvalue 1 alone, the limit (r = 2.05) also 1/2
        ("lb", 2.0, 2.1000000001, 10),
    ])
    def test_pinned_cases(self, kind, p, alpha, n_max):
        # 21x21 on the symmetric square holds 0 and 21 real-axis points
        lams = np.concatenate([_lattice((-1.0, 1.0, -1.0, 1.0), 21, 21),
                               _lattice((-1.0, 2.0, -1.0, 1.0), 40, 31),
                               self.SPECIAL.astype(complex)])
        assert 0 in lams and np.count_nonzero(lams.imag == 0) > 40
        assert_matches_oracle(kind, p, alpha, n_max, lams)

    def test_lb_last_step_radius_near_integer(self):
        r_last = _step_radii(LB, 2.0, 2.1000000001, 10)[-1]
        assert 0 < abs(r_last - 2.0) <= _INT_DETECT

    @pytest.mark.parametrize("kind,p,alpha,n_max", [
        ("frechet", 3.0, 1.9, 1500),  # the benchmark's step counts and r
        ("lb", 3.0, 3.25, 1000),
    ])
    def test_benchmark_step_counts(self, kind, p, alpha, n_max):
        assert_matches_oracle(kind, p, alpha, n_max,
                              _lattice((-1.0, 2.0, -1.0, 1.0), 100, 100))

    @pytest.mark.parametrize("kind", [FRECHET, LB])
    @pytest.mark.parametrize("p,alpha,n_max", [
        (2.0, 2.0, 300), (1.5, 0.7, 40), (3.0, 0.3, 80), (1.25, 5.0, 1000),
        # alpha - 1/n rounds to 0 at n = 93, so the LB steps start at 94
        (2.0, 1.0 / 93.0, 100)])
    def test_step_radii_match_scalar_steps(self, kind, p, alpha, n_max):
        spec = SpaceSpec(p, alpha, kind)
        steps = spec.steps(n_max)
        want = [alpha + 1.0 / n if kind is FRECHET else alpha - 1.0 / n
                for n in steps.tolist()]
        assert spec.step_alphas(steps).tobytes() == np.array(want).tobytes()

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(kind=st.sampled_from(["frechet", "lb"]),
           p=st.floats(1.2, 4.0),
           alpha=st.floats(0.2, 6.0),
           n_max=st.integers(1, 300),
           re0=st.floats(-3.0, 2.0), re_span=st.floats(0.01, 4.0),
           im0=st.floats(-2.0, 1.0), im_span=st.floats(0.01, 3.0),
           nx=st.integers(1, 25), ny=st.integers(1, 25),
           band=st.sampled_from([1e-9, 1e-6, 1e-3]))
    # a 1x1 lattice at the origin, which every circle passes through
    @example(kind="frechet", p=2.0, alpha=2.0, n_max=10, re0=0.0,
             re_span=1.0, im0=0.0, im_span=1.0, nx=1, ny=1, band=1e-9)
    def test_random_rects(self, kind, p, alpha, n_max, re0, re_span, im0,
                          im_span, nx, ny, band):
        rect = dict(re_range=(re0, re0 + re_span),
                    im_range=(im0, im0 + im_span), nx=nx, ny=ny, band=band)
        if not _oracle_step_alphas(SpaceKind(kind), alpha, n_max):
            with pytest.raises(ValueError, match="no admissible steps"):
                step_union_crosscheck(kind, p, alpha, n_max, **rect)
            return
        lams = _lattice((re0, re0 + re_span, im0, im0 + im_span), nx, ny)
        assert_matches_oracle(kind, p, alpha, n_max, lams, band)
        # the one-call cross-check keeps exactly the points the oracle keeps
        n_kept = np.count_nonzero(~oracle_exclusion_mask(
            SpaceKind(kind), p, alpha, n_max, lams, band))
        if n_kept == 0:
            with pytest.raises(ValueError, match="no sample points"):
                step_union_crosscheck(kind, p, alpha, n_max, **rect)
            return
        report = step_union_crosscheck(kind, p, alpha, n_max, **rect)
        assert report.n_checked == n_kept and report.ok


class TestCrosscheckInputs:
    @pytest.mark.parametrize("kind", ["frechet", "lb"])
    def test_no_steps_raises_value_error(self, kind):
        with pytest.raises(ValueError, match="no admissible steps"):
            step_union_crosscheck(kind, 2.0, 2.0, 0, nx=5, ny=5)

    def test_lb_below_first_admissible_step(self):
        # alpha = 0.3 admits steps n >= 4 only
        with pytest.raises(ValueError, match="no admissible steps"):
            step_union_crosscheck("lb", 2.0, 0.3, 3, **AT_5)

    @pytest.mark.parametrize("kind", ["frechet", "lb"])
    def test_empty_grid_raises_value_error(self, kind):
        with pytest.raises(ValueError, match="no sample points"):
            step_union_crosscheck(kind, 2.0, 2.0, 10, nx=0, ny=10)

    def test_fully_excluded_grid_raises_value_error(self):
        # the origin lies on every circle, so a 1x1 lattice at 0 is empty
        with pytest.raises(ValueError, match="no sample points"):
            step_union_crosscheck("frechet", 2.0, 2.0, 10, re_range=(0.0, 0.0),
                                  im_range=(0.0, 0.0), nx=1, ny=1)


class TestDescriptionValidation:
    def test_positive_disk_parameter_required(self):
        with pytest.raises(ValueError):
            SpectralDescription((), 0.0, DiskBoundary.CLOSED)
