import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cesaro_bergman import norms, scans
from cesaro_bergman.norms import SpaceKind, SpaceSpec, monomial_norm
from cesaro_bergman.scans import (
    GrowthKind,
    InvalidEpsilon,
    classify_growth,
    counterexample_blowup,
    eigen_membership_scan,
    expected_eigen_membership,
    gp_nuclearity_sum,
    scan_degrees,
    schauder_partial_sum_check,
    seminorm_family,
    truncation_norms,
)
from cesaro_bergman.series import (
    TaylorTruncation,
    binomial_series_coeffs,
    eigenfunction_truncation,
)
from cesaro_bergman.spectra import spectrum


DEGS = scan_degrees(1 << 14)
DIVERGENT = (GrowthKind.POWER_DIVERGENT, GrowthKind.LOG_DIVERGENT)


# ---------------------------------------------------------------------------
# oracle: the per-caller norm helpers that truncation_norms replaced
# ---------------------------------------------------------------------------

def oracle_parseval_scan_values(coeffs, alpha, degrees):
    w = norms.parseval_weights(alpha, len(coeffs) - 1)
    cum = np.cumsum(np.abs(coeffs) ** 2 * w)
    return np.sqrt(cum[np.asarray(degrees)])


def oracle_parseval_tails(coeffs, alpha, degrees):
    # the forward-difference tails of schauder_partial_sum_check
    w = norms.parseval_weights(alpha, len(coeffs) - 1)
    cum = np.cumsum(np.abs(coeffs) ** 2 * w)
    return np.sqrt(np.maximum(cum[-1] - cum[np.asarray(degrees)], 0.0))


def oracle_quadrature_values(coeffs, p, alpha, degrees, tails, rel_tol=5e-5):
    out = []
    for n in degrees:
        if tails:
            part = coeffs.copy()
            part[: n + 1] = 0.0
        else:
            part = coeffs[: n + 1]
        try:
            out.append(norms.norm_quadrature(TaylorTruncation(part), p, alpha,
                                             rel_tol=rel_tol))
        except norms.NonConvergedQuadrature:
            out.append(math.nan)
    return np.array(out)


def _coeff_array(reals, imags, complex_):
    c = np.array(reals, dtype=complex)
    if complex_:
        c += 1j * np.array(imags)
    return c


class TestTruncationNorms:
    @settings(max_examples=100, deadline=None)
    @given(reals=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=400),
           imags=st.lists(st.floats(-1e3, 1e3), min_size=400, max_size=400),
           complex_=st.booleans(),
           alpha=st.floats(0.0, 8.0),
           cuts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
           tails=st.booleans())
    def test_parseval_matches_old_helpers_bit_for_bit(self, reals, imags,
                                                      complex_, alpha, cuts,
                                                      tails):
        c = _coeff_array(reals, imags[: len(reals)], complex_)
        degrees = sorted({int(x * (len(c) - 1)) for x in cuts})
        got = truncation_norms(c, 2.0, alpha, degrees, tails=tails)
        oracle = oracle_parseval_tails if tails else oracle_parseval_scan_values
        assert np.array_equal(got, oracle(c, alpha, degrees))

    @settings(max_examples=12, deadline=None)
    @given(reals=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=48),
           imags=st.lists(st.floats(-1.0, 1.0), min_size=48, max_size=48),
           complex_=st.booleans(),
           p=st.sampled_from([1.5, 3.0, 4.0]),
           alpha=st.floats(0.0, 4.0),
           tails=st.booleans())
    def test_quadrature_matches_explicit_slices(self, reals, imags, complex_,
                                                p, alpha, tails):
        c = _coeff_array(reals, imags[: len(reals)], complex_)
        degrees = sorted({0, len(c) // 2, len(c) - 1})
        got = truncation_norms(c, p, alpha, degrees, tails=tails)
        np.testing.assert_array_equal(
            got, oracle_quadrature_values(c, p, alpha, degrees, tails))

    def test_rel_tol_reaches_the_quadrature(self):
        c = eigenfunction_truncation(1, 64).coeffs
        got = truncation_norms(c, 3.0, 1.0, [16, 64], rel_tol=1e-10)
        np.testing.assert_array_equal(
            got, oracle_quadrature_values(c, 3.0, 1.0, [16, 64], False,
                                          rel_tol=1e-10))

    def test_nonconvergence_gives_nan(self, monkeypatch):
        def boom(*args, **kwargs):
            raise norms.NonConvergedQuadrature("forced", math.nan, math.inf)
        monkeypatch.setattr("cesaro_bergman.scans.norm_quadrature", boom)
        for tails in (False, True):
            got = truncation_norms(np.ones(9), 3.0, 1.0, [2, 8], tails=tails)
            assert np.all(np.isnan(got))

    def test_overflowed_part_gives_nan(self):
        # norm_quadrature refuses a non-finite coefficient; the scan keeps
        # its earlier answer, nan, for the parts that hold one
        c = np.ones(9)
        c[5] = math.inf
        got = truncation_norms(c, 3.0, 1.0, [2, 8])
        assert math.isfinite(got[0]) and math.isnan(got[1])
        got = truncation_norms(c, 3.0, 1.0, [2, 5], tails=True)
        assert math.isnan(got[0]) and math.isfinite(got[1])

    def test_family_matches_parseval_sum(self):
        # one route: each entry is the dispatcher's value bit for bit, and
        # within the sequential-sum bound of n ulps of the exactly rounded
        # sum of the same terms
        rng = np.random.default_rng(8)
        c = rng.uniform(-1, 1, 200) + 1j * rng.uniform(-1, 1, 200)
        f = TaylorTruncation(c)
        spec = SpaceSpec(2.0, 1.5, SpaceKind.FRECHET_INTERSECTION)
        for e in seminorm_family(f, spec, 4):
            assert e.ok
            assert e.value == truncation_norms(c, 2.0, e.alpha, [199])[0]
            want = math.sqrt(math.fsum(
                np.abs(c) ** 2 * norms.parseval_weights(e.alpha, 199)))
            assert abs(e.value - want) <= len(c) * 2.3e-16 * want

    @pytest.mark.parametrize("n", [1, 2, 300, 5001, scans._SUM_BLOCK + 3,
                                   1 << 20])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.9, 40.0])
    def test_parseval_sum_error_bound(self, n, alpha):
        # the sums add in sequence, so a partial sum of d + 1 positive terms
        # lies within d u of the exactly rounded math.fsum of the same terms
        # (Higham 2002, ch. 4); (d + 1) 2.3e-16 leaves room for the sqrt
        rng = np.random.default_rng(n)
        c = rng.normal(size=n) + 1j * rng.normal(size=n)
        c /= np.arange(1.0, n + 1.0) ** rng.uniform(-1.0, 1.0)
        terms = np.abs(c) ** 2 * norms.parseval_weights(alpha, n - 1)
        degrees = sorted({0, n // 2, n - 1})
        got = truncation_norms(c, 2.0, alpha, degrees)
        for d, value in zip(degrees, got):
            want = math.sqrt(math.fsum(terms[: d + 1]))
            assert abs(value - want) <= (d + 1) * 2.3e-16 * want

    @pytest.mark.parametrize("p, alpha", [(2.0, -1.5), (2.0, -0.5),
                                          (2.0, math.nan), (2.0, math.inf),
                                          (0.5, 1.0), (math.nan, 1.0)])
    @pytest.mark.parametrize("tails", [False, True])
    def test_bad_exponents_refused_at_every_p(self, p, alpha, tails):
        # p = 2 summed weights 2 B(2j+2, alpha+1) at any alpha, a norm that
        # does not exist below alpha = 0; it now refuses what the
        # quadrature refuses
        with pytest.raises(ValueError, match="finite p >= 1 and alpha >= 0"):
            truncation_norms(np.ones(5), p, alpha, [2, 4], tails=tails)

    @pytest.mark.parametrize("rel_tol", [math.nan, 0.0, -1.0, 1.0, math.inf])
    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_bad_rel_tol_refused(self, rel_tol, p):
        # at p = 2 the sums use no tolerance, but a bad one is still refused
        with pytest.raises(ValueError, match="rel_tol"):
            truncation_norms(np.ones(5), p, 1.0, [4], rel_tol=rel_tol)


    def test_family_without_admissible_step_raises(self):
        spec = SpaceSpec(2.0, 0.2, SpaceKind.LB_UNION)
        with pytest.raises(ValueError, match="first is n = 6"):
            seminorm_family(TaylorTruncation(np.ones(3)), spec, 5)
        assert [e.n for e in seminorm_family(
            TaylorTruncation(np.ones(3)), spec, 6)] == [6]


_B = scans._SUM_BLOCK


class TestParsevalBlocks:
    """The blocked p = 2 sums are the bits of one cumsum over all terms."""

    def test_block_is_a_multiple_of_the_weight_block(self):
        assert _B % norms._PARSEVAL_BLOCK == 0

    @pytest.mark.parametrize("n", [1, 255, _B - 1, _B, _B + 1, 3 * _B + 5])
    @pytest.mark.parametrize("alpha", [0.0, 2.9, 100.0, 301.0])
    @pytest.mark.parametrize("tails", [False, True])
    def test_matches_whole_cumsum(self, n, alpha, tails):
        rng = np.random.default_rng(n)
        c = rng.normal(size=n) + 1j * rng.normal(size=n)
        c /= np.arange(1.0, n + 1.0) ** rng.uniform(-1.0, 1.0)
        degrees = sorted({d for d in (0, 1, 255, 256, _B - 1, _B, _B + 1,
                                      2 * _B, n // 2, n - 1) if d < n})
        got = truncation_norms(c, 2.0, alpha, degrees, tails=tails)
        oracle = oracle_parseval_tails if tails else oracle_parseval_scan_values
        assert got.tobytes() == oracle(c, alpha, degrees).tobytes()

    def test_eigenfunction_at_full_size(self):
        c = eigenfunction_truncation(3, 1 << 20).coeffs
        degrees = scan_degrees(1 << 20)
        for tails in (False, True):
            oracle = (oracle_parseval_tails if tails
                      else oracle_parseval_scan_values)
            got = truncation_norms(c, 2.0, 1.0, degrees, tails=tails)
            assert got.tobytes() == oracle(c, 1.0, degrees).tobytes()

    def test_overflow_matches_whole_cumsum(self):
        # a square that overflows gives inf, an inf - inf tail nan
        c = np.ones(2 * _B + 7, dtype=complex)
        c[_B + 3] = 1e200
        degrees = [0, _B + 2, _B + 3, 2 * _B + 6]
        for tails in (False, True):
            oracle = (oracle_parseval_tails if tails
                      else oracle_parseval_scan_values)
            with np.errstate(over="ignore", invalid="ignore"):
                want = oracle(c, 1.0, degrees)
            np.testing.assert_array_equal(
                truncation_norms(c, 2.0, 1.0, degrees, tails=tails), want)

    @pytest.mark.parametrize("n", [5, _B, _B + 1])
    @pytest.mark.parametrize("bad", [lambda n: n, lambda n: n + _B, lambda n: -1,
                                     lambda n: -3])
    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_degree_out_of_range_raises(self, n, bad, p):
        # never an unfilled slot at p = 2, nor a silent slice at p != 2
        for tails in (False, True):
            with pytest.raises(IndexError, match="degrees must lie in"):
                truncation_norms(np.ones(n), p, 1.0, [0, bad(n)],
                                 tails=tails)

    @pytest.mark.parametrize("bad", [2.5, 2.0, np.float64(2.0), None])
    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_non_integral_degree_raises(self, bad, p):
        # 2.5 at p = 2 used to read the degree-2 norm (0.6935073) without a
        # word, and at p = 3 fail at the slice with a TypeError
        for tails in (False, True):
            with pytest.raises(ValueError, match="degree must be an integer"):
                truncation_norms(np.ones(9), p, 1.0, [1, bad], tails=tails)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_numpy_integer_degrees_pass(self, p):
        c = np.linspace(1.0, 0.1, 9)
        want = truncation_norms(c, p, 1.0, [2, 8])
        for degrees in (np.array([2, 8]), [np.int32(2), np.uint64(8)]):
            assert truncation_norms(c, p, 1.0, degrees).tobytes() == \
                want.tobytes()


def oracle_gp_sums(p, alpha, m, j_max, degrees):
    j = np.arange(1, j_max + 1, dtype=float)
    sums = np.cumsum(np.exp(norms._log_monomial_ratio(j, p, alpha + 1.0,
                                                      alpha + 1.0 / m)))
    return sums[np.asarray(degrees) - 1]


class TestClassifier:
    def test_constant_converges(self):
        got = classify_growth(DEGS, [3.7] * len(DEGS))
        assert got.kind is GrowthKind.CONVERGED

    def test_log_growth(self):
        got = classify_growth(DEGS, [math.log(n) for n in DEGS])
        assert got.kind is GrowthKind.LOG_DIVERGENT

    @pytest.mark.parametrize("beta", [0.1, 0.2, 0.3, 0.5, 0.75, 1.0])
    def test_power_growth(self, beta):
        # the increments of a pure power are a pure power: no fit error
        got = classify_growth(DEGS, [n ** beta for n in DEGS])
        assert got.kind is GrowthKind.POWER_DIVERGENT
        assert abs(got.exponent - beta) <= 1e-9
        assert got.r_squared > 0.99

    @pytest.mark.parametrize("power", [1.5, 2.0, 3.0])
    def test_laws_of_v_to_the_power(self, power):
        # v^p ~ log N is the threshold, v ~ N^beta reads beta at any power,
        # and v^p = c - N^(-1) converges
        logs = classify_growth(DEGS, [math.log(n) ** (1.0 / power)
                                      for n in DEGS], power)
        assert logs.kind is GrowthKind.LOG_DIVERGENT
        assert abs(logs.exponent) <= 1e-9
        pw = classify_growth(DEGS, [n ** 0.4 for n in DEGS], power)
        assert pw.kind is GrowthKind.POWER_DIVERGENT
        assert abs(pw.exponent - 0.4) <= 1e-9
        conv = classify_growth(DEGS, [(2.0 - 1.0 / n) ** (1.0 / power)
                                      for n in DEGS], power)
        assert conv.kind is GrowthKind.CONVERGED
        assert abs(conv.exponent + 1.0 / power) <= 1e-6

    @pytest.mark.parametrize("scale, beta, power", [
        (1e200 * DEGS[-1] ** 2.0, 2.0, 3.0), (1.0, 90.0, 3.0),
        (1.0, 135.0, 2.0)])
    def test_values_beyond_the_float_range_of_v_to_the_power(self, scale,
                                                              beta, power):
        # v^power reaches 1e612 in the first case; in the others it lies
        # below the smallest double at the window's first degrees ((1/32)^270
        # = 2^-1350), where a scaled v**power reads the increment 0 and the
        # scan converged.  The increments are taken in logs
        got = classify_growth(DEGS, [scale * (n / DEGS[-1]) ** beta
                                     for n in DEGS], power)
        assert got.kind is GrowthKind.POWER_DIVERGENT
        assert abs(got.exponent - beta) <= 1e-9

    def test_slope_near_a_band_edge_is_undetermined(self):
        # increments of v like N^0.05 (the band edge) with a 1% wobble: the
        # slope lies within 3 stderr of the edge, and the verdict carries the
        # fit that decided it
        v = np.cumsum([n ** 0.05 * (1.0 + 0.01 * (-1) ** k)
                       for k, n in enumerate(DEGS)])
        got = classify_growth(DEGS, v)
        assert got.kind is GrowthKind.UNDETERMINED
        assert abs(got.exponent - 0.05) <= 3.0 * got.stderr
        assert got.stderr > 0.0 and got.r_squared is not None

    def test_flat_increment_in_the_window_converges(self):
        vals = [float(n) for n in DEGS]
        vals[-1] = vals[-2]
        assert classify_growth(DEGS, vals).kind is GrowthKind.CONVERGED

    def test_window_before_the_values_start_is_undetermined(self):
        # z^65 (1-z)^(-66) truncates to 0 up to degree 64: the increment
        # 32 -> 64 is 0 because the function has not started, not because
        # it converged
        scan = eigen_membership_scan(66, 2.0, 1.0, n_max=256)
        assert scan.values[:3] == (0.0, 0.0, 0.0) and scan.values[3] > 0.0
        assert scan.classification.kind is GrowthKind.UNDETERMINED
        # tails that cancel to 0 early have converged
        tails = [1.0, 1e-9] + [0.0] * (len(DEGS) - 2)
        assert classify_growth(DEGS, tails).kind is GrowthKind.CONVERGED

    def test_short_last_interval(self):
        # scan_degrees(10000) ends 8192, 10000: the increments are taken per
        # unit of log N, so the short last step does not bend the fit
        degs = scan_degrees(10000)
        got = classify_growth(degs, [n ** 0.5 for n in degs])
        assert degs[-2:] == [8192, 10000]
        assert got.kind is GrowthKind.POWER_DIVERGENT
        assert abs(got.exponent - 0.5) <= 5e-3
        logs = classify_growth(degs, [math.log(n) for n in degs])
        assert logs.kind is GrowthKind.LOG_DIVERGENT

    def test_convergent_partial_sums_control(self):
        sums = np.cumsum(np.arange(1, DEGS[-1] + 1, dtype=float) ** -2.0)
        got = classify_growth(DEGS, [sums[n - 1] for n in DEGS])
        assert got.kind is GrowthKind.CONVERGED

    def test_nan_is_undetermined(self):
        vals = [float(n) for n in DEGS]
        vals[3] = math.nan
        got = classify_growth(DEGS, vals)
        assert got.kind is GrowthKind.UNDETERMINED

    def test_decreasing_tail_converges(self):
        got = classify_growth(DEGS, [n ** -0.5 for n in DEGS])
        assert got.kind is GrowthKind.CONVERGED

    def test_all_zero(self):
        got = classify_growth(DEGS, [0.0] * len(DEGS))
        assert got.kind is GrowthKind.CONVERGED

    def test_requires_enough_points(self):
        with pytest.raises(ValueError):
            classify_growth([16, 32, 64], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("n, window", [
        (4, 3), (5, 3), (6, 3), (7, 3), (8, 4), (9, 4), (10, 5)])
    def test_fit_window(self, n, window):
        # the last half of the n - 1 increments, but at least 3: two points
        # fit any line and report R^2 = 1 with a stderr of 1e-15
        degs = [16 * 2 ** k for k in range(n)]
        vals = [d ** 0.5 * (1.0 + 1.0 / math.log(d)) for d in degs]
        got = classify_growth(degs, vals)
        logd = np.log(degs[-window - 1:])
        inc = np.diff(vals[-window - 1:])
        slope = np.polyfit((logd[1:] + logd[:-1]) / 2.0,
                           np.log(inc / np.diff(logd)), 1)[0]
        assert got.kind is GrowthKind.POWER_DIVERGENT
        assert abs(got.exponent - slope) <= 1e-12
        assert got.r_squared < 1.0 and got.stderr > 1e-6


class TestEigenScan:
    def test_member_converges(self):
        scan = eigen_membership_scan(1, 2.0, 2.0)
        assert expected_eigen_membership(1, 2.0, 2.0)
        assert scan.classification.kind is GrowthKind.CONVERGED

    def test_threshold_matches_banach_points(self):
        # one rule for both: r = (2+alpha)/p within 1e-9 of an integer counts
        # as that integer, so 3 is not below (2 + 2.2)/1.4 = 3 + 4e-16
        assert not expected_eigen_membership(3, 1.4, 2.2)
        for p in [k / 10 for k in range(10, 40)]:
            for alpha in [k / 10 for k in range(1, 80)]:
                points = spectrum(SpaceSpec(p, alpha)).points
                r = (2.0 + alpha) / p
                for m in range(1, int(r) + 3):
                    assert expected_eigen_membership(m, p, alpha) == \
                        (1.0 / m in points), (m, p, alpha)

    def test_nonmember_diverges(self):
        scan = eigen_membership_scan(3, 2.0, 2.0)
        assert not expected_eigen_membership(3, 2.0, 2.0)
        assert scan.classification.kind in DIVERGENT

    def test_boundary_case_evidence(self):
        # m = (2+alpha)/p: divergent in the Banach norm at alpha itself,
        # convergent at the first intersection steps alpha + 1/n
        base = eigen_membership_scan(2, 2.0, 2.0)
        assert base.classification.kind in DIVERGENT
        for n in (1, 2):
            step = eigen_membership_scan(2, 2.0, 2.0 + 1.0 / n)
            assert step.classification.kind is GrowthKind.CONVERGED

    @pytest.mark.parametrize("p,alpha,m", [(3.0, 2.0, 1), (3.0, 2.0, 2),
                                           (1.5, 0.5, 1), (1.5, 0.5, 2)])
    def test_quadrature_path_subset(self, p, alpha, m):
        scan = eigen_membership_scan(m, p, alpha, n_max=1 << 12)
        want = expected_eigen_membership(m, p, alpha)
        if want:
            assert scan.classification.kind is GrowthKind.CONVERGED
        else:
            assert scan.classification.kind in DIVERGENT

    def test_quadrature_failure_becomes_undetermined(self, monkeypatch):
        def boom(*args, **kwargs):
            raise norms.NonConvergedQuadrature("forced", math.nan, math.inf)
        monkeypatch.setattr("cesaro_bergman.scans.norm_quadrature", boom)
        scan = eigen_membership_scan(1, 3.0, 2.0, n_max=256)
        assert scan.classification.kind is GrowthKind.UNDETERMINED

    def test_validation(self):
        with pytest.raises(ValueError):
            eigen_membership_scan(0, 2.0, 1.0)
        # 2.5 used to fail inside eigenfunction_truncation with a TypeError
        with pytest.raises(ValueError, match="m must be an integer"):
            eigen_membership_scan(2.5, 2.0, 1.0, n_max=128)
        with pytest.raises(ValueError, match="n_max must be an integer"):
            eigen_membership_scan(1, 2.0, 1.0, n_max=128.0)
        scan = eigen_membership_scan(np.int64(1), 2.0, 1.0, n_max=np.int32(128))
        assert scan == eigen_membership_scan(1, 2.0, 1.0, n_max=128)

    def test_too_short_to_classify(self):
        # n_max = 64 gives the degrees 16, 32, 64: one short of the four the
        # classifier needs; 65 adds a fourth
        with pytest.raises(ValueError, match="n_max must be >= 65"):
            eigen_membership_scan(1, 2.0, 1.0, n_max=64)
        assert len(eigen_membership_scan(1, 2.0, 1.0, n_max=65).degrees) == 4
        with pytest.raises(ValueError, match="n_max must be >= 65"):
            counterexample_blowup(2.0, 1.0, 0.4, "frechet", n_max_degree=40)
        f = eigenfunction_truncation(1, 128)
        with pytest.raises(ValueError, match="n_max must be >= 65"):
            schauder_partial_sum_check(
                f, SpaceSpec(2.0, 1.0, SpaceKind.FRECHET_INTERSECTION), 64)


class TestCounterexample:
    def test_frechet_case(self):
        report = counterexample_blowup(2.0, 1.0, 0.4, "frechet")
        assert report.home_step == 3
        assert report.source_scan.classification.kind is GrowthKind.CONVERGED
        for n, scan in report.inverse_scans:
            assert n >= 3
            assert scan.classification.kind in DIVERGENT, (n, scan.values[-3:])

    def test_lb_case(self):
        report = counterexample_blowup(2.0, 1.0, 0.4, "lb")
        assert report.home_step == 3
        assert report.source_scan.classification.kind is GrowthKind.CONVERGED
        for n, scan in report.inverse_scans:
            assert n > report.home_step
            assert scan.classification.kind in DIVERGENT

    def test_invalid_epsilon(self):
        with pytest.raises(InvalidEpsilon):
            counterexample_blowup(1.5, 1.0, 0.4, "frechet")  # p < 1 + 2 eps
        with pytest.raises(InvalidEpsilon):
            counterexample_blowup(2.0, 1.0, 1.2, "frechet")

    @pytest.mark.parametrize("kind", ["frechet", "lb"])
    def test_epsilon_too_small_to_move_the_weight(self, kind):
        # at alpha = 1 the home step of epsilon = 2^-54 is 2^54 + 1, whose
        # weight 1 +/- 1/n rounds to 1: the scans would all be of A^2_1
        with pytest.raises(InvalidEpsilon, match="moves no weight"):
            counterexample_blowup(2.0, 1.0, 2.0 ** -54, kind, 128)
        with pytest.raises(InvalidEpsilon, match="moves no weight"):
            counterexample_blowup(2.0, 1.0, 1e-300, kind, 128)
        # 2^-51: the home step 2^51 + 1 still moves the weight by an ulp
        report = counterexample_blowup(2.0, 1.0, 2.0 ** -51, kind, 128)
        assert report.home_step == 2 ** 51 + 1

    def test_step_validation(self):
        with pytest.raises(ValueError):
            counterexample_blowup(2.0, 1.0, 0.4, "frechet", steps=[2])
        with pytest.raises(ValueError):
            counterexample_blowup(2.0, 1.0, 0.4, "lb", steps=[3])
        with pytest.raises(ValueError, match="no step indices"):
            counterexample_blowup(2.0, 1.0, 0.4, "frechet", steps=[])
        # 1 + 1/10^20 rounds to 1: that scan would be of A^2_1 itself
        with pytest.raises(ValueError, match="step 10+ moves no weight"):
            counterexample_blowup(2.0, 1.0, 0.4, "frechet", 128,
                                  steps=[3, 10 ** 20])

    def test_peak_memory_at_2_20(self):
        # the source (1+z)^(-s) and its inverse image as float64, 8 MiB each
        # at 2^20 + 1 terms, and one copy while the image is built: 24 MiB
        # traced, against 72.1 MiB when both were complex128 and the source
        # was wrapped in a second TaylorTruncation.  A small run first
        # imports scipy.special (about 7 MiB) outside the trace
        counterexample_blowup(2.0, 1.874, 0.2069, "frechet", 128)
        tracemalloc.start()
        try:
            report = counterexample_blowup(2.0, 1.874, 0.2069, "frechet",
                                           1 << 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 << 20
        assert report.source_scan.classification.is_converged
        for _, scan in report.inverse_scans:
            assert scan.classification.kind in DIVERGENT

    def test_lb_home_step_is_first_admissible(self):
        # alpha = 0.3 admits LB steps n >= 4 only, above 1/epsilon = 2.5
        report = counterexample_blowup(2.0, 0.3, 0.4, "lb", n_max_degree=256)
        spec = SpaceSpec(2.0, 0.3, SpaceKind.LB_UNION)
        assert report.home_step == spec.min_step() == 4
        assert [n for n, _ in report.inverse_scans] == [5, 6, 7, 8]
        with pytest.raises(ValueError):
            counterexample_blowup(2.0, 0.3, 0.4, "lb", n_max_degree=256,
                                  steps=[4])


class TestGrothendieckPietsch:
    def test_exponent(self):
        scan = gp_nuclearity_sum(2.0, 1.0, 2, j_max=10 ** 5)
        assert scan.classification.kind is GrowthKind.POWER_DIVERGENT
        assert abs(scan.classification.exponent - 0.75) <= 0.05 * 0.75

    def test_single_term_beta_oracle(self):
        got = (monomial_norm(1, 2.0, 2.0) / monomial_norm(1, 2.0, 1.5))
        scan = gp_nuclearity_sum(2.0, 1.0, 2, j_max=256)
        # the first partial sum is the single j=1 ratio
        first_degree_sum = scan.values[0]
        ratios = [monomial_norm(j, 2.0, 2.0) / monomial_norm(j, 2.0, 1.5)
                  for j in range(1, scan.degrees[0] + 1)]
        assert first_degree_sum == pytest.approx(sum(ratios), rel=1e-12)
        assert ratios[0] == pytest.approx(got, rel=1e-12)

    def test_m_validation(self):
        with pytest.raises(ValueError):
            gp_nuclearity_sum(2.0, 1.0, 1)

    @pytest.mark.parametrize("p, alpha", [(math.nan, 1.0), (0.5, 1.0),
                                          (2.0, math.inf), (2.0, -1.5)])
    def test_exponent_validation(self, p, alpha):
        with pytest.raises(ValueError, match="finite p >= 1"):
            gp_nuclearity_sum(p, alpha, 2, j_max=256)

    @pytest.mark.parametrize("j_max", [128, 1000, 10 ** 6])
    @pytest.mark.parametrize("p, alpha, m", [(2.0, 1.0, 2), (2.0, 2.9, 5),
                                             (1.5, 2.9, 3)])
    def test_matches_full_cumsum(self, j_max, p, alpha, m):
        # the scan stops at 2^floor(log2 j_max); blocks after the first take
        # log_beta's scalar-b branch at alpha = 2.9
        scan = gp_nuclearity_sum(p, alpha, m, j_max=j_max)
        assert scan.degrees[-1] == 1 << (j_max.bit_length() - 1)
        want = oracle_gp_sums(p, alpha, m, j_max, scan.degrees)
        assert np.array(scan.values).tobytes() == want.tobytes()

    @pytest.mark.parametrize("alpha, message", [
        (0.0, "limit spaces need alpha > 0"), (-0.4, "alpha >= 0")])
    def test_needs_positive_alpha(self, alpha, message):
        # the ratios compare the Frechet steps 1 and m of A^p_alpha
        with pytest.raises(ValueError, match=message):
            gp_nuclearity_sum(2.0, alpha, 2, j_max=256)

    def test_too_short_to_classify(self):
        with pytest.raises(ValueError, match="j_max must be >= 128"):
            gp_nuclearity_sum(2.0, 1.0, 2, j_max=127)
        assert len(gp_nuclearity_sum(2.0, 1.0, 2, j_max=128).degrees) == 4


class TestSchauder:
    def test_constant_tails_vanish(self):
        top = 2 * (1 << 10)
        coeffs = np.zeros(top + 1, dtype=complex)
        coeffs[0] = 1.0
        spec = SpaceSpec(2.0, 1.0, SpaceKind.FRECHET_INTERSECTION)
        report = schauder_partial_sum_check(TaylorTruncation(coeffs), spec,
                                            n_max=1 << 10)
        for _, scan in report.tails:
            assert all(v == 0.0 for v in scan.values)
            assert scan.classification.kind is GrowthKind.CONVERGED

    def test_geometric_series_tails_decrease(self):
        n_max = 1 << 12
        f = eigenfunction_truncation(1, 2 * n_max)
        spec = SpaceSpec(2.0, 1.0, SpaceKind.FRECHET_INTERSECTION)
        report = schauder_partial_sum_check(f, spec, n_max=n_max)
        for _, scan in report.tails:
            vals = np.array(scan.values)
            assert np.all(np.diff(vals) < 0)
            assert scan.classification.kind is GrowthKind.CONVERGED

    def test_binomial_source_tails_decrease(self):
        n_max = 1 << 12
        s = (1.0 + 1.0 - 0.4) / 2.0
        f = binomial_series_coeffs(s, 2 * n_max)
        spec = SpaceSpec(2.0, 1.0, SpaceKind.FRECHET_INTERSECTION)
        report = schauder_partial_sum_check(f, spec, n_max=n_max)
        for _, scan in report.tails:
            assert scan.values[-1] < scan.values[0]
            assert scan.classification.kind is GrowthKind.CONVERGED

    def test_reference_degree_validation(self):
        spec = SpaceSpec(2.0, 1.0, SpaceKind.FRECHET_INTERSECTION)
        with pytest.raises(ValueError):
            schauder_partial_sum_check(eigenfunction_truncation(1, 100), spec,
                                       n_max=1 << 10)


def test_banach_spec_has_no_steps():
    # one refusal, in SpaceSpec.step_alphas, serves every step-based caller
    spec = SpaceSpec(2.0, 1.0)
    f = eigenfunction_truncation(1, 256)
    calls = (lambda: seminorm_family(f, spec, 4),
             lambda: counterexample_blowup(2.0, 1.0, 0.4, "banach",
                                           n_max_degree=128),
             lambda: schauder_partial_sum_check(f, spec, 128))
    for call in calls:
        with pytest.raises(ValueError, match="banach space has no steps"):
            call()


def test_lb_eigen_divergence_at_every_admissible_step():
    # the eigenvalue-2 eigenfunction escapes the whole union scale at p=2,
    # alpha=2: m = (2 + alpha - 1/n)/p fails for every n
    spec = SpaceSpec(2.0, 2.0, SpaceKind.LB_UNION)
    f = eigenfunction_truncation(2, 1 << 14)
    fam = seminorm_family(f, spec, 4)
    for entry in fam:
        assert 2 >= (2.0 + entry.alpha) / 2.0
        scan = eigen_membership_scan(2, 2.0, entry.alpha)
        assert scan.classification.kind in DIVERGENT
