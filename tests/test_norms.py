import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import types
import warnings

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import betaln, gammaln, roots_jacobi

from cesaro_bergman import norms
from cesaro_bergman.norms import (
    DiskQuadrature,
    NonConvergedQuadrature,
    SpaceKind,
    SpaceSpec,
    inclusion_ratio_scan,
    log_beta,
    monomial_norm,
    monomial_norm_asymptote,
    norm_quadrature,
    norm_quadrature_with_rule,
    parseval_weights,
)
from cesaro_bergman.scans import (
    eigen_membership_scan,
    seminorm_family,
    truncation_norms,
)
from cesaro_bergman.series import (
    TaylorTruncation,
    binomial_series_coeffs,
    eigenfunction_truncation,
)


def trunc(seq):
    return TaylorTruncation(np.asarray(seq, dtype=complex))


def parseval_norm(f, alpha):
    # the A^2_alpha norm of f as the library computes it: through the one
    # norm dispatcher, at f's own degree
    return float(truncation_norms(f.coeffs, 2.0, alpha, [f.degree])[0])


def _oracle_stirling_tail(x):
    xi = 1.0 / x
    x2 = xi * xi
    return xi * (1.0 / 12.0 + x2 * (-1.0 / 360.0
                                    + x2 * (1.0 / 1260.0 - x2 / 1680.0)))


def oracle_log_beta(a, b):
    # the straightforward log_beta, one temporary per operation; the library
    # version must agree with it bit for bit
    a_arr, b_arr = np.broadcast_arrays(np.asarray(a, dtype=float),
                                       np.asarray(b, dtype=float))
    lo = np.atleast_1d(np.minimum(a_arr, b_arr)).astype(float)
    hi = np.atleast_1d(np.maximum(a_arr, b_arr)).astype(float)
    out = np.empty(hi.shape, dtype=float)
    small = hi < 32.0
    if np.any(small):
        out[small] = betaln(lo[small], hi[small])
    big = ~small
    if np.any(big):
        h = hi[big]
        l = lo[big]
        delta = ((h - 0.5) * np.log1p(l / h) + l * np.log(h + l) - l
                 + _oracle_stirling_tail(h + l) - _oracle_stirling_tail(h))
        out[big] = gammaln(l) - delta
    if np.isscalar(a) and np.isscalar(b):
        return float(out[0])
    return out.reshape(a_arr.shape)


# positive arguments on both sides of the hi < 32 cutover, up to 1e7
_beta_args = st.one_of(
    st.floats(0.01, 64.0),
    st.floats(31.0, 33.0),
    st.floats(1.0, 1e7),
)


class TestLogBetaOracle:
    @settings(max_examples=200, deadline=None)
    @given(a=st.lists(_beta_args, min_size=1, max_size=40),
           b=_beta_args, b_array=st.booleans(), swap=st.booleans())
    def test_bit_identical(self, a, b, b_array, swap):
        a = np.array(a)
        b = np.full(len(a), b) if b_array else b
        args = (b, a) if swap else (a, b)
        assert np.array_equal(log_beta(*args), oracle_log_beta(*args))

    @settings(max_examples=100, deadline=None)
    @given(a=_beta_args, b=_beta_args)
    def test_scalars(self, a, b):
        got = log_beta(a, b)
        assert isinstance(got, float) and got == oracle_log_beta(a, b)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.3, 7.0, 40.0])
    def test_parseval_and_monomial_arguments(self, alpha):
        j = np.arange(1 << 16, dtype=float)
        for a in (2.0 * j + 2.0, 1.5 * j + 2.0, 3.7 * j + 2.0):
            assert np.array_equal(log_beta(a, alpha + 1.0),
                                  oracle_log_beta(a, alpha + 1.0))

    def test_shapes(self):
        a = np.linspace(1.0, 90.0, 12).reshape(3, 4)
        assert np.array_equal(log_beta(a, 2.0), oracle_log_beta(a, 2.0))
        assert np.array_equal(log_beta(a, a.T[:1].T), oracle_log_beta(a, a.T[:1].T))
        assert log_beta(np.array(40.0), 3.0).shape == ()


def oracle_effective_degrees(coeffs, logr, log_cut):
    # full-width grading: every node against every coefficient, the last j
    # with log|c_j| + j log r > max + log_cut
    js = np.arange(len(coeffs), dtype=float)
    with np.errstate(divide="ignore"):
        logc = np.log(np.abs(coeffs))
    scaled = np.outer(logr, js)
    scaled += logc
    keep = scaled > scaled.max(axis=1, keepdims=True) + log_cut
    return len(js) - 1 - np.argmax(keep[:, ::-1], axis=1)


def _oracle_pow2(need, base):
    return 1 << max(int(math.ceil(math.log2(max(need, 2.0)))),
                    int(math.log2(base)))


def oracle_pnorm_single_pass(coeffs, p, quad, cut, rel_tol=None, base=64):
    # the per-node loop: grading by linear-scale cutoff and complex FFTs.  At
    # even p the grid is T >= 4 p (eff + 1), where the trapezoid sum is
    # exact.  At every other p a node starts at T >= 2 (eff + 1) and doubles
    # T, up to the cap T >= 4 p (eff + 1), until the mean of |f|^p on T
    # points is within 0.1 rel_tol of its mean on the even points; with
    # rel_tol None it takes the cap at once.  The library pass must agree
    # with it to rounding.
    r = quad.radial_nodes
    w = quad.radial_weights
    js = np.arange(len(coeffs), dtype=float)
    absc = np.abs(coeffs)
    even = p % 2.0 == 0.0
    total = 0.0
    for i in range(len(r)):
        powers = np.exp(js * math.log(r[i]))
        scaled = absc * powers
        top = scaled.max()
        eff = int(np.nonzero(scaled > cut * top)[0][-1]) if top > 0.0 else 0
        cap = _oracle_pow2(4.0 * p * (eff + 1), base)
        t = cap if even or rel_tol is None else _oracle_pow2(2.0 * (eff + 1),
                                                             base)
        row = coeffs[: eff + 1] * powers[: eff + 1]
        while True:
            vals = np.abs(scipy.fft.fft(row, n=t)) ** p
            mean = np.mean(vals)
            if t >= cap or abs(mean - np.mean(vals[::2])) <= (
                    0.1 * rel_tol * mean):
                break
            t *= 2
        total += w[i] * mean
    return (2.0 * total) ** (1.0 / p)


def pass_norm(coeffs, p, quad, log_cut, rel_tol):
    # the norm one library pass gives: the p-th root of its integral
    integral, _ = norms._pnorm_single_pass(coeffs, p, quad, log_cut, rel_tol)
    return integral ** (1.0 / p)


# coefficients in [-1, 1] on a 1e-3 lattice, often exactly zero
_coeff = st.one_of(st.just(0.0),
                   st.integers(-1000, 1000).map(lambda k: k / 1000.0))


def _eff_coeffs(data, kind, complex_, trailing):
    # lattice values with exact zeros, geometric decay down to 1e-300 or
    # eigenfunction coefficients, then trailing zeros
    if kind == "eigen":
        m = data.draw(st.integers(1, 6))
        coeffs = eigenfunction_truncation(
            m, data.draw(st.integers(m - 1, 3000))).coeffs
    else:
        re = data.draw(st.lists(_coeff, min_size=1, max_size=600))
        coeffs = np.array(re, dtype=complex)
        if complex_:
            coeffs += 1j * np.array(data.draw(st.lists(
                _coeff, min_size=len(re), max_size=len(re))))
        if kind == "decay":
            span = data.draw(st.floats(0.0, 300.0)) / max(1, len(re) - 1)
            coeffs *= 10.0 ** (-span * np.arange(len(re)))
    return np.concatenate([coeffs, np.zeros(trailing, dtype=complex)])


class TestEffectiveDegreesOracle:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(["lattice", "decay", "eigen"]),
           complex_=st.booleans(), trailing=st.integers(0, 40),
           radial=st.integers(2, 1024), decades=st.floats(5.0, 25.0),
           alpha=st.sampled_from([0.0, 1.0, 3.5]))
    def test_matches_full_width(self, data, kind, complex_, trailing, radial,
                                decades, alpha):
        # outside-in chunks over shrinking column windows give the same
        # effective degrees as grading every node over every coefficient
        coeffs = _eff_coeffs(data, kind, complex_, trailing)
        logr = np.log(DiskQuadrature.build(alpha, radial).radial_nodes)
        log_cut = -decades * math.log(10.0)
        assert np.array_equal(norms._effective_degrees(coeffs, logr, log_cut),
                              oracle_effective_degrees(coeffs, logr, log_cut))


def _record_transforms(monkeypatch):
    # (length, first four columns of the block) of every transform the pass
    # runs
    calls = []

    def recorded(transform):
        def run(x, n, axis):
            calls.append((n, x[:, :4].copy()))
            return transform(x, n=n, axis=axis)
        return run

    monkeypatch.setattr(norms, "_fft", types.SimpleNamespace(
        fft=recorded(np.fft.fft), rfft=recorded(np.fft.rfft)))
    return calls


class _Drawn:
    # stands in for st.data() in an @example: each draw returns the next of
    # the given values
    def __init__(self, *values):
        self.values = list(values)

    def draw(self, strategy):
        return self.values.pop(0)


class TestSinglePassOracle:
    @settings(max_examples=60, deadline=None)
    @given(re=st.lists(_coeff, min_size=1, max_size=301), data=st.data(),
           trailing=st.integers(0, 20), complex_=st.booleans(),
           decay=st.sampled_from([1.0, 0.9, 0.5, 0.1]),
           p=st.sampled_from([1.1, 1.5, 2.0, 3.0, 4.0, 6.0]),
           radial=st.sampled_from([2, 8, 64, 128]),
           alpha=st.sampled_from([0.0, 1.0, 3.5]))
    # node 0 (effective degree 1) shares its FFT block with node 1 (degree
    # 18): the block must not carry node 0's degree-18 term, 2.5e-9 of its
    # largest term, just under the cut 2.6e-9 tied to 5e-5
    @example(re=[0.0] * 19, data=_Drawn([0.003, 0.009] + [0.0] * 16 + [0.001]),
             trailing=0, complex_=True, decay=1.0, p=1.1, radial=2, alpha=0.0)
    def test_matches_per_node_loop(self, re, data, trailing, complex_, decay,
                                   p, radial, alpha):
        coeffs = np.array(re[: 301 - trailing] + [0.0] * trailing,
                          dtype=complex)
        if complex_:
            coeffs += 1j * np.array(data.draw(st.lists(
                _coeff, min_size=len(coeffs), max_size=len(coeffs))))
        # geometric decay spreads the coefficients over up to 300 decades, so
        # that the per-node cutoff drops terms
        coeffs *= decay ** np.arange(len(coeffs))
        quad = DiskQuadrature.build(alpha, radial)
        # the fixed 1e-20 of earlier releases and the cutoff tied to 5e-5
        for cut, rel_tol in ((1e-20, 1e-9), (5e-5 * 1e-3 / len(coeffs), 5e-5)):
            got = pass_norm(coeffs, p, quad, math.log(cut), rel_tol)
            want = oracle_pnorm_single_pass(coeffs, p, quad, cut, rel_tol)
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("zeros", [(0.5, -0.6, 0.2),
                                       (0.5, -0.3j, 0.7 + 0.1j)])
    def test_even_p_minimal_grid_is_exact(self, zeros, monkeypatch):
        # ||f||_{4,alpha}^4 = ||f^2||_{2,alpha}^2, with f vanishing inside
        # the disk; at degree 3 the bound p * eff / 2 + 1 = 7 gives T = 8
        coeffs = np.array([1.0 + 0j])
        for z0 in zeros:
            coeffs = np.convolve(coeffs, [-z0, 1.0])
        calls = _record_transforms(monkeypatch)
        monkeypatch.setattr(norms, "_ANGULAR_MIN", 2)
        for alpha in (0.0, 1.0, 2.5):
            quad = DiskQuadrature.build(alpha, 16)
            got = pass_norm(coeffs, 4.0, quad, math.log(1e-20), 1e-9)
            want = math.sqrt(parseval_norm(
                TaylorTruncation(np.convolve(coeffs, coeffs)), alpha))
            assert got == pytest.approx(want, rel=1e-12)
        assert max(n for n, _ in calls) == 8


def oracle_radial_rule(alpha, count):
    # scipy's Gauss-Jacobi (alpha, 1) rule mapped to [0, 1], the radial rule
    # of earlier releases; at 1024 nodes its end weights are up to 1.2e-8
    # off, where the library's are within 6.4e-11 of mpmath
    x, w = roots_jacobi(count, alpha, 1.0)
    return (x + 1.0) / 2.0, w * 2.0 ** -(alpha + 2.0)


def _mp_jacobi(n, a, b, x):
    # P_n^(a,b)(x) and its derivative by the three-term recurrence, in the
    # precision of the mpmath numbers a, b and x
    p0, p1 = 1, (a + 1) + (a + b + 2) * (x - 1) / 2
    d0, d1 = 0, (a + b + 2) / 2
    for k in range(2, n + 1):
        s = 2 * k + a + b
        c1 = 2 * k * (k + a + b) * (s - 2)
        c2 = (s - 1) * (s * (s - 2) * x + a * a - b * b)
        c3 = 2 * (k + a - 1) * (k + b - 1) * s
        p0, p1, d0, d1 = (p1, (c2 * p1 - c3 * p0) / c1, d1,
                          (c2 * d1 + (s - 1) * s * (s - 2) * p1 - c3 * d0) / c1)
    return p1, d1


_RULE_ALPHAS = [0.0, 0.5, 1.0, 2.0, 6.0, 40.0]
_RULE_COUNTS = [2, 3, 32, 64, 363]


class TestRadialRule:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, -0.5])
    def test_build_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite and >= 0"):
            DiskQuadrature.build(alpha, 32)

    @pytest.mark.parametrize("count", _RULE_COUNTS)
    @pytest.mark.parametrize("alpha", _RULE_ALPHAS)
    def test_matches_roots_jacobi(self, alpha, count):
        r, w = norms._radial_rule(alpha, count)
        r_ref, w_ref = oracle_radial_rule(alpha, count)
        assert np.all(np.diff(r) > 0.0)  # the grading walks them outside-in
        assert np.abs(r - r_ref).max() <= 1e-15
        assert np.abs(w / w_ref - 1.0).max() <= 5e-8

    @pytest.mark.parametrize("count", _RULE_COUNTS)
    @pytest.mark.parametrize("alpha", _RULE_ALPHAS)
    def test_against_mpmath(self, alpha, count):
        # nodes polished by Newton steps on P_n^(alpha,1) at 40 digits; the
        # weights 2^-(alpha+2) times the Gauss-Jacobi weights in closed form,
        # 2^(alpha+2) G(n+alpha+1) G(n+2) / (G(n+alpha+2) n! (1-x^2) P_n'^2)
        mpmath = pytest.importorskip("mpmath")
        r, w = norms._radial_rule(alpha, count)
        with mpmath.workdps(40):
            a, b, n = mpmath.mpf(alpha), mpmath.mpf(1), count
            scale = (mpmath.gamma(n + a + 1) * mpmath.gamma(n + b + 1)
                     / (mpmath.gamma(n + a + b + 1) * mpmath.gamma(n + 1)))
            for i in sorted({0, 1, n // 2, n - 2, n - 1}):
                x = mpmath.mpf(2.0 * r[i] - 1.0)
                for _ in range(3):
                    p, d = _mp_jacobi(n, a, b, x)
                    x -= p / d
                d = _mp_jacobi(n, a, b, x)[1]
                w_ref = scale / ((1 - x * x) * d * d)
                assert abs(float((x + 1) / 2) - r[i]) <= 1e-15
                assert abs(float(w[i] / w_ref) - 1.0) <= 1e-10

    @pytest.mark.parametrize("count", _RULE_COUNTS)
    @pytest.mark.parametrize("alpha", _RULE_ALPHAS)
    def test_moments_exact_to_degree_2n_minus_1(self, alpha, count):
        # sum w_i r_i^k = int_0^1 (1-r)^alpha r^(k+1) dr = B(k+2, alpha+1)
        r, w = norms._radial_rule(alpha, count)
        k = np.arange(2 * count, dtype=float)
        got = np.power.outer(r, k).T @ w
        want = np.exp(betaln(k + 2.0, alpha + 1.0))
        assert np.abs(got / want - 1.0).max() <= 1e-11

    def test_weights_built_in_blocks(self):
        # the log-product runs over row chunks of about 2^16 node pairs: at
        # 4096 nodes the build peaks near 3 MB, where the whole product
        # would hold 134 MB
        tracemalloc.start()
        try:
            norms._radial_rule.__wrapped__(2.0, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    def test_package_import_leaves_out_scipy_linalg(self):
        # the builder imports scipy.linalg on first use, so that package
        # import, and every CLI start, does not pay for it
        src = pathlib.Path(norms.__file__).resolve().parents[1]
        code = ("import sys, cesaro_bergman; "
                "sys.exit('scipy.linalg' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": str(src)}
        assert subprocess.run([sys.executable, "-c", code], env=env,
                              timeout=60).returncode == 0

    def test_cli_import_leaves_out_scipy(self):
        # the FFT is numpy's and scipy.special is imported on first use, so
        # a command that needs neither (spectrum, every exit-2 refusal)
        # loads no scipy module
        src = pathlib.Path(norms.__file__).resolve().parents[1]
        code = ("import sys, cesaro_bergman.cli; "
                "sys.exit(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy') or None)")
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


def _mp_jacobi_matrix(mpmath, alpha, count, anti):
    # the Jacobi matrix of the (alpha, 1) weight on [-1, 1] at count rows,
    # its last off-diagonal times sqrt(2) with anti, in mpmath numbers
    a = mpmath.mpf(alpha)
    J = mpmath.zeros(count, count)
    for k in range(count):
        s = 2 * k + a + 1
        J[k, k] = (1 - a * a) / (s * (s + 2))
        if k:
            off = mpmath.sqrt(4 * k * (k + a) * (k + 1) * (k + a + 1)
                              / (s * s * (s + 1) * (s - 1)))
            if anti and k == count - 1:
                off *= mpmath.sqrt(2)
            J[k, k - 1] = J[k - 1, k] = off
    return J


class TestAntiGaussRule:
    # AG_{n+1}: the nodes of J_{n+1} with its last off-diagonal times
    # sqrt(2), and its error on polynomials up to degree 2n+1 that of G_n
    # with the opposite sign (Laurie, Math. Comp. 1996)

    @pytest.mark.parametrize("count", [32, 363, 1024, 4096])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0, 6.0, 40.0, 301.0])
    def test_nodes_inside_and_weights_positive(self, alpha, count):
        r, w = norms._radial_rule(alpha, count, True)
        g = norms._radial_rule(alpha, count, False)[0]
        assert len(r) == count + 1
        assert r[0] > 0.0 and r[-1] < 1.0
        # the nodes interlace with the Gauss nodes
        assert np.all(r[:-1] < g) and np.all(g < r[1:])
        assert np.all(w >= 0.0)
        zero = w == 0.0
        if zero.any():
            # w_i ~ (1 - r_i)^alpha leaves the float range at the outermost
            # nodes, as the Gauss weights do, at alpha = 301 from n = 1024
            assert alpha == 301.0 and count >= 1024
            assert np.all(zero[np.argmax(zero):])
        assert 2.0 * w.sum() == pytest.approx(
            2.0 / ((alpha + 1.0) * (alpha + 2.0)), rel=1e-13)

    @pytest.mark.parametrize("count", _RULE_COUNTS)
    @pytest.mark.parametrize("alpha", _RULE_ALPHAS)
    def test_error_opposite_to_gauss_to_degree_2n_plus_1(self, alpha, count):
        # sum w_i r_i^k = 2 I - G(r^k) for k <= 2n+1, with I = B(k+2,
        # alpha+1) exactly; G_{n+1} in its place would miss at k = 2n, 2n+1
        r, w = norms._radial_rule(alpha, count, True)
        rg, wg = norms._radial_rule(alpha, count, False)
        k = np.arange(2 * count + 2, dtype=float)
        exact = np.exp(betaln(k + 2.0, alpha + 1.0))
        anti = np.power.outer(r, k).T @ w
        gauss = np.power.outer(rg, k).T @ wg
        assert np.abs(anti / (2.0 * exact - gauss) - 1.0).max() <= 1e-11
        # and the average is exact there
        assert np.abs((anti + gauss) / (2.0 * exact) - 1.0).max() <= 1e-11

    # eigsy costs O(n^3) mpmath operations: 5 s at 65 rows
    @pytest.mark.parametrize("alpha, count", [
        (alpha, count) for alpha in (0.0, 0.5, 2.0, 40.0)
        for count in (2, 3, 16, 32)] + [(1.0, 64)])
    def test_against_mpmath_eigenvalues(self, alpha, count):
        # the eigenvalues y_i and unit eigenvectors v_i of the modified
        # J_{n+1} at 30 digits: nodes (y_i + 1) / 2 and weights
        # B(2, alpha+1) v_i0^2 (Golub & Welsch)
        mpmath = pytest.importorskip("mpmath")
        r, w = norms._radial_rule(alpha, count, True)
        with mpmath.workdps(30):
            eig, vec = mpmath.eigsy(_mp_jacobi_matrix(mpmath, alpha,
                                                      count + 1, True))
            mass = 1 / ((mpmath.mpf(alpha) + 1) * (mpmath.mpf(alpha) + 2))
            order = sorted(range(count + 1), key=lambda i: eig[i])
            for j, i in enumerate(order):
                assert abs(float((eig[i] + 1) / 2) - r[j]) <= 1e-15
                assert abs(float(mass * vec[0, i] ** 2 / w[j]) - 1.0) <= 1e-10

    def test_one_eigenvalue_solve_per_build(self, monkeypatch):
        # the anti-Gauss build takes the Gauss nodes of its level from the
        # cache: once G_n is built, AG_{n+1} runs one tridiagonal solve
        import scipy.linalg

        sizes = []
        solve = scipy.linalg.eigvalsh_tridiagonal

        def counted(d, e, **kwargs):
            sizes.append(len(d))
            return solve(d, e, **kwargs)

        norms._radial_rule(2.5, 77, False)
        monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", counted)
        norms._radial_rule.__wrapped__(2.5, 77, True)
        assert sizes == [78]

    def test_weights_built_in_blocks(self):
        # both log-products run over chunks of about 2^16 node pairs
        norms._radial_rule(2.0, 4096, False)
        tracemalloc.start()
        try:
            norms._radial_rule.__wrapped__(2.0, 4096, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20


class TestPassBlocks:
    @pytest.mark.parametrize("batch", [1 << 22, 1 << 19, 1 << 12])
    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
    def test_value_independent_of_block_size(self, monkeypatch, p, batch):
        # at 1 << 12 the top nodes run one FFT each
        coeffs = np.array(eigenfunction_truncation(2, 1 << 11).coeffs,
                          dtype=complex)
        coeffs[::3] *= 1.0 - 0.5j
        quad = DiskQuadrature.build(2.0, 182)
        log_cut = math.log(5e-5 * 1e-3 / len(coeffs))
        want = norms._pnorm_single_pass(coeffs, p, quad, log_cut, 5e-5)
        monkeypatch.setattr(norms, "_BATCH_ELEMENTS", batch)
        got = norms._pnorm_single_pass(coeffs, p, quad, log_cut, 5e-5)
        # the integral to rounding; the angular gap, a difference of two
        # sums, to rounding of the integral
        assert got[0] == pytest.approx(want[0], rel=1e-15, abs=0.0)
        assert abs(got[1] - want[1]) <= 1e-15 * want[0]

    def test_top_pass_memory(self):
        # the top pass of an eigen-quad scan, with an angular tolerance
        # that refines the nodes up to their caps, so that the largest
        # blocks are as large as the block size allows: 12.0 MB at 1 << 19
        # points per block, 78.3 MB at 1 << 22
        coeffs = np.asarray(eigenfunction_truncation(2, 1 << 13).coeffs,
                            dtype=complex)
        quad = DiskQuadrature.build(2.0, 726)
        log_cut = math.log(5e-5 * 1e-3 / len(coeffs))
        tracemalloc.start()
        try:
            norms._pnorm_single_pass(coeffs, 3.0, quad, log_cut, 1e-15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20


class TestMonomialNorm:
    def test_unit_constant_classical(self):
        # normalized area measure of the disk is 1
        assert abs(monomial_norm(0, 2.0, 0.0) - 1.0) < 1e-14

    def test_constant_alpha_one(self):
        # 2 int_0^1 r (1-r) dr = 1/3
        direct = 2.0 * (1.0 / 2.0 - 1.0 / 3.0)
        assert abs(monomial_norm(0, 2.0, 1.0) - math.sqrt(direct)) < 1e-14

    def test_against_high_precision_beta(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        for j, p, alpha in [(10, 2.0, 1.0), (10_000, 2.0, 1.0), (313, 1.5, 3.5)]:
            ref = float((2 * mpmath.beta(j * p + 2, alpha + 1)) ** (1.0 / p))
            assert abs(monomial_norm(j, p, alpha) - ref) / ref < 1e-13

    def test_asymptotic_law(self):
        j = 10_000
        scaled = monomial_norm(j, 2.0, 1.0) ** 2 * j ** 2
        assert abs(scaled - 0.5) / 0.5 < 0.02
        assert abs(monomial_norm_asymptote(2.0, 1.0) - 0.5) < 1e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            monomial_norm(0, 0.5, 1.0)
        with pytest.raises(ValueError):
            monomial_norm(-1, 2.0, 1.0)

    @pytest.mark.parametrize("p, alpha", [(math.nan, 1.0), (math.inf, 1.0),
                                          (2.0, math.nan), (2.0, math.inf)])
    def test_nonfinite_exponents_rejected(self, p, alpha):
        with pytest.raises(ValueError, match="finite"):
            monomial_norm(2, p, alpha)
        with pytest.raises(ValueError, match="finite"):
            norm_quadrature_with_rule(trunc([1, 1]), p, alpha)
        if not math.isfinite(alpha):
            with pytest.raises(ValueError, match="finite"):
                parseval_weights(alpha, 10)


def oracle_parseval_weights(alpha, degree):
    # the per-index expression: one exp(log_beta) for every weight
    j = np.arange(degree + 1, dtype=float)
    return 2.0 * np.exp(log_beta(2.0 * j + 2.0, alpha + 1.0))


_TINY = np.finfo(float).tiny


class TestParsevalWeights:
    @settings(max_examples=150, deadline=None)
    @given(degree=st.one_of(st.sampled_from([0, 1, 255, 256, 257, 511, 512]),
                            st.integers(0, 4 * 256 + 3)),
           alpha=st.floats(0.0, 60.0))
    def test_matches_per_index_oracle(self, degree, alpha):
        got = parseval_weights(alpha, degree)
        want = oracle_parseval_weights(alpha, degree)
        assert got.shape == want.shape and got.dtype == np.float64
        normal = want >= _TINY
        assert np.all(np.abs(got[normal] - want[normal])
                      <= 1e-12 * want[normal])
        assert np.all(got[want == 0.0] == 0.0)

    @pytest.mark.parametrize("alpha", [200.0, 300.0])
    def test_underflow_gives_zeros(self, alpha):
        # at large alpha the tail leaves the normal range within a few
        # blocks; weights the oracle leaves subnormal come back as 0
        got = parseval_weights(alpha, 2000)
        want = oracle_parseval_weights(alpha, 2000)
        normal = want >= _TINY
        assert 0 < normal.sum() and np.any(want == 0.0)
        assert np.all(np.abs(got[normal] - want[normal])
                      <= 1e-12 * want[normal])
        assert np.all(got[~normal] == 0.0)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 7.5, 40.0])
    def test_against_mpmath(self, alpha):
        # bound: 1e-15 (1 + |log w_j|) relative.  The log-Beta error is
        # absolute, so exp turns it into a relative error growing with
        # |log w_j| (near 500 at alpha = 40); at these indices the
        # per-index expression reaches 3.5e-16 of the same scale and the
        # recurrence 5.4e-16
        mpmath = pytest.importorskip("mpmath")
        top = 1 << 20
        edges = [k * 256 + d for k in (1, 2, 17, 1000, top // 256 - 1)
                 for d in (-1, 0, 1)]
        rng = np.random.default_rng(20)
        idx = sorted(set([0, 1, 2, top] + edges
                         + rng.integers(0, top + 1, 40).tolist()))
        w = parseval_weights(alpha, top)
        with mpmath.workdps(40):
            for j in idx:
                ref = 2 * mpmath.beta(2 * j + 2, mpmath.mpf(alpha) + 1)
                bound = 1e-15 * (1.0 + abs(float(mpmath.log(ref))))
                assert abs(w[j] - float(ref)) <= bound * float(ref), j

    def test_empty_below_degree_zero(self):
        assert parseval_weights(1.0, -1).shape == (0,)


# the alphas of the block tests: 2.9 puts b = alpha + 1 above the first
# anchor's a = 2, so log_beta takes its broadcast branch there and its
# scalar-b branch on every later block; at 301 the weights leave the normal
# range near j = 570, and at 100 near j = 20,000, inside a later block of
# 2^14
_BLOCK_ALPHAS = [0.0, 0.5, 2.9, 40.0, 100.0, 301.0]
_BLOCK_DEGREES = [0, 255, 256, 257, (1 << 14) - 1, 1 << 14, (1 << 14) + 1,
                  1 << 20]


class TestParsevalWeightBlocks:
    """Weights from a block-aligned start are the bits of the whole vector."""

    @pytest.mark.parametrize("alpha", _BLOCK_ALPHAS)
    def test_aligned_start_matches_whole_vector(self, alpha):
        whole = parseval_weights(alpha, 1 << 20)
        for degree in _BLOCK_DEGREES:
            want = whole[: degree + 1]
            assert parseval_weights(alpha, degree).tobytes() == want.tobytes()
            top = degree - degree % 256
            for start in sorted({0, 256, 1 << 14, 1 << 19, top}):
                if start <= degree:
                    got = parseval_weights(alpha, degree, start=start)
                    assert got.tobytes() == want[start:].tobytes(), (degree,
                                                                     start)

    @pytest.mark.parametrize("alpha", _BLOCK_ALPHAS)
    @pytest.mark.parametrize("block", [256, 1 << 14])
    def test_blocks_concatenate_to_whole_vector(self, alpha, block):
        # the zeroing of subnormal weights runs per call; the weights
        # decrease in j, so per block it zeroes what the whole call does
        n = (1 << 16) + 3
        whole = parseval_weights(alpha, n - 1)
        parts = [parseval_weights(alpha, min(lo + block, n) - 1, start=lo)
                 for lo in range(0, n, block)]
        assert np.concatenate(parts).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("alpha, first_zero", [(100.0, 1 << 14),
                                                   (301.0, 256)])
    def test_underflow_inside_a_block(self, alpha, first_zero):
        # the first zero weight lies inside a block, past its first index
        w = parseval_weights(alpha, (1 << 15) - 1)
        k = int(np.argmax(w == 0.0))
        assert w[k] == 0.0 and first_zero < k < 2 * first_zero - 1
        assert np.all(w[:k] >= _TINY) and np.all(w[k:] == 0.0)
        lo = k - k % first_zero
        got = parseval_weights(alpha, (1 << 15) - 1, start=lo)
        assert got.tobytes() == w[lo:].tobytes()

    @pytest.mark.parametrize("start", [-256, 1, 255, 257, 1000])
    def test_unaligned_start_refused(self, start):
        with pytest.raises(ValueError, match="multiple of 256"):
            parseval_weights(1.0, 2000, start=start)

    def test_start_past_degree_is_empty(self):
        assert parseval_weights(1.0, 255, start=256).shape == (0,)

    @pytest.mark.parametrize("p, alpha, m", [(2.0, 2.9, 2), (1.5, 2.9, 3),
                                             (2.0, 40.0, 5)])
    def test_log_beta_branches_agree(self, p, alpha, m):
        # a block from j = 2^14 + 1 passes log_beta a scalar b below every a
        # (the scalar-b branch); the whole array from j = 1 holds an a below
        # b (the broadcast branch).  Each entry gets the same bits
        j = np.arange(1.0, (1 << 15) + 1.0)
        for b in (alpha + 2.0, alpha + 1.0 / m + 1.0):
            a = j * p + 2.0
            assert b > a.min() and b <= a[1 << 14:].min()
            assert (log_beta(a[1 << 14:], b).tobytes()
                    == log_beta(a, b)[1 << 14:].tobytes())


class TestParseval:
    def test_constant(self):
        assert abs(parseval_norm(trunc([1]), 0.0) - 1.0) < 1e-14

    def test_monomial_alpha_two(self):
        # 2 B(4,3) = 2 * 3! 2! / 6! = 1/30
        assert abs(parseval_norm(trunc([0, 1]), 2.0) - math.sqrt(1 / 30)) < 1e-14

    def test_agrees_with_quadrature(self):
        rng = np.random.default_rng(11)
        c = rng.uniform(-1, 1, 101) + 1j * rng.uniform(-1, 1, 101)
        f = TaylorTruncation(c)
        for alpha in (0.5, 1.0, 2.0):
            a = parseval_norm(f, alpha)
            b = norm_quadrature(f, 2.0, alpha, rel_tol=1e-10)
            assert abs(a - b) / a < 1e-8


class TestQuadrature:
    def test_zero_function(self):
        assert norm_quadrature(trunc([0, 0, 0]), 2.0, 1.0) == 0.0

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_monomials_match_closed_form(self, p, alpha):
        for j in (0, 3, 17, 50):
            c = np.zeros(j + 1, dtype=complex)
            c[j] = 1.0
            v = norm_quadrature(TaylorTruncation(c), p, alpha, rel_tol=1e-10)
            ref = monomial_norm(j, p, alpha)
            assert abs(v - ref) / ref < 1e-8

    def test_boundary_singular_source_is_stable(self):
        # (1+z)^-s with s = (alpha+1-eps)/p stays in the space; truncation
        # norms must agree within 1% when the degree doubles
        s = (2.0 + 1.0 - 0.5) / 2.0
        f1 = binomial_series_coeffs(s, 2000)
        f2 = binomial_series_coeffs(s, 4000)
        v1 = norm_quadrature(f1, 2.0, 2.0, rel_tol=1e-8)
        v2 = norm_quadrature(f2, 2.0, 2.0, rel_tol=1e-8)
        assert math.isfinite(v1) and math.isfinite(v2)
        assert abs(v2 - v1) / v2 < 0.01

    def test_total_measure_invariant(self):
        for alpha in (0.0, 0.5, 1.0, 2.0, 3.5):
            quad = DiskQuadrature.build(alpha, radial_count=64)
            expect = 2.0 * math.exp(log_beta(2.0, alpha + 1.0))
            # the rule integrates the constant 1 to 2 B(2, alpha+1)
            total = 2.0 * float(np.sum(quad.radial_weights))
            assert abs(total - expect) / expect < 1e-12

    def test_nonconvergence_raises(self, monkeypatch):
        # |f|^3 (1-|z|)^2 with f = (1+z)^-1.25 is barely integrable: the
        # Gauss and anti-Gauss passes differ by about 4.3e-11 at level 254
        # and 7.8e-11 at level 508, the last below the cap of 512
        s = (2.0 + 1.0 - 0.5) / 2.0
        f = binomial_series_coeffs(s, 4000)
        monkeypatch.setattr(norms, "_MAX_RADIAL", 512)
        with pytest.raises(NonConvergedQuadrature) as exc:
            norm_quadrature(f, 3.0, 2.0, rel_tol=1e-12)
        assert math.isfinite(exc.value.last_value)
        assert 1e-12 < exc.value.rel_change < 1e-9

    def test_overflow_stops_at_the_first_pass(self, monkeypatch):
        # finite coefficients up to 3.2e217, but |f|^1.5 overflows: the
        # doubling used to run to the cap with every pass reading inf and
        # overflow warnings from every pass
        f = eigenfunction_truncation(200, 1024)
        builds = []
        build = DiskQuadrature.build.__func__

        def counted(cls, *args, **kwargs):
            builds.append(args)
            return build(cls, *args, **kwargs)

        monkeypatch.setattr(DiskQuadrature, "build", classmethod(counted))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergedQuadrature,
                               match="overflows") as exc:
                norm_quadrature_with_rule(f, 1.5, 1.0, rel_tol=5e-5)
        assert len(builds) == 1
        assert math.isinf(exc.value.last_value)

    @staticmethod
    def _pass_counts(monkeypatch, n, max_radial):
        # radial counts of the passes of a run whose values never agree; the
        # rules and passes are stand-ins, so large counts cost nothing.  A
        # level n runs G_n, then AG_{n+1}
        counts = []

        def spy(coeffs, p, quad, log_cut, rel_tol):
            counts.append(quad.radial_count)
            return float(len(counts)), 0.0

        monkeypatch.setattr(norms, "_radial_rule",
                            lambda alpha, count, anti: (np.ones(count + anti),)
                            * 2)
        monkeypatch.setattr(norms, "_pnorm_single_pass", spy)
        monkeypatch.setattr(norms, "_MAX_RADIAL", max_radial)
        with pytest.raises(NonConvergedQuadrature) as exc:
            norm_quadrature_with_rule(trunc(np.ones(n)), 3.0, 1.0,
                                      rel_tol=1e-9)
        assert (f"at {counts[-2]} and {counts[-1]} radial nodes"
                in str(exc.value))
        return counts

    @pytest.mark.parametrize("n, first", [
        (1, 32), (2, 32), (9, 32), (64, 32), (65, 33), (257, 65),
        (1025, 129), (20000, 512)])
    def test_first_radial_count(self, monkeypatch, n, first):
        # max(32, ceil(4 sqrt(N))), capped at 512
        assert self._pass_counts(monkeypatch, n, first) == [first, first + 1]

    @pytest.mark.parametrize("n, last", [
        # 2448 -> 4096 is a step of 1.67: the last level runs at the cap
        (1461, [2448, 4096]),
        # 4064 -> 4096 is below 1.5: the doubling stops at 4064
        (4001, [2032, 4064])])
    def test_last_pass_capped_at_max_radial(self, monkeypatch, n, last):
        counts = self._pass_counts(monkeypatch, n, 4096)
        levels = counts[::2]
        assert counts[1::2] == [level + 1 for level in levels]
        assert levels[-2:] == last
        assert all(b == 2 * a for a, b in zip(levels, levels[1:-1]))

    def test_nonconvergence_names_the_last_pass(self, monkeypatch):
        # the doubling 254 -> 508 stops below a cap of 700 (1016 > 700 and
        # 700 < 1.5 * 508): the message names level 508, not 700
        f = binomial_series_coeffs(1.25, 4000)
        monkeypatch.setattr(norms, "_MAX_RADIAL", 700)
        with pytest.raises(NonConvergedQuadrature,
                           match=r"at 508 and 509 radial nodes"):
            norm_quadrature(f, 3.0, 2.0, rel_tol=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                     complex(1.0, math.nan)])
    def test_nonfinite_coefficient_rejected(self, bad):
        # refused before any pass: one NaN among 50 coefficients used to run
        # the doubling to 4096 nodes (about 1 s) and end in
        # NonConvergedQuadrature with a NaN value
        c = np.ones(50, dtype=complex)
        c[[17, 30]] = bad
        with pytest.raises(ValueError, match="coefficient 17 is not finite"):
            norm_quadrature_with_rule(TaylorTruncation(c), 3.0, 1.0)

    @pytest.mark.parametrize("rel_tol", [math.nan, -1.0, 0.0, math.inf, 1.0])
    def test_bad_rel_tol_rejected(self, rel_tol):
        # refused before any pass: a bad tolerance used to run the doubling
        # to the cap and end in NonConvergedQuadrature
        with pytest.raises(ValueError, match="rel_tol"):
            norm_quadrature_with_rule(trunc([1, 1]), 3.0, 1.0, rel_tol=rel_tol)


REFS_FILE = (pathlib.Path(__file__).resolve().parents[1] / "perfbench"
             / "user_norm_refs.json")


def test_pool_norms_match_references():
    # the 96 p != 2 pool values of perfbench/user_norm_refs.json, computed
    # apart from the library by nested QAWS and mpmath
    doc = json.loads(REFS_FILE.read_text(encoding="utf-8"))
    checked = 0
    for entry in doc["pool"]:
        f = trunc([complex(*c) for c in entry["coeffs"]])
        for p, by_alpha in entry["refs"].items():
            for alpha, ref in by_alpha.items():
                value = norm_quadrature(f, float(p), float(alpha),
                                        rel_tol=1e-9)
                assert abs(value - ref) <= 1e-9 * ref
                checked += 1
    assert checked == 96


def test_error_estimates_against_references():
    # perfbench/user_norm_refs.json: its 96 pool values converge with an
    # estimate within rel_tol and lie within rel_tol of their references.
    # Its two fault inputs stop their angular grids at the cap and miss
    # their references by 3.42e-7 and 4.71e-7; the radial estimate reads
    # about 1e-15 there, the angular one 3.5e-6 and 8.9e-7
    doc = json.loads(REFS_FILE.read_text(encoding="utf-8"))
    for entry in doc["pool"]:
        f = trunc([complex(*c) for c in entry["coeffs"]])
        for p, by_alpha in entry["refs"].items():
            for alpha, ref in by_alpha.items():
                value, rule = norm_quadrature_with_rule(
                    f, float(p), float(alpha), rel_tol=1e-9)
                assert rule.rel_error_estimate <= 1e-9
                assert abs(value - ref) <= 1e-9 * ref
    for fault in doc["faults"]:
        f = trunc([complex(*c) for c in fault["coeffs"]])
        value, rule = norm_quadrature_with_rule(f, fault["p"], fault["alpha"],
                                                rel_tol=1e-9)
        error = abs(value - fault["ref"]) / fault["ref"]
        assert 1e-7 < error <= rule.rel_error_estimate


class TestGaussAntiGaussDriver:
    def test_returns_the_averaged_rule(self):
        # the 2n+1 interlaced nodes of G_n and AG_{n+1} at half weight: a
        # pass on it gives the value's p-th power.  The zeros of f lie at
        # modulus 1.5 to 3.6, so the first level, n = 32, converges
        coeffs = np.array([1.0, 0.5 - 0.2j, 0.25, -0.1j])
        value, rule = norm_quadrature_with_rule(TaylorTruncation(coeffs), 1.5,
                                                2.0, rel_tol=1e-9)
        assert rule.radial_count == 2 * 32 + 1
        assert np.all(np.diff(rule.radial_nodes) > 0.0)
        assert 2.0 * rule.radial_weights.sum() == pytest.approx(
            2.0 * math.exp(log_beta(2.0, 3.0)), rel=1e-13)
        log_cut = math.log(1e-9 * 1e-3 / len(coeffs))
        assert pass_norm(coeffs, 1.5, rule, log_cut, 1e-9) == pytest.approx(
            value, rel=1e-14)

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
    def test_estimate_covers_the_angular_gap(self, p, monkeypatch):
        # at p = 4 the grids are exact and the gap is 0; elsewhere the
        # estimate is at least the weighted gap over p I of both passes
        rng = np.random.default_rng(5)
        coeffs = _zeros_inside(rng, 30)
        passes = []
        single = norms._pnorm_single_pass

        def spy(*args):
            passes.append(single(*args))
            return passes[-1]

        monkeypatch.setattr(norms, "_pnorm_single_pass", spy)
        _, rule = norm_quadrature_with_rule(TaylorTruncation(coeffs), p, 0.5,
                                            rel_tol=1e-9)
        (i_g, gap_g), (i_ag, gap_ag) = passes[-2:]
        if p == 4.0:
            assert gap_g == gap_ag == 0.0
        else:
            assert gap_g > 0.0 and gap_ag > 0.0
        radial = abs(i_g ** (1 / p) - i_ag ** (1 / p)) / (
            2.0 * (0.5 * (i_g + i_ag)) ** (1 / p))
        angular = (gap_g + gap_ag) / (p * (i_g + i_ag))
        assert rule.rel_error_estimate == max(radial, angular)


# the 15 (p, m, alpha) scans of the eigen-quad benchmark workload
# (EIGEN_QUAD_CASES in perfbench/workloads.py), run there at N = 2^13
_EIGEN_QUAD_CASES = [
    (1.5, 1, 0.5), (1.5, 2, 2.0), (1.5, 3, 4.0), (1.5, 3, 1.0),
    (1.5, 4, 2.0), (1.5, 5, 3.0), (3.0, 1, 2.0), (3.0, 1, 4.0),
    (3.0, 2, 6.0), (3.0, 2, 2.0), (3.0, 3, 1.0), (3.0, 3, 4.0),
    (4.0, 2, 1.0), (4.0, 2, 4.0), (4.0, 3, 2.0)]


def test_eigen_quad_scans_keep_twenty_passes(monkeypatch):
    # every scan degree converges on its first level, G_n then AG_{n+1} at
    # n = _first_radial(N): 2 passes at each of the 10 degrees
    builds = []
    build = DiskQuadrature.build.__func__

    def counted(cls, alpha, radial_count, anti_gauss=False):
        builds.append((radial_count, anti_gauss))
        return build(cls, alpha, radial_count, anti_gauss)

    monkeypatch.setattr(DiskQuadrature, "build", classmethod(counted))
    for p, m, alpha in _EIGEN_QUAD_CASES:
        builds.clear()
        scan = eigen_membership_scan(m, p, alpha, n_max=1 << 13)
        first = [norms._first_radial(d + 1) for d in scan.degrees]
        assert builds == [(n, anti) for n in first for anti in (False, True)]
        assert len(builds) == 20


def _assert_tracks_old_start(monkeypatch, seed, draws, min_degree,
                             max_degree, old_first):
    # _first_radial = old_first reproduces the old start.
    # A value may differ from the old start's by more than rel_tol only where
    # the old value is itself off (an interior zero that the unrefined
    # angular grids do not resolve): there it must be no farther from a fine
    # reference than the old value plus rel_tol.
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        degree = int(rng.integers(min_degree, max_degree + 1))
        inside = int(rng.integers(1, degree + 1))
        mod = np.concatenate([rng.uniform(0.05, 1.0, inside),
                              rng.uniform(1.0, 3.0, degree - inside)])
        c = np.poly(mod * np.exp(2j * np.pi * rng.uniform(size=degree)))
        c = c[::-1].astype(complex) / np.abs(c).max()
        p = float(rng.choice([1.5, 3.0]))
        alpha = float(rng.choice([0.5, 1.0, 2.0, 5.0]))
        rel_tol = float(rng.choice([1e-6, 1e-9]))
        f = TaylorTruncation(c)
        new, _ = norm_quadrature_with_rule(f, p, alpha, rel_tol=rel_tol)
        with monkeypatch.context() as patch:
            patch.setattr(norms, "_first_radial", old_first)
            old, _ = norm_quadrature_with_rule(f, p, alpha, rel_tol=rel_tol)
        if abs(new - old) <= rel_tol * old:
            continue
        fine = DiskQuadrature.build(alpha, 2048)
        with monkeypatch.context() as patch:
            patch.setattr(norms, "_ANGULAR_MIN", 1 << 15)
            ref = pass_norm(c, p, fine, math.log(1e-25), 1e-12)
        assert abs(new - ref) <= abs(old - ref) + rel_tol * ref


def test_small_inputs_track_the_64_node_start(monkeypatch):
    # N <= 64 coefficients start at 32 radial nodes, where they started at
    # 64 before
    _assert_tracks_old_start(monkeypatch, 5, 400, 1, 63, lambda n: 64)


def test_start_tracks_the_power_of_two_start(monkeypatch):
    # N > 64 coefficients start at ceil(4 sqrt(N)) radial nodes, where they
    # started at the power of two at or above it
    _assert_tracks_old_start(
        monkeypatch, 11, 60, 65, 512,
        lambda n: 1 << math.ceil(math.log2(4.0 * math.sqrt(n))))


def _zeros_inside(rng, degree):
    # monic polynomial with its zeros drawn uniformly from the disk
    zeros = np.sqrt(rng.uniform(0.0, 1.0, degree)) * np.exp(
        2j * np.pi * rng.uniform(size=degree))
    return np.poly(zeros)[::-1].astype(complex)


class _Stop(Exception):
    pass


def _tied_pass(monkeypatch, coeffs, p, alpha, rel_tol, radial):
    # one pass on the radial-node Gauss rule at the cutoff that the driver
    # ties to rel_tol, read from the driver's first pass, which is stopped
    cuts = []

    def first_pass(c, p_, quad, log_cut, tol):
        cuts.append(log_cut)
        raise _Stop

    with monkeypatch.context() as patch:
        patch.setattr(norms, "_pnorm_single_pass", first_pass)
        with pytest.raises(_Stop):
            norm_quadrature_with_rule(TaylorTruncation(coeffs), p, alpha,
                                      rel_tol=rel_tol)
    quad = DiskQuadrature.build(alpha, radial)
    return pass_norm(coeffs, p, quad, cuts[0], rel_tol), quad


class TestTiedCutoff:
    # per radial node the driver drops the terms below rel_tol 1e-3 / N of
    # the largest |c_j| r^j; that moves the norm by at most rel_tol / 1000.
    # The full passes check their angular grids at the same rel_tol, so that
    # only the cutoff differs.

    @pytest.mark.parametrize("rel_tol", [5e-5, 1e-9])
    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
    def test_eigen_bias_within_bound(self, monkeypatch, p, rel_tol):
        for m in (1, 2, 3):
            for n in (1 << 6, 1 << 10, 1 << 13):
                coeffs = eigenfunction_truncation(m, n - 1).coeffs
                tied, quad = _tied_pass(monkeypatch, coeffs, p, 1.0, rel_tol,
                                        128)
                full = pass_norm(coeffs, p, quad, math.log(1e-20), rel_tol)
                assert abs(tied - full) <= rel_tol / 1000 * full

    @pytest.mark.parametrize("rel_tol", [5e-5, 1e-9])
    def test_zeros_inside_bias_within_bound(self, monkeypatch, rel_tol):
        rng = np.random.default_rng(17)
        for _ in range(20):
            coeffs = _zeros_inside(rng, int(rng.integers(1, 41)))
            for p in (1.5, 3.0):
                tied, quad = _tied_pass(monkeypatch, coeffs, p, 0.5, rel_tol,
                                        64)
                full = pass_norm(coeffs, p, quad, math.log(1e-20), rel_tol)
                assert abs(tied - full) <= rel_tol / 1000 * full

    @pytest.mark.parametrize("rel_tol", [5e-5, 1e-9])
    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("case", ["eigen", "decay"])
    def test_dropped_terms_within_bound(self, monkeypatch, case, p, rel_tol):
        # the step the bias bound rests on: at every node the dropped terms
        # sum to at most rel_tol / 1000 of the node's discrete L^p norm
        if case == "eigen":
            coeffs = eigenfunction_truncation(2, (1 << 13) - 1).coeffs
        else:
            rng = np.random.default_rng(23)
            coeffs = rng.normal(size=512) * 0.95 ** np.arange(512) + 0j
        seen = []
        grade = norms._effective_degrees

        def spy(c, logr, log_cut):
            seen.append(grade(c, logr, log_cut))
            return seen[-1]

        monkeypatch.setattr(norms, "_effective_degrees", spy)
        _, quad = _tied_pass(monkeypatch, coeffs, p, 1.0, rel_tol, 64)
        r = quad.radial_nodes[:, None]
        terms = np.abs(coeffs) * r ** np.arange(len(coeffs))
        dropped = np.where(np.arange(len(coeffs)) > seen[0][:, None],
                           terms, 0.0).sum(axis=1)
        grid = 1 << int(math.ceil(math.log2(2 * len(coeffs))))
        vals = np.abs(scipy.fft.fft(coeffs * r ** np.arange(len(coeffs)),
                                    n=grid, axis=1))
        node_norm = np.mean(vals ** p, axis=1) ** (1.0 / p)
        assert np.all(dropped <= rel_tol / 1000 * node_norm)


class TestAngularRefinement:
    # at p != 2k a node starts at T >= 2 (eff + 1) and doubles T while its
    # sums on T and T/2 points differ by more than 0.1 rel_tol, up to its cap

    def test_top_pass_within_caps_at_half_the_points(self, monkeypatch):
        # the top pass of an eigen-quad scan at p = 3: 2.2 M points, against
        # 7.7 M when every node ran at its cap
        coeffs = np.asarray(eigenfunction_truncation(3, 1 << 13).coeffs,
                            dtype=complex)
        quad = DiskQuadrature.build(2.0, 726)
        log_cut = math.log(5e-5 * 1e-3 / len(coeffs))
        calls = _record_transforms(monkeypatch)
        norms._pnorm_single_pass(coeffs, 3.0, quad, log_cut, 5e-5)
        # the fixed grids of earlier releases, now the caps
        eff = oracle_effective_degrees(coeffs, np.log(quad.radial_nodes),
                                       log_cut)
        cap = np.array([_oracle_pow2(12.0 * (e + 1), 64) for e in eff])
        seen = []
        points = 0
        for n, head in calls:
            # row j is c_j r^j with c_2 = 1 and c_3 = 3
            r = head[:, 3].real / (3.0 * head[:, 2].real)
            node = np.abs(quad.radial_nodes - r[:, None]).argmin(axis=1)
            assert np.all(n <= cap[node])
            seen.extend(node.tolist())
            points += n * len(head)
        assert sorted(set(seen)) == list(range(quad.radial_count))
        assert points <= cap.sum() / 2

    def test_zeros_inside_refine_some_node(self, monkeypatch):
        rng = np.random.default_rng(17)
        calls = _record_transforms(monkeypatch)
        refined = 0
        for _ in range(20):
            coeffs = _zeros_inside(rng, int(rng.integers(1, 41)))
            for p in (1.5, 3.0):
                calls.clear()
                norms._pnorm_single_pass(coeffs, p, DiskQuadrature.build(
                    0.5, 64), math.log(1e-9 * 1e-3 / len(coeffs)), 1e-9)
                refined += sum(len(head) for _, head in calls) > 64
        assert refined > 0

    @staticmethod
    def _cases():
        rng = np.random.default_rng(17)
        for _ in range(20):
            yield _zeros_inside(rng, int(rng.integers(1, 41))), 0.5, 64
        for m in (1, 2, 3):
            for n in (1 << 10, 1 << 13):
                coeffs = eigenfunction_truncation(m, n).coeffs
                yield coeffs, 1.0, math.ceil(4.0 * math.sqrt(n + 1))

    @pytest.mark.parametrize("rel_tol", [5e-5, 1e-9])
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_within_tenth_of_tol_of_the_caps(self, p, rel_tol):
        for coeffs, alpha, radial in self._cases():
            coeffs = np.asarray(coeffs, dtype=complex)
            quad = DiskQuadrature.build(alpha, radial)
            cut = rel_tol * 1e-3 / len(coeffs)
            got = pass_norm(coeffs, p, quad, math.log(cut), rel_tol)
            want = oracle_pnorm_single_pass(coeffs, p, quad, cut)
            assert abs(got - want) <= rel_tol / (10.0 * p) * want


class TestSpaceSpec:
    def test_frechet_steps(self):
        spec = SpaceSpec(2.0, 1.0, SpaceKind.FRECHET_INTERSECTION)
        assert spec.steps(3).tolist() == [1, 2, 3]
        assert spec.step_alphas([4, 2]).tolist() == [1.25, 1.5]
        with pytest.raises(ValueError, match="no admissible steps n <= 0: "
                                             "the first is n = 1"):
            spec.steps(0)

    def test_lb_admissibility(self):
        spec = SpaceSpec(2.0, 0.3, SpaceKind.LB_UNION)
        assert spec.min_step() == 4
        assert spec.steps(5).tolist() == [4, 5]
        assert spec.step_alphas([4])[0] == pytest.approx(0.05)
        with pytest.raises(ValueError, match="step n = 3 is inadmissible"):
            spec.step_alphas([5, 3])
        with pytest.raises(ValueError, match="no step indices"):
            spec.step_alphas([])
        with pytest.raises(ValueError, match="no admissible steps n <= 3: "
                                             "the first is n = 4"):
            spec.steps(3)
        with pytest.raises(ValueError, match="banach space has no steps"):
            SpaceSpec(2.0, 0.3).step_alphas([1])

    def test_lb_first_step_admissible_at_reciprocal_alphas(self):
        # every x within 20 ulps of 1/k, k < 3000: the LB min_step at alpha
        # = x and the counterexample home step at epsilon = x are the first n
        # with 1.0 / n < x, found here by stepping n one at a time.  The
        # plain floor(1/x) + 1 misses it on 488 of these values, and a
        # correction upward only on 335 (at alpha = 0.11111111111111112 it
        # named step 10, though alpha - 1/9 = 1.4e-17 > 0)
        plain_wrong = upward_wrong = 0
        for k in range(1, 3000):
            bits = np.float64(1.0 / k).view(np.int64)
            for x in (bits + np.arange(-20, 21)).view(np.float64).tolist():
                want = max(1, k - 2)
                assert want == 1 or not 1.0 / (want - 1) < x
                while not 1.0 / want < x:
                    want += 1
                spec = SpaceSpec(2.0, x, SpaceKind.LB_UNION)
                assert spec.min_step() == norms._first_step_below(x) == want
                assert spec.step_alphas([want])[0] > 0.0
                if want > 1:
                    assert x - 1.0 / (want - 1) <= 0.0
                plain = math.floor(1.0 / x) + 1
                plain_wrong += plain != want
                upward_wrong += (plain if x - 1.0 / plain > 0.0
                                 else plain + 1) != want
        assert (plain_wrong, upward_wrong) == (488, 335)

    def test_first_step_below_far_out(self):
        # past 2^53 neighbouring n share a float: floor(1/x) + 1 stands, as
        # the counterexample at epsilon = 1e-300 has always printed
        assert norms._first_step_below(1e-300) == math.floor(1.0 / 1e-300) + 1
        with pytest.raises(ValueError, match="overflows"):
            norms._first_step_below(5e-324)

    def test_limit_space_needs_positive_alpha(self):
        with pytest.raises(ValueError):
            SpaceSpec(2.0, 0.0, SpaceKind.LB_UNION)

    @pytest.mark.parametrize("kind", list(SpaceKind))
    @pytest.mark.parametrize("p, alpha", [(math.nan, 1.0), (math.inf, 1.0),
                                          (2.0, math.nan), (2.0, math.inf)])
    def test_nonfinite_exponents_rejected(self, kind, p, alpha):
        with pytest.raises(ValueError, match="finite"):
            SpaceSpec(p, alpha, kind)


class TestSeminormFamily:
    def test_constant_frechet_closed_form(self):
        spec = SpaceSpec(2.0, 1.0, SpaceKind.FRECHET_INTERSECTION)
        fam = seminorm_family(trunc([1.0]), spec, 3)
        values = [e.value for e in fam]
        for e in fam:
            expect = math.sqrt(2.0 * math.exp(log_beta(2.0, 2.0 + 1.0 / e.n)))
            assert abs(e.value - expect) < 1e-14
        assert values == sorted(values) and values[0] < values[-1]

    def test_zero_function(self):
        spec = SpaceSpec(2.0, 2.0, SpaceKind.LB_UNION)
        fam = seminorm_family(trunc([0, 0]), spec, 4)
        assert all(e.value == 0.0 and e.ok for e in fam)

    def test_banach_rejected(self):
        with pytest.raises(ValueError):
            seminorm_family(trunc([1.0]), SpaceSpec(2.0, 1.0), 3)

    def test_lb_family_starts_at_first_admissible_step(self):
        # alpha - 1/93 rounds to 0 at alpha = 1/93: the steps start at 94
        spec = SpaceSpec(2.0, 1.0 / 93.0, SpaceKind.LB_UNION)
        fam = seminorm_family(trunc([1.0]), spec, 96)
        assert [e.n for e in fam] == [94, 95, 96]
        assert all(e.ok and e.alpha > 0.0 for e in fam)

    @pytest.mark.parametrize("rel_tol", [math.nan, 0.0, math.inf, 1.0])
    def test_bad_rel_tol_rejected_at_p2(self, rel_tol):
        # Parseval sums use no tolerance, but a bad one is still refused
        spec = SpaceSpec(2.0, 1.0, SpaceKind.FRECHET_INTERSECTION)
        with pytest.raises(ValueError, match="rel_tol"):
            seminorm_family(trunc([1.0]), spec, 3, rel_tol)


class TestInclusionScan:
    def test_first_ratio_beta_oracle(self):
        scan = inclusion_ratio_scan(2.0, 1.0, 2.0, 64)
        # B(4,3)/B(4,2) = (1/60)/(1/20) = 1/3
        assert abs(scan.ratios[0] - math.sqrt(1 / 3)) < 1e-14

    def test_decay_exponent(self):
        scan = inclusion_ratio_scan(2.0, 1.0, 2.0, 10_000)
        assert abs(scan.exponent - (-0.5)) / 0.5 < 0.02
        assert scan.r_squared > 0.999
        assert np.all(np.diff(scan.ratios) < 0)

    def test_identity_inclusion_rejected(self):
        with pytest.raises(ValueError):
            inclusion_ratio_scan(2.0, 1.0, 1.0, 100)

    def test_fit_needs_three_points(self):
        # the fit runs over j >= 8
        with pytest.raises(ValueError, match="j_max must be >= 10"):
            inclusion_ratio_scan(2.0, 1.0, 2.0, 9)
        scan = inclusion_ratio_scan(2.0, 1.0, 2.0, 10)
        assert -0.5 < scan.exponent < 0.0 and scan.r_squared < 1.0


class TestParsevalProperties:
    # the p = 2 dispatcher against two checks that do not use the weights

    @settings(max_examples=25, deadline=None)
    @given(re=st.lists(_coeff, min_size=1, max_size=40), data=st.data(),
           alpha=st.floats(0.0, 8.0))
    def test_matches_quadrature(self, re, data, alpha):
        im = data.draw(st.lists(_coeff, min_size=len(re), max_size=len(re)))
        f = TaylorTruncation(np.array(re) + 1j * np.array(im))
        # at p = 2 the rule is exact on polynomials (measured agreement
        # about 1e-14), so 1e-12 leaves margin for rounding only
        want = norm_quadrature(f, 2.0, alpha, rel_tol=1e-11)
        got = parseval_norm(f, alpha)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300)

    @settings(max_examples=60, deadline=None)
    @given(re=st.lists(_coeff, min_size=1, max_size=600),
           alpha=st.floats(0.0, 50.0), step=st.floats(1e-3, 10.0))
    def test_decreasing_in_alpha(self, re, alpha, step):
        # (1-|z|)^alpha decreases pointwise in alpha, hence so does the norm
        f = TaylorTruncation(np.array(re, dtype=complex))
        assert parseval_norm(f, alpha + step) <= parseval_norm(f, alpha)


def test_weight_monotonicity():
    # mu < gamma gives pointwise smaller weight, hence smaller norm
    rng = np.random.default_rng(12)
    f = TaylorTruncation(rng.uniform(-1, 1, 30) + 1j * rng.uniform(-1, 1, 30))
    pairs = [(0.5, 1.0), (1.0, 2.5), (2.0, 3.5)]
    for mu, gamma in pairs:
        assert parseval_norm(f, gamma) <= parseval_norm(f, mu)
