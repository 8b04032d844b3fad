import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cesaro_bergman.series import (
    BinomialSign,
    TaylorTruncation,
    binomial_series_coeffs,
    cesaro_apply,
    cesaro_inverse_apply,
    differentiate,
    eigen_residual_exact,
    eigenfunction_truncation,
    multiply_by_one_minus_z,
    multiply_by_z,
    recover_from_cesaro,
)


BIG = 1 << 20
# every index below 300, 800 log-spaced ones above it, and 2^20 itself
SAMPLE = np.unique(np.concatenate(
    [np.arange(300), np.geomspace(300, BIG, 800).astype(int), [BIG]]))
BINOMIAL_REL_TOL = 5e-11


def trunc(seq):
    return TaylorTruncation(np.asarray(seq, dtype=complex))


def cesaro_oracle(coeffs):
    # direct prefix-mean summation, independent of the cumsum implementation
    out = []
    for k in range(len(coeffs)):
        out.append(sum(coeffs[: k + 1]) / (k + 1))
    return np.array(out)


def inverse_expansion_oracle(coeffs):
    # (1-z)(h + z h') expanded term by term
    n = len(coeffs) - 1
    out = [coeffs[0]]
    for k in range(1, n + 1):
        out.append((k + 1) * coeffs[k] - k * coeffs[k - 1])
    return np.array(out)


class TestCesaroApply:
    def test_constant_padded(self):
        got = cesaro_apply(trunc([1, 0, 0, 0]))
        assert np.allclose(got.coeffs, [1, 1 / 2, 1 / 3, 1 / 4])

    def test_z_squared(self):
        got = cesaro_apply(trunc([0, 0, 1, 0, 0]))
        assert np.allclose(got.coeffs, [0, 0, 1 / 3, 1 / 4, 1 / 5])

    def test_geometric_series_is_fixed_point(self):
        ones = trunc([1.0] * 101)
        got = cesaro_apply(ones)
        oracle = cesaro_oracle(ones.coeffs)
        assert np.array_equal(got.coeffs, np.ones(101))
        assert np.allclose(oracle, np.ones(101), atol=1e-14)


class TestCesaroInverse:
    def test_inverts_constant_image(self):
        got = cesaro_inverse_apply(trunc([1, 1 / 2, 1 / 3, 1 / 4]))
        assert np.allclose(got.coeffs, [1, 0, 0, 0], atol=1e-15)

    def test_constant_input(self):
        got = cesaro_inverse_apply(trunc([3.0, 0.0, 0.0]))
        assert np.allclose(got.coeffs, [3, -3, 0])

    def test_roundtrip_random_degree_200(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            c = rng.uniform(-1, 1, 201) + 1j * rng.uniform(-1, 1, 201)
            f = TaylorTruncation(c)
            back = cesaro_inverse_apply(cesaro_apply(f))
            assert np.max(np.abs(back.coeffs - c)) < 1e-12

    def test_matches_expansion_oracle(self):
        rng = np.random.default_rng(2)
        c = rng.uniform(-1, 1, 80) + 1j * rng.uniform(-1, 1, 80)
        got = cesaro_inverse_apply(TaylorTruncation(c))
        assert np.allclose(got.coeffs, inverse_expansion_oracle(c), atol=1e-13)

    def test_degree_precondition(self):
        with pytest.raises(ValueError):
            cesaro_inverse_apply(trunc([1.0]))


# an exact zero, or a complex number of modulus 1e-200 to 1e200
_COEFF = st.one_of(
    st.just(0j),
    st.builds(lambda e, phase: 10.0 ** e * complex(math.cos(phase),
                                                   math.sin(phase)),
              st.floats(-200.0, 200.0), st.floats(0.0, 2.0 * math.pi)))


class TestRoundTripProperty:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_COEFF, min_size=2, max_size=401))
    def test_inverse_and_recovery_undo_cesaro(self, coeffs):
        c = np.array(coeffs, dtype=complex)
        bound = 4.0 * np.finfo(float).eps * len(c) * np.abs(c).max()
        g = cesaro_apply(TaylorTruncation(c))
        back = cesaro_inverse_apply(g).coeffs
        assert np.all(np.abs(back - c) <= bound)
        rec = recover_from_cesaro(g).coeffs
        assert len(rec) == len(c) - 1
        assert np.all(np.abs(rec - c[:-1]) <= bound)


class TestRecoverFromCesaro:
    def test_recovers_constant(self):
        got = recover_from_cesaro(trunc([1, 1 / 2, 1 / 3]))
        assert np.allclose(got.coeffs, [1, 0], atol=1e-15)

    def test_zero(self):
        got = recover_from_cesaro(trunc([0, 0, 0]))
        assert np.allclose(got.coeffs, 0)
        assert got.degree == 1

    def test_random_degree_50(self):
        rng = np.random.default_rng(3)
        c = rng.uniform(-1, 1, 51) + 1j * rng.uniform(-1, 1, 51)
        g = cesaro_apply(TaylorTruncation(c))
        rec = recover_from_cesaro(g)
        assert rec.degree == 49
        assert np.max(np.abs(rec.coeffs - c[:50])) < 1e-12
        # independent expansion of (1-z)(z g)' agrees on those coefficients
        oracle = inverse_expansion_oracle(g.coeffs)[:50]
        assert np.allclose(rec.coeffs, oracle, atol=1e-13)


class TestBuildingBlocks:
    def test_differentiate(self):
        assert np.allclose(differentiate(trunc([0, 0, 1])).coeffs, [0, 2])

    def test_multiply_by_z(self):
        assert np.allclose(multiply_by_z(trunc([1, 1])).coeffs, [0, 1, 1])

    def test_multiply_by_one_minus_z(self):
        got = multiply_by_one_minus_z(trunc([1, 1, 1]))
        assert np.allclose(got.coeffs, [1, 0, 0, -1])


class TestBinomialSeries:
    def test_geometric(self):
        got = binomial_series_coeffs(1.0, BinomialSign.MINUS_Z, 3)
        assert np.allclose(got.coeffs, [1, 1, 1, 1])

    def test_alternating(self):
        got = binomial_series_coeffs(1.0, BinomialSign.PLUS_Z, 3)
        assert np.allclose(got.coeffs, [1, -1, 1, -1])

    def test_square_via_differentiation_oracle(self):
        # (1-z)^-2 is the derivative of (1-z)^-1; differentiate term by term
        geo = binomial_series_coeffs(1.0, BinomialSign.MINUS_Z, 5)
        oracle = differentiate(geo)
        got = binomial_series_coeffs(2.0, BinomialSign.MINUS_Z, 4)
        assert np.allclose(got.coeffs, oracle.coeffs)
        assert np.allclose(got.coeffs, [1, 2, 3, 4, 5])

    def test_geometric_is_exact_to_2_20(self):
        c = binomial_series_coeffs(1.0, BinomialSign.MINUS_Z, BIG).coeffs
        assert np.all(c == 1.0)
        alt = binomial_series_coeffs(1.0, BinomialSign.PLUS_Z, BIG).coeffs
        assert np.all(alt.real == np.where(np.arange(BIG + 1) % 2, -1.0, 1.0))
        assert np.all(alt.imag == 0.0)

    @pytest.mark.parametrize("s", [1, 2, 17, 40])
    def test_integer_exponent_against_comb(self, s):
        # (1-z)^(-s) has coefficients C(k + s - 1, k)
        c = binomial_series_coeffs(float(s), BinomialSign.MINUS_Z, BIG).coeffs
        ref = np.array([float(math.comb(int(k) + s - 1, int(k)))
                        for k in SAMPLE])
        assert np.max(np.abs(c[SAMPLE] - ref) / ref) <= BINOMIAL_REL_TOL

    @pytest.mark.parametrize("s", [0.05, 0.4, 1.3777, 2.5, 3.1])
    @pytest.mark.parametrize("sign", list(BinomialSign))
    def test_fractional_exponent_against_mpmath(self, s, sign):
        mpmath = pytest.importorskip("mpmath")
        c = binomial_series_coeffs(s, sign, BIG).coeffs
        flip = -1 if sign is BinomialSign.PLUS_Z else 1
        with mpmath.workdps(30):
            ref = np.array([float(flip ** int(k) * mpmath.rf(s, int(k))
                                  / mpmath.factorial(int(k)))
                            for k in SAMPLE])
        assert np.all(c.imag == 0.0)
        assert np.max(np.abs(c.real[SAMPLE] - ref) / np.abs(ref)) <= BINOMIAL_REL_TOL

    @pytest.mark.parametrize("s", [0.4, 1.0, 2.5, 17.0])
    @pytest.mark.parametrize("sign", list(BinomialSign))
    def test_matches_ratio_loop(self, s, sign):
        # the element-by-element ratio recurrence, in complex arithmetic
        n = 2000
        flip = -1.0 if sign is BinomialSign.PLUS_Z else 1.0
        ref = np.empty(n + 1, dtype=complex)
        ref[0] = 1.0
        for k in range(n):
            ref[k + 1] = ref[k] * flip * (s + k) / (k + 1)
        got = binomial_series_coeffs(s, sign, n).coeffs
        # both sides round once per factor: 2 n ulps bound their distance
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 2 * n * 2.3e-16

    def test_eigenfunction_matches_binomial(self):
        f = eigenfunction_truncation(4, 1000).coeffs
        tail = binomial_series_coeffs(4.0, BinomialSign.MINUS_Z, 997).coeffs
        assert np.all(f[:3] == 0.0) and np.array_equal(f[3:], tail)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_bad_exponent(self, bad):
        with pytest.raises(ValueError):
            binomial_series_coeffs(bad, BinomialSign.MINUS_Z, 3)


class TestInvariants:
    def test_exact_triangularity(self):
        rng = np.random.default_rng(4)
        c = rng.uniform(-1, 1, 64) + 1j * rng.uniform(-1, 1, 64)
        full = cesaro_apply(TaylorTruncation(c))
        for cut in (5, 17, 40):
            part = cesaro_apply(TaylorTruncation(c[: cut + 1]))
            assert np.array_equal(part.coeffs, full.coeffs[: cut + 1])

    def test_eigen_relation_exact(self):
        for m in range(1, 11):
            assert eigen_residual_exact(m, 500)
            f = eigenfunction_truncation(m, 500)
            resid = cesaro_apply(f).coeffs - f.coeffs / m
            scale = np.maximum(1.0, np.abs(f.coeffs))
            assert np.max(np.abs(resid) / scale) <= 1e-12

    def test_eigenfunction_coefficients_are_binomials(self):
        f = eigenfunction_truncation(3, 8)
        expect = [math.comb(j, 2) for j in range(9)]
        assert np.allclose(f.coeffs, expect)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        a = TaylorTruncation(rng.uniform(-1, 1, 40) + 1j * rng.uniform(-1, 1, 40))
        b = TaylorTruncation(rng.uniform(-1, 1, 40) + 1j * rng.uniform(-1, 1, 40))
        lam = 0.7 - 0.3j
        for op in (cesaro_apply, cesaro_inverse_apply, differentiate,
                   multiply_by_z, multiply_by_one_minus_z):
            lhs = op(TaylorTruncation(a.coeffs + lam * b.coeffs)).coeffs
            rhs = op(a).coeffs + lam * op(b).coeffs
            assert np.max(np.abs(lhs - rhs)) < 1e-13


class TestTaylorTruncation:
    def test_immutability(self):
        f = trunc([1, 2])
        with pytest.raises(ValueError):
            f.coeffs[0] = 5.0
