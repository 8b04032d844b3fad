import enum
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cesaro_bergman.scans import truncation_norms
from cesaro_bergman.series import (
    TaylorTruncation,
    binomial_series_coeffs,
    cesaro_apply,
    cesaro_inverse_apply,
    eigen_residual_exact,
    eigenfunction_truncation,
    recover_from_cesaro,
)


BIG = 1 << 20
# every index below 300, 800 log-spaced ones above it, and 2^20 itself
SAMPLE = np.unique(np.concatenate(
    [np.arange(300), np.geomspace(300, BIG, 800).astype(int), [BIG]]))
BINOMIAL_REL_TOL = 5e-11


class BinomialSign(enum.Enum):
    """Which series an oracle reads: (1+z)^(-s) as built, or (1-z)^(-s) as
    its sign flip (-1)^k c_k, which is exact."""

    PLUS_Z = "plus_z"
    MINUS_Z = "minus_z"


def signed_binomial(s, sign, degree):
    c = binomial_series_coeffs(s, degree).coeffs
    if sign is BinomialSign.MINUS_Z:
        c = np.where(np.arange(degree + 1) % 2, -c, c)
    return c


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

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_COEFF, min_size=2, max_size=401))
    def test_is_inverse_without_last_coefficient(self, coeffs):
        c = np.array(coeffs, dtype=complex)
        g = cesaro_apply(TaylorTruncation(c))
        full = cesaro_inverse_apply(g).coeffs
        rec = recover_from_cesaro(g).coeffs
        assert rec.tobytes() == full[:-1].tobytes()
        # the dropped coefficient (N+1) g_N - N g_(N-1) is f_N, as exact as
        # the others
        bound = 4.0 * np.finfo(float).eps * len(c) * np.abs(c).max()
        assert abs(full[-1] - c[-1]) <= bound


class TestBinomialSeries:
    def test_geometric(self):
        # (1-z)^-1, the eigenfunction for m = 1
        got = eigenfunction_truncation(1, 3)
        assert np.array_equal(got.coeffs, [1, 1, 1, 1])

    def test_alternating(self):
        got = binomial_series_coeffs(1.0, 3)
        assert np.allclose(got.coeffs, [1, -1, 1, -1])

    def test_square_via_differentiation_oracle(self):
        # (1+z)^-2 is minus the derivative of (1+z)^-1, differentiated here
        # term by term
        geo = binomial_series_coeffs(1.0, 5).coeffs
        oracle = -geo[1:] * np.arange(1, 6)
        got = binomial_series_coeffs(2.0, 4)
        assert np.allclose(got.coeffs, oracle)
        assert np.allclose(got.coeffs, [1, -2, 3, -4, 5])

    def test_geometric_is_exact_to_2_20(self):
        c = eigenfunction_truncation(1, BIG).coeffs
        assert np.all(c == 1.0)
        alt = binomial_series_coeffs(1.0, BIG).coeffs
        assert np.all(alt.real == np.where(np.arange(BIG + 1) % 2, -1.0, 1.0))
        assert np.all(alt.imag == 0.0)

    @pytest.mark.parametrize("s", [1, 2, 17, 40])
    def test_integer_exponent_against_comb(self, s):
        # (1+z)^(-s) has coefficients (-1)^k C(k + s - 1, k)
        c = binomial_series_coeffs(float(s), BIG).coeffs
        ref = np.array([(-1.0) ** int(k) * math.comb(int(k) + s - 1, int(k))
                        for k in SAMPLE])
        assert np.max(np.abs(c[SAMPLE] - ref) / np.abs(ref)) <= BINOMIAL_REL_TOL

    @pytest.mark.parametrize("s", [0.05, 0.4, 1.3777, 2.5, 3.1])
    @pytest.mark.parametrize("sign", list(BinomialSign))
    def test_fractional_exponent_against_mpmath(self, s, sign):
        mpmath = pytest.importorskip("mpmath")
        c = signed_binomial(s, sign, BIG)
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
        got = signed_binomial(s, sign, n)
        # both sides round once per factor: 2 n ulps bound their distance
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 2 * n * 2.3e-16

    def test_eigenfunction_matches_binomial(self):
        # z^3 (1-z)^-4 against the sign flip of (1+z)^-4
        f = eigenfunction_truncation(4, 1000).coeffs
        tail = signed_binomial(4.0, BinomialSign.MINUS_Z, 997)
        assert np.all(f[:3] == 0.0) and np.array_equal(f[3:], tail)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_bad_exponent(self, bad):
        with pytest.raises(ValueError):
            binomial_series_coeffs(bad, 3)

    @pytest.mark.parametrize("bad", [10.5, 10.0, np.float64(3.0), "3"])
    def test_rejects_non_integral_degree(self, bad):
        # 10.5 used to fail inside np.empty with a TypeError
        with pytest.raises(ValueError, match="degree must be an integer"):
            binomial_series_coeffs(0.5, bad)
        with pytest.raises(ValueError, match="degree must be an integer"):
            eigenfunction_truncation(2, bad)

    @pytest.mark.parametrize("bad", [2.5, 2.0, np.float32(1.0)])
    def test_eigenfunction_rejects_non_integral_m(self, bad):
        # 2.5 used to fail at the slice out[m - 1:] with a TypeError
        with pytest.raises(ValueError, match="m must be an integer"):
            eigenfunction_truncation(bad, 10)

    def test_numpy_integers_pass(self):
        f = eigenfunction_truncation(np.int64(3), np.int32(40))
        assert np.array_equal(f.coeffs, eigenfunction_truncation(3, 40).coeffs)
        g = binomial_series_coeffs(1.5, np.uint16(40))
        assert np.array_equal(g.coeffs, binomial_series_coeffs(1.5, 40).coeffs)


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
        for op in (cesaro_apply, cesaro_inverse_apply, recover_from_cesaro):
            lhs = op(TaylorTruncation(a.coeffs + lam * b.coeffs)).coeffs
            rhs = op(a).coeffs + lam * op(b).coeffs
            assert np.max(np.abs(lhs - rhs)) < 1e-13


class TestTaylorTruncation:
    def test_immutability(self):
        f = trunc([1, 2])
        with pytest.raises(ValueError):
            f.coeffs[0] = 5.0

    @pytest.mark.parametrize("data, dtype", [
        ([True, False], np.float64),
        (np.arange(4, dtype=np.uint8), np.float64),
        ([1, 2, 3], np.float64),
        (np.ones(3, dtype=np.float32), np.float64),
        ([0.5, -0.0], np.float64),
        (np.ones(3, dtype=np.complex64), np.complex128),
        ([1.0, 2j], np.complex128),
        # the dtype decides, not the values: zero imaginary parts stay complex
        (np.array([1.0, 2.0], dtype=complex), np.complex128),
        ([1 + 0j, 2 + 0j], np.complex128),
    ])
    def test_dtype_follows_the_input_dtype(self, data, dtype):
        f = TaylorTruncation(data)
        assert f.coeffs.dtype == dtype
        assert not f.coeffs.flags.writeable
        for op in (cesaro_apply, cesaro_inverse_apply, recover_from_cesaro):
            if f.degree >= 1:
                assert op(f).coeffs.dtype == dtype

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_owns_a_copy(self, dtype):
        src = np.arange(5, dtype=dtype)
        f = TaylorTruncation(src)
        src[:] = 7.0
        assert np.array_equal(f.coeffs, np.arange(5.0))
        assert not np.shares_memory(f.coeffs, src)

    def test_generators_keep_float64(self):
        assert binomial_series_coeffs(1.5, 10).coeffs.dtype == np.float64
        assert eigenfunction_truncation(3, 10).coeffs.dtype == np.float64


# every finite float class the byte comparisons must carry: signed zeros,
# subnormals, the largest and smallest normals, and ordinary values
_SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.5e-310, -2.2e-308,
                            2.2250738585072014e-308, 1.7976931348623157e308,
                            -1.0, 1.0, 1.0 / 3.0])
_MAX_LEN = 3 * (1 << 14) + 5  # three p = 2 sum blocks and a partial one


@st.composite
def _real_coeffs(draw, max_len=_MAX_LEN, max_scale=300):
    # a seeded random body at a drawn scale, with drawn values planted at
    # drawn indices; index 0 always holds one, so -0.0 can lead the prefix
    n = draw(st.integers(1, max_len))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    c = rng.uniform(-1.0, 1.0, n) * 10.0 ** draw(st.integers(-max_scale,
                                                             max_scale))
    c[rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.9]))] = 0.0
    value = _SPECIAL | st.floats(allow_nan=False, allow_infinity=False,
                                 max_value=10.0 ** max_scale,
                                 min_value=-10.0 ** max_scale)
    for i, x in draw(st.lists(st.tuples(st.integers(0, n - 1), value),
                              max_size=12)) + [(0, draw(value))]:
        c[i] = x
    return c


def _same_bytes(real_out, complex_out):
    assert real_out.dtype == np.float64
    assert complex_out.dtype == np.complex128
    assert real_out.tobytes() == complex_out.real.tobytes()
    assert np.all(complex_out.imag == 0.0)


class TestRealEqualsComplex:
    """A real input stored as float64 gives the bytes that the same input
    stored as complex128 gives in its real parts: |x + 0j| = hypot(x, 0) =
    |x|, a product with a zero imaginary part computes k x - 0, and cumsum
    adds the real parts in the same order."""

    @settings(max_examples=60, deadline=None)
    @given(_real_coeffs())
    def test_series_operations(self, c):
        f, fc = TaylorTruncation(c), TaylorTruncation(c.astype(complex))
        with np.errstate(over="ignore", invalid="ignore"):
            ops = [cesaro_apply]
            if len(c) >= 2:
                ops += [cesaro_inverse_apply, recover_from_cesaro]
            for op in ops:
                _same_bytes(op(f).coeffs, op(fc).coeffs)

    @settings(max_examples=60, deadline=None)
    @given(_real_coeffs(), st.sampled_from([0.0, 0.5, 2.0, 7.5]),
           st.data())
    def test_parseval_values_and_tails(self, c, alpha, data):
        degrees = sorted(data.draw(st.sets(st.integers(0, len(c) - 1),
                                           min_size=1, max_size=8)))
        for tails in (False, True):
            with np.errstate(over="ignore", invalid="ignore"):
                got = truncation_norms(c, 2.0, alpha, degrees, tails=tails)
                want = truncation_norms(c.astype(complex), 2.0, alpha,
                                        degrees, tails=tails)
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(_real_coeffs(max_len=41, max_scale=3),
           st.sampled_from([1.5, 3.0]), st.sampled_from([0.0, 1.0, 2.5]),
           st.booleans())
    def test_quadrature_value(self, c, p, alpha, tails):
        degree = len(c) - 1 if not tails else len(c) // 2
        got = truncation_norms(c, p, alpha, [degree], tails=tails)
        want = truncation_norms(c.astype(complex), p, alpha, [degree],
                                tails=tails)
        assert got.tobytes() == want.tobytes()
