import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from expspline.expcore import (
    _apply_monic,
    _monic_coefficients,
    _corner_scaled,
    _pair_scaled,
    _phi_rows,
    _phi_scaled,
    _plain,
    as_frequency_vector,
    convolution_check,
    fundamental_derivative,
    fundamental_eval,
)

from oracles import count_sign_changes, mp_phi


class TestFundamentalEval:
    def test_polynomial_pair_is_identity(self):
        assert fundamental_eval((0.0, 0.0), 2.5) == 2.5

    def test_symmetric_pair_is_sinh(self):
        assert_allclose(fundamental_eval((1.0, -1.0), 1.0), math.sinh(1.0),
                        rtol=1e-14)

    def test_confluent_pair(self):
        # double frequency lambda gives t*exp(lambda*t)
        assert_allclose(fundamental_eval((1.0, 1.0), 1.0), math.e, rtol=1e-14)
        assert_allclose(fundamental_eval((0.3, 0.3, 0.3), 4.0),
                        8.0 * math.exp(1.2), rtol=1e-13)

    def test_four_frequency_closed_forms(self):
        assert_allclose(fundamental_eval((2.0, -2.0, 0.0, 0.0), 1.0),
                        (math.sinh(2.0) - 2.0) / 8.0, rtol=1e-13)
        assert_allclose(fundamental_eval((0.0, 1.0, 0.0, -1.0), 1.3),
                        math.sinh(1.3) - 1.3, rtol=1e-12)
        t = 0.9
        assert_allclose(fundamental_eval((1.0, -1.0, 1.0, -1.0), t),
                        0.5 * (t * math.cosh(t) - math.sinh(t)), rtol=1e-12)
        assert_allclose(fundamental_eval((0.0, 0.0, 0.0, 0.0), 2.0),
                        8.0 / 6.0, rtol=1e-14)

    def test_value_at_zero(self):
        assert fundamental_eval((3.0,), 0.0) == 1.0
        assert fundamental_eval((3.0, -1.0), 0.0) == 0.0
        assert fundamental_eval((3.0, -1.0, 0.0, 2.0), 0.0) == 0.0

    def test_against_divided_difference_oracle(self):
        cases = [
            ((1.0, 1.0 + 1e-13), 1.0),
            ((5.0, 4.999999, -3.0, 0.0), 1.5),
            ((-20.0, 20.0, 0.0, -1.0), 2.0),
            ((3.0, 2.0, 1.0, 0.5, -0.5, -1.0, -2.0, -3.0), 1.7),
            ((2.0, -2.0, 0.0, 0.0), 1e-6),
            ((2.0, -2.0, 0.0, 0.0), 1e-12),
            ((-5.0, -5.0, -5.0, 2.0), 3.0),
            ((0.25, 0.5, 0.75), 0.1),
        ]
        for freqs, t in cases:
            ref = float(mp_phi(freqs, t))
            assert_allclose(fundamental_eval(freqs, t), ref, rtol=5e-12,
                            err_msg=f"freqs={freqs} t={t}")

    def test_near_confluent_matches_exact_nodes(self):
        # frozen from the 50-digit divided difference over (1, 1+1e-12)
        assert_allclose(fundamental_eval((1.0, 1.0 + 1e-12), 1.0),
                        2.7182818284604043763, rtol=1e-13)

    def test_positive_for_positive_argument(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            k = rng.integers(1, 7)
            freqs = rng.uniform(-5.0, 5.0, k)
            ts = rng.uniform(1e-3, 2.0, 8)
            assert np.all(fundamental_eval(freqs, ts) > 0.0)

    def test_multiset_symmetry_is_exact(self):
        freqs = (1.5, -0.25, 3.0, 0.0)
        perm = (3.0, 1.5, 0.0, -0.25)
        for t in (-1.2, 0.37, 2.0):
            assert fundamental_eval(freqs, t) == fundamental_eval(perm, t)

    def test_reflection_parity(self):
        freqs = (0.5, -2.0, 1.0)
        for t in (0.3, 1.7):
            lhs = fundamental_eval(freqs, -t)
            rhs = (-1.0) ** 2 * fundamental_eval((-0.5, 2.0, -1.0), t)
            assert_allclose(lhs, rhs, rtol=1e-13)

    def test_array_shape_preserved(self):
        ts = np.array([[0.0, 0.5], [-1.0, 2.0]])
        out = fundamental_eval((1.0, -1.0), ts)
        assert out.shape == ts.shape
        assert out[0, 0] == 0.0
        assert_allclose(out[1, 0], -math.sinh(1.0), rtol=1e-14)

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            fundamental_eval((300.0,), 3.0)
        with pytest.raises(OverflowError):
            fundamental_eval((200.0, 100.0), 10.0)
        with pytest.raises(OverflowError):
            fundamental_eval((-300.0, 300.0, 0.0), 5.0)

    def test_one_frequency_overflow_names_its_rows_t(self):
        # the failing row's t, not the batch's largest
        with pytest.raises(OverflowError, match=r"\(1000\.0,\) overflows "
                           r"at t = 1$"):
            _phi_rows(np.array([[1000.0], [1.0]]), np.array([1.0, 5.0]))

    def test_pair_overflow_names_its_rows_t(self):
        # both rows overflow; the larger exponent is (-2000, 0) at t = -1,
        # and the |t| named is its own, not the 2.5 of the other row
        with pytest.raises(OverflowError, match=r"\(-2000\.0, 0\.0\) "
                           r"overflows at t = -1$"):
            _phi_rows(np.array([[-2000.0, 0.0], [0.0, 300.0]]),
                      np.array([-1.0, 2.5]))

    def test_pair_whose_exp_factor_underflows(self):
        # exp(s t) underflows below 1e-308, but the value does not
        assert_allclose(fundamental_eval((-868.4092867128231,
                                          -110.84836175676793),
                                         1.5679139806364661),
                        4.364144827589071e-79, rtol=1e-13)

    def test_hard_underflow_returns_zero(self):
        assert fundamental_eval((-200.0, -200.0), 10.0) == 0.0

    def test_invalid_input(self):
        with pytest.raises(ValueError):
            fundamental_eval((np.nan, 1.0), 1.0)
        with pytest.raises(ValueError):
            fundamental_eval((1.0,), np.inf)
        with pytest.raises(ValueError):
            as_frequency_vector(())


def _first_rows(rows, ts):
    """The plain first rows of exp(t*Z), as the order-4 build reads them."""
    return _plain(_corner_scaled(rows, ts), rows, ts)


def _kernel_oracle_cases():
    """Clusters at relative separations 1e-7 to 1e-12 (alone and beside a
    distinct node), spreads of +-60 and -80, t in (0, 2]."""
    rng = np.random.default_rng(5)
    cases = [((-60.0, 0.0, 60.0), 0.5)]
    for k in (3, 4, 5):
        for sep in (1e-7, 1e-9, 1e-12):
            base = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0))
            cluster = tuple(base * (1.0 + sep * np.arange(k)))
            mixed = tuple(base * (1.0 + sep * np.arange(k - 1))) + (-2.5,)
            cases += [(fr, t) for fr in (cluster, mixed)
                      for t in (0.01, 0.7, 2.0)]
        for lo, hi in ((-60.0, 60.0), (-80.0, 0.0)):
            freqs = tuple(rng.uniform(lo, hi, k))
            cases += [(freqs, t) for t in (0.05, 0.5, 2.0)]
        freqs = tuple(rng.uniform(-3.0, 3.0, k))
        cases += [(freqs, t) for t in (1e-3, 0.3)]
    return cases


class TestOpitzKernel:
    @pytest.mark.parametrize("freqs, t", _kernel_oracle_cases())
    def test_against_divided_difference_oracle(self, freqs, t):
        # a cluster costs the oracle's divided-difference table about 12
        # digits per node, hence the working precision
        with mp.workdps(150):
            ref = float(mp_phi(freqs, t))
        assert_allclose(fundamental_eval(freqs, t), ref, rtol=1e-13)

    def test_mixed_batch_equals_single_rows(self):
        # rows with different frequency spreads, hence different numbers of
        # squarings, at both signs of t and at zero, one row each and mixed
        rng = np.random.default_rng(8)
        for k in (3, 4, 5):
            rows = np.sort(np.concatenate([
                rng.uniform(-3.0, 3.0, (20, k)),
                rng.uniform(-60.0, 60.0, (20, k)),
                1.5 * (1.0 + 1e-9 * rng.standard_normal((20, k)))]), axis=1)
            ts = rng.uniform(-2.0, 2.0, len(rows))
            ts[::7] = 0.0
            order = rng.permutation(len(rows))
            batch = _phi_rows(rows[order], ts[order])
            single = [_phi_rows(rows[i:i + 1], ts[i:i + 1])[0]
                      for i in order]
            assert np.array_equal(batch, single)

    @pytest.mark.parametrize("k", (3, 4, 5))
    def test_negative_only_batch(self, k, kernel_calls):
        # every row enters reflected; one kernel call, each row as alone
        rng = np.random.default_rng(k)
        rows = np.sort(rng.uniform(-20.0, 20.0, (12, k)), axis=1)
        ts = -rng.uniform(0.1, 2.0, 12)
        batch = _phi_rows(rows, ts)
        assert len(kernel_calls) == 1
        single = [_phi_rows(rows[i:i + 1], ts[i:i + 1])[0] for i in range(12)]
        assert np.array_equal(batch, single)
        reflected = (-1.0) ** (k - 1) * _first_rows(-rows[:, ::-1], -ts)[:, -1]
        assert np.array_equal(batch, reflected)

    def test_zero_only_batch(self, kernel_calls):
        rows = np.sort(np.random.default_rng(2).uniform(-3.0, 3.0, (5, 4)),
                       axis=1)
        # t = 0 rows go through the kernel, whose first row there is the
        # first unit row
        out = _phi_rows(rows, np.array([0.0, -0.0, 0.0, 0.0, -0.0]))
        assert np.array_equal(out, np.zeros(5))
        assert kernel_calls == [(5, 4)]

    def test_both_signs_share_one_kernel_call(self, kernel_calls):
        rows = np.tile([-1.0, 0.5, 2.0], (4, 1))
        _phi_rows(rows, np.array([0.5, -0.5, 0.0, 1.5]))
        assert kernel_calls == [(4, 3)]

    def test_overflow_of_both_signs_names_the_largest_bound(self):
        # the row at t < 0 enters reflected, (0, 1, 500) at t = 3, and its
        # value near e^1500 passes the other row's e^1200; the message names
        # the row as given, with its own t
        rows = np.array([[0.0, 1.0, 400.0], [-500.0, -1.0, 0.0]])
        with pytest.raises(OverflowError, match=r"\(-500\.0, -1\.0, 0\.0\) "
                           r"overflows at t = -3$"):
            _phi_rows(rows, np.array([3.0, -3.0]))

    @pytest.mark.parametrize("freqs, t", _kernel_oracle_cases())
    def test_first_row_of_unsorted_row_against_oracle(self, freqs, t):
        # entry j is Phi over the first j+1 frequencies in the order given
        row = np.random.default_rng(len(freqs)).permutation(freqs)
        got = _first_rows(row[None, :], np.array([t]))[0]
        with mp.workdps(150):
            ref = [float(mp_phi(row[:j + 1], t)) for j in range(len(row))]
        assert_allclose(got, ref, rtol=1e-13)
        at_zero = _first_rows(row[None, :], np.zeros(1))[0]
        assert np.array_equal(at_zero, np.eye(len(row))[0])

    def test_overflow_check_reads_the_largest_entry(self):
        # the largest frequency comes first: the centred kernel stays finite
        # and only the restored shift takes the value past the double range
        with pytest.raises(OverflowError, match=r"\(760\.0, 0\.0, 0\.0, "
                           r"0\.0\) overflows at t = 1$"):
            _first_rows(np.array([[760.0, 0.0, 0.0, 0.0]]), np.array([1.0]))


def _assert_scaled_sweep(k, seed, pinned=()):
    """_phi_scaled on 60 derandomized rows of width k, t of both signs and
    max|lambda*t| from 1 to 1500, beside the pinned (row, t, value): the
    sign, and log|mant| + scale within 2 eps max|lambda*t| of the oracle's
    log|Phi|; mant is finite everywhere, and _phi_rows gives mant *
    exp(scale) wherever that lies in the double range and refuses the row
    elsewhere."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.2, 2.0, 60) * rng.choice([-1.0, 1.0], 60)
    lam = rng.uniform(-1.0, 1.0, (60, k))
    lam *= (rng.uniform(1.0, 1500.0, 60) / np.abs(t)
            / np.abs(lam).max(axis=1))[:, None]
    rows = np.vstack([np.sort(lam, axis=1)] + [row for row, _, _ in pinned])
    ts = np.append(t, [tp for _, tp, _ in pinned])
    mant, scale = _phi_scaled(rows, ts)
    assert np.all(np.isfinite(mant)) and np.all(np.isfinite(scale))
    with mp.workdps(150):
        ref = [mp_phi(r, tr) for r, tr in zip(rows, ts)]
        log_ref = np.array([float(mp.log(abs(x))) for x in ref])
        in_range = np.array([abs(x) <= np.finfo(float).max for x in ref])
        want = np.array([float(mp.mpf(m) * mp.exp(sc))
                         for m, sc in zip(mant, scale)])
    assert np.array_equal(np.sign(mant), [float(mp.sign(x)) for x in ref])
    eps = np.finfo(float).eps
    tol = 2.0 * eps * np.max(np.abs(rows * ts[:, None]), axis=1)
    assert np.all(np.abs(np.log(np.abs(mant)) + scale - log_ref) <= tol)
    assert in_range.any() and not in_range.all()
    got = _phi_rows(rows[in_range], ts[in_range])
    assert np.all(np.abs(got - want[in_range])
                  <= (2.0 + np.abs(scale[in_range])) * eps
                  * np.abs(want[in_range]) + np.finfo(float).tiny)
    for i in np.flatnonzero(~in_range):
        with pytest.raises(OverflowError):
            _phi_rows(rows[i:i + 1], ts[i:i + 1])
    for j, (_, _, value) in enumerate(pinned):
        assert_allclose(got[j - len(pinned)], value, rtol=1e-12)


class TestLogSpace:

    def test_pair_whose_direct_product_overflows(self):
        # |d*t| >= 720 makes sinh(d*t) infinite, though (-1440, 0) at t = 1
        # is about 1/1440
        _assert_scaled_sweep(2, 36, [([-1440.0, 0.0], 1.0, 1.0 / 1440.0)])

    @pytest.mark.parametrize("k", (3, 4))
    def test_row_whose_shift_passes_690(self, k):
        # (-1400, -700, 0) at t = 1, of mean -700, is about 1.0204e-6
        _assert_scaled_sweep(k, k, [([-1400.0, -700.0, 0.0], 1.0,
                                     1.0204081632653e-6)] if k == 3 else [])


class TestSinhc:
    """The factor (1 - exp(-2|u|)) / (2|u|) = exp(-|u|) sinh(u)/u of the
    pair mantissa t times it, u = d t."""

    def test_zero_dimensional_input_stays_an_array(self):
        mant, scale = _pair_scaled(-1.0, 1.0, np.asarray(0.3))
        assert np.shape(mant) == () and np.shape(scale) == ()
        assert_allclose(mant * np.exp(scale), math.sinh(0.3), rtol=1e-15)

    def test_small_arguments_against_mpmath(self):
        u = np.array([1e-300, 1e-12, 5e-5, 1e-4, 0.3, 2.0, 50.0, 700.0])
        mant, scale = _pair_scaled(-u, u, np.ones_like(u))
        with mp.workdps(50):
            want = [float(-mp.expm1(-2 * mp.mpf(x)) / (2 * mp.mpf(x)))
                    for x in u]
        assert_allclose(mant, want, rtol=4.0 * np.finfo(float).eps)
        assert np.array_equal(scale, u)

    def test_signed_zero_gives_one(self):
        # d t = +-0 gives the factor 1: mant is t to the bit, signed zeros
        # of t included
        t = np.array([0.0, -0.0, 0.3, -2.5, 1e300])
        for lam in (2.0, -0.0, 0.0):
            mant, scale = _pair_scaled(lam, lam, t)
            assert np.array_equal(mant, t)
            assert np.array_equal(np.signbit(mant), np.signbit(t))
            assert np.array_equal(scale, lam * t)

    def test_large_arguments_stay_finite_without_warning(self):
        u = np.array([711.0, -711.0, 1e4, -1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mant, scale = _pair_scaled(-np.abs(u), np.abs(u), np.sign(u))
        assert_allclose(mant, np.sign(u) / (2.0 * np.abs(u)), rtol=1e-15)
        assert np.array_equal(scale, np.abs(u))


class TestDerivative:
    def test_normalization_at_zero(self):
        # all derivatives below order N vanish at 0 and order N gives 1
        freqs = (2.0, -1.0, 0.5, 3.0)
        for order in range(3):
            assert fundamental_derivative(freqs, 0.0, order) == 0.0
        assert fundamental_derivative(freqs, 0.0, 3) == 1.0

    def test_pair_first_derivative_at_zero_exact(self):
        assert fundamental_derivative((2.0, 5.0), 0.0, 1) == 1.0

    def test_second_derivative_closed_form(self):
        # Phi_(2,3) = e^{3t} - e^{2t}; second derivative at 0.7 frozen
        assert_allclose(fundamental_derivative((2.0, 3.0), 0.7, 2),
                        57.274729345730152312, rtol=1e-13)

    def test_lowering_identity(self):
        freqs = (-1.0, 0.5, 2.0)
        for t in (0.2, 1.1, -0.7):
            lhs = fundamental_derivative(freqs, t, 1)
            rhs = 2.0 * fundamental_eval(freqs, t) \
                + fundamental_eval(freqs[:2], t)
            assert_allclose(lhs, rhs, rtol=1e-13)

    def test_against_finite_differences(self):
        freqs = (1.0, -2.0, 0.3, 0.0)
        h = 1e-5
        for t in (0.4, 1.3):
            fd = (fundamental_eval(freqs, t + h)
                  - fundamental_eval(freqs, t - h)) / (2.0 * h)
            assert_allclose(fundamental_derivative(freqs, t, 1), fd,
                            rtol=1e-8)

    def test_order_zero_is_value(self):
        assert fundamental_derivative((1.0, 2.0), 0.8, 0) == \
            fundamental_eval((1.0, 2.0), 0.8)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            fundamental_derivative((1.0,), 0.5, -1)

    @pytest.mark.parametrize("order", [True, math.nan, 1.0, 1.5, "1"])
    def test_order_must_be_an_integer(self, order):
        with pytest.raises(ValueError, match="nonnegative integer"):
            fundamental_derivative((1.0, 2.0), 0.5, order)

    def test_numpy_integer_order(self):
        assert fundamental_derivative((1.0, 2.0), 0.5, np.int64(2)) == \
            fundamental_derivative((1.0, 2.0), 0.5, 2)


class TestReflection:
    # Phi_(q[:k+1])(-t) = (-1)^k Phi_(-q[:k+1])(t): the order-4 build reads
    # its left-end local functions from the negated quadruple this way
    @pytest.mark.parametrize("quad", [
        (0.3, -1.1, -1.0, 0.4),
        (2.0, -2.0, 2.0, -2.0),
        (1.0, 1.0 + 3e-8, -1.0, -1.0 - 3e-8),
        (300.0, 301.0, -300.0, -301.0),
        (-120.0, -100.0, 100.0, 120.0),
    ])
    def test_reflected_kernel_at_negative_t(self, quad):
        ts = np.array([0.01, 0.1, 0.39, 1.0])
        ts = ts[max(map(abs, quad)) * ts <= 150.0]
        rows = np.tile(-np.array(quad), (ts.size, 1))
        got = _first_rows(rows, ts) * (-1.0) ** np.arange(4)
        for i, t in enumerate(ts):
            want = [float(mp_phi(quad[:k + 1], -t)) for k in range(4)]
            assert_allclose(got[i], want, rtol=1e-13, err_msg=f"t={t}")


def _operator_apply(freqs, derivs):
    """L = prod (D - lambda_i) applied to the tabulated derivatives F, F',
    ..., F^(k) of k frequencies, as the library applies it."""
    return _apply_monic(_monic_coefficients(freqs), derivs)


class TestOperatorApply:
    def test_quadruple_on_sine(self):
        xi = 1.7
        ts = np.linspace(0.0, math.pi, 9)
        derivs = [np.sin(ts), np.cos(ts), -np.sin(ts), -np.cos(ts),
                  np.sin(ts)]
        got = _operator_apply((xi, xi, -xi, -xi), derivs)
        assert_allclose(got, (1.0 + xi * xi) ** 2 * np.sin(ts), rtol=1e-12,
                        atol=1e-12)

    def test_mixed_quadruple_on_cubic(self):
        rho = 2.5
        ts = np.linspace(-1.0, 1.0, 7)
        derivs = [ts ** 3, 3.0 * ts ** 2, 6.0 * ts, 6.0 * np.ones_like(ts),
                  np.zeros_like(ts)]
        got = _operator_apply((0.0, 0.0, rho, -rho), derivs)
        assert_allclose(got, -6.0 * rho * rho * ts, rtol=1e-12, atol=1e-12)

    def test_annihilates_own_kernel(self):
        freqs = (1.0, -0.5, 2.0)
        ts = np.linspace(0.1, 1.5, 6)
        derivs = [fundamental_derivative(freqs, ts, k) for k in range(4)]
        got = _operator_apply(freqs, derivs)
        assert np.max(np.abs(got)) < 1e-10

    def test_coefficients_match_numpy_poly_bitwise(self):
        # np.poly is the reference expansion
        rng = np.random.default_rng(11)
        for _ in range(2000):
            k = int(rng.integers(1, 7))
            freqs = rng.uniform(-50.0, 50.0, k) \
                * 10.0 ** rng.uniform(-8.0, 2.0, k)
            assert np.array_equal(_monic_coefficients(freqs.tolist()),
                                  np.poly(freqs))
        # a (k, m) array gives one column per operator
        for _ in range(200):
            k, m = (int(x) for x in rng.integers(1, 7, 2))
            cols = rng.uniform(-50.0, 50.0, (k, m)) \
                * 10.0 ** rng.uniform(-8.0, 2.0, (k, m))
            got = _monic_coefficients(cols)
            assert got.shape == (k + 1, m)
            for j in range(m):
                assert np.array_equal(got[:, j], np.poly(cols[:, j]))


class TestConvolution:
    def test_unit_example(self):
        lhs, rhs = convolution_check((1.0, -1.0), (0.0,), 1.5)
        assert_allclose(rhs, 1.3524096152432473258, rtol=1e-13)
        assert_allclose(lhs, rhs, rtol=1e-10)

    def test_polynomial_case(self):
        lhs, rhs = convolution_check((0.0,), (0.0,), 2.0)
        assert_allclose(rhs, 2.0, rtol=1e-14)
        assert_allclose(lhs, rhs, rtol=1e-12)

    def test_requires_positive_argument(self):
        with pytest.raises(ValueError):
            convolution_check((1.0,), (2.0,), 0.0)


class TestSignChanges:
    def test_parabola(self):
        assert count_sign_changes(lambda ts: ts ** 2 - 1.0,
                                  -2.0, 2.0, 512) == 2

    def test_exponential_minus_one(self):
        assert count_sign_changes(lambda ts: np.exp(ts) - 1.0,
                                  -1.0, 1.0, 512) == 1

    def test_fundamental_changes_bounded_by_degree(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            k = rng.integers(2, 7)
            freqs = tuple(rng.uniform(-3.0, 3.0, k))
            changes = count_sign_changes(
                lambda ts: fundamental_eval(freqs, ts), -3.0, 3.0, 4096)
            assert changes <= k - 1

    def test_validation(self):
        with pytest.raises(ValueError):
            count_sign_changes(np.ones_like, 1.0, 0.0, 16)
        with pytest.raises(ValueError):
            count_sign_changes(np.ones_like, 0.0, 1.0, 1)
