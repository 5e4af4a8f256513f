import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from expspline.expcore import (
    _apply_monic,
    _monic_coefficients,
    _phi_corner_batch,
    _phi_rows,
    _sinhc,
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
        with pytest.raises(OverflowError, match=r"^exp\(1000\.0\*t\) "
                           r"overflows at t up to 1$"):
            _phi_rows(np.array([[1000.0], [1.0]]), np.array([1.0, 5.0]))

    def test_pair_overflow_names_its_rows_t(self):
        # both rows overflow; the larger exponent is (-2000, 0) at t = -1,
        # and the |t| named is its own, not the 2.5 of the other row
        with pytest.raises(OverflowError, match=r"\(-2000\.0, 0\.0\) "
                           r"overflows at \|t\| up to 1$"):
            _phi_rows(np.array([[-2000.0, 0.0], [0.0, 300.0]]),
                      np.array([-1.0, 2.5]))

    def test_hard_underflow_returns_zero(self):
        assert fundamental_eval((-200.0, -200.0), 10.0) == 0.0

    def test_invalid_input(self):
        with pytest.raises(ValueError):
            fundamental_eval((np.nan, 1.0), 1.0)
        with pytest.raises(ValueError):
            fundamental_eval((1.0,), np.inf)
        with pytest.raises(ValueError):
            as_frequency_vector(())


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
        reflected = (-1.0) ** (k - 1) * _phi_corner_batch(
            -rows[:, ::-1], -ts)[:, -1]
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
        # bound 1500 passes the other row's 1200
        rows = np.array([[0.0, 1.0, 400.0], [-500.0, -1.0, 0.0]])
        with pytest.raises(OverflowError, match=r"1\.0, 500\.0\) overflows "
                           r"at t up to 3"):
            _phi_rows(rows, np.array([3.0, -3.0]))

    @pytest.mark.parametrize("freqs, t", _kernel_oracle_cases())
    def test_first_row_of_unsorted_row_against_oracle(self, freqs, t):
        # entry j is Phi over the first j+1 frequencies in the order given
        row = np.random.default_rng(len(freqs)).permutation(freqs)
        got = _phi_corner_batch(row[None, :], np.array([t]))[0]
        with mp.workdps(150):
            ref = [float(mp_phi(row[:j + 1], t)) for j in range(len(row))]
        assert_allclose(got, ref, rtol=1e-13)
        at_zero = _phi_corner_batch(row[None, :], np.zeros(1))[0]
        assert np.array_equal(at_zero, np.eye(len(row))[0])

    def test_overflow_check_reads_the_largest_entry(self):
        # the largest frequency comes first: the centred kernel stays finite
        # and only the restored shift would overflow
        with pytest.raises(OverflowError):
            _phi_corner_batch(np.array([[760.0, 0.0, 0.0, 0.0]]),
                              np.array([1.0]))


def _assert_log_space_accuracy(rows, ts):
    """_phi_rows against the oracle within 2 eps max|lambda*t|, twice the
    accuracy the module docstring states for the log-space routes."""
    got = _phi_rows(rows, ts)
    with mp.workdps(150):
        ref = np.array([float(mp_phi(r, t)) for r, t in zip(rows, ts)])
    tol = 2.0 * np.finfo(float).eps * np.max(np.abs(rows * ts[:, None]),
                                             axis=1)
    assert np.all(np.abs(got - ref) <= tol * np.abs(ref))


class TestLogSpace:

    def test_pair_whose_direct_product_overflows(self):
        # |d*t| >= 720 makes sinhc(d*t) infinite: (-1440, 0) at t = 1 is
        # about 1/1440; the random keys keep the larger exponent c*t small,
        # with t of both signs
        rng = np.random.default_rng(36)
        t = rng.uniform(0.5, 2.0, 40) * rng.choice([-1.0, 1.0], 40)
        c = rng.uniform(-50.0, 50.0, 40)
        width = 2.0 * rng.uniform(720.0, 1400.0, 40) / np.abs(t)
        far = c - np.sign(t) * width
        rows = np.vstack([[-1440.0, 0.0],
                          np.sort(np.column_stack([far, c]), axis=1)])
        ts = np.append(1.0, t)
        assert_allclose(_phi_rows(rows[:1], ts[:1]), 1.0 / 1440.0,
                        rtol=1e-13)
        _assert_log_space_accuracy(rows, ts)

    @pytest.mark.parametrize("k", (3, 4))
    def test_row_whose_shift_passes_690(self, k):
        # |mean * t| > 690 takes the shifted tail: (-1400, -700, 0) at t = 1
        # is about 1.0204e-6; the random keys keep the centred exponents
        # below 700 so the kernel itself stays finite
        rng = np.random.default_rng(k)
        x = np.column_stack([rng.uniform(-2100.0, -40.0, (4000, k - 1)),
                             rng.uniform(-40.0, 8.0, 4000)])
        x[:200] = rng.uniform(680.0, 698.0, (200, k))
        x = np.sort(x, axis=1)
        mean = x.mean(axis=1)
        keep = (np.abs(mean) > 690.0) & (x[:, -1] - mean < 700.0) \
            & (mean - x[:, 0] < 700.0)
        assert keep[:200].sum() >= 5 and keep[200:].sum() >= 20
        t = rng.uniform(0.5, 2.0, 4000)
        rows = (x / t[:, None])[keep][:40]
        ts = t[keep][:40]
        if k == 3:
            rows = np.vstack([[-1400.0, -700.0, 0.0], rows])
            ts = np.append(1.0, ts)
            assert_allclose(_phi_rows(rows[:1], ts[:1]), 1.0204081632653e-6,
                            rtol=1e-12)
        _assert_log_space_accuracy(rows, ts)


class TestSinhc:
    def test_zero_dimensional_input_stays_an_array(self):
        out = _sinhc(np.asarray(0.3))
        assert isinstance(out, np.ndarray) and out.shape == ()
        assert _sinhc(2.0).shape == ()

    def test_series_below_the_threshold_direct_from_it(self):
        below = np.array([np.nextafter(1e-4, 0.0), -np.nextafter(1e-4, 0.0),
                          5e-5, -3e-7, 1e-300])
        series = 1.0 + below * below / 6.0 * (1.0 + below * below / 20.0)
        assert np.array_equal(_sinhc(below), series)
        above = np.array([1e-4, -1e-4, np.nextafter(1e-4, 1.0), 0.3, -2.0,
                          50.0, 710.0])
        assert np.array_equal(_sinhc(above), np.sinh(above) / above)

    def test_signed_zero_gives_one(self):
        assert np.array_equal(_sinhc(np.array([0.0, -0.0])), [1.0, 1.0])
        assert _sinhc(-0.0) == 1.0

    def test_overflow_is_inf_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _sinhc(np.array([711.0, -711.0, 1e4, -1e300]))
        assert np.array_equal(out, np.full(4, np.inf))


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
        got = _phi_corner_batch(rows, ts) * (-1.0) ** np.arange(4)
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
