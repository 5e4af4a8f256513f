import math

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from expspline.expcore import (
    _monic_coefficients,
    _phi_corner_batch,
    _phi_rows,
    as_frequency_vector,
    convolution_check,
    fundamental_derivative,
    fundamental_eval,
    operator_apply,
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


class TestOperatorApply:
    def test_quadruple_on_sine(self):
        xi = 1.7
        ts = np.linspace(0.0, math.pi, 9)
        derivs = [np.sin(ts), np.cos(ts), -np.sin(ts), -np.cos(ts),
                  np.sin(ts)]
        got = operator_apply((xi, xi, -xi, -xi), derivs)
        assert_allclose(got, (1.0 + xi * xi) ** 2 * np.sin(ts), rtol=1e-12,
                        atol=1e-12)

    def test_mixed_quadruple_on_cubic(self):
        rho = 2.5
        ts = np.linspace(-1.0, 1.0, 7)
        derivs = [ts ** 3, 3.0 * ts ** 2, 6.0 * ts, 6.0 * np.ones_like(ts),
                  np.zeros_like(ts)]
        got = operator_apply((0.0, 0.0, rho, -rho), derivs)
        assert_allclose(got, -6.0 * rho * rho * ts, rtol=1e-12, atol=1e-12)

    def test_annihilates_own_kernel(self):
        freqs = (1.0, -0.5, 2.0)
        ts = np.linspace(0.1, 1.5, 6)
        derivs = [fundamental_derivative(freqs, ts, k) for k in range(4)]
        got = operator_apply(freqs, derivs)
        assert np.max(np.abs(got)) < 1e-10

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            operator_apply((1.0, 2.0), [1.0, 2.0])

    def test_coefficients_match_numpy_poly_bitwise(self):
        # np.poly is the reference expansion
        rng = np.random.default_rng(11)
        for _ in range(2000):
            k = int(rng.integers(1, 7))
            freqs = rng.uniform(-50.0, 50.0, k) \
                * 10.0 ** rng.uniform(-8.0, 2.0, k)
            assert np.array_equal(_monic_coefficients(freqs.tolist()),
                                  np.poly(freqs))


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
