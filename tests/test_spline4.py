"""Tests for clamped fourth order interpolation: frequency set resolution,
the banded construction against an extended-precision oracle, the Taylor
table that evaluates it, smoothness, orthogonality, and the assembled error
certificates."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

sys.path.insert(0, str(Path(__file__).parent))

from oracles import mp_interp4, mp_phi

from expspline import errbound2, expcore
from expspline.errbound2 import M_constant
from expspline.expcore import (
    fundamental_derivative,
    fundamental_eval,
    operator_apply,
)
from expspline.harness import get_test_function, max_abs_L, measure_error
from expspline.hatbasis import build_hat_basis
from expspline.l2proj import operator_norm_bound
from expspline.spline4 import (
    BoundCertificate,
    QuadFrequencySet,
    build_interpolant4,
    error_bound4,
    quad_frequency_set,
    resolve_weight,
    residual_orthogonality,
    second_order_error_bound,
    smoothness_report,
    spline4_eval,
    spline_from_coefficients,
)


class TestQuadFrequencySet:
    def test_symmetric_shorthand(self):
        qs = quad_frequency_set(3, xi=1.0)
        assert qs.quads == ((1.0, -1.0, 1.0, -1.0),) * 3
        assert qs.p == 0.0
        p, canon = resolve_weight(qs)
        assert p == 0.0
        assert canon == ((-1.0, 1.0, -1.0, 1.0),) * 3

    def test_per_interval_xi(self):
        qs = quad_frequency_set(2, xi=[0.5, 2.0])
        assert qs.quads[0] == (0.5, -0.5, 0.5, -0.5)
        assert qs.quads[1] == (2.0, -2.0, 2.0, -2.0)

    def test_shorthand_rejects_nonzero_p(self):
        with pytest.raises(ValueError, match="p = 0"):
            quad_frequency_set(2, xi=1.0, p=0.5)

    def test_positional_resolution(self):
        qs = quad_frequency_set(3, quads=(0.3, -1.1, -1.0, 0.4))
        p, canon = resolve_weight(qs)
        assert_allclose(p, 0.7, rtol=1e-14)
        assert canon[0] == (-1.1, 0.3, -1.0, 0.4)

    def test_regrouped_resolution(self):
        # the split as given has no exponent, the regrouped one does
        qs = quad_frequency_set(2, quads=(0.0, 0.0, 1.0, -1.0))
        p, canon = resolve_weight(qs)
        assert p == 0.0
        assert canon[0] == (0.0, 1.0, -1.0, 0.0)

    def test_confluent_resolution(self):
        p, canon = resolve_weight(quad_frequency_set(1, quads=(0., 0., 1., 1.)))
        assert p == -1.0
        assert canon[0] == (0.0, 0.0, 1.0, 1.0)

    def test_unresolvable_lists_candidates(self):
        with pytest.raises(ValueError, match="candidate p"):
            resolve_weight(quad_frequency_set(1, quads=(0.0, 0.0, 1.0, 2.0)))

    def test_explicit_p_validated_at_construction(self):
        QuadFrequencySet(quads=((1.0, -1.0, 1.0, -1.0),), p=0.0)
        with pytest.raises(ValueError):
            QuadFrequencySet(quads=((1.0, -1.0, 1.0, -1.0),), p=1.0)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="exactly one"):
            quad_frequency_set(2)
        with pytest.raises(ValueError, match="exactly one"):
            quad_frequency_set(2, quads=(0., 0., 0., 0.), xi=1.0)
        with pytest.raises(ValueError, match="finite"):
            quad_frequency_set(1, quads=(0.0, math.nan, 0.0, 0.0))
        with pytest.raises(ValueError, match="quadruples"):
            quad_frequency_set(3, quads=[(0., 0., 0., 0.)] * 2)


class TestBuildInterpolant4:
    def test_reproduces_cubic(self):
        kn = np.linspace(0.0, 2.0, 5)
        s = build_interpolant4(kn, quad_frequency_set(4, quads=(0., 0., 0., 0.)),
                               kn ** 3, 0.0, 12.0)
        grid = np.linspace(0.0, 2.0, 401)
        assert np.max(np.abs(s(grid) - grid ** 3)) <= 1e-11

    def test_reproduces_exponential_kernel(self):
        kn = np.array([0.0, 0.4, 0.9, 1.5])
        s = build_interpolant4(kn, quad_frequency_set(3, xi=1.0),
                               np.exp(kn), 1.0, math.exp(1.5))
        grid = np.linspace(0.0, 1.5, 301)
        rel = np.max(np.abs(s(grid) - np.exp(grid))) / math.exp(1.5)
        assert rel <= 1e-9

    def test_reproduces_confluent_kernel(self):
        # t exp(t) lies in the kernel for the quadruple (0, 0, 1, 1)
        kn = np.array([0.0, 0.4, 0.9, 1.5])
        f = lambda t: t * np.exp(t)
        df = lambda t: (1.0 + t) * np.exp(t)
        s = build_interpolant4(kn, quad_frequency_set(3, quads=(0., 0., 1., 1.)),
                               f(kn), df(0.0), df(1.5))
        grid = np.linspace(0.0, 1.5, 301)
        rel = np.max(np.abs(s(grid) - f(grid))) / np.max(np.abs(f(grid)))
        assert rel <= 1e-9

    def test_against_extended_precision_oracle(self):
        kn = [0.0, 0.3, 0.7, 1.2]
        quad = (0.3, -1.1, -1.0, 0.4)
        vals = [math.sin(x) for x in kn]
        s = build_interpolant4(np.array(kn), quad_frequency_set(3, quads=quad),
                               np.array(vals), 1.0, math.cos(1.2))
        oracle = mp_interp4(kn, [quad] * 3, vals, 1.0, math.cos(1.2))
        for t in np.linspace(0.0, 1.2, 61):
            for order in range(3):
                want = float(oracle(float(t), order))
                got = s(float(t), order=order)
                assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_interpolation_and_clamps(self):
        kn = np.array([0.0, 0.3, 0.7, 1.2])
        vals = np.array([0.2, -0.4, 1.1, 0.6])
        s = build_interpolant4(kn, quad_frequency_set(3, quads=(0.3, -1.1, -1.0, 0.4)),
                               vals, -2.0, 3.5)
        assert_allclose(s(kn), vals, atol=1e-11)
        assert_allclose(s(0.0, order=1), -2.0, atol=1e-10)
        assert_allclose(s(1.2, order=1), 3.5, atol=1e-10)

    def test_ill_conditioned_warns_and_recovers(self):
        kn = np.array([0.0, 0.5, 1.0])
        quad = (0.0, 0.001, 50.0, 49.999)
        f = np.exp(0.3 * kn)
        with pytest.warns(RuntimeWarning, match="condition"):
            s = build_interpolant4(kn, quad_frequency_set(2, quads=quad),
                                   f, 0.3, 0.3 * math.exp(0.3))
        assert np.max(np.abs(s(kn) - f)) <= 1e-9

    def test_spline_missing_its_data_is_refused(self):
        # the system-relative residual gate accepts this solution, whose
        # knot values are off by about 1e163; the data residual does not
        kn = 0.2 * np.arange(300)
        qs = quad_frequency_set(299, quads=(0.0, 0.001, 50.0, 49.999))
        with pytest.warns(RuntimeWarning, match="condition"):
            with pytest.raises(np.linalg.LinAlgError, match="data rows"):
                build_interpolant4(kn, qs, np.sin(kn), 1.0, math.cos(kn[-1]))

    def test_kernel_calls_do_not_grow_with_the_mesh(self, monkeypatch):
        calls = []
        kernel = expcore._opitz_corner

        def counting_kernel(x, sig):
            calls.append(x.shape)
            return kernel(x, sig)

        monkeypatch.setattr(expcore, "_opitz_corner", counting_kernel)
        counts = []
        for n in (17, 513):
            kn = np.linspace(0.0, math.pi, n)
            calls.clear()
            build_interpolant4(kn, quad_frequency_set(n - 1, quads=(1., 2., -1., -2.)),
                               np.sin(kn), 1.0, -1.0)
            counts.append(len(calls))
        assert counts[0] > 0
        assert counts[0] == counts[1]

    def test_grouped_quadruples_against_oracle(self):
        # intervals 0, 2, 4 share a quadruple over two distinct lengths;
        # interval 1 has a length of that group but its own quadruple;
        # interval 3 is near-confluent at a separation inside the range the
        # benchmark's confluent class draws from
        kn = [0.0, 0.25, 0.5, 1.0, 1.125, 1.625, 2.0]
        shared = (0.3, -1.1, -1.0, 0.4)
        quads = [shared, (1.0, 2.0, -1.0, -2.0), shared,
                 (1.0, 1.0 + 3e-8, -1.0, -1.0 - 3e-8), shared,
                 (2.0, -2.0, 2.0, -2.0)]
        vals = [math.sin(x) for x in kn]
        s = build_interpolant4(np.array(kn), quad_frequency_set(6, quads=quads),
                               np.array(vals), 1.0, math.cos(2.0))
        oracle = mp_interp4(kn, quads, vals, 1.0, math.cos(2.0))
        for t in np.linspace(0.0, 2.0, 81):
            for order in range(3):
                want = float(oracle(float(t), order))
                got = s(float(t), order=order)
                assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_validation(self):
        kn = np.linspace(0.0, 1.0, 4)
        qs = quad_frequency_set(3, quads=(0., 0., 0., 0.))
        with pytest.raises(ValueError, match="values"):
            build_interpolant4(kn, qs, np.zeros(3), 0.0, 0.0)
        with pytest.raises(ValueError, match="finite"):
            build_interpolant4(kn, qs, np.array([0., np.nan, 0., 0.]), 0.0, 0.0)
        with pytest.raises(ValueError, match="finite"):
            build_interpolant4(kn, qs, np.zeros(4), math.inf, 0.0)
        with pytest.raises(ValueError, match="quadruples"):
            build_interpolant4(kn, quad_frequency_set(2, quads=(0., 0., 0., 0.)),
                               np.zeros(4), 0.0, 0.0)


class TestEvaluationRegressions:
    # small frequencies and near-coincident pairs, where evaluating through
    # partial fractions of the fundamental functions lost every digit
    @pytest.mark.parametrize("n, func, quad, oracle", [
        (9, "cos", (1e-6, 2e-6, -1e-6, -2e-6), True),
        (513, "sin", (1.0, 1.0 + 3e-8, -1.0, -1.0 - 3e-8), False),
    ], ids=["small-frequency", "near-confluent"])
    def test_spline_keeps_its_promises(self, n, func, quad, oracle):
        tf = get_test_function(func)
        a, b = tf.default_domain
        kn = np.linspace(a, b, n)
        qs = quad_frequency_set(n - 1, quads=quad)
        d1 = tf.evaluators[1]
        s = build_interpolant4(kn, qs, tf(kn), float(d1(np.array(a))),
                               float(d1(np.array(b))))
        if oracle:
            ref = mp_interp4(list(kn), [quad] * (n - 1), list(tf(kn)),
                             float(d1(np.array(a))), float(d1(np.array(b))))
            for t in np.linspace(a, b, 41):
                for order in range(3):
                    assert_allclose(s(float(t), order=order),
                                    float(ref(float(t), order)),
                                    rtol=1e-10, atol=1e-12)
        scale = 1.0 + np.max(np.abs(s.coeffs))
        assert np.max(smoothness_report(s)) <= 1e-10 * scale
        cert = error_bound4(kn, qs, None, max_abs_L(tf, kn, qs.quads))
        assert measure_error(tf, s, kn) <= cert.bound


class TestTaylorTable:
    # one interval long enough for several sub-pieces, one short; the
    # quadruples are not sorted, so the prefixes are the ones as given
    KNOTS = np.array([0.0, 1.3, 1.5])
    QUADS = [(2.0, -2.0, 0.0, 0.7), (0.5, -1.5, 3.0, 0.0)]

    @classmethod
    def _unit_spline(cls, k):
        coeffs = np.zeros((2, 4))
        coeffs[:, k] = 1.0
        return spline_from_coefficients(cls.KNOTS, cls.QUADS, coeffs)

    def test_cubic_table_is_monomial(self):
        s = spline_from_coefficients(np.array([0.0, 2.0]),
                                     [(0.0, 0.0, 0.0, 0.0)], [[0, 0, 0, 1]])
        want = np.zeros_like(s.taylor)
        want[3] = 1.0 / 6.0
        assert np.array_equal(s.taylor, want)

    def test_unit_coefficients_give_prefix_functions(self):
        for k in range(4):
            s = self._unit_spline(k)
            assert s.starts.size > 2
            for j in range(2):
                ts = np.linspace(self.KNOTS[j], self.KNOTS[j + 1], 17)[:-1]
                assert_allclose(s(ts), fundamental_eval(
                    self.QUADS[j][:k + 1], ts - self.KNOTS[j]),
                    rtol=1e-13, atol=1e-15, err_msg=f"k={k} j={j}")

    def test_near_confluent_prefixes_against_oracle(self):
        quad = (1.0, -1.0 - 1e-12, 1.0 + 1e-12, -1.0)
        ts = np.linspace(0.0, 1.0, 9)
        for k in range(4):
            coeffs = np.zeros((1, 4))
            coeffs[0, k] = 1.0
            s = spline_from_coefficients(np.array([0.0, 1.0]), [quad], coeffs)
            want = [float(mp_phi(quad[:k + 1], t)) for t in ts]
            assert_allclose(s(ts), want, rtol=1e-13, atol=1e-16)

    def test_derivatives_match_fundamental_derivative(self):
        for k in range(4):
            s = self._unit_spline(k)
            for j in range(2):
                ts = np.linspace(self.KNOTS[j], self.KNOTS[j + 1], 17)[:-1]
                for order in range(4):
                    want = fundamental_derivative(self.QUADS[j][:k + 1],
                                                  ts - self.KNOTS[j], order)
                    assert_allclose(s(ts, order=order), want, rtol=1e-12,
                                    atol=1e-13, err_msg=f"{k} {j} {order}")

    def test_table_is_linear_in_coefficients(self):
        rng = np.random.default_rng(3)
        c1, c2 = rng.standard_normal((2, 2, 4))
        s1, s2, s12 = (spline_from_coefficients(self.KNOTS, self.QUADS, c)
                       for c in (c1, c2, c1 + 2.0 * c2))
        ts = np.linspace(0.0, 1.5, 31)
        assert_allclose(s12(ts), s1(ts) + 2.0 * s2(ts), rtol=1e-13,
                        atol=1e-14)


class TestEvalAndSmoothness:
    @staticmethod
    def _example():
        kn = np.array([0.0, 0.3, 0.7, 1.2])
        qs = quad_frequency_set(3, quads=(0.3, -1.1, -1.0, 0.4))
        return build_interpolant4(kn, qs, np.sin(kn), 1.0, math.cos(1.2))

    def test_second_derivative_vs_finite_differences(self):
        s = self._example()
        eps = 1e-6
        for t in (0.15, 0.5, 0.95):
            fd = (s(t + eps, order=1) - s(t - eps, order=1)) / (2 * eps)
            assert_allclose(s(t, order=2), fd, rtol=1e-5)

    def test_third_derivative_supported(self):
        s = self._example()
        eps = 1e-6
        fd = (s(0.5 + eps, order=2) - s(0.5 - eps, order=2)) / (2 * eps)
        assert_allclose(s(0.5, order=3), fd, rtol=1e-5)

    def test_eval_validation(self):
        s = self._example()
        with pytest.raises(ValueError, match="order"):
            spline4_eval(s, 0.5, order=4)
        with pytest.raises(ValueError, match="order"):
            s(0.5, order=4)
        with pytest.raises(ValueError, match="outside"):
            s(1.3)
        with pytest.raises(ValueError, match="outside"):
            s(-0.1)

    def test_smoothness_of_built_spline(self):
        s = self._example()
        rep = smoothness_report(s)
        assert rep.shape == (2, 3)
        scale = 1.0 + np.max(np.abs(s.coeffs))
        assert np.max(rep) <= 1e-9 * scale

    def test_corrupted_coefficients_reported(self):
        s = self._example()
        bad = s.coeffs.copy()
        bad[1, 2] += 1e-3
        broken = spline_from_coefficients(s.partition, s.quads, bad)
        assert np.max(smoothness_report(broken)) > 1e-6

    def test_single_interval_empty_report(self):
        kn = np.array([0.0, 1.0])
        s = build_interpolant4(kn, quad_frequency_set(1, quads=(0., 0., 0., 0.)),
                               np.array([0.0, 1.0]), 1.0, 1.0)
        assert smoothness_report(s).shape == (0, 3)

    def test_serialization_round_trip(self):
        s = self._example()
        clone = spline_from_coefficients(s.partition, s.quads, s.coeffs)
        grid = np.linspace(0.0, 1.2, 101)
        assert np.array_equal(s(grid), clone(grid))


class TestOrthogonality:
    def test_symmetric_sin(self):
        kn = np.linspace(0.0, math.pi, 5)
        s = build_interpolant4(kn, quad_frequency_set(4, xi=1.0),
                               np.sin(kn), 1.0, -1.0)
        basis = build_hat_basis(kn, [(-1.0, 1.0)] * 4)
        fd = lambda ts: (np.sin(ts), np.cos(ts), -np.sin(ts))
        assert residual_orthogonality(fd, s, basis, 0.0) <= 1e-7

    def test_polynomial_quartic(self):
        kn = np.linspace(0.0, 1.0, 4)
        s = build_interpolant4(kn, quad_frequency_set(3, quads=(0., 0., 0., 0.)),
                               kn ** 4 / 24.0, 0.0, 1.0 / 6.0)
        basis = build_hat_basis(kn, [(0.0, 0.0)] * 3)
        fd = lambda ts: (ts ** 4 / 24.0, ts ** 3 / 6.0, ts ** 2 / 2.0)
        assert residual_orthogonality(fd, s, basis, 0.0) <= 1e-7

    def test_kernel_function_gives_zero(self):
        kn = np.linspace(0.0, 1.5, 4)
        s = build_interpolant4(kn, quad_frequency_set(3, xi=1.0),
                               np.exp(kn), 1.0, math.exp(1.5))
        basis = build_hat_basis(kn, [(-1.0, 1.0)] * 3)
        fd = lambda ts: (np.exp(ts), np.exp(ts), np.exp(ts))
        assert residual_orthogonality(fd, s, basis, 0.0) <= 1e-11

    def test_weighted_case(self):
        # p = 0.7 couples the pairs (-1.1, 0.3) and (-1.0, 0.4)
        kn = np.array([0.0, 0.3, 0.7, 1.2])
        s = build_interpolant4(kn, quad_frequency_set(3, quads=(0.3, -1.1, -1.0, 0.4)),
                               np.sin(kn), 1.0, math.cos(1.2))
        basis = build_hat_basis(kn, [(-1.1, 0.3)] * 3)
        fd = lambda ts: (np.sin(ts), np.cos(ts), -np.sin(ts))
        assert residual_orthogonality(fd, s, basis, 0.7) <= 1e-7

    def test_basis_mismatch_rejected(self):
        kn = np.linspace(0.0, math.pi, 5)
        s = build_interpolant4(kn, quad_frequency_set(4, xi=1.0),
                               np.sin(kn), 1.0, -1.0)
        basis = build_hat_basis(kn, [(0.0, 0.0)] * 4)
        fd = lambda ts: (np.sin(ts), np.cos(ts), -np.sin(ts))
        with pytest.raises(ValueError, match="does not match"):
            residual_orthogonality(fd, s, basis, 0.0)

    def test_partition_mismatch_rejected(self):
        kn = np.linspace(0.0, math.pi, 5)
        s = build_interpolant4(kn, quad_frequency_set(4, xi=1.0),
                               np.sin(kn), 1.0, -1.0)
        other = build_hat_basis(np.linspace(0.0, math.pi, 6), [(-1.0, 1.0)] * 5)
        fd = lambda ts: (np.sin(ts), np.cos(ts), -np.sin(ts))
        with pytest.raises(ValueError, match="partitions"):
            residual_orthogonality(fd, s, other, 0.0)


class TestErrorBound4:
    def test_kernel_calls_do_not_grow_with_the_mesh(self, monkeypatch):
        # a power-of-two step makes every span, hence every (pair, length)
        # key, bitwise equal; the first call fills the interval-constant
        # cache, the second is counted
        calls = []
        kernel = expcore._opitz_corner

        def counting_kernel(x, sig):
            calls.append(x.shape)
            return kernel(x, sig)

        monkeypatch.setattr(expcore, "_opitz_corner", counting_kernel)
        counts = []
        for n in (17, 513):
            kn = 0.125 * np.arange(n)
            qs = quad_frequency_set(n - 1, quads=(1.0, 2.0, -1.0, -2.0))
            error_bound4(kn, qs, None, 1.0)
            calls.clear()
            error_bound4(kn, qs, None, 1.0)
            counts.append(len(calls))
        assert counts[0] > 0
        assert counts[0] == counts[1]

    def test_one_cold_search_per_certificate(self, monkeypatch):
        # both pairings' interval constants are searched together, and the
        # hats' Lebesgue sup reads the same-sign pair (1, 2) from the cache
        searches = []
        search = errbound2._bracket_search

        def counting_search(lam0, lam1):
            searches.append(lam0.size)
            return search(lam0, lam1)

        monkeypatch.setattr(errbound2, "_m_unit_cache", {})
        monkeypatch.setattr(errbound2, "_bracket_search", counting_search)
        kn = np.array([0.0, 0.3, 0.7, 1.2])
        error_bound4(kn, quad_frequency_set(3, quads=(1.0, 2.0, -1.0, -2.0)),
                     None, 1.0)
        assert searches == [6]

    def test_symmetric_certificate(self):
        kn = np.linspace(0.0, math.pi, 9)
        cert = error_bound4(kn, quad_frequency_set(8, xi=1.0), 0.0, 1.0)
        delta = math.pi / 8.0
        assert cert.norm_bound == 4.0
        assert_allclose(cert.constant, 5.0 / 64.0 * delta ** 4, rtol=1e-13)
        assert_allclose(cert.bound, 5.0 / 64.0 * delta ** 4, rtol=1e-13)
        assert_allclose(cert.m2_max, delta ** 2 / 8.0, rtol=1e-13)

    def test_polynomial_certificate(self):
        kn = np.linspace(0.0, 1.0, 5)
        cert = error_bound4(kn, quad_frequency_set(4, quads=(0., 0., 0., 0.)),
                            0.0, 2.0)
        assert cert.norm_bound == 3.0
        assert_allclose(cert.constant, 0.25 ** 4 / 16.0, rtol=1e-13)
        assert_allclose(cert.bound, 2.0 * 0.25 ** 4 / 16.0, rtol=1e-13)

    def test_constant_identity_all_tiers(self):
        kn = np.linspace(0.0, 1.2, 4)
        for kwargs in (dict(xi=1.0), dict(quads=(0., 0., 0., 0.)),
                       dict(quads=(0.3, -1.1, -1.0, 0.4))):
            cert = error_bound4(kn, quad_frequency_set(3, **kwargs), None, 1.0)
            assert_allclose(cert.constant,
                            (1.0 + cert.norm_bound) * cert.m2_max * cert.m0_max,
                            rtol=1e-14)

    def test_generic_certificate_parts(self):
        kn = np.array([0.0, 0.3, 0.7, 1.2])
        quad = (0.3, -1.1, -1.0, 0.4)
        cert = error_bound4(kn, quad_frequency_set(3, quads=quad), None, 1.0)
        basis = build_hat_basis(kn, [(-1.1, 0.3)] * 3)
        assert_allclose(cert.norm_bound, operator_norm_bound(basis, 0.7),
                        rtol=1e-12)
        m2 = max(M_constant(-1.1, 0.3, kn[j], kn[j + 1]).value
                 for j in range(3))
        m0 = max(M_constant(-1.0, 0.4, kn[j], kn[j + 1]).value
                 for j in range(3))
        assert_allclose(cert.m2_max, m2, rtol=1e-12)
        assert_allclose(cert.m0_max, m0, rtol=1e-12)

    def test_generic_bound_is_sound(self):
        kn = np.array([0.0, 0.3, 0.7, 1.2])
        quad = (0.3, -1.1, -1.0, 0.4)
        s = build_interpolant4(kn, quad_frequency_set(3, quads=quad),
                               np.sin(kn), 1.0, math.cos(1.2))
        grid = np.linspace(0.0, 1.2, 4001)
        derivs = [np.sin(grid), np.cos(grid), -np.sin(grid), -np.cos(grid),
                  np.sin(grid)]
        max_lf = float(np.max(np.abs(operator_apply(quad, derivs))))
        cert = error_bound4(kn, quad_frequency_set(3, quads=quad), None, max_lf)
        empirical = np.max(np.abs(s(grid) - np.sin(grid)))
        assert empirical <= cert.bound

    def test_zero_source_bound(self):
        kn = np.linspace(0.0, 1.0, 3)
        cert = error_bound4(kn, quad_frequency_set(2, xi=2.0), 0.0, 0.0)
        assert cert.bound == 0.0

    def test_validation(self):
        kn = np.linspace(0.0, 1.0, 3)
        with pytest.raises(ValueError, match="nonnegative"):
            error_bound4(kn, quad_frequency_set(2, xi=1.0), 0.0, -1.0)
        with pytest.raises(ValueError, match="conflicting"):
            error_bound4(kn, quad_frequency_set(2, xi=1.0), 1.0, 1.0)

    def test_is_frozen_record(self):
        kn = np.linspace(0.0, 1.0, 3)
        cert = error_bound4(kn, quad_frequency_set(2, xi=1.0), 0.0, 1.0)
        assert isinstance(cert, BoundCertificate)
        with pytest.raises(AttributeError):
            cert.bound = 0.0


class TestConvergenceAndDerivativeBound:
    def test_fourth_order_convergence(self):
        errs = []
        for n in (5, 9, 17):
            kn = np.linspace(0.0, math.pi, n)
            s = build_interpolant4(
                kn, quad_frequency_set(n - 1, quads=(0., 0., 0., 0.)),
                np.sin(kn), 1.0, -1.0)
            grid = np.linspace(0.0, math.pi, 4001)
            e = np.max(np.abs(s(grid) - np.sin(grid)))
            delta = math.pi / (n - 1)
            assert e <= 5.0 / 64.0 * delta ** 4
            errs.append(e)
        for coarse, fine in zip(errs, errs[1:]):
            assert 12.0 <= coarse / fine <= 20.0

    def test_bound_uniform_in_frequency(self):
        kn = np.linspace(0.0, math.pi, 9)
        grid = np.linspace(0.0, math.pi, 4001)
        for xi in (0.0, 0.5, 1.0, 2.0, 5.0):
            s = build_interpolant4(kn, quad_frequency_set(8, xi=xi),
                                   np.sin(kn), 1.0, -1.0)
            err = np.max(np.abs(s(grid) - np.sin(grid)))
            assert err <= 5.0 / 64.0 * (math.pi / 8.0) ** 4 * (1 + xi ** 2) ** 2

    def test_derivative_level_bound(self):
        kn = np.linspace(0.0, math.pi, 9)
        s = build_interpolant4(kn, quad_frequency_set(8, xi=1.0),
                               np.sin(kn), 1.0, -1.0)
        cap = second_order_error_bound(kn, quad_frequency_set(8, xi=1.0),
                                       0.0, 4.0)
        assert cap == 20.0
        grid = np.linspace(0.0, math.pi, 2001)
        measured = np.max(np.abs(
            (-np.sin(grid) - np.sin(grid)) - (s(grid, order=2) - s(grid))))
        assert measured <= cap

    def test_derivative_bound_polynomial(self):
        kn = np.linspace(0.0, 1.0, 5)
        qs = quad_frequency_set(4, quads=(0., 0., 0., 0.))
        s = build_interpolant4(kn, qs, kn ** 4 / 24.0, 0.0, 1.0 / 6.0)
        cap = second_order_error_bound(kn, qs, 0.0, 1.0)
        assert cap == 4.0
        grid = np.linspace(0.0, 1.0, 2001)
        measured = np.max(np.abs(grid ** 2 / 2.0 - s(grid, order=2)))
        assert measured <= cap
