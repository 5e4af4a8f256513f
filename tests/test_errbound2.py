import math
import re
import warnings
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from expspline import errbound2
from expspline.errbound2 import (
    M_constants,
    _bracket_search,
    green_eval,
    interp2_error_bound,
    mstar,
    omega_eval,
    omega_via_green,
)
from expspline.hatbasis import Partition, build_hat_basis
from expspline.l2proj import operator_norm_bound, project

from oracles import mp_omega


class TestOmega:
    def test_symmetric_unit_example(self):
        # omega for (1,-1) on [0,1] at the midpoint: 1 - 2 sinh(1/2)/sinh(1)
        got = omega_eval(1.0, -1.0, 0.0, 1.0, 0.5)
        assert_allclose(got, 0.11318111602992609134, rtol=1e-13)

    def test_polynomial_case_is_parabola(self):
        ts = np.linspace(0.0, 1.0, 11)
        got = omega_eval(0.0, 0.0, 0.0, 1.0, ts)
        assert_allclose(got, 0.5 * ts * (1.0 - ts), rtol=1e-14, atol=1e-16)

    def test_boundary_values_exact_zero(self):
        for lam in ((0.7, 2.0), (-3.0, 1.0), (0.0, 5.0), (-2.0, -2.0)):
            assert omega_eval(*lam, 1.5, 2.75, 1.5) == 0.0
            assert omega_eval(*lam, 1.5, 2.75, 2.75) == 0.0

    def test_positive_inside(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            lam0, lam1 = np.sort(rng.uniform(-6.0, 6.0, 2))
            a = rng.uniform(-2.0, 2.0)
            b = a + rng.uniform(0.2, 2.0)
            ts = np.linspace(a, b, 41)[1:-1]
            assert np.all(omega_eval(lam0, lam1, a, b, ts) > 0.0)

    def test_against_boundary_solve_oracle(self):
        cases = [(1.0, -1.0, 0.0, 1.0), (2.0, 3.0, -1.0, 0.5),
                 (0.0, 4.0, 0.3, 1.9), (-2.0, -1.0, 0.0, 2.0),
                 (0.0, 0.0, -1.0, 1.0)]
        for lam0, lam1, a, b in cases:
            ts = np.linspace(a, b, 9)[1:-1]
            ref = [float(mp_omega(lam0, lam1, a, b, t)) for t in ts]
            assert_allclose(omega_eval(lam0, lam1, a, b, ts), ref,
                            rtol=1e-11, atol=1e-15)

    def test_differential_equation_finite_differences(self):
        # L omega = -1 checked with fourth order central stencils
        for lam0, lam1, a, b in [(1.0, -1.0, 0.0, 1.0), (0.5, 2.5, 0.0, 1.5),
                                 (-3.0, 0.0, 1.0, 2.2)]:
            span = b - a
            h = 1e-3 * span
            for t in np.linspace(a + 5 * h, b - 5 * h, 7):
                f = omega_eval(lam0, lam1, a, b,
                               np.array([t - 2 * h, t - h, t, t + h,
                                         t + 2 * h]))
                d1 = (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * h)
                d2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) \
                    / (12 * h * h)
                residual = d2 - (lam0 + lam1) * d1 + lam0 * lam1 * f[2]
                assert abs(residual + 1.0) < 1e-6

    def test_mixed_batch_equals_single_points(self):
        # straddling, same-sign, near-confluent and plateau pairs, each at
        # both ends and inside its interval, in one _omega call and alone
        pairs = [(-1.0, 2.0), (0.5, 2.0), (-3.0, -1.0), (1.3, 1.3 + 1e-9),
                 (-40.0, 50.0), (-60.0, 60.0), (0.0, 0.0)]
        lam0, lam1, span, tau = [], [], [], []
        for (l0, l1), h in zip(pairs, (1.0, 0.7, 1.3, 0.4, 1.0, 2.0, 0.9)):
            for frac in (0.0, 0.1, 0.37, 0.5, 0.93, 1.0):
                lam0.append(l0)
                lam1.append(l1)
                span.append(h)
                tau.append(frac * h)
        lam0, lam1, span, tau = (np.array(x) for x in
                                 (lam0, lam1, span, tau))
        order = np.random.default_rng(5).permutation(tau.size)
        lam0, lam1, span, tau = (x[order] for x in (lam0, lam1, span, tau))
        val, slope = errbound2._omega(lam0, lam1, span, tau, tau - span)
        for i in range(tau.size):
            one = slice(i, i + 1)
            v, d = errbound2._omega(lam0[one], lam1[one], span[one],
                                    tau[one], tau[one] - span[one])
            assert (val[i], slope[i]) == (v[0], d[0])

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            omega_eval(0.0, 0.0, 1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            omega_eval(0.0, 0.0, 0.0, 1.0, 2.0)


class TestGreen:
    def test_polynomial_diagonal_value(self):
        assert_allclose(green_eval(0.0, 0.0, 0.0, 1.0, 0.5, 0.5), -0.25,
                        rtol=1e-14)

    def test_nonpositive_everywhere(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            lam0, lam1 = np.sort(rng.uniform(-5.0, 5.0, 2))
            a, b = 0.0, rng.uniform(0.3, 2.0)
            ts = rng.uniform(a, b, 12)
            ss = rng.uniform(a, b, 12)
            assert np.all(green_eval(lam0, lam1, a, b, ts, ss) <= 0.0)

    def test_branches_agree_on_diagonal(self):
        lam0, lam1, a, b = -1.5, 2.5, 0.0, 1.3
        ts = np.linspace(a, b, 9)
        lower = green_eval(lam0, lam1, a, b, ts, ts)
        span = b - a
        from expspline.expcore import fundamental_eval
        upper = fundamental_eval((lam0, lam1), ts - a) * fundamental_eval(
            (-lam0, -lam1), ts - b) / fundamental_eval((lam0, lam1), span)
        assert_allclose(lower, upper, rtol=1e-12, atol=1e-15)

    def test_omega_is_integral_of_green(self):
        for lam0, lam1, a, b in [(1.0, -1.0, 0.0, 1.0), (0.5, 2.0, -1.0, 0.4),
                                 (0.0, 0.0, 0.0, 2.0)]:
            for t in np.linspace(a, b, 5):
                ref = omega_via_green(lam0, lam1, a, b, t)
                assert_allclose(omega_eval(lam0, lam1, a, b, t), ref,
                                rtol=1e-9, atol=1e-12)

    def test_straddling_pair_diagonal_dominates_omega(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            lam0 = -rng.uniform(0.0, 5.0)
            lam1 = rng.uniform(0.0, 5.0)
            a = rng.uniform(-1.0, 1.0)
            b = a + rng.uniform(0.2, 2.0)
            ts = np.linspace(a, b, 17)[1:-1]
            omega = omega_eval(lam0, lam1, a, b, ts)
            diag = (b - a) * np.abs(green_eval(lam0, lam1, a, b, ts, ts))
            assert np.all(omega <= diag * (1.0 + 1e-12))

    def test_scaled_diagonal_quarter_bound(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            lam0, lam1 = np.sort(rng.uniform(-8.0, 8.0, 2))
            a = rng.uniform(-1.0, 1.0)
            b = a + rng.uniform(0.1, 2.0)
            ts = np.linspace(a, b, 33)
            diag = (b - a) * np.abs(green_eval(lam0, lam1, a, b, ts, ts))
            assert np.max(diag) <= 0.25 * (b - a) ** 2 * (1.0 + 1e-12)


class TestMstar:
    def test_value_at_zero(self):
        assert mstar(0.0) == 0.125

    def test_frozen_values(self):
        assert_allclose(mstar(2.0), 0.087986431584028650106, rtol=1e-14)
        assert_allclose(mstar(0.01), 0.12499869792990437971, rtol=1e-14)

    def test_even(self):
        assert mstar(-3.7) == mstar(3.7)

    def test_series_branch_continuous(self):
        left = mstar(1e-4 * (1.0 - 1e-9))
        right = mstar(1e-4 * (1.0 + 1e-9))
        assert_allclose(left, right, rtol=1e-12)

    def test_large_argument_tail(self):
        assert_allclose(mstar(1e4), 1e-8, rtol=1e-12)
        assert mstar(2000.0) > 0.0

    def test_bounded_by_eighth(self):
        xs = np.linspace(0.0, 50.0, 501)
        vals = np.array([mstar(x) for x in xs])
        assert np.all(vals <= 0.125)
        assert np.all(vals > 0.0)


@lru_cache(maxsize=None)
def _mp_omega_peak(lam0, lam1):
    """Maximum of the mp_omega oracle on [0, 1] and its abscissa: the best
    of 63 equispaced samples, refined by golden-section search in 50-digit
    arithmetic between its two neighbours, which bracket the maximum since
    omega is unimodal."""
    f = lambda t: mp_omega(lam0, lam1, 0.0, 1.0, t)
    xs = [mp.mpf(k) / 64 for k in range(1, 64)]
    k = max(range(len(xs)), key=lambda i: f(xs[i]))
    lo, hi = mp.mpf(k) / 64, mp.mpf(k + 2) / 64
    g = (mp.sqrt(5) - 1) / 2
    c, d = hi - g * (hi - lo), lo + g * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(90):
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - g * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + g * (hi - lo)
            fd = f(d)
    return (float(fc), float(c)) if fc > fd else (float(fd), float(d))


def _mp_omega_max(lam0, lam1):
    return _mp_omega_peak(lam0, lam1)[0]


def _mp_critical_point(lam0, lam1):
    """g[l0, l1] for g(x) = log(expm1(x)/x) in 60-digit arithmetic, g'(l)
    for a double pair and 1/2 + (l0 + l1)/24 next to zero."""
    with mp.workdps(60):
        g = lambda x: mp.log(mp.expm1(x) / x) if x else mp.mpf(0)
        l0, l1 = mp.mpf(lam0), mp.mpf(lam1)
        if max(abs(l0), abs(l1)) < 1e-20:
            return float(0.5 + (l0 + l1) / 24)
        if l0 != l1:
            return float((g(l1) - g(l0)) / (l1 - l0))
        return float(1 / -mp.expm1(-l0) - 1 / l0)


@pytest.fixture
def omega_calls(monkeypatch):
    """Number of points of each _omega call made during the test."""
    calls = []
    real = errbound2._omega

    def counting(*args):
        calls.append(args[3].size)
        return real(*args)

    monkeypatch.setattr(errbound2, "_omega", counting)
    return calls


def _verify4_intervals(seed, n=513):
    """Pairs and intervals of a verify4-style order-4 certificate: both
    pairings of a generic quadruple (a, b, -a, -b) on every interval of a
    uniform mesh of [0, pi], whose spans differ in their last bits."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.5, 2.0)
    b = a + rng.uniform(0.5, 2.0)
    knots = np.linspace(0.0, math.pi, n)
    pairs = [(a, b)] * (n - 1) + [(-a, -b)] * (n - 1)
    return pairs, np.tile(knots[:-1], 2), np.tile(knots[1:], 2)


def _certify2_intervals(seed, n=33):
    """Pairs and intervals of a certify2-style order-2 certificate: lengths
    varying by up to a factor three over [-1, 1] and a pair l0 < l1 drawn
    from [-3, 3] for every interval."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(1.0, 3.0, n - 1)
    knots = -1.0 + 2.0 * np.concatenate([[0.0], np.cumsum(w) / w.sum()])
    knots[-1] = 1.0
    pairs = [tuple(np.sort(rng.uniform(-3.0, 3.0, 2))) for _ in range(n - 1)]
    return pairs, knots[:-1], knots[1:]


class TestMConstant:
    def test_symmetric_matches_closed_form(self):
        for xi_span in (0.01, 0.5, 2.0, 10.0):
            span = 0.7
            xi = xi_span / span
            value = M_constants([(-xi, xi)], [0.0], [span])[0]
            assert_allclose(value, span * span * mstar(xi_span), rtol=1e-10)

    def test_polynomial_value(self):
        value = M_constants([(0.0, 0.0)], [0.0], [1.0])[0]
        assert_allclose(value, 0.125, rtol=1e-15)
        assert value >= 0.125

    def test_translation_invariance(self):
        base = M_constants([(1.0, 2.0)], [0.0], [0.3])[0]
        moved = M_constants([(1.0, 2.0)], [5.0], [5.3])[0]
        assert_allclose(moved, base, rtol=1e-13)

    def test_quarter_square_bound_for_straddling_pairs(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            lam0 = -rng.uniform(0.0, 4.0)
            lam1 = rng.uniform(0.0, 4.0)
            span = rng.uniform(0.1, 2.0)
            value = M_constants([(lam0, lam1)], [0.0], [span])[0]
            assert value <= 0.25 * span * span * (1.0 + 1e-10)

    def test_matches_direct_omega_maximum(self):
        value = M_constants([(-1.0, 3.0)], [0.0], [1.2])[0]
        ts = np.linspace(0.0, 1.2, 20001)[1:-1]
        brute = np.max(omega_eval(-1.0, 3.0, 0.0, 1.2, ts))
        assert_allclose(value, brute, rtol=1e-7)
        assert value >= brute - 1e-12

    # same-sign, straddling, near-confluent, zero-frequency and plateau
    # keys.  Near the middle of (-60, 60) omega varies by less than its
    # rounding over about a hundred of the scan points, so the last clause
    # compares rounding noise there; it holds because omega_eval uses its
    # closed form on that plateau, with rounding below an ulp, where the
    # product of fundamental functions spreads about 15 ulps.  The last
    # three keys have |lambda*span| of several hundred: the oracle raises its
    # precision with that load, and (-300, 250) is a wide plateau.
    ORACLE_KEYS = [(1.0, 2.0, 1e-13), (-3.0, -0.5, 1e-13),
                   (-1.0, 3.0, 1e-13), (-2.0, 2.0, 1e-13),
                   (1.0, 1.0 + 1e-9, 1e-13), (0.0, 2.5, 1e-13),
                   (-60.0, 60.0, 1e-13), (-80.0, 3.0, 1e-13),
                   (-300.0, 250.0, 1e-13), (300.0, 300.0, 1e-13),
                   (-300.0, -300.0, 1e-13)]

    @pytest.mark.parametrize("lam0, lam1, value_rtol", ORACLE_KEYS)
    def test_matches_oracle_maximum(self, lam0, lam1, value_rtol):
        value = M_constants([(lam0, lam1)], [0.0], [1.0])[0]
        best = _mp_omega_max(lam0, lam1)
        start = errbound2._critical_point(np.array([lam0]), np.array([lam1]))
        found = float(mp_omega(lam0, lam1, 0.0, 1.0, start[0]))
        assert_allclose(found, best, rtol=1e-13)
        assert_allclose(value, best, rtol=value_rtol)
        assert value >= best
        ts = np.linspace(0.0, 1.0, 20001)[1:-1]
        brute = np.max(omega_eval(lam0, lam1, 0.0, 1.0, ts))
        assert value >= brute * (1.0 - 4.0 * np.finfo(float).eps)

    def test_batched_search_equals_one_key_search(self):
        # keys of every kind, including ones whose brackets need a
        # different number of rounds, searched together and one by one
        keys = np.array([(l0, l1) for l0, l1, _ in self.ORACLE_KEYS]
                        + [(-0.3, 7.0), (4.0, 4.0), (-12.0, -0.1),
                           (0.0, 0.0), (2.5, -2.5)])
        values = _bracket_search(keys[:, 0], keys[:, 1])
        for (l0, l1), value in zip(keys, values):
            assert _bracket_search(np.array([l0]), np.array([l1]))[0] == value

    def test_search_returns_one_array(self):
        # the bound of each key and nothing else: no abscissa comes back
        got = _bracket_search(np.array([-1.0, 0.0]), np.array([3.0, 0.0]))
        assert isinstance(got, np.ndarray)
        assert got.shape == (2,) and got.dtype == float

    @pytest.mark.parametrize("make", [_verify4_intervals,
                                      _certify2_intervals])
    def test_search_points_per_cold_key(self, make, omega_calls):
        # every row closes at its critical point: one call, three points
        # per row (the coarse round and Newton steps took up to 40)
        pairs, lefts, rights = make(3)
        M_constants(pairs, lefts, rights)
        assert omega_calls == [3 * len(pairs)]

    @pytest.mark.parametrize("lam0, lam1, value_rtol", [
        key for key in ORACLE_KEYS
        if key[:2] not in ((-60.0, 60.0), (-300.0, 250.0))])
    def test_critical_point_is_oracle_argmax(self, lam0, lam1, value_rtol):
        # the plateau keys are left out: there omega is flat to far below
        # an ulp over a wide range, so the oracle's arg-max is not defined
        start = errbound2._critical_point(np.array([lam0]), np.array([lam1]))
        assert abs(start[0] - _mp_omega_peak(lam0, lam1)[1]) <= 1e-9

    def test_critical_point_lies_inside(self):
        # double pairs, zero, near-confluent pairs and |lambda| up to 1400,
        # against the closed form in 60 digits: past hi - lo of about 700
        # the start is taken in log form
        edge = [0.0, 1e-300, 1e-9, 0.5, 1.0, 1.0 + 1e-9, 30.0, 300.0, 700.0,
                710.0, 1400.0]
        lams = sorted({sign * x for x in edge for sign in (1.0, -1.0)})
        rng = np.random.default_rng(5)
        keys = [(a, b) for a in lams for b in lams] \
            + [tuple(rng.uniform(-700.0, 700.0, 2)) for _ in range(40)] \
            + [tuple(rng.uniform(-1400.0, 1400.0, 2)) for _ in range(40)] \
            + [(1.0, 1.0002), (-3.0, -3.0 + 1e-5), (250.0, 250.001)]
        lam0, lam1 = np.array(keys).T
        start = errbound2._critical_point(lam0, lam1)
        assert np.all((start > 0.0) & (start < 1.0))
        want = [_mp_critical_point(a, b) for a, b in keys]
        assert_allclose(start, want, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("start", [0.02, 0.98])
    def test_wrong_start_is_refused(self, start, omega_calls, monkeypatch):
        # a start far from the maximum fails the one-call check, which is a
        # typed refusal naming the key: there is no second search
        monkeypatch.setattr(errbound2, "_critical_point",
                            lambda lam0, lam1: np.full(lam0.shape, start))
        with pytest.raises(ArithmeticError, match=re.escape(
                f"critical point {start!r} of the unit-interval pair "
                f"(-2.0, 2.0)")):
            _bracket_search(np.array([-2.0, 1.0]), np.array([2.0, 2.0]))
        assert len(omega_calls) == 1

    def test_every_key_closes_at_its_start(self, omega_calls):
        # a derandomized sweep of unit-interval pairs up to |lambda| = 1400,
        # of either sign, same-sign and near-confluent: every key closes in
        # the one _omega call; a maximum past the double range, as for
        # large same-sign pairs, reads inf, which M_constants refuses by
        # OverflowError
        rng = np.random.default_rng(24)
        mixed = rng.uniform(-1400.0, 1400.0, (4000, 2))
        same = rng.uniform(1.0, 1400.0, (2000, 2)) \
            * rng.choice([-1.0, 1.0], (2000, 1))
        near = rng.uniform(-1400.0, 1400.0, (1000, 1)) \
            + [0.0, 1e-7] * rng.uniform(0.0, 1.0, (1000, 1))
        keys = np.sort(np.concatenate([mixed, same, near]), axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            values = _bracket_search(keys[:, 0], keys[:, 1])
        assert omega_calls == [3 * len(keys)]
        assert np.all(values > 0.0)
        past = values == np.inf
        assert np.all(np.abs(keys[past]).min(axis=1) > 600.0)
        assert np.all(keys[past].prod(axis=1) > 0.0)
        with pytest.raises(OverflowError):
            M_constants(keys[past][:1], [0.0], [1.0])

    def test_plateau_keys_read_the_plateau_bound(self):
        # a derandomized sweep up to |lambda| = 1e5.  On the plateau of a
        # wide straddling pair (min(|l0|, |l1|) >= 771 on a 20000-key scan)
        # omega's slopes beside t* are rounding noise and do not bracket
        # it; such a key reads 1/|l0*l1|, which omega never reaches, and
        # every other key closes.  A value equal to that plateau value lies
        # at or above 1/|l0*l1| in exact arithmetic, on the unit span and
        # on [5.0, 5.3], whose length 5.3 - 5.0 is exact
        rng = np.random.default_rng(7)
        keys = np.sort(rng.uniform(-1.0, 1.0, (5000, 2))
                       * 10.0 ** rng.uniform(0.0, 5.0, (5000, 2)), axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            values = _bracket_search(keys[:, 0], keys[:, 1])
        assert np.all(values > 0.0)
        flat = values == (1.0 / np.abs(keys[:, 0] * keys[:, 1])) \
            * (1.0 + 4.0 * np.finfo(float).eps)
        assert flat.sum() > 500 and np.all(keys[flat].prod(axis=1) < 0.0)
        span = 5.3 - 5.0
        moved = keys[flat] / span
        shifted = M_constants(moved, np.full(len(moved), 5.0),
                              np.full(len(moved), 5.3))
        with mp.workdps(40):
            for (l0, l1), value in zip(keys[flat], values[flat]):
                assert mp.mpf(value) >= 1 / abs(mp.mpf(l0) * mp.mpf(l1))
            for (l0, l1), value in zip(moved, shifted):
                assert mp.mpf(value) >= 1 / abs(mp.mpf(l0) * mp.mpf(l1))

    def test_plateau_key_bounds_the_oracle(self):
        # ROADMAP item 3's key: its value lies at or above 1/|l0*l1|, which
        # bounds omega, and at or above the oracle's omega at t*, within
        # 1e-13 of it (the oracle's maximum costs 3 s on this key)
        lam0, lam1 = -1438.26, 2252.56
        value = M_constants([(lam0, lam1)], [0.0], [1.0])[0]
        start = errbound2._critical_point(np.array([lam0]), np.array([lam1]))
        found = mp_omega(lam0, lam1, 0.0, 1.0, start[0])
        with mp.workdps(40):
            assert mp.mpf(value) >= 1 / abs(mp.mpf(lam0) * mp.mpf(lam1))
        assert mp.mpf(value) >= found
        assert value <= float(found) * (1.0 + 1e-13)

    @pytest.mark.parametrize("lam0, lam1", [(-800.0, 3.0), (-720.0, -1.0)])
    def test_factors_past_the_double_range_give_the_oracle_maximum(
            self, lam0, lam1):
        # omega stays below 1/400 there, while factors of its product form,
        # such as Phi_(l0,l1)(-1), pass the double range
        start = errbound2._critical_point(np.array([lam0]), np.array([lam1]))
        assert 0.0 < start[0] < 1.0
        value = M_constants([(lam0, lam1)], [0.0], [1.0])[0]
        best = _mp_omega_max(lam0, lam1)
        assert value >= best
        assert_allclose(value, best, rtol=1e-13)

    @pytest.mark.parametrize("lam0, lam1", [(2000.0, 2001.0),
                                            (-1e4, -9999.0)])
    def test_constant_past_the_double_range_is_an_overflow(self, lam0,
                                                           lam1):
        # large same-sign pairs: omega's maximum passes 1e308 (it is
        # 1.7e295 for (700, 701)), so M is refused by OverflowError, with
        # no RuntimeWarning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=re.escape(
                    f"interval constant overflows for ({lam0}, {lam1}) on "
                    f"[0.0, 1.0]")):
                M_constants([(lam0, lam1)], [0.0], [1.0])

    @pytest.mark.parametrize("make", [_verify4_intervals,
                                      _certify2_intervals])
    def test_bounds_oracle_maximum_on_generator_keys(self, make):
        pairs, lefts, rights = make(8)
        keys = sorted({(l0 * (b - a), l1 * (b - a))
                       for (l0, l1), a, b in zip(pairs, lefts, rights)})
        for lam0, lam1 in keys[::max(1, len(keys) // 12)]:
            value = M_constants([(lam0, lam1)], [0.0], [1.0])[0]
            best = _mp_omega_max(lam0, lam1)
            assert best <= value <= best * (1.0 + 1e-13)

    # a plateau flat to rounding over most of the interval, the symmetric
    # plateau, the parabola, a double pair and a near-confluent pair
    DEGENERATE_KEYS = [(-300.0, 250.0), (-60.0, 60.0), (0.0, 0.0),
                       (4.0, 4.0), (1.0, 1.0 + 1e-9)]

    @pytest.mark.parametrize("lam0, lam1", DEGENERATE_KEYS)
    def test_degenerate_keys_terminate(self, lam0, lam1, omega_calls):
        # each closes at its critical point in one call
        value = _bracket_search(np.array([lam0]), np.array([lam1]))
        assert omega_calls == [3]
        assert value[0] > 0.0

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            M_constants([(0.0, 1.0)], [2.0], [2.0])


@pytest.fixture
def searches(monkeypatch):
    """Number of rows of each _bracket_search call made during the test."""
    calls = []
    real = errbound2._bracket_search

    def counting(lam0, lam1):
        calls.append(lam0.size)
        return real(lam0, lam1)

    monkeypatch.setattr(errbound2, "_bracket_search", counting)
    return calls


class TestBasisConstants:

    def test_certificate_and_projection_share_one_search(self, searches):
        pairs, lefts, rights = _certify2_intervals(4)
        knots = np.append(lefts, rights[-1])
        basis = build_hat_basis(knots, pairs)
        interp2_error_bound(basis, 1.0)
        project(basis, np.sin, 0.3)
        assert math.isfinite(operator_norm_bound(basis, 0.3))
        assert searches == [len(pairs)]
        # nothing outlives the basis: a fresh one with the same keys
        # searches them again
        interp2_error_bound(build_hat_basis(knots, pairs), 1.0)
        assert searches == [len(pairs)] * 2

    @pytest.mark.parametrize("seed", range(4))
    def test_constants_are_the_intervals_own(self, seed):
        # per key, bit for bit what M_constants gives for its first
        # interval alone
        rng = np.random.default_rng(seed)
        m = 12
        h = rng.choice([0.1, 0.25, rng.uniform(0.05, 0.3)], m)
        knots = np.concatenate([[-1.0], -1.0 + np.cumsum(h)])
        pairs = np.sort(rng.uniform(-4.0, 4.0, (3, 2)), axis=1)[
            rng.integers(0, 3, m)]
        basis = build_hat_basis(knots, pairs)
        reps, _ = basis.groups
        assert basis.constants.shape == reps.shape
        for value, j in zip(basis.constants, reps):
            want = M_constants([pairs[j]], [knots[j]], [knots[j + 1]])[0]
            assert value == want


class TestInterp2ErrorBound:
    def test_cold_bound_makes_two_kernel_calls(self, kernel_calls):
        # the critical points of every key, then omega at both signs of tau
        pairs, lefts, rights = _certify2_intervals(6)
        basis = build_hat_basis(np.append(lefts, rights[-1]), pairs)
        interp2_error_bound(basis, 1.0)
        assert kernel_calls == [(len(pairs), 3), (6 * len(pairs), 3)]

    def test_zero_operator_gives_zero(self):
        basis = build_hat_basis(Partition((0.0, 0.5, 1.0)), (0.0, 0.0))
        assert interp2_error_bound(basis, 0.0) == 0.0

    def test_polynomial_uniform(self):
        basis = build_hat_basis(Partition((0.0, 0.5, 1.0)), (0.0, 0.0))
        # M per interval is h^2/8 with h = 1/2
        assert_allclose(interp2_error_bound(basis, 1.0), 0.25 * 0.125,
                        rtol=1e-10)

    def test_per_interval_products(self):
        basis = build_hat_basis(Partition((0.0, 0.5, 1.5)), (0.0, 0.0))
        got = interp2_error_bound(basis, [8.0, 0.1])
        # max(0.5^2/8 * 8, 1^2/8 * 0.1) = max(1/4, 1/80)
        assert_allclose(got, 0.25, rtol=1e-10)

    def test_arity_validation(self):
        basis = build_hat_basis(Partition((0.0, 0.5, 1.0)), (0.0, 0.0))
        with pytest.raises(ValueError):
            interp2_error_bound(basis, [1.0])
        with pytest.raises(ValueError):
            interp2_error_bound(basis, [-1.0, 1.0])

    def test_nan_is_refused(self):
        # NaN passed the sign check and max() skipped it, which gave a
        # zero or a partial certificate
        basis = build_hat_basis(Partition((0.0, 0.5, 1.0)), (0.0, 0.0))
        for bad in (float("nan"), [float("nan"), 1.0], [1.0, float("nan")]):
            with pytest.raises(ValueError, match="nonnegative"):
                interp2_error_bound(basis, bad)
