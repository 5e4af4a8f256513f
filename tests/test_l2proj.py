"""Tests for the weighted projection module: T/S ratios, Gram assembly,
tridiagonal solve, projection, and operator norm bounds."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hypothesis import given, settings, strategies as st

from expspline import expcore, l2proj
from expspline.errbound2 import omega_eval
from expspline.hatbasis import (
    build_hat_basis,
    group_intervals,
    hat_eval,
    interpolate2,
    monotone_radius,
    sum_hats,
)
from expspline.l2proj import (
    DominanceError,
    GramSystem,
    abcd_quadrature,
    dominance_factor,
    gram_assemble,
    lemma_constant,
    operator_norm_bound,
    project,
    tfunc,
    sfunc,
    tridiag_solve,
)

from oracles import inner_product_p


class TestTSFunctions:
    def test_limits_at_zero_mesh(self):
        assert tfunc(0.7, -1.3, 2.0, 0.0) == 0.5
        assert sfunc(0.7, -1.3, 2.0, 0.0) == 1.5
        assert tfunc(3.0, 5.0, 0.0, 1e-200) == 0.5
        assert sfunc(3.0, 5.0, 0.0, -1e-150) == 1.5

    def test_polynomial_pair_is_exact(self):
        # identical frequency tuples in numerator and denominator for T,
        # explicit constant for S
        for h in (0.1, 1.0, 7.5, 123.0):
            assert tfunc(0.0, 0.0, 0.0, h) == 0.5
            assert sfunc(0.0, 0.0, 0.0, h) == 1.5

    def test_frozen_values(self):
        # extended-precision divided-difference oracle, 50 digits
        cases = [
            (tfunc, (0.0, 3.0, 0.0, 0.7), 0.7614546324375824),
            (tfunc, (0.0, 3.0, 0.0, -0.7), 0.28103591781990360),
            (sfunc, (0.0, 3.0, 0.0, 0.7), 1.7614546324375824),
            (sfunc, (0.0, 3.0, 0.0, -0.7), 1.2810359178199036),
            (tfunc, (1.0, -1.0, 0.0, 1.0), 0.45225692308572763),
            (sfunc, (1.0, -1.0, 0.0, 1.0), 1.5692286989129889),
            (tfunc, (2.0, 1.0, 0.0, 1.2), 1.308652761824073),
            (tfunc, (-2.0, 5.0, 1.5, 0.8), 0.28505225005710824),
            (sfunc, (-2.0, 5.0, 1.5, 0.8), 1.7428039758671548),
        ]
        for fn, args, want in cases:
            assert_allclose(fn(*args), want, rtol=5e-13)

    def test_symmetric_t_at_most_half(self):
        rng = np.random.default_rng(20240817)
        for _ in range(200):
            xi = float(rng.uniform(0.01, 10.0))
            h = float(rng.uniform(-10.0, 10.0))
            assert tfunc(-xi, xi, 0.0, h) <= 0.5 + 1e-12

    def test_s_at_most_two_unweighted(self):
        rng = np.random.default_rng(915)
        for _ in range(200):
            lam = np.sort(rng.uniform(-10.0, 10.0, size=2))
            h = float(rng.uniform(-10.0, 10.0))
            s = sfunc(float(lam[0]), float(lam[1]), 0.0, h)
            assert 0.0 < s <= 2.0 + 1e-12

    def test_mixed_sign_t_bound(self):
        # closed dominance bound for pairs straddling zero
        rng = np.random.default_rng(4711)
        for _ in range(200):
            l0 = float(rng.uniform(-10.0, -0.05))
            l1 = float(rng.uniform(0.05, 10.0))
            h = float(rng.uniform(-10.0, 10.0))
            cap = max((2 * l1 - l0) / (2 * l1 - 4 * l0),
                      (l1 - 2 * l0) / (4 * l1 - 2 * l0))
            assert cap < 1.0
            assert tfunc(l0, l1, 0.0, h) <= cap + 1e-12

    def test_small_mesh_stability(self):
        for h in (1e-6, 1e-9, 1e-12):
            assert abs(tfunc(2.0, -3.0, 1.0, h) - 0.5) < 1e-4
            assert abs(sfunc(2.0, -3.0, 1.0, h) - 1.5) < 1e-4
        assert_allclose(tfunc(2.0, -3.0, 1.0, 1e-12), 0.5, rtol=1e-10)

    def test_positive_pair_loses_dominance(self):
        assert tfunc(2.0, 1.0, 0.0, 1.2) > 1.0

    def test_tension_pair_stays_dominant(self):
        # (0, rho) pairs keep T below 1 everywhere, approaching 1 in one
        # direction (the un-halved ratio tends to 2)
        for rho in (1.0, 5.0):
            ts = np.concatenate([-np.logspace(-3, math.log10(30.0), 200),
                                 np.logspace(-3, math.log10(30.0), 200)])
            vals = [tfunc(0.0, rho, 0.0, float(t)) for t in ts]
            assert max(vals) <= 1.0 + 1e-9
            assert max(tfunc(0.0, rho, 0.0, 30.0),
                       tfunc(0.0, rho, 0.0, -30.0)) > 1.0 - 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            tfunc(math.nan, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            sfunc(0.0, math.inf, 0.0, 1.0)


class TestAbcdQuadrature:
    def test_matches_t_and_s(self):
        cases = [(0.0, 3.0, 0.0, 0.7), (1.0, -1.0, 0.0, 1.0),
                 (-2.0, 5.0, 1.5, 0.8), (0.0, 0.0, 0.7, 0.9),
                 (2.0, 1.0, 0.0, 1.2), (-4.0, -1.0, -0.5, 0.6)]
        for l0, l1, p, h in cases:
            a, b, c, d = abcd_quadrature(l0, l1, p, h)
            assert_allclose(a, tfunc(l0, l1, p, h), rtol=1e-8)
            assert_allclose(b, tfunc(l0, l1, p, -h), rtol=1e-8)
            assert_allclose(c, sfunc(l0, l1, p, h), rtol=1e-8)
            assert_allclose(d, sfunc(l0, l1, p, -h), rtol=1e-8)

    def test_matches_t_and_s_randomized(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            lam = np.sort(rng.uniform(-5.0, 5.0, size=2))
            p = float(rng.uniform(-2.0, 2.0))
            h = float(rng.uniform(0.05, 1.5))
            a, b, c, d = abcd_quadrature(float(lam[0]), float(lam[1]), p, h)
            assert_allclose(
                [a, b, c, d],
                [tfunc(float(lam[0]), float(lam[1]), p, h),
                 tfunc(float(lam[0]), float(lam[1]), p, -h),
                 sfunc(float(lam[0]), float(lam[1]), p, h),
                 sfunc(float(lam[0]), float(lam[1]), p, -h)],
                rtol=1e-8)

    def test_needs_positive_length(self):
        with pytest.raises(ValueError):
            abcd_quadrature(0.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            abcd_quadrature(0.0, 1.0, 0.0, -0.3)


class TestGramAssemble:
    def test_frozen_single_interval(self):
        # pair (0.5, 2), p = 0.8, knots (0.3, 1.1); quadrature oracle at
        # 50 digits
        basis = build_hat_basis((0.3, 1.1), [(0.5, 2.0)])
        g = gram_assemble(basis, 0.8)
        assert g.n == 2
        assert_allclose(g.diag, [0.7138974073803303, 0.35940599375645755],
                        rtol=1e-11)
        assert_allclose(g.sub, [0.2550047419166946], rtol=1e-11)
        assert np.array_equal(g.sub, g.sup)
        assert np.all(g.rhs == 0.0)

    def test_polynomial_uniform_thirds(self):
        basis = build_hat_basis(np.linspace(0.0, 1.0, 5), [(0.0, 0.0)] * 4)
        g = gram_assemble(basis, 0.0)
        h = 0.25
        assert_allclose(g.diag, [h / 3, 2 * h / 3, 2 * h / 3, 2 * h / 3,
                                 h / 3], rtol=1e-13)
        assert_allclose(g.sub, h / 6, rtol=1e-13)
        assert_allclose(g.sup, h / 6, rtol=1e-13)

    def test_against_quadrature_mixed_basis(self):
        knots = (0.0, 0.35, 0.8, 1.4)
        pairs = [(0.0, 3.0), (-1.0, 1.0), (-2.0, 5.0)]
        basis = build_hat_basis(knots, pairs)
        for p in (0.0, 1.0):
            g = gram_assemble(basis, p)
            for i in range(basis.n):
                lo = knots[max(i - 1, 0)]
                hi = knots[min(i + 1, basis.n - 1)]
                direct = inner_product_p(
                    lambda ts: hat_eval(basis, i, ts),
                    lambda ts: hat_eval(basis, i, ts),
                    p, lo, hi, breakpoints=knots)
                assert_allclose(g.diag[i], direct, rtol=1e-9)
            for i in range(basis.n - 1):
                direct = inner_product_p(
                    lambda ts: hat_eval(basis, i, ts),
                    lambda ts: hat_eval(basis, i + 1, ts),
                    p, knots[i], knots[i + 1])
                assert_allclose(g.sub[i], direct, rtol=1e-9)

    def test_against_quadrature_randomized(self):
        # closed forms vs quadrature across the advertised parameter box
        rng = np.random.default_rng(3333)
        for _ in range(10):
            lam = np.sort(rng.uniform(-10.0, 10.0, size=2))
            p = float(rng.uniform(-3.0, 3.0))
            h = float(rng.uniform(0.05, 2.0))
            basis = build_hat_basis((0.0, h), [tuple(lam)],
                                    allow_nonmonotone=True)
            g = gram_assemble(basis, p)
            f0 = inner_product_p(lambda ts: hat_eval(basis, 0, ts),
                                 lambda ts: hat_eval(basis, 0, ts),
                                 p, 0.0, h)
            f1 = inner_product_p(lambda ts: hat_eval(basis, 1, ts),
                                 lambda ts: hat_eval(basis, 1, ts),
                                 p, 0.0, h)
            cr = inner_product_p(lambda ts: hat_eval(basis, 0, ts),
                                 lambda ts: hat_eval(basis, 1, ts),
                                 p, 0.0, h)
            assert_allclose(g.diag, [f0, f1], rtol=1e-9)
            assert_allclose(g.sub, [cr], rtol=1e-9)

    @pytest.mark.parametrize("knots", [
        0.125 * np.arange(9),
        np.linspace(-1.0, 2.0, 13),
        np.array([0.0, 0.3, 0.5, 0.8, 1.0, 1.3, 1.35, 1.65]),
    ])
    def test_grouped_entries_match_per_interval_formula(self, knots):
        # repeated and distinct (pair, length) keys; the entries must be
        # bitwise the sums of the one-interval assemblies
        cycle = [(0.5, 2.0), (-1.0, 1.5), (0.5, 2.0), (0.0, 0.0)]
        pairs = [cycle[j % 4] for j in range(len(knots) - 1)]
        basis = build_hat_basis(knots, pairs)
        kn = basis.knots
        for p in (0.0, 0.7, -1.3):
            g = gram_assemble(basis, p)
            diag = np.zeros(basis.n)
            sub = np.zeros(basis.n - 1)
            for j, pair in enumerate(basis.pairs):
                one = gram_assemble(
                    build_hat_basis(kn[j:j + 2], [pair]), p)
                diag[j:j + 2] += one.diag
                sub[j] = one.sub[0]
            assert np.array_equal(g.diag, diag)
            assert np.array_equal(g.sub, sub)
            assert np.array_equal(g.sup, sub)

    def test_kernel_calls_do_not_grow_with_the_mesh(self, monkeypatch):
        # every (pair, length) key distinct; the fundamental functions of
        # all keys come from a fixed number of batched kernel calls
        calls = []

        def counting(rows, ts):
            calls.append(len(ts))
            return real(rows, ts)

        real = expcore._phi_rows
        monkeypatch.setattr(expcore, "_phi_rows", counting)
        monkeypatch.setattr(l2proj, "_phi_rows", counting)
        counts = []
        for n in (9, 65):
            rng = np.random.default_rng(n)
            knots = np.concatenate(
                [[0.0], np.cumsum(rng.uniform(0.05, 0.15, n - 1))])
            pairs = [tuple(np.sort(rng.uniform(-2.0, 2.0, 2)))
                     for _ in range(n - 1)]
            basis = build_hat_basis(knots, pairs)
            calls.clear()
            gram_assemble(basis, 0.6)
            counts.append(len(calls))
            assert sum(calls) == 5 * (n - 1)
        assert counts[0] == counts[1] > 0

    def test_entries_positive(self):
        basis = build_hat_basis((0.0, 0.4, 1.0, 1.3),
                                [(0.0, 0.0), (-3.0, 3.0), (0.5, 2.0)])
        g = gram_assemble(basis, -0.7)
        assert np.all(g.diag > 0.0)
        assert np.all(g.sub > 0.0)


class TestDominanceAndSolve:
    def test_polynomial_dominance_factor(self):
        basis = build_hat_basis(np.linspace(0.0, 1.0, 6), [(0.0, 0.0)] * 5)
        g = gram_assemble(basis, 0.0)
        assert_allclose(dominance_factor(g), 0.5, rtol=1e-13)

    def test_symmetric_dominance_below_half(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            xi = float(rng.uniform(0.05, 8.0))
            h = float(rng.uniform(0.05, 3.0))
            basis = build_hat_basis(np.arange(4) * h, [(-xi, xi)] * 3)
            c = dominance_factor(gram_assemble(basis, 0.0))
            assert c <= 0.5 + 1e-12

    def test_rejects_nonpositive_diag(self):
        g = GramSystem(n=2, diag=np.array([1.0, 0.0]), sub=np.zeros(1),
                       sup=np.zeros(1), rhs=np.zeros(2))
        with pytest.raises(ValueError):
            dominance_factor(g)

    def test_thomas_matches_dense(self):
        rng = np.random.default_rng(2718)
        for _ in range(20):
            n = int(rng.integers(2, 41))
            sub = rng.uniform(-1.0, 1.0, size=n - 1)
            sup = rng.uniform(-1.0, 1.0, size=n - 1)
            diag = 2.5 + rng.uniform(0.0, 1.0, size=n)
            rhs = rng.standard_normal(n)
            g = GramSystem(n=n, diag=diag, sub=sub, sup=sup, rhs=rhs)
            x = tridiag_solve(g)
            dense = np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)
            assert_allclose(x, np.linalg.solve(dense, rhs), rtol=1e-10,
                            atol=1e-12)
            resid = dense @ x - rhs
            assert np.max(np.abs(resid)) <= 1e-12 * np.max(np.abs(rhs))

    def test_single_unknown(self):
        g = GramSystem(n=1, diag=np.array([4.0]), sub=np.zeros(0),
                       sup=np.zeros(0), rhs=np.array([2.0]))
        assert_allclose(tridiag_solve(g), [0.5])

    def test_singular_raises(self):
        g = GramSystem(n=2, diag=np.array([1.0, 1.0]), sub=np.array([1.0]),
                       sup=np.array([1.0]), rhs=np.array([1.0, 0.0]))
        with pytest.raises(np.linalg.LinAlgError):
            tridiag_solve(g)

    def test_pivot_breakdown_falls_back_to_banded(self):
        # the leading pivot is zero, so elimination without pivoting would
        # break down; the pivoting solver succeeds
        g = GramSystem(n=2, diag=np.array([0.0, 1.0]), sub=np.array([1.0]),
                       sup=np.array([1.0]), rhs=np.array([1.0, 1.0]))
        x = tridiag_solve(g)
        dense = np.array([[0.0, 1.0], [1.0, 1.0]])
        assert_allclose(dense @ x, g.rhs, atol=1e-14)


class TestProjection:
    def test_reproduces_own_hat(self):
        basis = build_hat_basis(
            (0.0, 0.2, 0.45, 0.65, 0.9),
            [(0.0, 3.0), (-1.0, 1.0), (-2.0, 5.0), (0.5, 2.0)])
        res = project(basis, lambda ts: hat_eval(basis, 2, ts), 0.5)
        want = np.zeros(5)
        want[2] = 1.0
        assert_allclose(res.coeffs, want, atol=1e-9)

    def test_reproduces_line_on_polynomial_hats(self):
        basis = build_hat_basis(np.linspace(0.0, 1.0, 5), [(0.0, 0.0)] * 4)
        res = project(basis, lambda ts: ts, 0.0)
        assert_allclose(res.coeffs, np.array(basis.knots), atol=1e-12)
        assert res.norm_bound == 3.0
        assert_allclose(res.c, 0.5, rtol=1e-12)

    def test_orthogonality_residual_sin(self):
        basis = build_hat_basis(np.linspace(0.0, math.pi, 5),
                                [(-1.0, 1.0)] * 4)
        res = project(basis, np.sin, 0.0)
        spline = res.spline
        for i in range(basis.n):
            r = inner_product_p(
                lambda ts: np.sin(ts) - spline(ts),
                lambda ts: hat_eval(basis, i, ts),
                0.0, basis.knots[0], basis.knots[-1],
                breakpoints=basis.knots)
            assert abs(r) <= 1e-8

    def test_projection_error_vs_interpolation(self):
        # sup|g - Pg| is controlled by (1 + norm bound) sup|g - Ig|
        for pairs in ([(0.0, 0.0)] * 4, [(-2.0, 2.0)] * 4):
            basis = build_hat_basis(np.linspace(0.0, math.pi, 5), pairs)
            res = project(basis, np.sin, 0.0)
            interp = interpolate2(basis, np.sin(np.array(basis.knots)))
            grid = np.linspace(0.0, math.pi, 2001)
            lhs = np.max(np.abs(np.sin(grid) - res.spline(grid)))
            rhs = np.max(np.abs(np.sin(grid) - interp(grid)))
            assert lhs <= (1.0 + res.norm_bound) * rhs * (1.0 + 1e-9)

    def test_norm_bound_inf_when_dominance_fails(self):
        basis = build_hat_basis((0.0, 1.2, 2.4), [(1.0, 2.0)] * 2,
                                allow_nonmonotone=True)
        res = project(basis, lambda ts: np.exp(ts), 0.0)
        assert math.isinf(res.norm_bound)
        assert np.all(np.isfinite(res.coeffs))


class TestOperatorNormBound:
    def test_polynomial_tier(self):
        basis = build_hat_basis(np.linspace(0.0, 2.0, 7), [(0.0, 0.0)] * 6)
        assert operator_norm_bound(basis, 0.0) == 3.0

    def test_symmetric_tier(self):
        basis = build_hat_basis(
            (0.0, 0.5, 1.2, 2.0),
            [(-1.0, 1.0), (-4.0, 4.0), (-0.5, 0.5)])
        assert operator_norm_bound(basis, 0.0) == 4.0

    def test_mixed_sign_tier(self):
        basis = build_hat_basis(np.linspace(0.0, 1.0, 4), [(-2.0, 1.0)] * 3)
        assert_allclose(operator_norm_bound(basis, 0.0), 16.0 / 3.0,
                        rtol=1e-14)
        varied = build_hat_basis((0.0, 0.4, 0.8),
                                 [(-2.0, 1.0), (-1.0, 3.0)])
        want = 2.0 * max(16.0 / 3.0 / 2.0,
                         (2 * 3 + 4) / 3.0, (4 * 3 + 2) / 9.0)
        assert_allclose(operator_norm_bound(varied, 0.0), want, rtol=1e-14)

    def test_generic_tier_sane(self):
        basis = build_hat_basis(np.linspace(0.0, 1.0, 5), [(0.0, 0.0)] * 4)
        val = operator_norm_bound(basis, 1.0)
        assert 1.0 <= val < 50.0
        assert math.isfinite(val)

    def test_dominance_failure_reported(self):
        basis = build_hat_basis((0.0, 1.2), [(1.0, 2.0)],
                                allow_nonmonotone=True)
        with pytest.raises(DominanceError) as exc:
            operator_norm_bound(basis, 0.0)
        assert exc.value.interval == 0
        assert_allclose(exc.value.t_value, 1.308652761824073, rtol=1e-10)
        assert "1.30865" in str(exc.value)

    def test_dominance_failure_names_first_interval(self):
        # |T| reaches 1 on intervals 2 and 4, higher on 4; interval 5 shares
        # the pair of 0 and 4 at another length
        lengths = [0.3, 0.4, 2.0, 0.6, 1.5, 0.3]
        pairs = [(1.0, 2.0), (-1.0, 0.5), (0.5, 1.5), (0.2, 0.9),
                 (1.0, 2.0), (1.0, 2.0)]
        knots = np.concatenate([[0.0], np.cumsum(lengths)])
        basis = build_hat_basis(knots, pairs, allow_nonmonotone=True)
        with pytest.raises(DominanceError) as exc:
            operator_norm_bound(basis, 0.0)
        assert exc.value.interval == 2
        h = basis.partition.lengths[2]
        assert exc.value.t_value == max(abs(tfunc(0.5, 1.5, 0.0, h)),
                                        abs(tfunc(0.5, 1.5, 0.0, -h)))


def _random_bases(seed, count):
    """Non-uniform bases of three to six intervals, one pair per interval:
    mixed-sign, same-sign of either sign, polynomial and double pairs,
    monotone or, for every third basis, stretched past the monotone radius
    with allow_nonmonotone=True."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        m = int(rng.integers(3, 7))
        pairs, lengths = [], []
        for _ in range(m):
            kind = int(rng.integers(5))
            if kind == 0:
                pair = (-rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0))
            elif kind == 1:
                pair = tuple(np.sort(rng.uniform(0.1, 5.0, 2)))
            elif kind == 2:
                pair = tuple(np.sort(-rng.uniform(0.1, 5.0, 2)))
            elif kind == 3:
                pair = (0.0, 0.0)
            else:
                pair = (rng.uniform(-5.0, 5.0),) * 2
            pair = tuple(float(x) for x in pair)
            reach = min(monotone_radius(*pair), 2.0)
            stretch = rng.uniform(1.0, 3.0) if k % 3 == 2 else 1.0
            pairs.append(pair)
            lengths.append(rng.uniform(0.1, 1.0) * reach * stretch)
        knots = rng.uniform(-2.0, 2.0) + np.concatenate([[0.0],
                                                         np.cumsum(lengths)])
        out.append(build_hat_basis(knots, pairs,
                                   allow_nonmonotone=k % 3 == 2))
    return out


_EPS = np.finfo(float).eps


def _stiff_basis(pair):
    """Three intervals of one pair, the longest at its monotone radius."""
    h = min(monotone_radius(*pair), 1.0)
    return build_hat_basis((0.0, 0.4 * h, 1.1 * h, 2.1 * h), [pair] * 3)


def _lebesgue_factor(basis):
    return l2proj._lebesgue_sup(
        basis, group_intervals(basis.pairs, basis.partition.lengths)[0])


def _dense_sum_max(basis):
    knots = basis.knots
    return float(np.max(sum_hats(basis,
                                 np.linspace(knots[0], knots[-1], 20001))))


class TestLebesgueSup:
    @pytest.mark.parametrize("basis", _random_bases(404, 24))
    def test_flank_sum_identity(self, basis):
        # sum |H| = 1 + l0*l1*omega on every interval, monotone or not
        knots = basis.knots
        for j, (l0, l1) in enumerate(basis.pairs):
            ts = np.linspace(knots[j], knots[j + 1], 101)[1:-1]
            want = 1.0 + l0 * l1 * omega_eval(l0, l1, knots[j],
                                              knots[j + 1], ts)
            assert_allclose(sum_hats(basis, ts), want, rtol=1e-12)

    @pytest.mark.parametrize("basis", _random_bases(505, 24) + [
        _stiff_basis(pair) for pair in
        [(0.001, 1e5), (1e-8, 10.0), (5.0, 600.0), (-1e5, -0.001)]])
    def test_bounds_dense_scan(self, basis):
        scan = _dense_sum_max(basis)
        value = _lebesgue_factor(basis)
        assert math.isfinite(value)
        assert value >= scan * (1.0 - 4.0 * _EPS)
        assert value <= scan * (1.0 + 1e-6)

    def test_no_same_sign_pair_gives_one(self):
        # (0, 0) with p != 0 goes through T and S; sum |H| is 1 there
        basis = build_hat_basis((0.0, 0.3, 1.0, 1.2),
                                [(0.0, 0.0), (-2.0, 1.0), (0.0, 3.0)])
        value = _lebesgue_factor(basis)
        assert value == 1.0 + 4.0 * _EPS
        assert value >= _dense_sum_max(basis) * (1.0 - 4.0 * _EPS)
        assert math.isfinite(operator_norm_bound(basis, 0.5))


_PAIRS = st.one_of(
    st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)).map(sorted),
    st.just([0.0, 0.0]))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(cells=st.lists(st.tuples(_PAIRS, st.floats(0.05, 1.0)), min_size=1,
                      max_size=5),
       p=st.one_of(st.floats(-2.0, -0.1), st.floats(0.1, 2.0)))
def test_norm_bound_holds_the_dense_lebesgue_sup(cells, p):
    # random non-uniform partitions of monotone pairs: the norm bound either
    # refuses or carries a Lebesgue factor at or above the sampled sum
    pairs = [tuple(pair) for pair, _ in cells]
    lengths = [f * min(monotone_radius(*pair), 2.0) for pair, f in cells]
    basis = build_hat_basis(np.concatenate([[0.0], np.cumsum(lengths)]),
                            pairs)
    try:
        norm = operator_norm_bound(basis, p)
    except DominanceError:
        return
    l0, l1 = np.array(pairs).T
    h = np.array(basis.partition.lengths)
    c = max(np.max(np.abs(tfunc(l0, l1, p, s * h))) for s in (1.0, -1.0))
    s_max = max(np.max(np.abs(sfunc(l0, l1, p, s * h))) for s in (1.0, -1.0))
    assert norm * (1.0 - c) / s_max \
        >= _dense_sum_max(basis) * (1.0 - 8.0 * _EPS)


class TestLemmaConstant:
    def test_frozen_values(self):
        assert lemma_constant(-1.0, 0.0) == 0.5
        assert_allclose(lemma_constant(-1.0, -10.0), 13.0 / 6.0, rtol=1e-15)
        assert lemma_constant(-2.0, 1.0) == 0.5
        assert lemma_constant(-0.5, 2.0) == 0.5

    def test_limit_toward_zero(self):
        # with b = -1 - a the fourth expression tends to 1
        assert_allclose(lemma_constant(-1e-9, -1.0 + 1e-9), 1.0, rtol=1e-8)

    def test_at_least_half(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = float(rng.uniform(-10.0, -0.01))
            b = float(rng.uniform(-10.0, 10.0))
            assert lemma_constant(a, b) >= 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            lemma_constant(0.0, 1.0)
        with pytest.raises(ValueError):
            lemma_constant(1.0, 1.0)
        with pytest.raises(ValueError):
            lemma_constant(math.nan, 1.0)

    def test_comparison_function_positive(self):
        # 2 C Phi_{(a-1,1-a,0,b)} - Phi_{(a,1,-a,-1)} > 0 on (0, 10] with
        # b = -a - 1
        from expspline.expcore import fundamental_eval
        rng = np.random.default_rng(606)
        ts = np.linspace(1e-3, 10.0, 400)
        for _ in range(12):
            a = float(rng.uniform(-5.0, -0.05))
            b = -a - 1.0
            c = lemma_constant(a, b)
            vals = (2.0 * c * fundamental_eval((a - 1.0, 1.0 - a, 0.0, b), ts)
                    - fundamental_eval((a, 1.0, -a, -1.0), ts))
            assert np.all(vals > 0.0)
