"""Tests for the weighted projection module: T/S ratios, Gram assembly,
tridiagonal elimination, projection, and operator norm bounds."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import mpmath as mp
from hypothesis import given, settings, strategies as st
from scipy.linalg.lapack import dgtsv, dgttrf

from expspline import l2proj
from expspline.errbound2 import omega_eval
from expspline.hatbasis import (
    build_hat_basis,
    hat_eval,
    interpolate2,
    monotone_radius,
    SplineOrder2,
    sum_hats,
)
from expspline.l2proj import (
    GramSystem,
    abcd_quadrature,
    dominance_factor,
    gram_assemble,
    operator_norm_bound,
    project,
    tfunc,
    sfunc,
)
from expspline.quadrature import QuadratureError

from oracles import (inner_product_p, mp_load_vector, mp_phi_pair,
                     mp_projector_norm)


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

    @pytest.mark.parametrize("p", (0.0, 0.7, -0.4))
    def test_merged_batch_equals_single_calls(self, p):
        # T and S of many pairs at +h and -h in one call each, as the
        # acceptance criteria ask for them, and one entry at a time;
        # includes the polynomial pair and a length below the tiny cutoff
        rng = np.random.default_rng(3)
        l0 = np.append(np.sort(rng.uniform(-3.0, 3.0, (9, 2)), axis=1)[:, 0],
                       [0.0, 1.0])
        l1 = np.append(l0[:9] + rng.uniform(0.0, 2.0, 9), [0.0, 1.5])
        h = np.append(rng.uniform(0.05, 0.6, 10), 1e-120)
        lam0, lam1 = np.repeat(l0, 2), np.repeat(l1, 2)
        both = np.column_stack([h, -h]).ravel()
        t_val, s_val = tfunc(lam0, lam1, p, both), sfunc(lam0, lam1, p, both)
        for i in range(both.size):
            assert t_val[i] == tfunc(lam0[i], lam1[i], p, both[i])
            assert s_val[i] == sfunc(lam0[i], lam1[i], p, both[i])


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
        assert_allclose(g.diag, [0.7138974073803303, 0.35940599375645755],
                        rtol=1e-11)
        assert_allclose(g.off, [0.2550047419166946], rtol=1e-11)

    def test_polynomial_uniform_thirds(self):
        basis = build_hat_basis(np.linspace(0.0, 1.0, 5), [(0.0, 0.0)] * 4)
        g = gram_assemble(basis, 0.0)
        h = 0.25
        assert_allclose(g.diag, [h / 3, 2 * h / 3, 2 * h / 3, 2 * h / 3,
                                 h / 3], rtol=1e-13)
        assert_allclose(g.off, h / 6, rtol=1e-13)

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
                assert_allclose(g.off[i], direct, rtol=1e-9)

    def test_against_quadrature_randomized(self):
        # closed forms vs quadrature across the advertised parameter box
        rng = np.random.default_rng(3333)
        for _ in range(10):
            lam = np.sort(rng.uniform(-10.0, 10.0, size=2))
            p = float(rng.uniform(-3.0, 3.0))
            h = float(rng.uniform(0.05, 2.0))
            basis = build_hat_basis((0.0, h), [tuple(lam)])
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
            assert_allclose(g.off, [cr], rtol=1e-9)

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
            off = np.zeros(basis.n - 1)
            for j, pair in enumerate(basis.pairs):
                one = gram_assemble(
                    build_hat_basis(kn[j:j + 2], [pair]), p)
                diag[j:j + 2] += one.diag
                off[j] = one.off[0]
            assert np.array_equal(g.diag, diag)
            assert np.array_equal(g.off, off)

    def test_kernel_calls_do_not_grow_with_the_mesh(self, monkeypatch):
        # every (pair, length) key distinct; the fundamental functions of
        # all keys come from one _phi_scaled call for the three
        # four-frequency integrals together and two _pair_scaled calls,
        # phi(h) and phi(-h)
        calls = []

        def counting(real):
            def call(*args):
                calls.append((real.__name__, np.size(args[-1])))
                return real(*args)
            return call

        for name in ("_phi_scaled", "_pair_scaled"):
            monkeypatch.setattr(l2proj, name, counting(getattr(l2proj, name)))
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
            assert sorted(calls) == [("_pair_scaled", n - 1)] * 2 \
                + [("_phi_scaled", 3 * (n - 1))]
        assert counts[0] == counts[1] == 3

    def test_stiff_factors_give_the_quadrature_entries(self):
        # pair (-300, 250) on 4 intervals graded by 1.15: phi(-+h) and the
        # factor Phi_(-500, 0, 50, 600)(1.218) pass the double range, while
        # every entry is an integral of two hats, at most h.  The oracle is
        # mpmath quadrature of the hat products, split at the flanks'
        # boundary layers; its tolerance is absolute, so the cross product,
        # near e^(-250 h), is scaled to O(1) first
        lengths = 1.15 ** np.arange(4)
        knots = -2.0 + 4.0 * np.append(0.0, np.cumsum(lengths)) \
            / lengths.sum()
        pair = (-300.0, 250.0)
        basis = build_hat_basis(knots, [pair] * 4)
        gram = gram_assemble(basis, 0.0)
        diag, off = [mp.mpf(0)] * 5, []
        with mp.workdps(40):
            for j, h in enumerate(basis.partition.lengths):
                a, b = knots[j], knots[j + 1]
                fall = lambda t: mp_phi_pair(*pair, t - b) \
                    / mp_phi_pair(*pair, -h)
                rise = lambda t: mp_phi_pair(*pair, t - a) \
                    / mp_phi_pair(*pair, h)
                cuts = [a + x for x in (0.0, 1e-3, 1e-2, 0.1)] \
                    + [b - x for x in (0.1, 1e-2, 1e-3, 0.0)]
                diag[j] += mp.quad(lambda t: fall(t) ** 2, cuts)
                diag[j + 1] += mp.quad(lambda t: rise(t) ** 2, cuts)
                norm = mp.exp(pair[1] * h)
                off.append(mp.quad(lambda t: fall(t) * rise(t) * norm, cuts)
                           / norm)
        assert_allclose(gram.diag, [float(x) for x in diag], rtol=1e-12)
        assert_allclose(gram.off, [float(x) for x in off], rtol=1e-12)
        result = project(basis, lambda t: np.exp(-t * t), 0.0)
        assert np.all(np.isfinite(result.coeffs))

    def test_entries_positive(self):
        basis = build_hat_basis((0.0, 0.4, 1.0, 1.3),
                                [(0.0, 0.0), (-3.0, 3.0), (0.5, 2.0)])
        g = gram_assemble(basis, -0.7)
        assert np.all(g.diag > 0.0)
        assert np.all(g.off > 0.0)


def _lu_bound(sub, diag, sup):
    """max(<U>^-1 |L^-1| e) from LAPACK gttrf's factors, dense: the swaps
    and |multipliers| applied to the ones, then the comparison matrix of U
    solved."""
    l, d, du, du2, ipiv, info = dgttrf(sub, diag, sup)
    assert info == 0
    z = np.ones(d.size)
    for i, m in enumerate(l):
        if ipiv[i] != i + 1:
            z[[i, i + 1]] = z[[i + 1, i]]
        z[i + 1] += abs(m) * z[i]
    u = np.diag(np.abs(d)) - np.diag(np.abs(du), 1) - np.diag(np.abs(du2), 2)
    return np.max(np.linalg.solve(u, z))


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
        g = GramSystem(diag=np.array([1.0, 0.0]), off=np.zeros(1))
        with pytest.raises(ValueError):
            dominance_factor(g)
        with pytest.raises(np.linalg.LinAlgError, match="row 1 is 0.0"):
            dominance_factor(g)

    def test_non_finite_row_reads_inf(self):
        # entries past the double range: an inf diagonal over an inf
        # coupling, an inf coupling, a NaN diagonal; no warning is raised
        for diag, off in (([1.0, math.inf, 1.0], [math.inf, 0.5]),
                          ([1.0, 2.0, 1.0], [0.5, math.inf]),
                          ([1.0, math.nan, 1.0], [0.5, 0.5])):
            g = GramSystem(diag=np.array(diag), off=np.array(off))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert dominance_factor(g) == math.inf

    def test_pivoting_elimination_matches_dense(self):
        rng = np.random.default_rng(2718)
        for _ in range(20):
            n = int(rng.integers(2, 41))
            sub = rng.uniform(-1.0, 1.0, size=n - 1)
            sup = rng.uniform(-1.0, 1.0, size=n - 1)
            diag = 2.5 + rng.uniform(0.0, 1.0, size=n)
            rhs = rng.standard_normal(n)
            x = l2proj._tridiag(sub, diag, sup, rhs)[0]
            dense = np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)
            assert_allclose(x, np.linalg.solve(dense, rhs), rtol=1e-10,
                            atol=1e-12)
            resid = dense @ x - rhs
            assert np.max(np.abs(resid)) <= 1e-12 * np.max(np.abs(rhs))

    def test_elimination_matches_lapack_and_bounds_the_inverse(self):
        # random systems, a third of the rows with |sub| > |diag| so that
        # the elimination pivots: the solution has gtsv's bits, and the
        # bound is at or above ||inv(A)||_inf, which the dense inverse X
        # bounds from below by ||X|| / (1 + ||AX - I|| + 4 u ||A|| ||X||)
        # (u the unit roundoff of the residual's three-term products), its
        # row sums rounded down by n u
        rng = np.random.default_rng(31)
        u = 2.0 ** -53
        pivoted = 0
        for n in [1, 2, 3, 4, 600] + rng.integers(5, 600, 10).tolist():
            sub, sup = rng.standard_normal((2, n - 1))
            diag, rhs = rng.standard_normal((2, n))
            weak = np.flatnonzero(rng.random(n - 1) < 1.0 / 3.0)
            diag[weak] = 0.1 * sub[weak] * rng.uniform(-1.0, 1.0, weak.size)
            pivoted += int(np.sum(np.abs(sub) > np.abs(diag[:-1])))
            pad = [0.0] if n == 1 else []
            *_, want, info = dgtsv(np.append(sub, pad), diag,
                                   np.append(sup, pad), rhs)
            assert info == 0
            x, bound = l2proj._tridiag(sub, diag, sup, rhs)
            assert x.tobytes() == want.tobytes(), n
            a = np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)
            inv = np.linalg.inv(a)
            norm_inv = np.abs(inv).sum(axis=1).max()
            resid = np.abs(a @ inv - np.eye(n)).sum(axis=1).max()
            norm_a = np.abs(a).sum(axis=1).max()
            assert bound >= norm_inv * (1.0 - n * u) \
                / (1.0 + resid + 4.0 * u * norm_a * norm_inv), n
            if n >= 3:
                assert_allclose(bound, _lu_bound(sub, diag, sup), rtol=1e-12)
        assert pivoted > 300

    def test_bound_is_the_inverse_norm_of_an_m_matrix(self):
        # diagonally dominant, nonpositive couplings: no pivoting, the
        # comparison matrix of U is U and inv(A) >= 0, so the bound is
        # ||inv(A)||_inf itself
        rng = np.random.default_rng(7)
        n = 50
        sub, sup = -rng.uniform(0.0, 1.0, (2, n - 1))
        diag = 2.0 + rng.uniform(0.0, 1.0, n)
        bound = l2proj._tridiag(sub, diag, sup, np.ones(n))[1]
        a = np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)
        assert_allclose(bound, np.abs(np.linalg.inv(a)).sum(axis=1).max(),
                        rtol=1e-12)

    def test_single_unknown(self):
        assert_allclose(l2proj._tridiag(np.zeros(0), np.array([4.0]),
                                        np.zeros(0), np.array([2.0]))[0],
                        [0.5])

    def test_singular_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            l2proj._tridiag(np.array([1.0]), np.array([1.0, 1.0]),
                            np.array([1.0]), np.array([1.0, 0.0]))

    def test_zero_leading_pivot_takes_a_row_swap(self):
        # the leading pivot is zero, so elimination without pivoting would
        # break down; the pivoting solver succeeds
        rhs = np.array([1.0, 1.0])
        x = l2proj._tridiag(np.array([1.0]), np.array([0.0, 1.0]),
                            np.array([1.0]), rhs)[0]
        dense = np.array([[0.0, 1.0], [1.0, 1.0]])
        assert_allclose(dense @ x, rhs, atol=1e-14)


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
        # the classical constant 3, up to the pads of _POLY_K
        assert 3.0 <= operator_norm_bound(basis, 0.0) <= _POLY_K
        assert_allclose(dominance_factor(gram_assemble(basis, 0.0)), 0.5,
                        rtol=1e-12)

    def test_orthogonality_residual_sin(self):
        basis = build_hat_basis(np.linspace(0.0, math.pi, 5),
                                [(-1.0, 1.0)] * 4)
        spline = project(basis, np.sin, 0.0)
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
            lhs = np.max(np.abs(np.sin(grid) - res(grid)))
            rhs = np.max(np.abs(np.sin(grid) - interp(grid)))
            norm = operator_norm_bound(basis, 0.0)
            assert lhs <= (1.0 + norm) * rhs * (1.0 + 1e-9)

    def test_warm_projection_makes_one_kernel_call(self, kernel_calls):
        # with the interval constants on the basis, as after the order-2
        # certificate: the Gram integrals; the projection asks for no norm
        # bound
        rng = np.random.default_rng(11)
        knots = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.15, 12))])
        pairs = np.sort(rng.uniform(-2.0, 2.0, (12, 2)), axis=1)
        basis = build_hat_basis(knots, pairs)
        assert basis.constants.size == 12
        kernel_calls.clear()
        project(basis, np.sin, 0.6)
        assert kernel_calls == [(36, 4)]

    def test_non_finite_p_is_refused(self):
        # refused by name, before the kernel sees a NaN frequency
        basis = build_hat_basis(np.linspace(0.0, 1.0, 4), [(-1.0, 1.0)] * 3)
        for p in (math.nan, math.inf):
            with pytest.raises(ValueError, match="p must be finite"):
                project(basis, np.sin, p)

    def test_projection_without_dominance_keeps_its_coeffs(self):
        # the projection is returned where the Gram's dominance factor is
        # above 1, and the norm bound, which reads no dominance, exists too
        basis = build_hat_basis((0.0, 1.2, 2.4), [(1.0, 2.0)] * 2)
        res = project(basis, lambda ts: np.exp(ts), 0.0)
        assert np.all(np.isfinite(res.coeffs))
        assert dominance_factor(gram_assemble(basis, 0.0)) > 1.0
        assert not hasattr(res, "norm_bound")
        assert 1.0 < operator_norm_bound(basis, 0.0) < 20.0

    def test_returns_the_order2_spline_of_the_solve(self):
        # the spline on the basis given, its coefficients the pivoting
        # elimination's solution to the bit
        rng = np.random.default_rng(52)
        knots = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 0.4, 9))])
        basis = build_hat_basis(knots, np.sort(rng.uniform(-3.0, 3.0, (9, 2)),
                                               axis=1))
        spline = project(basis, np.cos, -0.4)
        assert type(spline) is SplineOrder2
        assert spline.basis is basis
        gram = gram_assemble(basis, -0.4)
        want = l2proj._tridiag(gram.off, gram.diag, gram.off,
                               l2proj._load_vector(basis, np.cos, -0.4))[0]
        assert spline.coeffs.tobytes() == want.tobytes()

    def test_non_finite_gram_fails_the_residual_check(self, monkeypatch):
        # an entry past the double range reaches the solve as inf; the
        # residual check refuses it by LinAlgError, with no warning
        basis = build_hat_basis(np.linspace(0.0, 1.0, 4), [(-1.0, 1.0)] * 3)
        real = gram_assemble(basis, 0.0)
        for bad in (np.array([math.inf, 1.0, 1.0, 1.0]) * real.diag,
                    np.array([1.0, math.nan, 1.0, 1.0]) * real.diag):
            fake = GramSystem(diag=bad, off=real.off)
            monkeypatch.setattr(l2proj, "gram_assemble", lambda b, p: fake)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(np.linalg.LinAlgError,
                                   match="residual check"):
                    project(basis, np.sin, 0.0)


class TestLoadVector:
    @staticmethod
    def _counting_integrate(monkeypatch):
        calls = []

        def counting(f, a, b, **kw):
            calls.append((a, b))
            return real(f, a, b, **kw)

        real = l2proj.integrate
        monkeypatch.setattr(l2proj, "integrate", counting)
        return calls

    def test_matches_mpmath_on_random_bases(self, monkeypatch):
        # non-uniform meshes, one pair per interval, p away from zero; every
        # flank passes the first panel's test, so integrate is never called
        calls = self._counting_integrate(monkeypatch)
        rng = np.random.default_rng(1313)
        for n in (2, 5, 9):
            knots = np.concatenate(
                [[-0.4], -0.4 + np.cumsum(rng.uniform(0.1, 0.5, n - 1))])
            pairs = [tuple(np.sort(rng.uniform(-3.0, 3.0, 2)))
                     for _ in range(n - 1)]
            basis = build_hat_basis(knots, pairs)
            p = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 1.5))
            seen = []

            def g(ts):
                seen.append(ts.size)
                return np.cos(2.0 * ts) + ts * ts

            got = l2proj._load_vector(basis, g, p)
            # one call of g on the 45 nodes of every interval
            assert seen == [45 * (n - 1)]
            want = mp_load_vector(
                basis.knots, basis.pairs,
                lambda t: mp.cos(2 * t) + t * t, p)
            assert_allclose(got, want, rtol=1e-12)
        assert calls == []

    def test_stiff_pair_against_mpmath(self):
        # d h = 435 on interval 1: sinh(d h) and phi(-+h) pass the double
        # range, while the flanks stay in [0, 1]
        knots = (0.0, 1.0, 2.0, 2.5)
        pairs = [(-1.0, 2.0), (-450.0, 420.0), (-0.5, 0.5)]
        basis = build_hat_basis(knots, pairs)
        got = l2proj._load_vector(basis, np.cos, 0.4)
        want = mp_load_vector(knots, pairs, mp.cos, 0.4)
        assert np.all(np.isfinite(got))
        assert_allclose(got, want, rtol=1e-12)

    def test_kink_falls_back_to_adaptive_quadrature(self, monkeypatch):
        # |t - c| has a kink inside interval 1: only its two flanks fail
        # the first panel and go through integrate
        calls = self._counting_integrate(monkeypatch)
        c = 0.53
        knots = (0.0, 0.4, 0.8, 1.3)
        pairs = [(-1.0, 2.0), (-2.0, 0.5), (0.0, 1.0)]
        basis = build_hat_basis(knots, pairs)
        got = l2proj._load_vector(basis, lambda ts: np.abs(ts - c), -0.7)
        want = mp_load_vector(knots, pairs, lambda t: abs(t - c), -0.7,
                              splits=(c,))
        assert calls == [(0.4, 0.8)] * 2
        # hats 1 and 2 take one flank each from integrate, whose error
        # estimate understates the true error of a kinked panel: 2e-10 of
        # these entries against its tolerance of 1e-10
        assert_allclose(got[[0, 3]], want[[0, 3]], rtol=1e-12)
        assert_allclose(got[1:3], want[1:3], rtol=1e-9)

    def test_nan_integrand_raises(self):
        basis = build_hat_basis((0.0, 0.5, 1.0), [(-1.0, 1.0)] * 2)

        def g(ts):
            return np.where(ts > 0.7, np.nan, ts)

        with pytest.raises(QuadratureError):
            l2proj._load_vector(basis, g, 0.3)


def _straddling_constant(pairs):
    """The classical p = 0 norm constant of pairs l0 < 0 < l1: twice the
    largest of (2 l1 - 4 l0) / (-3 l0) and (4 l1 - 2 l0) / (3 l1)."""
    l0, l1 = np.asarray(pairs, dtype=float).T
    return 2.0 * float(np.max(np.maximum((2.0 * l1 - 4.0 * l0) / (-3.0 * l0),
                                         (4.0 * l1 - 2.0 * l0) / (3.0 * l1))))


def _classical_cases(seed, count):
    """(basis, classical constant) of count p = 0 bases, cycling through
    symmetric, straddling and polynomial pairs, |lambda| log-uniform in
    [1e-3, 1e3], n from 3 to 33 on a span log-uniform in [0.1, 10],
    alternately uniform and graded by 1.15; half the bases vary the pair
    per interval."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        m = int(rng.integers(2, 33))
        w = 1.15 ** np.arange(m) if k % 2 else np.ones(m)
        knots = np.concatenate([[0.0], np.cumsum(w)]) \
            * 10.0 ** rng.uniform(-1.0, 1.0) / w.sum()
        mag = 10.0 ** rng.uniform(-3.0, 3.0, (m, 2))
        if k % 4 < 2:
            mag[:] = mag[0]
        kind = k % 3
        if kind == 0:
            pairs, want = np.column_stack([-mag[:, 0], mag[:, 0]]), 4.0
        elif kind == 1:
            pairs = np.column_stack([-mag[:, 0], mag[:, 1]])
            want = _straddling_constant(pairs)
        else:
            pairs, want = np.zeros((m, 2)), 3.0
        out.append((build_hat_basis(knots, pairs), want))
    return out


def _dominance_bound(basis, p):
    """The row-dominance bound Lambda S / (1 - T) of the hats' projector,
    with T and S the interval ratios at +h and -h, or None where some |T|
    reaches 1."""
    l0, l1 = basis.pairs.T
    h = np.array(basis.partition.lengths)
    t_max = max(np.max(np.abs(tfunc(l0, l1, p, s * h))) for s in (1.0, -1.0))
    s_max = max(np.max(np.abs(sfunc(l0, l1, p, s * h))) for s in (1.0, -1.0))
    if not t_max < 1.0:
        return None
    return l2proj._lebesgue_sup(basis) * s_max / (1.0 - t_max)


class TestOperatorNormBound:
    # the classical p = 0 constants are an independent check of the one
    # route: K stays at or below them, the polynomial 3 up to the pads of
    # _POLY_K

    def test_polynomial_tier(self):
        basis = build_hat_basis(np.linspace(0.0, 2.0, 7), [(0.0, 0.0)] * 6)
        assert 3.0 <= operator_norm_bound(basis, 0.0) <= _POLY_K

    def test_symmetric_tier(self):
        basis = build_hat_basis(
            (0.0, 0.5, 1.2, 2.0),
            [(-1.0, 1.0), (-4.0, 4.0), (-0.5, 0.5)])
        assert operator_norm_bound(basis, 0.0) <= 4.0

    def test_mixed_sign_tier(self):
        basis = build_hat_basis(np.linspace(0.0, 1.0, 4), [(-2.0, 1.0)] * 3)
        assert operator_norm_bound(basis, 0.0) <= 16.0 / 3.0
        pairs = [(-2.0, 1.0), (-1.0, 3.0)]
        varied = build_hat_basis((0.0, 0.4, 0.8), pairs)
        want = 2.0 * max(16.0 / 3.0 / 2.0,
                         (2 * 3 + 4) / 3.0, (4 * 3 + 2) / 9.0)
        assert _straddling_constant(pairs) == want
        assert operator_norm_bound(varied, 0.0) <= want

    def test_classical_constants_bound_the_route(self):
        for basis, want in _classical_cases(48, 150):
            cap = _POLY_K if want == 3.0 else want * (1.0 + 1e-15)
            assert operator_norm_bound(basis, 0.0) <= cap

    def test_generic_tier_sane(self):
        basis = build_hat_basis(np.linspace(0.0, 1.0, 5), [(0.0, 0.0)] * 4)
        val = operator_norm_bound(basis, 1.0)
        assert 1.0 <= val < 50.0
        assert math.isfinite(val)

    def test_dominance_failure_reported(self):
        # (1, 2) on h = 1.2 is past the hats' monotone radius: |T| = 1.31,
        # so the Gram has no row dominance, which its dominance factor
        # reports; the bound reads no dominance and still holds the
        # projector's own norm
        basis = build_hat_basis((0.0, 1.2), [(1.0, 2.0)])
        assert_allclose(tfunc(1.0, 2.0, 0.0, 1.2), 1.308652761824073,
                        rtol=1e-10)
        assert dominance_factor(gram_assemble(basis, 0.0)) > 1.0
        assert _dominance_bound(basis, 0.0) is None
        norm = operator_norm_bound(basis, 0.0)
        assert_allclose(norm, 5.886001496406042, rtol=1e-12)
        assert norm >= mp_projector_norm(basis.knots, basis.pairs, 0.0)

    def test_failed_solve_check_names_its_hat(self):
        # Grams that no hat basis has: an off-diagonal too large for an
        # M-matrix on interval 1, and an entry past the double range; the
        # check refuses both, naming the first hat it fails on
        basis = build_hat_basis((0.0, 0.5, 1.0, 1.5), [(-1.0, 1.0)] * 3)
        gram = gram_assemble(basis, 0.0)
        bad = GramSystem(diag=gram.diag, off=gram.off * [1.0, 10.0, 1.0])
        with pytest.raises(np.linalg.LinAlgError,
                           match="M-matrix check at hat 1, interval 1$"):
            l2proj._norm_bound(basis, 0.0, bad)
        for diag in (gram.diag * [1.0, 1.0, np.inf, 1.0],
                     gram.diag * [np.nan, 1.0, 1.0, 1.0]):
            with pytest.raises(np.linalg.LinAlgError, match="M-matrix"):
                l2proj._norm_bound(basis, 0.0, GramSystem(diag=diag,
                                                          off=gram.off))
        assert l2proj._norm_bound(basis, 0.0, gram) \
            == operator_norm_bound(basis, 0.0)

    def test_uniform_values(self):
        # one hat pair on a uniform mesh of [0, pi]: the bound falls toward
        # the cubic limit 3 as the mesh refines
        want = {17: 3.428462899578641, 513: 3.012084288688701}
        for n, value in want.items():
            basis = build_hat_basis(np.linspace(0.0, math.pi, n),
                                    [(-2.1, -1.3)] * (n - 1))
            assert_allclose(operator_norm_bound(basis, 0.0), value,
                            rtol=1e-12)

    @pytest.mark.parametrize("knots, pairs, p", [
        ((0.0, 0.2, 0.45, 0.65, 0.9),
         [(0.0, 3.0), (-1.0, 1.0), (-2.0, 5.0), (0.5, 2.0)], 0.7),
        ((0.0, 0.4, 0.8, 1.5), [(3.0, 4.0)] * 3, -1.5),
        (np.linspace(0.0, 1.0, 4), [(0.0, 0.0)] * 3, 0.0),
    ], ids=["mixed-weighted", "past-monotone-radius", "polynomial"])
    def test_bounds_the_mpmath_projector_norm(self, knots, pairs, p):
        basis = build_hat_basis(knots, pairs)
        norm = operator_norm_bound(basis, p)
        assert norm >= mp_projector_norm(knots, pairs, p)
        bound = _dominance_bound(basis, p)
        assert bound is None or norm <= bound * (1.0 + _SOLVE_PAD)

    @pytest.mark.parametrize("seed", [2, 3])
    def test_at_or_below_the_dominance_bound(self, seed):
        # wherever the rows are dominant, the Gram's own inverse bounds the
        # projector at or below Lambda S / (1 - T), up to the solve's pad
        cases = [basis for basis, _ in _classical_cases(seed, 40)] \
            + _random_bases(seed, 60)
        rng = np.random.default_rng(seed)
        compared = 0
        for basis in cases:
            p = float(rng.choice([0.0, rng.uniform(-2.0, 2.0)]))
            bound = _dominance_bound(basis, p)
            if bound is not None:
                compared += 1
                assert operator_norm_bound(basis, p) \
                    <= bound * (1.0 + _SOLVE_PAD)
        assert compared >= 60


def _random_bases(seed, count):
    """Non-uniform bases of three to six intervals, one pair per interval:
    mixed-sign, same-sign of either sign, polynomial and double pairs,
    monotone or, for every third basis, stretched past the monotone
    radius."""
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
        out.append(build_hat_basis(knots, pairs))
    return out


_EPS = np.finfo(float).eps
# the solve check's raise of x in operator_norm_bound: twice the largest
# shortfall (5u s_i - r_i) / b_i, u = eps / 2, s_i the row's sum of term
# magnitudes and r_i the computed residual, at most 3u s_i from the
# elimination (|L||U| = |A| for an M-matrix) and 4u s_i from the check;
# s_i / b_i is 4 on polynomial hats and below 6 (5.4 at most) on the cases
# compared with the dominance bound
_SOLVE_PAD = 2 * 12 * 6 * _EPS / 2
# K on polynomial hats: the classical 3, the Lebesgue sup's four-ulp pad
# and the solve check's raise at s_i / b_i = 4
_POLY_K = 3.0 * (1.0 + 4 * _EPS) * (1.0 + 2 * 12 * 4 * _EPS / 2)


def _stiff_basis(pair):
    """Three intervals of one pair, the longest at its monotone radius."""
    h = min(monotone_radius(*pair), 1.0)
    return build_hat_basis((0.0, 0.4 * h, 1.1 * h, 2.1 * h), [pair] * 3)


def _lebesgue_factor(basis):
    return l2proj._lebesgue_sup(basis)


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


def _sampled_projector_norm(basis, p):
    """sup over 401 points t of int |sum_ij H_i(t) G^-1_ij H_j(s)| w(s) ds,
    every integral by a 16-point Gauss-Legendre rule on 64 panels per
    interval, the Gram included, so nothing reads gram_assemble."""
    nodes, weights = np.polynomial.legendre.leggauss(16)
    knots = basis.knots
    edges = np.concatenate([np.linspace(a, b, 65)[:-1] for a, b in
                            zip(knots[:-1], knots[1:])] + [knots[-1:]])
    half = 0.5 * np.diff(edges)[:, None]
    ss = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * nodes).ravel()
    ws = (half * weights).ravel() * np.exp(p * ss)
    hs = np.array([hat_eval(basis, i, ss) for i in range(basis.n)])
    ts = np.linspace(knots[0], knots[-1], 401)
    ht = np.array([hat_eval(basis, i, ts) for i in range(basis.n)])
    kernel = np.linalg.solve((hs * ws) @ hs.T, ht).T @ hs
    return float(np.max(np.abs(kernel) @ ws))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(cells=st.lists(st.tuples(_PAIRS, st.floats(0.05, 1.0)), min_size=1,
                      max_size=5),
       p=st.one_of(st.floats(-2.0, -0.1), st.floats(0.1, 2.0)))
def test_norm_bound_holds_the_dense_lebesgue_sup(cells, p):
    # random non-uniform partitions of monotone pairs: the norm bound is at
    # or above the sampled norm of the projector itself
    pairs = [tuple(pair) for pair, _ in cells]
    lengths = [f * min(monotone_radius(*pair), 2.0) for pair, f in cells]
    basis = build_hat_basis(np.concatenate([[0.0], np.cumsum(lengths)]),
                            pairs)
    assert operator_norm_bound(basis, p) \
        >= _sampled_projector_norm(basis, p) * (1.0 - 1e-9)
