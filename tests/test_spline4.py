"""Tests for clamped fourth order interpolation: frequency set resolution,
the slope-system construction against an extended-precision oracle, the
Taylor table that evaluates it, smoothness, orthogonality, and the assembled
error certificates."""

import math
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

sys.path.insert(0, str(Path(__file__).parent))

from oracles import mp_interp4, mp_phi

from expspline import errbound2, expcore, hatbasis, spline4
from expspline.errbound2 import M_constants
from expspline.expcore import (_apply_monic, _monic_coefficients,
                               fundamental_derivative)
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
    smoothness_report,
    spline4_eval,
    spline_from_coefficients,
    _EVAL_BLOCK,
    _derivative_table,
    _horner,
)


def _assert_matches_oracle(s, ref, count, rtol, dtol):
    """Values within rtol of max(1, |ref|), first and second derivatives
    within dtol of max(1, max|ref_r|), at count points of the knot range;
    returns max(1, max|ref_r|) for r = 0, 1, 2."""
    ts = np.linspace(s.knots[0], s.knots[-1], count)
    scales = []
    for order, tol in ((0, rtol), (1, dtol), (2, dtol)):
        want = np.array([float(ref(float(t), order)) for t in ts])
        scales.append(max(1.0, float(np.max(np.abs(want)))))
        scale = np.maximum(1.0, np.abs(want)) if order == 0 else scales[-1]
        assert np.all(np.abs(s(ts, order=order) - want) <= tol * scale), \
            order
    return np.array(scales)


class TestQuadFrequencySet:
    def test_symmetric_shorthand(self):
        qs = quad_frequency_set(3, xi=1.0)
        assert qs.quads.tolist() == [[1.0, -1.0, 1.0, -1.0]] * 3
        assert not qs.quads.flags.writeable
        assert qs.p == 0.0
        p, canon = resolve_weight(qs)
        assert p == 0.0
        assert canon == ((-1.0, 1.0, -1.0, 1.0),) * 3

    def test_per_interval_xi(self):
        qs = quad_frequency_set(2, xi=[0.5, 2.0])
        assert qs.quads.tolist() == [[0.5, -0.5, 0.5, -0.5],
                                     [2.0, -2.0, 2.0, -2.0]]

    def test_shorthand_rejects_nonzero_p(self):
        with pytest.raises(ValueError, match="p = 0"):
            quad_frequency_set(2, xi=1.0, p=0.5)

    def test_non_finite_p_is_refused(self):
        # an infinite p would make the pairing tolerance infinite, so that
        # every split matched this quadruple, which no p pairs
        with pytest.raises(ValueError, match="no weight exponent"):
            resolve_weight(quad_frequency_set(4, quads=(0.3, 5.0, -1.0, 7.0)))
        for p in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="p must be finite"):
                quad_frequency_set(4, quads=(0.3, 5.0, -1.0, 7.0), p=p)

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
        with pytest.raises(ValueError, match=r"got shape \(1, 3\)"):
            QuadFrequencySet(quads=[(1.0, 2.0, 3.0)])
        # the symmetric shorthand is checked as the quadruples are
        with pytest.raises(ValueError, match=r"^xi 0 is not finite: nan$"):
            quad_frequency_set(2, xi=math.nan)
        with pytest.raises(ValueError, match=r"^xi 0 is not finite: inf$"):
            quad_frequency_set(2, xi=math.inf)
        with pytest.raises(ValueError, match=r"^xi 1 is not finite: nan$"):
            quad_frequency_set(2, xi=[1.0, math.nan])
        with pytest.raises(ValueError, match=r"need 2 xi values, got shape "
                                             r"\(2, 1\)"):
            quad_frequency_set(2, xi=[[1.0], [2.0]])
        with pytest.raises(ValueError, match=r"^need 2 xi values, got 3$"):
            quad_frequency_set(2, xi=[1.0, 2.0, 3.0])
        # a single value in any shape still stands for every interval
        assert quad_frequency_set(2, xi=[[0.5]]).quads.tolist() \
            == [[0.5, -0.5, 0.5, -0.5]] * 2

    @pytest.mark.parametrize("make", [
        lambda: quad_frequency_set(0, xi=1.0),
        lambda: quad_frequency_set(0, quads=(1.0, -1.0, 1.0, -1.0)),
        lambda: QuadFrequencySet(quads=np.empty((0, 4))),
        lambda: QuadFrequencySet(quads=np.empty((0, 4)), p=0.0),
    ], ids=["xi", "quads", "set", "set-with-p"])
    def test_no_intervals_refused_at_construction(self, make):
        with pytest.raises(ValueError, match=r"m >= 1, got shape \(0, 4\)"):
            make()

    def test_ragged_quadruples_are_named(self):
        with pytest.raises(ValueError, match="quadruple 1 has 2 entries"):
            quad_frequency_set(2, quads=[[1, 2, 3, 4], [1, 2]])


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
        # ill conditioned in a left-anchored local basis; the slope system
        # needs no rescaled re-solve and no warning
        kn = np.array([0.0, 0.5, 1.0])
        quad = (0.0, 0.001, 50.0, 49.999)
        f = np.exp(0.3 * kn)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = build_interpolant4(kn, quad_frequency_set(2, quads=quad),
                                   f, 0.3, 0.3 * math.exp(0.3))
        ref = mp_interp4(list(kn), [quad] * 2, list(f), 0.3,
                         0.3 * math.exp(0.3))
        _assert_matches_oracle(s, ref, 41, rtol=1e-12, dtol=1e-12)

    def test_spline_missing_its_data_is_refused(self):
        # the exact interpolant of sin on this mesh reaches 2.8e12 by n =
        # 30; the slope system's condition gate refuses it
        kn = 0.2 * np.arange(300)
        qs = quad_frequency_set(299, quads=(0.0, 0.001, 50.0, 49.999))
        with pytest.raises(np.linalg.LinAlgError,
                           match="condition bound"):
            build_interpolant4(kn, qs, np.sin(kn), 1.0, math.cos(kn[-1]))

    def test_overflowed_condition_bound_is_named(self):
        # the slope rows are finite (3e109 beside 2e-108), but the
        # elimination overflows, and a NaN bound would name nothing
        kn = np.linspace(0.0, 1.0, 5)
        with pytest.raises(np.linalg.LinAlgError,
                           match="ill conditioned: its condition bound "
                                 "overflows$"):
            build_interpolant4(kn, (-1e3,) * 4, np.sin(kn), 1.0,
                               math.cos(1.0))

    def test_stiff_overflow_names_the_quadruple_as_given(self):
        # the local functions run over the sorted and reflected rows of the
        # quadruple; the refusal names the interval and the user's one
        kn = np.linspace(0.0, 1.0, 5)
        with pytest.raises(OverflowError, match=(
                r"^local functions of interval 0 for quadruple \(-10000\.0, "
                r"-10000\.0, -10000\.0, -10000\.0\) overflow at offset "
                r"0\.25$")):
            build_interpolant4(kn, quad_frequency_set(4, quads=(-1e4,) * 4),
                               np.sin(kn), 1.0, math.cos(1.0))

    def test_kernel_calls_do_not_grow_with_the_mesh(self, kernel_calls):
        counts = []
        for n in (17, 513):
            kn = np.linspace(0.0, math.pi, n)
            kernel_calls.clear()
            build_interpolant4(kn, quad_frequency_set(n - 1, quads=(1., 2., -1., -2.)),
                               np.sin(kn), 1.0, -1.0)
            counts.append(len(kernel_calls))
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


class TestStiffRegressions:
    # the 4(n-1) banded system in a left-anchored basis grew like
    # exp(|lambda| h): it raised LinAlgError on each of these, and at
    # xi = 300 returned a spline that is NaN at the last knot
    @pytest.mark.parametrize("n, quad", [
        *[(9, (xi, -xi, xi, -xi)) for xi in (30, 50, 100, 200, 300, 500)],
        (9, (-40.0, 2.0, 40.0, -2.0)),
        (9, (100.0, 120.0, -100.0, -120.0)),
        (17, (300.0, 301.0, -300.0, -301.0)),
    ], ids=[*[f"xi{xi}" for xi in (30, 50, 100, 200, 300, 500)],
            "-40,2,40,-2", "100,120,-100,-120", "n17-300,301,-300,-301"])
    def test_builds_and_matches_oracle(self, n, quad):
        kn = np.linspace(0.0, math.pi, n)
        s = build_interpolant4(kn, quad_frequency_set(n - 1, quads=quad),
                               np.sin(kn), 1.0, -1.0)
        assert np.all(np.isfinite(s.taylor))
        ref = mp_interp4(list(kn), [quad] * (n - 1), list(np.sin(kn)),
                         1.0, -1.0)
        scales = _assert_matches_oracle(s, ref, 41, rtol=1e-12, dtol=1e-10)
        assert np.all(smoothness_report(s) <= 1e-10 * scales)


def _keeps_data_or_refuses(knots, quads, values, d_left, d_right):
    """Build, and unless a typed error refuses the input, check the finite
    table, the knot values and clamps to 1e-12 of the data scale and the
    C^2 joins to 1e-10 of the coefficient scale."""
    n = len(knots)
    try:
        s = build_interpolant4(knots, quad_frequency_set(n - 1, quads=quads),
                               values, d_left, d_right)
    except (ValueError, OverflowError, np.linalg.LinAlgError):
        return
    assert np.all(np.isfinite(s.taylor))
    scale = max(1.0, np.max(np.abs(values)), abs(d_left), abs(d_right))
    assert np.max(np.abs(s(knots) - values)) <= 1e-12 * scale
    assert abs(s(knots[0], 1) - d_left) <= 1e-12 * scale
    assert abs(s(knots[-1], 1) - d_right) <= 1e-12 * scale
    assert np.all(smoothness_report(s)
                  <= 1e-10 * (1.0 + np.max(np.abs(s.coeffs))))


def _quads_of(kind, draw):
    """One quadruple of the class kind in units of the longest interval:
    stiff classes reach |lambda| h = 150, near-confluent pairs are 1e-9 to
    1e-7 apart."""
    top = 150.0 if kind.startswith("stiff") else 5.0
    freq = st.floats(0.0, top)
    if kind == "symmetric":
        xi = draw(freq)
        return (xi, -xi, xi, -xi)
    if kind == "confluent":
        x, y = draw(st.floats(0.1, 5.0)), draw(st.floats(0.1, 5.0))
        e = 10.0 ** draw(st.floats(-9.0, -7.0))
        return (x, x + e, -y, -y - e)
    if kind.endswith("mixed"):
        return (draw(freq), draw(freq), -draw(freq), -draw(freq))
    sign = draw(st.sampled_from([1.0, -1.0]))
    return tuple(sign * draw(freq) for _ in range(4))


@st.composite
def _problems(draw):
    n = draw(st.integers(2, 40))
    lengths = draw(st.lists(st.floats(0.05, 1.0), min_size=n - 1,
                            max_size=n - 1))
    knots = np.concatenate([[0.0], np.cumsum(lengths)])
    kind = draw(st.sampled_from(["symmetric", "mixed", "confluent",
                                 "stiff-mixed", "same-sign",
                                 "stiff-same-sign"]))
    h = max(lengths)
    count = n - 1 if draw(st.booleans()) else 1
    quads = [tuple(x / h for x in _quads_of(kind, draw))
             for _ in range(count)]
    values = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n,
                                    max_size=n)))
    return (knots, quads * (n - 1) if count == 1 else quads, values,
            draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(problem=_problems())
def test_build_keeps_its_data_or_refuses(problem):
    # random non-uniform partitions, one quadruple or one per interval; an
    # overflowing ill-posed system ends in a typed error, not a warning
    _keeps_data_or_refuses(*problem)


class TestBuildPropertyRegressions:
    # falsifying examples of the property above, each pinned as found

    def test_same_sign_growth_misses_the_right_clamp(self):
        # the exact interpolant's knot slopes grow by a factor of -1.7 per
        # knot, and the table read the right clamp back 1.3e-12 off
        values = np.zeros(9)
        values[1] = 1.0
        _keeps_data_or_refuses(np.arange(9.0), [(3.0, 11.0, 0.0, 0.0)] * 8,
                               values, 0.0, 0.0)

    def test_same_sign_growth_to_the_left(self):
        # the mirror of the case above: the value join at the first knot
        # missed by 1.8e-10 of the data scale
        values = np.zeros(11)
        values[[1, 10]] = 1.0
        _keeps_data_or_refuses(np.arange(11.0),
                               [(-0.0, -0.0, -6.0, -29.0)] * 10,
                               values, 0.0, 0.0)

    def test_same_sign_flank_misses_the_second_derivative_join(self):
        # the left flank of the pair (14, 16) reaches exp(14 h), and the C^2
        # join at the middle knot missed by 2.3e-8
        _keeps_data_or_refuses(np.array([0.0, 1.0, 2.0]),
                               [(0.0, 14.0, 16.0, 30.0), (0.0, 0.0, 1.0, 1.0)],
                               np.array([1.0, 1.0, 0.0]), 0.0, 0.0)

    def test_stiff_right_clamp_is_read_where_it_was_expanded(self):
        # the last sub-piece's stored start was one ulp off the point its
        # series was expanded about, and s'' = 2.3e4 turned that into a
        # right clamp 1.3e-12 off
        _keeps_data_or_refuses(
            np.array([0.0, 0.44914477357393856, 0.5091118807826596]),
            [(167.32509390806192, 333.9680406529474, -223.45276229449948,
              -307.04120200656797)] * 2,
            np.array([0.749942787448262, 3.3288156715806385e-211,
                      -0.41906374187745576]),
            0.1, -1.0271703691148407e-269)


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


def _local(k, quad, h, tau, order=0, phi=fundamental_derivative):
    """Order-th derivative at tau of the k-th local function (F, R, W_F,
    W_R) of an interval of length h, from phi(freqs, t, order): R is the
    right flank of the middle pair of the sorted quadruple, W_R = (Phi(tau)
    - Phi(h) R(tau))/phi_outer(h), and F, W_F are the same for the negated
    quadruple at h - tau."""
    srt = sorted(quad)
    sign = 1.0
    if k in (0, 2):
        srt = [-x for x in reversed(srt)]
        tau = h - tau
        sign = (-1.0) ** order
    mid, outer = srt[1:3], srt[::3]
    flank = phi(mid, tau, order) / phi(mid, h, 0)
    if k < 2:
        return sign * flank
    return sign * (phi(srt, tau, order)
                   - phi(srt, h, 0) * flank) / phi(outer, h, 0)


class TestTaylorTable:
    # one interval long enough for several sub-pieces, one short; the
    # quadruples are not sorted, and the local functions take the middle
    # pair of the sorted quadruple
    KNOTS = np.array([0.0, 1.3, 1.5])
    QUADS = [(2.0, -2.0, 0.0, 0.7), (0.5, -1.5, 3.0, 0.0)]

    @classmethod
    def _unit_spline(cls, k):
        coeffs = np.zeros((2, 4))
        coeffs[:, k] = 1.0
        return spline_from_coefficients(cls.KNOTS, cls.QUADS, coeffs)

    def test_cubic_table_is_monomial(self):
        # W_R of the cubic case on [0, 2] is (tau^3 - 4 tau) / 12
        s = spline_from_coefficients(np.array([0.0, 2.0]),
                                     [(0.0, 0.0, 0.0, 0.0)], [[0, 0, 0, 1]])
        want = np.zeros_like(s.taylor)
        want[1] = -1.0 / 3.0
        want[3] = 1.0 / 12.0
        assert np.array_equal(s.taylor, want)

    def test_unit_coefficients_give_prefix_functions(self):
        for k in range(4):
            s = self._unit_spline(k)
            assert s.starts.size > 2
            for j in range(2):
                h = self.KNOTS[j + 1] - self.KNOTS[j]
                ts = np.linspace(self.KNOTS[j], self.KNOTS[j + 1], 17)[:-1]
                assert_allclose(s(ts), _local(k, self.QUADS[j], h,
                                              ts - self.KNOTS[j]),
                                rtol=1e-13, atol=1e-15, err_msg=f"k={k} j={j}")

    def test_near_confluent_prefixes_against_oracle(self):
        quad = (1.0, -1.0 - 1e-12, 1.0 + 1e-12, -1.0)
        ts = np.linspace(0.0, 1.0, 9)
        mp_order0 = lambda freqs, t, order: mp_phi(freqs, t)
        for k in range(4):
            coeffs = np.zeros((1, 4))
            coeffs[0, k] = 1.0
            s = spline_from_coefficients(np.array([0.0, 1.0]), [quad], coeffs)
            want = [float(_local(k, quad, 1.0, t, phi=mp_order0))
                    for t in ts]
            assert_allclose(s(ts), want, rtol=1e-13, atol=1e-16)

    def test_derivatives_match_fundamental_derivative(self):
        for k in range(4):
            s = self._unit_spline(k)
            for j in range(2):
                h = self.KNOTS[j + 1] - self.KNOTS[j]
                ts = np.linspace(self.KNOTS[j], self.KNOTS[j + 1], 17)[:-1]
                for order in range(4):
                    want = _local(k, self.QUADS[j], h, ts - self.KNOTS[j],
                                  order)
                    assert_allclose(s(ts, order=order), want, rtol=1e-12,
                                    atol=1e-13, err_msg=f"{k} {j} {order}")

    @pytest.mark.parametrize("quad", [(1.3, 2.1, -1.3, -2.1),
                                      (3.0, 3.5, -3.0, -3.5)])
    def test_each_interval_is_assembled_on_its_own(self, quad):
        # 2 and 3 sub-pieces per interval: interval j rebuilt alone from
        # its coefficients has the bits of interval j of the whole mesh,
        # whatever the number of intervals one assembly sums over
        knots = np.linspace(0.0, np.pi, 9)
        s = build_interpolant4(knots, [quad] * 8, np.sin(knots), 1.0, -1.0)
        first = np.searchsorted(s.starts, knots[:-1])
        ends = np.append(first[1:], s.starts.size)
        assert np.all(ends - first == (2 if quad[0] < 2.0 else 3))
        for j in range(8):
            one = spline_from_coefficients(knots[j:j + 2], [quad],
                                           s.coeffs[j:j + 1])
            rows = min(one.taylor.shape[0], s.taylor.shape[0])
            whole = np.ascontiguousarray(s.taylor[:rows, first[j]:ends[j]])
            assert one.taylor[:rows].tobytes() == whole.tobytes(), j

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
        for bad in (True, 1.0, np.float64(2.0), np.bool_(True)):
            with pytest.raises(ValueError, match="order must be 0..3"):
                s(0.5, order=bad)
        assert s(0.5, order=np.int64(2)) == s(0.5, order=2)
        with pytest.raises(ValueError, match="outside"):
            s(1.3)
        with pytest.raises(ValueError, match="outside"):
            s(-0.1)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                s(np.array([0.5, bad]))

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

    def test_transposed_coefficients_refused(self):
        # three intervals, so the (4, 3) transpose has 4m entries but is
        # not square: a reshape would reload it as another spline
        kn = np.linspace(0.0, 1.0, 4)
        s = build_interpolant4(kn, quad_frequency_set(3, quads=(1, -1, 1, -1)),
                               np.sin(kn), 1.0, math.cos(1.0))
        with pytest.raises(ValueError, match=r"shape \(3, 4\), got shape "
                                             r"\(4, 3\)"):
            spline_from_coefficients(s.partition, s.quads, s.coeffs.T)
        with pytest.raises(ValueError, match=r"got shape \(12,\)"):
            spline_from_coefficients(s.partition, s.quads, s.coeffs.ravel())


def _random_spline(knots, quad, seed=0):
    coeffs = np.random.default_rng(seed).standard_normal((knots.size - 1, 4))
    return spline_from_coefficients(knots, [quad] * (knots.size - 1), coeffs)


def _assert_lookup_exact(s, ts):
    """The bucket lookup is searchsorted(starts, t, "right") - 1, and s(t, r)
    is bitwise Horner on that sub-piece, for r = 0..3."""
    a, b = s.knots[0], s.knots[-1]
    inside = np.clip(ts, a, b)
    want = np.searchsorted(s.starts, inside, side="right") - 1
    assert np.array_equal(s._piece(inside), want)
    for r in range(4):
        assert np.array_equal(
            s(ts, r), _horner(_derivative_table(s.taylor, r), want,
                              inside - s.starts[want])), r


def _probe_points(s, rng, count):
    """Random points, every start and knot, the neighbouring floats of each
    start, both ends and points within the range tolerance outside."""
    a, b = s.knots[0], s.knots[-1]
    tol = 1e-12 * (b - a)
    inner = s.starts[1:]
    return np.concatenate([
        rng.uniform(a, b, count), s.starts, s.knots,
        np.nextafter(inner, -np.inf), np.nextafter(inner, np.inf),
        [a, b, a - tol, b + tol, a - 0.5 * tol, b + 0.5 * tol,
         np.nextafter(b, -np.inf)]])


class TestPieceLookup:
    GRADED = np.concatenate([[0.0], np.cumsum(1.3 ** np.arange(40))])

    @pytest.mark.parametrize("knots, quad, steps", [
        (np.linspace(0.0, np.pi, 65), (2.0, -2.0, 2.0, -2.0), 1),
        (GRADED / GRADED[-1] * np.pi, (0.3, -1.1, -1.0, 0.4), None),
        (np.array([0.0, 1.0]), (0.0, 0.0, 0.0, 0.0), 0),
        (np.linspace(0.0, np.pi, 6), (40.0, -40.0, 39.0, -39.0), 2),
    ], ids=["uniform", "graded", "one-piece", "stiff"])
    def test_lookup_is_searchsorted(self, knots, quad, steps):
        # at most steps halving steps; the graded mesh crowds sub-pieces
        # into its first buckets, the stiff one cuts each interval in 51
        s = _random_spline(knots, quad)
        assert s.steps > 2 if steps is None else s.steps <= steps
        rng = np.random.default_rng(7)
        _assert_lookup_exact(s, _probe_points(s, rng, 2 * _EVAL_BLOCK + 5))

    def test_derivative_tables_are_built_once_per_order(self, monkeypatch):
        # each order's table is built on its first call and read after,
        # with the bits of a table built per call; an order never asked
        # for is never built
        built = []

        def counting(table, order):
            built.append(order)
            return _derivative_table(table, order)
        monkeypatch.setattr(spline4, "_derivative_table", counting)
        s = _random_spline(np.linspace(0.0, np.pi, 33), (1.0, -1.0, 2.0, -2.0))
        ts = _probe_points(s, np.random.default_rng(8), 300)
        first = {r: s(ts, r).tobytes() for r in (2, 1)}
        for r in (1, 2, 1):
            assert s(ts, r).tobytes() == first[r]
        assert [r for r in built if r] == [2, 1]
        _assert_lookup_exact(s, ts)
        assert [r for r in built if r] == [2, 1, 3]

    def test_shapes_are_kept(self):
        s = _random_spline(np.linspace(0.0, 1.0, 5), (1.0, -1.0, 2.0, -2.0))
        ts = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        assert np.array_equal(s(ts), s(ts.ravel()).reshape(3, 4))
        assert s(np.empty(0)).shape == (0,)
        assert isinstance(s(0.25), float)


@st.composite
def _lookup_cases(draw):
    n = draw(st.integers(1, 40))
    ratio = draw(st.floats(1.0, 1.6))
    knots = np.concatenate([[0.0], np.cumsum(ratio ** np.arange(n))])
    knots *= draw(st.floats(0.1, 10.0)) / knots[-1]
    kind = draw(st.sampled_from(["polynomial", "symmetric", "mixed",
                                 "stiff-mixed"]))
    h = np.max(np.diff(knots))
    quad = (0.0,) * 4 if kind == "polynomial" \
        else tuple(x / h for x in _quads_of(kind, draw))
    return knots, quad, draw(st.integers(0, 2 ** 32 - 1))


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(case=_lookup_cases())
def test_lookup_is_searchsorted_on_graded_meshes(case):
    knots, quad, seed = case
    s = _random_spline(knots, quad, seed)
    _assert_lookup_exact(s, _probe_points(s, np.random.default_rng(seed),
                                          200))


_FULL_ROWS = expcore._TAYLOR_TERMS + 3


def _widest_step(s):
    """max over sub-pieces of max|quad| * width, as _assemble cuts them."""
    top = np.abs(np.array(s.quads.quads)).max(axis=1)
    lengths = s.partition.lengths
    counts = np.maximum(1, np.ceil(top * lengths / expcore._TAYLOR_RADIUS))
    return float(np.max(top * (lengths / counts)))


class TestTaylorRows:
    def test_row_count_rule(self):
        # rows = n + 3 for the least n >= 1 with r^n/n! <= 0.5^15/15!
        bound = 0.5 ** 15 / math.factorial(15)
        rng = np.random.default_rng(5)
        radii = np.concatenate([rng.uniform(0.0, 0.5, 300),
                                10.0 ** rng.uniform(-12.0, -0.3, 300)])
        for r in radii:
            n = next(n for n in range(1, 16)
                     if r ** n / math.factorial(n) <= bound)
            assert spline4._row_count(r) == n + 3, r
        assert spline4._row_count(0.0) == 4
        assert spline4._row_count(0.5) == _FULL_ROWS
        # a width rounded past the radius keeps the full table, no more
        for r in (np.nextafter(0.5, 1.0), 0.5 * (1.0 + 1e-15)):
            assert spline4._row_count(r) == _FULL_ROWS
        counts = [spline4._row_count(r) for r in np.sort(radii)]
        assert counts == sorted(counts) and counts[-1] <= _FULL_ROWS

    @pytest.mark.parametrize("knots, quad, rows", [
        (np.array([0.0, 2.0]), (0.0, 0.0, 0.0, 0.0), 4),
        (np.array([0.0, 1.0]), (0.5, -0.5, 0.25, -0.25), _FULL_ROWS),
        (np.linspace(0.0, 1.0, 9), (0.5, -0.5, 0.5, -0.5), 13),
        (np.linspace(0.0, np.pi, 6), (40.0, -40.0, 39.0, -39.0), None),
    ], ids=["cubic", "radius", "small", "stiff"])
    def test_tables_keep_the_rows_of_their_widest_sub_piece(self, knots,
                                                            quad, rows):
        m = knots.size - 1
        qs = quad_frequency_set(m, quads=quad)
        s = build_interpolant4(knots, qs, np.cos(knots), 0.0, 0.0)
        want = spline4._row_count(_widest_step(s))
        assert s.taylor.shape == (want, s.starts.size)
        assert rows is None or want == rows
        assert want <= _FULL_ROWS
        clone = spline_from_coefficients(s.partition, s.quads, s.coeffs)
        assert np.array_equal(clone.taylor, s.taylor)
        assert np.array_equal(clone.starts, s.starts)


def _full_table_spline(knots, quad, seed):
    with mock.patch.object(spline4, "_row_count", lambda r: _FULL_ROWS):
        return _random_spline(knots, quad, seed)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(case=_lookup_cases(), shrink=st.floats(-3.0, 0.0))
def test_truncated_table_matches_the_full_one(case, shrink):
    # the table is the full 18-row one cut to its rows, and s(t, r) lies
    # within 4 ulps of the local scale of the full table's s^(r)(t): the
    # largest q^(r-j) max|s^(j)| over the sub-piece (its two ends and the
    # probes inside), j <= r and q = max|quad|, as dropped rows weigh s^(r)
    # by the frequencies where its terms cancel, or the sum of |terms| that
    # Horner's rule rounds; the quadruple shrinks by up to 1e3, so that the
    # widest step spans (0, 0.5]
    knots, quad, seed = case
    quad = tuple(x * 10.0 ** shrink for x in quad)
    s, full = _random_spline(knots, quad, seed), \
        _full_table_spline(knots, quad, seed)
    rows = s.taylor.shape[0]
    assert rows <= full.taylor.shape[0] == _FULL_ROWS
    assert np.array_equal(s.taylor, full.taylor[:rows])
    assert np.array_equal(s.starts, full.starts)
    ts = np.clip(_probe_points(s, np.random.default_rng(seed), 200),
                 knots[0], knots[-1])
    piece = np.searchsorted(s.starts, ts, side="right") - 1
    ends = np.append(s.starts[1:], knots[-1])
    q = max(map(abs, quad))
    local = np.zeros(s.starts.size)
    for r in range(4):
        want = full(ts, r)
        peak = np.maximum(np.abs(full(s.starts, r)), np.abs(full(ends, r)))
        np.maximum.at(peak, piece, np.abs(want))
        local = np.maximum(q * local, peak)
        terms = _horner(np.abs(_derivative_table(full.taylor, r)), piece,
                        ts - s.starts[piece])
        scale = np.maximum(local[piece], terms)
        assert np.all(np.abs(s(ts, r) - want) <= 4.0 * np.spacing(scale)), r


def _pairing_tolerance(quads, p):
    """1e-9 of the largest of 1, every |frequency| and |p| when given."""
    scale = max([1.0] + [abs(x) for q in quads for x in q])
    if p is not None:
        scale = max(scale, abs(p))
    return 1e-9 * scale


def _quad_candidates(quad, tol):
    """(hat pair, op pair, p) of every split of one quadruple whose two
    cross sums agree within 2 tol, the as-given split first."""
    a, b, c, d = quad
    cands = []
    for g, o in (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c))):
        for oo in (o, o[::-1]):
            p1, p2 = -(g[0] + oo[0]), -(g[1] + oo[1])
            if abs(p1 - p2) <= 2.0 * tol:
                cands.append((g, oo, 0.5 * (p1 + p2)))
    return cands


def _resolve_weight_per_interval(quads, p_req):
    """The pairing search interval by interval, every candidate p of
    interval 0 in turn: the reference for resolve_weight."""
    tol = _pairing_tolerance(quads, p_req)
    per_interval = [_quad_candidates(quad, tol) for quad in quads]
    attempted = sorted({p for cands in per_interval for _, _, p in cands})
    if p_req is not None:
        ps = [float(p_req)]
    else:
        ps = []
        for _, _, p in per_interval[0]:
            if not any(abs(p - q) <= tol for q in ps):
                ps.append(p)
    for p in ps:
        canonical = []
        for cands in per_interval:
            hit = next((c for c in cands if abs(c[2] - p) <= tol), None)
            if hit is None:
                break
            canonical.append(tuple(sorted(hit[0])) + tuple(sorted(hit[1])))
        else:
            return p + 0.0, tuple(canonical)
    raise ValueError(
        "no weight exponent pairs the quadruples; candidate p values per "
        f"interval were {attempted if attempted else 'none'}"
        + (f", requested p = {p_req}" if p_req is not None else ""))


# exact values make the cancellations that give p = +-0.0
_FREQS = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 1.3,
                                    -2.1, 3.0]),
                   st.floats(-4.0, 4.0))


@st.composite
def _weight_problems(draw):
    """Quadruples drawn from a pool of one to three, paired ones under any
    of the three splits or free ones, and a requested p or none."""
    pool, weights = [], []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            a, b, p = draw(_FREQS), draw(_FREQS), draw(_FREQS)
            quad = (a, b, -p - a, -p - b)
            pool.append(tuple(quad[i] for i in draw(st.permutations(range(4)))))
            weights.append(p)
        else:
            pool.append(tuple(draw(_FREQS) for _ in range(4)))
    quads = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    p = draw(st.one_of(st.none(), st.none(), _FREQS,
                       st.sampled_from(weights or [None])))
    return quads, p


def _outcome(search, convert):
    """convert(search()), or the refusal and its message."""
    try:
        out = search()
    except ValueError as exc:
        return "refused", str(exc)
    return convert(out)


def _weight_outcome(resolve):
    return _outcome(resolve, lambda out: (np.float64(out[0]).tobytes(),
                                          out[1]))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(problem=_weight_problems())
# interval 0 offers p = -0.0, interval 1 p = +0.0 = -(-0.0 + -0.0) and
# interval 2 p = 1.0: the refusal lists [-0.0, 1.0], in interval order
@example(problem=([(1.3, 2.1, -1.3, -2.1), (-0.0, 1.0, -0.0, -1.0),
                   (0.5, 2.0, -1.5, -3.0)], None))
@example(problem=([(1.0, -1.0, 1.0, -1.0)] * 4, 0.0))
@example(problem=([(0.0, 0.0, 1.0, -1.0), (-0.0, 0.0, 1.0, -1.0)], None))
@example(problem=([(0.0, 0.0, 1.0, 2.0)], None))
# annulus rows: each regroups to p = -2, k = 0 also as given
@example(problem=([(float(k), float(-k), 2.0 + k, 2.0 - k)
                   for k in range(6)], None))
def test_resolve_weight_matches_the_per_interval_search(problem):
    quads, p = problem
    assert _weight_outcome(
        lambda: resolve_weight(QuadFrequencySet(quads=quads, p=p))) \
        == _weight_outcome(lambda: _resolve_weight_per_interval(quads, p))


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

    def test_alternate_split_hats(self):
        # (1, -1, 1, -1) also splits into the hats (1, 1) and the operator
        # pair (-1, -1) under p = 0, and the residual is orthogonal to those
        kn = np.linspace(0.0, math.pi, 5)
        s = build_interpolant4(kn, quad_frequency_set(4, xi=1.0),
                               np.sin(kn), 1.0, -1.0)
        basis = build_hat_basis(kn, [(1.0, 1.0)] * 4)
        fd = lambda ts: (np.sin(ts), np.cos(ts), -np.sin(ts))
        assert residual_orthogonality(fd, s, basis, 0.0) <= 1e-12

    @pytest.mark.parametrize("hats", [(-2.0, -1.0), (-1.0, 2.0)])
    def test_swapped_split_hats(self, hats):
        # neither hat pair is the resolved hat half (1, 2) of the quadruple;
        # each still finds its operator pair -p - hats there
        kn = np.linspace(0.0, 1.0, 5)
        qset = quad_frequency_set(4, quads=(1.0, 2.0, -1.0, -2.0))
        s = build_interpolant4(kn, qset, np.sin(kn), 1.0, math.cos(1.0))
        basis = build_hat_basis(kn, [hats] * 4)
        fd = lambda ts: (np.sin(ts), np.cos(ts), -np.sin(ts))
        assert residual_orthogonality(fd, s, basis, 0.0) <= 1e-12

    @pytest.mark.parametrize("quads, hats, p, refusal", [
        # (1, -1, 1, -1) splits into the hats (1, 1) or (-1, 1) under p = 0
        ([(1.0, -1.0, 1.0, -1.0)] * 4,
         [(1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0), (1.0, 1.0)], 0.0, None),
        # interval 2's noise pair is the first refused, after a mixed
        # interval 1
        ([(1.0, -1.0, 1.0, -1.0)] * 3 + [(0.0, -0.0, 2.0, 0.5)],
         [(1.0, 1.0), (-1.0, 1.0), (0.5, 2.0), (-0.0, 0.0)], 0.0,
         r"^interval 2: quadruple \(1\.0, -1\.0, 1\.0, -1\.0\) does not "
         r"match hat pair \(0\.5, 2\.0\) under p = 0\.0$"),
        # signed zeros in the quadruples, the hats and p
        ([(-0.0, 0.0, 1.0, -1.0), (0.0, 0.0, -1.0, 1.0)] * 2,
         [(-1.0, 0.0), (0.0, 1.0)] * 2, -0.0, None),
    ], ids=["mixed-hats", "noise-pair", "signed-zeros"])
    def test_hats_per_interval(self, quads, hats, p, refusal):
        # each interval's operator pair is -p - its own hat pair
        kn = np.linspace(0.0, math.pi, 5)
        s = build_interpolant4(kn, quad_frequency_set(4, quads=quads),
                               np.sin(kn), 1.0, -1.0)
        basis = build_hat_basis(kn, hats)
        fd = lambda ts: (np.sin(ts), np.cos(ts), -np.sin(ts))
        if refusal is None:
            assert residual_orthogonality(fd, s, basis, p) <= 1e-12
        else:
            with pytest.raises(ValueError, match=refusal):
                residual_orthogonality(fd, s, basis, p)

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

    def test_non_finite_p_is_refused(self):
        # refused before the operator pair -p - hats is formed
        kn = np.linspace(0.0, math.pi, 5)
        s = build_interpolant4(kn, quad_frequency_set(4, xi=1.0),
                               np.sin(kn), 1.0, -1.0)
        basis = build_hat_basis(kn, [(-1.0, 1.0)] * 4)
        fd = lambda ts: (np.sin(ts), np.cos(ts), -np.sin(ts))
        with pytest.raises(ValueError, match="p must be finite"):
            residual_orthogonality(fd, s, basis, -math.inf)

    def test_partition_mismatch_rejected(self):
        kn = np.linspace(0.0, math.pi, 5)
        s = build_interpolant4(kn, quad_frequency_set(4, xi=1.0),
                               np.sin(kn), 1.0, -1.0)
        other = build_hat_basis(np.linspace(0.0, math.pi, 6), [(-1.0, 1.0)] * 5)
        fd = lambda ts: (np.sin(ts), np.cos(ts), -np.sin(ts))
        with pytest.raises(ValueError, match="partitions"):
            residual_orthogonality(fd, s, other, 0.0)


_EPS = np.finfo(float).eps
# K on polynomial hats: the classical 3, the Lebesgue sup's four-ulp pad and
# the projector solve check's raise of x, at most 48 eps there (derived in
# test_l2proj)
_POLY_K = 3.0 * (1.0 + 4 * _EPS) * (1.0 + 48 * _EPS)
# the all-polynomial certificate's relative excess over delta^4 / 16: the
# four-ulp pads of K, M2 and M0 and the products' rounding (13 eps at most
# on the sweep of test_classical_constants_bound_the_certificate before
# the solve check), plus the check's raise of K, which moves 1 + K by 3/4
# of it (35 eps at most in all on the sweep)
_POLY_PAD = 20 * _EPS + 0.75 * 48 * _EPS


class TestErrorBound4:
    def test_kernel_calls_do_not_grow_with_the_mesh(self, kernel_calls):
        # a power-of-two step makes every span, hence every (pair, length)
        # key, bitwise equal, so both meshes search the same two keys; the
        # second call is counted
        counts = []
        for n in (17, 513):
            kn = 0.125 * np.arange(n)
            qs = quad_frequency_set(n - 1, quads=(1.0, 2.0, -1.0, -2.0))
            error_bound4(kn, qs, None, 1.0)
            kernel_calls.clear()
            error_bound4(kn, qs, None, 1.0)
            counts.append(len(kernel_calls))
        assert counts[0] > 0
        assert counts[0] == counts[1]

    def test_generic_certificate_makes_four_kernel_calls(self, kernel_calls):
        # two for the interval constants of both pairings (the critical
        # points, then omega at both signs of tau), one for the hats' Gram
        # integrals, one for the three-frequency numerators of the hats'
        # weighted masses
        kn = 0.125 * np.arange(17)
        error_bound4(kn, quad_frequency_set(16, quads=(1.0, 2.0, -1.0, -2.0)),
                     None, 1.0)
        assert [k for _, k in kernel_calls] == [3, 3, 4, 3]

    def test_one_cold_search_per_certificate(self, monkeypatch):
        # both pairings' interval constants are searched together, and the
        # hats' Lebesgue sup reads the same-sign pair (1, 2) from the basis
        searches = []
        search = errbound2._bracket_search

        def counting_search(lam0, lam1):
            searches.append(lam0.size)
            return search(lam0, lam1)

        monkeypatch.setattr(errbound2, "_bracket_search", counting_search)
        kn = np.array([0.0, 0.3, 0.7, 1.2])
        error_bound4(kn, quad_frequency_set(3, quads=(1.0, 2.0, -1.0, -2.0)),
                     None, 1.0)
        assert searches == [6]

    def test_hat_keys_grouped_once(self, monkeypatch):
        # the hat keys' grouping is the basis's own, which the Lebesgue sup
        # reads too: one grouping for the hats, one for the operator pairs,
        # after the pairing search's one of the quadruples
        calls = []
        group = hatbasis.group_intervals

        def counting_group(pairs, lengths):
            calls.append(pairs.shape)
            return group(pairs, lengths)

        monkeypatch.setattr(hatbasis, "group_intervals", counting_group)
        monkeypatch.setattr(spline4, "group_intervals", counting_group)
        kn = 0.125 * np.arange(18)
        error_bound4(kn, quad_frequency_set(17, quads=(1.3, 2.1, -1.3, -2.1)),
                     None, 1.0)
        assert calls == [(17, 4), (17, 2), (17, 2)]

    def test_symmetric_certificate(self):
        kn = np.linspace(0.0, math.pi, 9)
        cert = error_bound4(kn, quad_frequency_set(8, xi=1.0), 0.0, 1.0)
        delta = math.pi / 8.0
        # at or below the classical K = 4, M = delta^2 / 8
        assert cert.norm_bound <= 4.0
        assert cert.m2_max == cert.m0_max <= delta ** 2 / 8.0
        assert cert.constant <= 5.0 / 64.0 * delta ** 4
        assert cert.bound == cert.constant

    def test_polynomial_certificate(self):
        kn = np.linspace(0.0, 1.0, 5)
        cert = error_bound4(kn, quad_frequency_set(4, quads=(0., 0., 0., 0.)),
                            0.0, 2.0)
        # the classical K = 3 and M = delta^2 / 8, each up to its pad
        assert 3.0 <= cert.norm_bound <= _POLY_K
        assert_allclose(cert.m2_max, 0.25 ** 2 / 8.0, rtol=8 * _EPS)
        assert_allclose(cert.constant, 0.25 ** 4 / 16.0, rtol=_POLY_PAD)
        assert cert.bound == 2.0 * cert.constant

    @pytest.mark.parametrize("kind", ["symmetric", "polynomial"])
    def test_classical_constants_bound_the_certificate(self, kind):
        # the classical order-4 constants check the one route from outside:
        # 5 delta^4 / 64 for symmetric quadruples, delta^4 / 16 up to the
        # pads for polynomial ones; xi log-uniform in [1e-3, 1e3], one per
        # mesh or one per interval, n from 3 to 33 on a span log-uniform in
        # [0.1, 10], uniform or graded by 1.15
        rng = np.random.default_rng(448)
        for k in range(100):
            m = int(rng.integers(2, 33))
            w = 1.15 ** np.arange(m) if k % 2 else np.ones(m)
            kn = np.concatenate([[0.0], np.cumsum(w)]) \
                * 10.0 ** rng.uniform(-1.0, 1.0) / w.sum()
            delta = float(np.max(np.diff(kn)))
            if kind == "symmetric":
                xi = 10.0 ** rng.uniform(-3.0, 3.0, m if k % 4 < 2 else 1)
                cert = error_bound4(kn, quad_frequency_set(m, xi=xi), 0.0, 1.0)
                assert cert.constant <= 5.0 / 64.0 * delta ** 4
            else:
                cert = error_bound4(kn, quad_frequency_set(m, quads=(0.0,) * 4),
                                    0.0, 1.0)
                assert cert.constant <= delta ** 4 / 16.0 * (1.0 + _POLY_PAD)

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
        m2 = max(M_constants([(-1.1, 0.3)] * 3, kn[:-1], kn[1:]))
        m0 = max(M_constants([(-1.0, 0.4)] * 3, kn[:-1], kn[1:]))
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
        max_lf = float(np.max(np.abs(_apply_monic(_monic_coefficients(quad),
                                                  derivs))))
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
        # refused in the pairing, not later in the projection norm
        with pytest.raises(ValueError, match="p must be finite"):
            error_bound4(kn, quad_frequency_set(2, quads=(0.3, 5.0, -1.0,
                                                          7.0)),
                         math.inf, 1.0)

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
