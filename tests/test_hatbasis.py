import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from expspline.hatbasis import (
    Partition,
    _flank_values,
    build_hat_basis,
    group_intervals,
    hat_eval,
    interpolate2,
    monotone_radius,
    sum_hats,
)
from expspline.harness import measure_error
from oracles import mp_phi_pair


def uniform_basis(a, b, n, pair):
    knots = np.linspace(a, b, n)
    return build_hat_basis(Partition(tuple(knots)), [pair] * (n - 1))


class TestMonotoneRadius:
    def test_straddling_pairs_unbounded(self):
        assert monotone_radius(-1.0, 2.0) == math.inf
        assert monotone_radius(0.0, 0.0) == math.inf
        assert monotone_radius(0.0, 3.0) == math.inf

    def test_positive_pair(self):
        assert_allclose(monotone_radius(0.2, 2.0), 1.2792139405522476022,
                        rtol=1e-14)

    def test_negative_pair_mirrors_positive(self):
        assert_allclose(monotone_radius(-2.0, -0.2),
                        monotone_radius(0.2, 2.0), rtol=1e-14)

    def test_confluent_pair(self):
        assert_allclose(monotone_radius(2.0, 2.0), 0.5, rtol=1e-15)

    def test_unordered_rejected(self):
        with pytest.raises(ValueError):
            monotone_radius(2.0, 1.0)


class TestPartition:
    def test_mesh_and_lengths(self):
        part = Partition((0.0, 0.25, 1.0))
        assert part.n == 3
        assert np.array_equal(part.lengths, (0.25, 0.75))
        assert part.mesh == 0.75

    def test_arrays_are_read_only(self):
        knots = np.array([0.0, 0.25, 1.0])
        part = Partition(knots)
        basis = build_hat_basis(part, (-1.0, 1.0))
        for array in (part.knots, part.lengths, basis.pairs):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 5.0
        # the partition holds a copy: its input stays writable
        knots[0] = -1.0
        assert part.knots[0] == 0.0

    def test_rejects_bad_knots(self):
        with pytest.raises(ValueError):
            Partition((0.0,))
        with pytest.raises(ValueError):
            Partition((0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            Partition((0.0, math.nan))


class TestBuildValidation:
    def test_interval_beyond_radius_builds(self):
        # (1, 2) is not monotone on [0, 1]: it builds by default, and the
        # hats' absolute sum leaves [0, 1]
        basis = build_hat_basis(Partition((0.0, 1.0)), [(1.0, 2.0)])
        assert np.max(sum_hats(basis, np.linspace(0.0, 1.0, 101))) > 1.27

    def test_ragged_pairs_are_named(self):
        with pytest.raises(ValueError, match="pair 1 has 1 entries"):
            build_hat_basis((0, 1, 2), [[1, 2], [3]])

    def test_pair_count_mismatch(self):
        with pytest.raises(ValueError):
            build_hat_basis(Partition((0.0, 0.5, 1.0)), [(0.0, 1.0)])

    def test_single_pair_broadcasts(self):
        basis = build_hat_basis(Partition((0.0, 0.5, 1.0)), (-1.0, 1.0))
        assert np.array_equal(basis.pairs, ((-1.0, 1.0), (-1.0, 1.0)))

    def test_unordered_pair_rejected(self):
        with pytest.raises(ValueError):
            build_hat_basis(Partition((0.0, 1.0)), [(2.0, -2.0)])


class TestHatEval:
    def test_symmetric_pair_midpoint_value(self):
        basis = uniform_basis(0.0, 1.0, 3, (-5.0, 5.0))
        got = hat_eval(basis, 1, 0.25)
        assert_allclose(got, 0.26477106440301998554, rtol=1e-13)

    def test_cardinality_at_knots(self):
        basis = uniform_basis(0.0, 2.0, 5, (-1.0, 3.0))
        for j in range(5):
            for i, tk in enumerate(basis.knots):
                assert hat_eval(basis, j, tk) == (1.0 if i == j else 0.0)

    def test_polynomial_hats_are_linear(self):
        basis = uniform_basis(0.0, 1.0, 3, (0.0, 0.0))
        ts = np.linspace(0.0, 0.5, 21)
        assert_allclose(hat_eval(basis, 0, ts), 1.0 - 2.0 * ts, atol=1e-15)
        assert_allclose(hat_eval(basis, 1, ts), 2.0 * ts, atol=1e-15)

    def test_range_within_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            lam = np.sort(rng.uniform(-4.0, 4.0, 2))
            n = int(rng.integers(3, 8))
            span = min(1.0, 0.9 * monotone_radius(*lam) * (n - 1))
            basis = uniform_basis(0.0, span, n, tuple(lam))
            ts = np.linspace(0.0, span, 400)
            for j in range(n):
                vals = hat_eval(basis, j, ts)
                assert np.all(vals >= -1e-14)
                assert np.all(vals <= 1.0 + 1e-13)

    def test_compact_support(self):
        basis = uniform_basis(0.0, 1.0, 5, (-2.0, 2.0))
        ts = np.linspace(0.5, 1.0, 50)
        assert np.all(hat_eval(basis, 1, ts[ts > 0.5]) == 0.0)

    def test_degenerates_to_polynomial_hat(self):
        tiny = uniform_basis(0.0, 1.0, 4, (-1e-7, 1e-7))
        poly = uniform_basis(0.0, 1.0, 4, (0.0, 0.0))
        ts = np.linspace(0.0, 1.0, 101)
        for j in range(4):
            assert np.max(np.abs(hat_eval(tiny, j, ts)
                                 - hat_eval(poly, j, ts))) < 1e-6

    def test_domain_and_index_validation(self):
        basis = uniform_basis(0.0, 1.0, 3, (0.0, 0.0))
        with pytest.raises(ValueError):
            hat_eval(basis, 5, 0.2)
        with pytest.raises(ValueError):
            hat_eval(basis, 1, 1.5)

    @pytest.mark.parametrize("j", [1.5, True, 1.0, math.nan, -1],
                             ids=["fraction", "bool", "float", "nan", "neg"])
    def test_knot_index_must_be_an_integer(self, j):
        basis = uniform_basis(0.0, 1.0, 3, (0.0, 0.0))
        with pytest.raises(ValueError, match=r"integer in 0\.\.2, got"):
            hat_eval(basis, j, 0.2)

    def test_numpy_integer_knot_index(self):
        basis = uniform_basis(0.0, 1.0, 3, (0.0, 0.0))
        assert hat_eval(basis, np.int64(1), 0.25) == hat_eval(basis, 1, 0.25)

    def test_large_frequency_load_stable(self):
        # sinh arguments overflow the direct path; the log route takes over
        basis = build_hat_basis(Partition((0.0, 2.0, 4.0)),
                                [(-400.0, 400.0)] * 2)
        val = hat_eval(basis, 1, 1.0)
        # phi(1)/phi(2) = sinh(400)/sinh(800) = exp(-400) (to double rounding)
        assert_allclose(val, math.exp(-400.0), rtol=1e-12)
        assert hat_eval(basis, 1, 2.0) == 1.0


class TestSumHats:
    def test_polynomial_partition_of_unity(self):
        basis = uniform_basis(0.0, 1.0, 9, (0.0, 0.0))
        ts = np.linspace(0.0, 1.0, 257)
        assert np.max(np.abs(sum_hats(basis, ts) - 1.0)) < 1e-14

    def test_mixed_sign_pairs_below_one(self):
        rng = np.random.default_rng(9)
        for _ in range(15):
            lam0 = -rng.uniform(0.1, 5.0)
            lam1 = rng.uniform(0.1, 5.0)
            basis = uniform_basis(0.0, 2.0, 6, (lam0, lam1))
            ts = np.linspace(0.0, 2.0, 501)
            assert np.max(sum_hats(basis, ts)) <= 1.0 + 1e-12

    def test_never_exceeds_two(self):
        rng = np.random.default_rng(10)
        for _ in range(15):
            lam = np.sort(rng.uniform(-4.0, 4.0, 2))
            h_max = 0.45 * min(1.0, monotone_radius(*lam))
            basis = build_hat_basis(
                Partition((0.0, h_max, 2.0 * h_max)), [tuple(lam)] * 2)
            ts = np.linspace(0.0, 2.0 * h_max, 301)
            assert np.max(sum_hats(basis, ts)) <= 2.0 + 1e-12


class TestInterpolate2:
    def test_knot_values_exact(self):
        basis = uniform_basis(0.0, 1.0, 5, (-1.0, 2.0))
        values = np.array([0.3, -1.2, 5.0, 0.0, 2.5])
        spline = interpolate2(basis, values)
        got = spline(np.array(basis.knots))
        assert np.array_equal(got, values)

    def test_reproduces_kernel_exponentials(self):
        lam0, lam1 = -0.5, 1.5
        basis = uniform_basis(0.0, 2.0, 6, (lam0, lam1))
        ts = np.linspace(0.0, 2.0, 301)
        for lam in (lam0, lam1):
            f = lambda x: np.exp(lam * x)
            spline = interpolate2(basis, f(np.array(basis.knots)))
            assert_allclose(spline(ts), f(ts), rtol=1e-11)

    def test_wrong_value_count(self):
        basis = uniform_basis(0.0, 1.0, 4, (0.0, 0.0))
        with pytest.raises(ValueError):
            interpolate2(basis, [1.0, 2.0])

    def test_nonfinite_points_rejected(self):
        basis = uniform_basis(0.0, 1.0, 3, (-1.0, 2.0))
        spline = interpolate2(basis, [1.0, 2.0, 0.5])
        for bad in (math.nan, math.inf, -math.inf):
            ts = np.array([0.25, bad])
            for evaluate in (spline, lambda x: hat_eval(basis, 1, x),
                             lambda x: sum_hats(basis, x)):
                with pytest.raises(ValueError, match="finite"):
                    evaluate(ts)

    def test_nonfinite_values_rejected(self):
        basis = uniform_basis(0.0, 1.0, 3, (0.0, 0.0))
        with pytest.raises(ValueError):
            interpolate2(basis, [1.0, math.inf, 0.0])

    def test_piecewise_between_knots_polynomial(self):
        basis = uniform_basis(0.0, 1.0, 3, (0.0, 0.0))
        spline = interpolate2(basis, [0.0, 1.0, 0.0])
        assert_allclose(spline(0.25), 0.5, rtol=1e-14)
        assert_allclose(spline(0.75), 0.5, rtol=1e-14)


def _ratio_one_pair(lam0, lam1, x, y):
    """phi(x)/phi(y) for one pair by the one pair formula: phi(t) = m(t)
    exp(c(t)) with c = s t + |d t| = max(lam0 t, lam1 t) and m = t (1 -
    exp(-2 |d t|)) / (2 |d t|), or t at d t = 0, so the ratio is m(x)/m(y)
    exp(c(x) - c(y)), its exponential split as exp(r) 2^n, n = 0 unless
    the exponent passes 700, so that a subnormal flank is rounded once."""
    d = 0.5 * (lam1 - lam0)

    def parts(t):
        u = np.abs(d * np.asarray(t))
        with np.errstate(invalid="ignore"):
            return np.where(u > 0.0, t * -np.expm1(-2.0 * u) / (2.0 * u),
                            t), np.maximum(lam0 * t, lam1 * t)

    (m_x, c_x), (m_y, c_y) = parts(x), parts(y)
    e = c_x - c_y
    n = np.where(np.abs(e) > 700.0, np.rint(e / math.log(2.0)), 0.0)
    return np.ldexp((m_x / m_y) * np.exp(e - n * math.log(2.0)),
                    n.astype(int))


def _flanks_by_interval(basis, ts):
    """Falling and rising flanks at ts, one interval at a time."""
    knots = np.array(basis.knots)
    idx = np.clip(np.searchsorted(knots, ts, side="right") - 1, 0,
                  len(knots) - 2)
    fall = np.empty_like(ts)
    rise = np.empty_like(ts)
    for i in np.unique(idx):
        lam0, lam1 = basis.pairs[i]
        h = knots[i + 1] - knots[i]
        sel = idx == i
        tau = ts[sel] - knots[i]
        fall[sel] = _ratio_one_pair(lam0, lam1, tau - h, -h)
        rise[sel] = _ratio_one_pair(lam0, lam1, tau, h)
    return idx, fall, rise


_MILD = st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)).map(sorted)
# straddling pairs keep the hats in [0, 1]; |d h| reaches 350 for h >~ 1
_STIFF = st.tuples(st.floats(-900.0, -200.0), st.floats(200.0, 900.0))


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(cells=st.lists(st.tuples(st.one_of(_MILD, _STIFF),
                                st.floats(0.05, 2.0)), min_size=1,
                      max_size=6),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
@example(cells=[((-400.0, 400.0), 1.0), ((0.0, 0.0), 0.5)],
         fractions=[0.0, 0.25, 0.5, 0.75, 1.0])
def test_flanks_match_the_per_interval_loop(cells, fractions):
    # mixed stiff and mild intervals on one partition: bitwise equal where
    # the pair is mild, within 1e-13 where |d h| >= 350, whose exponents
    # may pass 700 and take _times_exp's power-of-two route
    pairs = [tuple(pair) for pair, _ in cells]
    knots = np.concatenate([[0.0], np.cumsum([h for _, h in cells])])
    basis = build_hat_basis(knots, pairs)
    ts = np.concatenate([knots, knots[-1] * np.array(fractions)])
    idx, fall, rise = _flank_values(basis, ts)
    want_idx, want_fall, want_rise = _flanks_by_interval(basis, ts)
    assert np.array_equal(idx, want_idx)
    l0, l1 = np.array(basis.pairs)[idx].T
    stiff = 0.5 * (l1 - l0) * np.diff(knots)[idx] >= 350.0
    for got, want in ((fall, want_fall), (rise, want_rise)):
        assert np.all(np.isfinite(got))
        assert np.array_equal(got[~stiff], want[~stiff])
        assert_allclose(got[stiff], want[stiff], rtol=1e-13, atol=0.0)



def test_order2_values_past_the_double_range_are_refused():
    # (800, 801) on h = 1 builds; its flank phi(x)/phi(-1) passes the
    # double range after t = 0.88.  Each evaluator refuses by OverflowError
    # at the first such t, and no RuntimeWarning fires on the way.  A zero
    # coefficient adds zero, so the last hat, whose interval 1 carries that
    # flank at coefficient 0, stays finite
    basis = build_hat_basis([0.0, 1.0, 2.0], [(800.0, 801.0)] * 2)
    ts = np.linspace(0.0, 2.0, 2001)
    spline = interpolate2(basis, [1.0, 2.0, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for evaluate in (spline, lambda t: sum_hats(basis, t),
                         lambda t: hat_eval(basis, 0, t)):
            with pytest.raises(OverflowError, match=r"^order-2 interpolant "
                               r"overflows at t = 0\.89$"):
                evaluate(ts)
        # the dense error grid runs in blocks of no set order
        with pytest.raises(OverflowError, match="^order-2 interpolant "):
            measure_error(np.exp, spline, basis.knots)
        last = hat_eval(basis, 2, ts)
    assert np.all(np.isfinite(last)) and last[-1] == 1.0


def _mp_flank(lam0, lam1, x, y):
    """phi(x)/phi(y) by mpmath, with digits enough for the cancellation
    of exp(lam1 x) - exp(lam0 x) at small |x|."""
    lost = -math.log10(abs(x) * (lam1 - lam0)) if x else 0.0
    with mp.workdps(60 + max(0, math.ceil(lost))):
        return float(mp_phi_pair(lam0, lam1, x) / mp_phi_pair(lam0, lam1, y))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(h=st.floats(0.05, 2.0), dh=st.floats(350.0, 1500.0),
       lean=st.floats(-1.0, 1.0),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
@example(h=1.0, dh=1000.0, lean=-1.0, fractions=[0.0, 0.1, 0.29, 0.5, 1.0])
@example(h=2.0, dh=1500.0, lean=0.9, fractions=[1e-3, 0.5, 0.999])
def test_log_space_flanks_against_mpmath(h, dh, lean, fractions):
    # straddling pairs with |d h| >= 350 and |s h| up to 1500: phi(-+h)
    # and exp(s (x - y)) alone overflow or underflow where the flank itself
    # does not.  Relative error within 2 eps max|lambda| h of the mpmath
    # ratio.
    d = dh / h
    lam0, lam1 = lean * d - d, lean * d + d
    basis = build_hat_basis([0.0, h], [(lam0, lam1)])
    ts = h * np.array([0.0, 1.0, *fractions])
    _, fall, rise = _flank_values(basis, ts)
    tol = 2.0 * np.finfo(float).eps * max(abs(lam0), abs(lam1)) * h
    for got, x, y in ((fall, ts - h, -h), (rise, ts, h)):
        want = np.array([_mp_flank(lam0, lam1, xi, y) for xi in x])
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got - want)
                      <= tol * want + np.finfo(float).tiny)


@pytest.mark.parametrize("pair", [(800.0, 801.0), (-801.0, -800.0)])
def test_nonmonotone_stiff_interpolant_keeps_its_data(pair):
    # h = 1 is about 800 monotone radii: phi(-+1) passes the double range,
    # and between the knots the interpolant of (1, 2, 3) reaches e^792.
    # It reads its data at the knots, the mpmath value within 2 eps
    # max|lambda| h wherever that lies in the double range, and refuses by
    # OverflowError, naming the first such t, where it does not
    knots = np.array([0.0, 1.0, 2.0])
    values = np.array([1.0, 2.0, 3.0])
    spline = interpolate2(build_hat_basis(knots, [pair] * 2), values)
    assert np.array_equal(spline(knots), values)
    ts = np.concatenate([np.linspace(0.0, 2.0, 81),
                         [1e-3, 0.86, 0.89, 0.999, 1.001, 1.11, 1.999]])
    with mp.workdps(60):
        want = []
        for t in ts:
            i = min(int(t), 1)
            fall = mp_phi_pair(*pair, t - knots[i + 1]) \
                / mp_phi_pair(*pair, -1.0)
            rise = mp_phi_pair(*pair, t - knots[i]) / mp_phi_pair(*pair, 1.0)
            want.append(values[i] * fall + values[i + 1] * rise)
    big = np.array([abs(w) > np.finfo(float).max for w in want])
    assert big.any() and not big.all()
    first = ts[int(np.argmax(big))]
    with pytest.raises(OverflowError, match=f"overflows at t = {first:g}$"):
        spline(ts)
    for t in ts[big]:
        with pytest.raises(OverflowError, match=f"at t = {t:g}$"):
            spline(t)
    got = spline(ts[~big])
    want = np.array([float(w) for w in np.array(want)[~big]])
    tol = 2.0 * np.finfo(float).eps * 801.0
    assert np.all(np.abs(got - want) <= tol * np.abs(want))


def _grouped_by_dict(pairs, lengths):
    """group_intervals as a loop over a dict of (pair, length) keys."""
    index = {}
    reps = []
    inverse = np.empty(len(pairs), dtype=np.intp)
    for j, key in enumerate(zip(map(tuple, pairs), lengths)):
        k = index.setdefault(key, len(reps))
        if k == len(reps):
            reps.append(j)
        inverse[j] = k
    return reps, inverse


# few distinct values, so keys repeat and interleave; +-0.0 and values one
# ulp apart among them
_ULP_ABOVE = float(np.nextafter(0.25, 1.0))
_KEY_VALUES = st.sampled_from([0.0, -0.0, 1.0, -2.5, 0.25, _ULP_ABOVE])
_KEY_LENGTHS = st.sampled_from([0.25, _ULP_ABOVE, 1.0, 1e-300])


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(keys=st.integers(1, 4).flatmap(lambda k: st.lists(
    st.tuples(st.tuples(*[_KEY_VALUES] * k), _KEY_LENGTHS), min_size=1,
    max_size=40)))
@example(keys=[((0.0, 1.0), 0.25)])
@example(keys=[((0.0, 1.0), 0.25), ((-0.0, 1.0), 0.25), ((0.0, -0.0), 0.25),
               ((-0.0, 0.0), 0.25)])
@example(keys=[((1.0, 1.0), 0.25), ((1.0, 1.0), _ULP_ABOVE),
               ((1.0, 1.0), 0.25), ((0.25, 1.0), 1.0), ((1.0, 1.0), 0.25)])
def test_group_intervals_matches_the_dict_loop(keys):
    pairs = [pair for pair, _ in keys]
    lengths = [h for _, h in keys]
    reps, inverse = group_intervals(np.array(pairs), np.array(lengths))
    want_reps, want_inverse = _grouped_by_dict(pairs, lengths)
    assert reps.tolist() == want_reps
    assert np.array_equal(inverse, want_inverse)


# the kinds of interval of a random mesh: mild, polynomial and
# near-polynomial pairs, and stiff straddling pairs with |d h| up to 1800
_NEAR_POLY = st.tuples(st.floats(-1e-7, 1e-7), st.floats(-1e-7, 1e-7)).map(
    sorted)
_MESH_CELLS = st.lists(
    st.tuples(st.one_of(_MILD, st.just((0.0, 0.0)), _NEAR_POLY, _STIFF),
              st.floats(2e-3, 2.0)), min_size=1, max_size=6)


def _mesh_and_points(cells, fractions):
    """Hat basis of cells with its knots, and points: the knots, then
    fractions of the domain."""
    knots = np.concatenate([[0.0], np.cumsum([h for _, h in cells])])
    basis = build_hat_basis(knots, [tuple(p) for p, _ in cells])
    return basis, np.concatenate([knots, knots[-1] * np.array(fractions)])


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(cells=_MESH_CELLS,
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
       data=st.data())
@example(cells=[((-400.0, 400.0), 1.0), ((0.0, 0.0), 1e-3),
                ((-1.0, 2.0), 0.5)],
         fractions=[0.0, 0.5, 1.0], data=None)
def test_evaluators_are_their_flanks(cells, fractions, data):
    # the interpolant keeps its data at the knots (to the bit, up to the
    # sign of a zero), sum_hats is the sum of the two flanks to the bit,
    # and a hat is the flank it selects, on every point
    basis, ts = _mesh_and_points(cells, fractions)
    values = np.linspace(-2.0, 3.0, basis.n) if data is None else np.array(
        data.draw(st.lists(st.floats(-10.0, 10.0), min_size=basis.n,
                           max_size=basis.n)))
    got = interpolate2(basis, values)(basis.knots)
    assert np.array_equal(got, values)
    idx, fall, rise = _flank_values(basis, ts)
    assert np.all(np.isfinite(fall)) and np.all(np.isfinite(rise))
    want = np.abs(fall) + np.abs(rise)
    assert sum_hats(basis, ts).tobytes() == want.tobytes()
    for j in range(basis.n):
        hat = np.where(idx == j, fall, np.where(idx == j - 1, rise, 0.0))
        assert np.array_equal(hat_eval(basis, j, ts), hat)
