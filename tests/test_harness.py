"""Tests for the verification harness and the command line interface."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

import expspline
from expspline import cli, errbound2, harness, hatbasis, spline4
from expspline.errbound2 import M_constant, interp2_error_bound
from expspline.expcore import _apply_monic, _monic_coefficients
from expspline.harness import (
    CATALOG,
    ConfigError,
    convergence_study,
    error_grid,
    get_test_function,
    max_abs_L,
    measure_error,
    run_bounds,
    run_verify,
)
from expspline.hatbasis import Partition, build_hat_basis, interpolate2
from expspline.l2proj import project
from expspline.spline4 import (
    _EVAL_BLOCK,
    build_interpolant4,
    quad_frequency_set,
    resolve_weight,
    spline_from_coefficients,
)


SIN2_CONFIG = {"function": "sin", "domain": [0.0, math.pi],
               "frequencies": {"xi": 1.0}, "n": [5, 9, 17], "order": 2}
SIN4_CONFIG = {"function": "sin", "domain": [0.0, math.pi],
               "frequencies": {"xi": 2.0}, "n": 9, "order": 4}
WEIGHTED_CONFIG = dict(SIN4_CONFIG, frequencies={"quads": [[0.5, 2.0, -1.5,
                                                            -3.0]]})
SAMPLES2_CONFIG = {"function": {"samples": [0.0, 0.7, 0.9, 1.0]},
                   "knots": [0.0, 0.5, 1.0, 1.5],
                   "frequencies": {"pairs": [[-1.0, 1.0]]}, "order": 2}
SAMPLES4_CONFIG = dict(SAMPLES2_CONFIG, order=4, clamp=[1.0, 0.0],
                       frequencies={"quads": [[0.5, 2.0, -1.5, -3.0]]})


class TestCatalog:

    def test_names_resolve(self):
        for name in ("sin", "cos", "exp", "runge", "gauss", "t0", "t3",
                     "t6", "t^2"):
            tf = get_test_function(name)
            assert len(tf.evaluators) == 5

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="runge"):
            get_test_function("sinc")

    def test_power_alias(self):
        ts = np.linspace(-1.0, 2.0, 7)
        assert np.array_equal(get_test_function("t^4")(ts),
                              get_test_function("t4")(ts))

    @pytest.mark.parametrize("name", sorted(
        k for k in CATALOG if "^" not in k))
    def test_derivatives_match_finite_differences(self, name):
        tf = get_test_function(name)
        a, b = tf.default_domain
        rng = np.random.default_rng(sum(map(ord, name)))
        ts = rng.uniform(a + 1e-3, b - 1e-3, size=40)
        h = 1e-5
        for r in range(1, 5):
            lower = tf.evaluators[r - 1]
            fd = (lower(ts + h) - lower(ts - h)) / (2.0 * h)
            scale = np.max(np.abs(tf.evaluators[r](ts))) + 1.0
            assert_allclose(tf.evaluators[r](ts), fd, rtol=1e-5,
                            atol=1e-5 * scale)

    def test_monomial_low_orders_vanish(self):
        tf = get_test_function("t2")
        ts = np.linspace(0.0, 1.0, 5)
        ders = tf.derivatives(ts)
        assert np.array_equal(ders[3], np.zeros(5))
        assert np.array_equal(ders[4], np.zeros(5))
        assert_allclose(ders[2], 2.0)


class TestMaxAbsL:

    def test_symmetric_pair_on_sine(self):
        tf = get_test_function("sin")
        for xi in (0.0, 1.0, 3.0):
            got = max_abs_L(tf, (0.0, math.pi), [(-xi, xi)])
            assert_allclose(got, 1.0 + xi ** 2, rtol=1e-6)

    def test_symmetric_quad_on_sine(self):
        tf = get_test_function("sin")
        xi = 2.0
        got = max_abs_L(tf, (0.0, math.pi), [(xi, -xi, xi, -xi)])
        assert_allclose(got, (1.0 + xi ** 2) ** 2, rtol=1e-6)

    def test_kernel_function_is_tiny(self):
        tf = get_test_function("exp")
        got = max_abs_L(tf, (0.0, 1.0), [(1.0, -1.0, 1.0, -1.0)])
        assert got <= 1e-10

    def test_per_interval_sets(self):
        tf = get_test_function("t3")
        got = max_abs_L(tf, (0.0, 0.5, 1.0), [(0.0, 0.0), (0.0, 1.0)])
        # max(|6t| on [0, 1/2], |6t - 3t^2| on [1/2, 1]) = 3 at both ends
        assert_allclose(got, 3.0, rtol=1e-6)

    def test_wrong_count(self):
        with pytest.raises(ValueError, match="frequency sets"):
            max_abs_L(get_test_function("sin"), (0.0, 1.0, 2.0), [(0.0, 0.0)])

    def test_ragged_sets_are_named(self):
        with pytest.raises(ValueError,
                           match="frequency set 1 has 1 entries"):
            max_abs_L(get_test_function("sin"), (0.0, 1.0, 2.0),
                      [(1.0, 2.0), (1.0,)])

    def test_nan_interval_is_named(self):
        # the fourth derivative is NaN on intervals 3 and 4; the scan used
        # to drop them and return the maximum over the others
        sin = get_test_function("sin")
        knots = np.linspace(0.0, math.pi, 9)

        def fourth(ts):
            out = np.array(sin.evaluators[4](ts), dtype=float)
            out[(ts > knots[3]) & (ts < knots[5])] = np.nan
            return out

        tf = dataclasses.replace(
            sin, name="sin-nan", evaluators=sin.evaluators[:4] + (fourth,))
        with pytest.raises(ValueError, match="interval 3 "):
            max_abs_L(tf, knots, [(1.0, 2.0, -1.0, -2.0)] * 8)


# mpmath versions of the catalog functions, for the declared bounds
MP_FUNCS = {"sin": mp.sin, "cos": mp.cos, "exp": mp.exp,
            "runge": lambda t: 1 / (1 + 25 * t ** 2),
            "gauss": lambda t: mp.exp(-t ** 2)}
MP_FUNCS.update({f"t{k}": (lambda t, k=k: t ** k) for k in range(7)})
# Intervals for the bound check: runge and gauss also on ones that straddle
# 0, monomials on one with a negative end.
BOUND_INTERVALS = {"sin": [(0.0, 0.4), (1.2, 1.9), (2.5, math.pi)],
                   "cos": [(0.0, 0.4), (1.2, 1.9), (2.5, math.pi)],
                   "exp": [(0.0, 0.3), (0.6, 1.0), (-1.0, 2.0)],
                   "runge": [(-1.0, -0.4), (-0.13, 0.07), (0.0, 0.2),
                             (0.3, 1.0)],
                   "gauss": [(-2.0, -1.1), (-0.3, 0.4), (0.0, 0.25),
                             (0.5, 2.0)]}
QUADS = {"symmetric": (1.7, -1.7, 1.7, -1.7),
         "generic": (1.3, 2.1, -1.3, -2.1),
         "near-confluent": (1.0, 1.0 + 3e-8, -1.0, -1.0 - 3e-8)}


def _count_points(tf):
    """tf wrapped so that the derivatives calls and the points passed to
    them are counted (each call evaluates F itself once)."""
    seen = [0, 0]
    value = tf.evaluators[0]

    def counted(ts):
        seen[0] += np.size(ts)
        seen[1] += 1
        return value(ts)
    return dataclasses.replace(
        tf, evaluators=(counted,) + tf.evaluators[1:]), seen


def _dense_scan(tf, knots, quad, per=2 ** 16):
    """max |L F| over per equally spaced points of every interval.

    Every interval is sampled at 1024 points first; an interval whose
    sample falls short of the best by more than 1e-4 relative cannot hold
    the dense maximum (the 1024-point sample is within (h/1023)^2/8
    sup|(L F)''| of its interval's supremum, at most about 6e-6 relative
    here), so only the others are scanned at per points.
    """
    lefts, rights = knots[:-1, None], knots[1:, None]

    def scan(count, sel):
        u = np.linspace(0.0, 1.0, count)
        ts = ((1.0 - u) * lefts[sel] + u * rights[sel]).ravel()
        vals = _apply_monic(_monic_coefficients(quad),
                            tf.derivatives(ts, len(quad) + 1))
        return np.abs(vals).reshape(-1, count).max(axis=1)

    coarse = scan(1024, slice(None))
    keep = np.flatnonzero(coarse >= (1.0 - 1e-4) * coarse.max())
    return max(float(scan(per, [j]).max()) for j in keep)


class TestDeclaredBounds:

    @pytest.mark.parametrize("name", sorted(
        k for k in CATALOG if "^" not in k))
    def test_bounds_hold_against_mpmath(self, name):
        tf = get_test_function(name)
        f = MP_FUNCS[name]
        for a, b in BOUND_INTERVALS.get(name, [(0.0, 0.5), (0.5, 1.0),
                                               (-0.7, 0.3)]):
            declared = tf.bounds(np.array([a]), np.array([b]))[:, 0]
            assert declared.shape == (7,)
            with mp.workdps(30):
                for t in np.linspace(a, b, 25):
                    exact = [abs(d) for d in mp.diffs(f, mp.mpf(t), 6)]
                    for r in range(7):
                        # equality is reached (runge and gauss at 0, sin,
                        # monomials at the ends): allow the last bits
                        assert declared[r] * (1 + 1e-12) + 1e-25 \
                            >= exact[r], (name, a, b, t, r)

    def test_function_without_bounds_raises(self):
        bare = dataclasses.replace(get_test_function("sin"), name="bare",
                                   bounds=None)
        with pytest.raises(ValueError, match="no derivative bounds"):
            max_abs_L(bare, (0.0, 1.0), [(1.0, -1.0, 1.0, -1.0)])

    def test_non_finite_pad_raises(self):
        exp = get_test_function("exp")
        with pytest.raises(ValueError, match="no finite pad on interval 1 "):
            max_abs_L(exp, (0.0, 700.0, 800.0), [(1.0, -1.0)] * 2)


class TestRigorousMaxAbsL:

    # odd n puts the maximum of sin, gauss and runge on a knot, even n
    # between grid points, where only the pad covers it
    @pytest.mark.parametrize("n", (16, 17, 256, 257))
    @pytest.mark.parametrize("cls", sorted(QUADS))
    @pytest.mark.parametrize("name", ("sin", "cos", "gauss", "runge"))
    def test_between_dense_scan_and_pad(self, name, cls, n):
        tf = get_test_function(name)
        knots = np.linspace(*tf.default_domain, n)
        quad = QUADS[cls]
        got = max_abs_L(tf, knots, [quad] * (n - 1))
        dense = _dense_scan(tf, knots, quad)
        assert dense <= got <= (1.0 + 3e-7) * dense

    @pytest.mark.parametrize("name", ("sin", "gauss", "runge"))
    def test_points_do_not_grow_with_the_mesh(self, name):
        tf = get_test_function(name)
        seen = {}
        for n in (17, 513):
            counted, box = _count_points(tf)
            knots = np.linspace(*tf.default_domain, n)
            max_abs_L(counted, knots, [QUADS["generic"]] * (n - 1))
            seen[n] = box[0]
        assert seen[513] <= seen[17] + 4 * 512

    def test_mixed_sets_take_one_grid_each(self):
        tf = get_test_function("runge")
        knots = np.linspace(-1.0, 1.0, 9)
        sets = [QUADS["generic"], QUADS["symmetric"]] * 4
        counted, seen = _count_points(tf)
        got = max_abs_L(counted, knots, sets)
        # one first pass and one grid over both sets
        assert seen[1] == 2
        per = [max_abs_L(tf, knots[j:j + 2], [sets[j]]) for j in range(8)]
        dense = max(_dense_scan(tf, knots[j:j + 2], sets[j])
                    for j in range(8))
        assert dense <= got <= (1.0 + 3e-7) * dense
        assert got <= (1.0 + 3e-7) * max(per)

    def test_order2_per_interval_bound_takes_two_passes(self):
        tf = get_test_function("runge")
        knots = np.linspace(-1.0, 1.0, 9)
        pairs = np.array([(-1.0 - 0.25 * j, 0.5 + 0.125 * j)
                          for j in range(8)])
        counted, seen = _count_points(tf)
        got = harness._lf_bounds(counted, Partition(knots), pairs, True)
        # one first pass and one grid for eight distinct pairs
        assert seen[1] == 2
        per = [max_abs_L(tf, knots[j:j + 2], [pairs[j]]) for j in range(8)]
        assert_allclose(got, per, rtol=1e-15)

    def test_order4_row_builds_one_hat_basis(self, monkeypatch):
        # c_factor and the certificate share one basis and its grouping;
        # the operator pairs, the build's quadruples and the pairing
        # search's rows group once each
        counts = {"basis": 0, "group": 0}
        build, group = hatbasis.build_hat_basis, hatbasis.group_intervals

        def counting_build(*args, **kwargs):
            counts["basis"] += 1
            return build(*args, **kwargs)

        def counting_group(*args):
            counts["group"] += 1
            return group(*args)

        for module in (harness, spline4):
            monkeypatch.setattr(module, "build_hat_basis", counting_build)
        for module in (hatbasis, spline4):
            monkeypatch.setattr(module, "group_intervals", counting_group)
        run_verify({"function": "sin", "domain": [0.0, math.pi], "n": 65,
                    "order": 4,
                    "frequencies": {"quads": [[1.3, 2.1, -1.3, -2.1]]}})
        assert counts == {"basis": 1, "group": 4}

    @pytest.mark.parametrize("p", [None, 0.0])
    def test_order4_row_resolves_its_pairing_once(self, monkeypatch, p):
        # the level, its hats and the certificate share one resolution,
        # also when a given p resolves the set at construction
        calls = []
        search = spline4._splits

        def counting_search(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(spline4, "_splits", counting_search)
        cfg = {"function": "sin", "domain": [0.0, math.pi], "n": 65,
               "order": 4,
               "frequencies": {"quads": [[1.3, 2.1, -1.3, -2.1]]}}
        if p is not None:
            cfg["p"] = p
        assert run_verify(cfg).passed
        assert len(calls) == 1

    def test_order2_row_uses_one_grouped_scan(self):
        cfg = {"function": "runge", "n": 9, "order": 2,
               "frequencies": {"pairs": [[-1.0, 2.0], [-0.5, 0.5]] * 4}}
        row = run_verify(cfg).rows[0]
        knots = np.linspace(-1.0, 1.0, 9)
        pairs = [(-1.0, 2.0), (-0.5, 0.5)] * 4
        tf = get_test_function("runge")
        ml = [max_abs_L(tf, knots[j:j + 2], [pairs[j]]) for j in range(8)]
        want = interp2_error_bound(build_hat_basis(knots, pairs), ml)
        assert_allclose(row["bound"], want, rtol=1e-15)
        assert row["M0_max"] == max(
            M_constant(l0, l1, knots[j], knots[j + 1]).value
            for j, (l0, l1) in enumerate(pairs))

    def test_order2_row_searches_its_constants_once(self, monkeypatch):
        # the norm bound, the certificate and M0_max read the basis's
        # interval constants, found in one search
        searches = []
        search = errbound2._bracket_search

        def counting_search(lam0, lam1):
            searches.append(lam0.size)
            return search(lam0, lam1)

        monkeypatch.setattr(errbound2, "_bracket_search", counting_search)
        cfg = {"function": "runge", "n": 9, "order": 2,
               "frequencies": {"pairs": [[0.5, 1.5], [-0.5, 0.5]] * 4}}
        row = run_verify(cfg).rows[0]
        assert row["norm_bound"] > 3.0 and row["M0_max"] > 0.0
        assert len(searches) == 1


class TestErrorGrid:

    def test_contains_knots_and_stays_inside(self):
        knots = (0.0, 0.3, 1.1, 2.0)
        grid = error_grid(Partition(knots))
        for k in knots:
            assert k in grid
        assert grid[0] == 0.0 and grid[-1] == 2.0
        assert np.all(np.diff(grid) > 0.0)
        assert grid.size >= 10 ** 4

    def test_matches_per_interval_construction(self):
        knots = np.concatenate([[0.0], np.cumsum(1.3 ** np.arange(12))])
        offsets = np.cos((2.0 * np.arange(64) + 1.0) * math.pi / 128.0)
        pieces = [np.linspace(knots[0], knots[-1], 10 ** 4), knots]
        for j in range(knots.size - 1):
            pieces.append(0.5 * (knots[j] + knots[j + 1])
                          + 0.5 * (knots[j + 1] - knots[j]) * offsets)
        assert np.array_equal(error_grid(Partition(tuple(knots))),
                              np.unique(np.concatenate(pieces)))

    def test_measure_error_known_gap(self):
        part = Partition((0.0, math.pi))
        got = measure_error(np.sin, lambda ts: np.zeros_like(ts), part)
        assert_allclose(got, 1.0, rtol=1e-7)

    @staticmethod
    def _order4(knots, tf):
        quads = [(1.3, 2.1, -1.3, -2.1)] * (knots.size - 1)
        slope = tf.evaluators[1]
        return build_interpolant4(knots, quad_frequency_set(
            knots.size - 1, quads=quads), tf(knots),
            float(slope(knots[0])), float(slope(knots[-1])))

    @staticmethod
    def _scan(tf, s, knots):
        grid = error_grid(knots)
        return float(np.max(np.abs(tf(grid) - s(grid))))

    @pytest.mark.parametrize("n", [2, 17, 257, 513, 2049])
    def test_measure_error_is_the_sorted_grid_scan(self, n):
        tf = get_test_function("runge")
        knots = np.linspace(-1.0, 1.0, n)
        s = self._order4(knots, tf)
        assert measure_error(tf, s, knots) == self._scan(tf, s, knots)

    def test_measure_error_on_graded_and_order2(self):
        tf = get_test_function("sin")
        knots = np.cumsum(np.concatenate([[0.0], 1.15 ** np.arange(40)]))
        knots *= math.pi / knots[-1]
        s = self._order4(knots, tf)
        assert measure_error(tf, s, knots) == self._scan(tf, s, knots)
        basis = build_hat_basis(knots, [(-1.0, 2.0)] * (knots.size - 1))
        s2 = interpolate2(basis, tf(knots))
        assert measure_error(tf, s2, knots) == self._scan(tf, s2, knots)

    @pytest.mark.parametrize("n", [2, 513, 6400, 20000])
    def test_scan_reads_bounded_blocks_covering_the_grid(self, n):
        knots = np.linspace(0.0, 3.0, n)
        seen = []

        def record(ts):
            seen.append(np.array(ts))
            return np.zeros_like(ts)
        assert measure_error(np.sin, record, knots) > 0.0
        assert max(g.size for g in seen) <= _EVAL_BLOCK
        assert np.array_equal(np.unique(np.concatenate(seen)),
                              error_grid(knots))

    def test_nan_in_a_later_block_reaches_the_result(self):
        # NaN only at the Chebyshev points of interval 400 of 513 knots,
        # which the scan reads after its first block
        knots = np.linspace(0.0, 2.0, 513)
        a, b = knots[400], knots[401]
        offsets = np.cos((2.0 * np.arange(64) + 1.0) * math.pi / 128.0)
        bad = 0.5 * (a + b) + 0.5 * (b - a) * offsets
        calls = []

        def broken(ts):
            hit = np.isin(ts, bad)
            calls.append(bool(hit.any()))
            return np.where(hit, np.nan, np.sin(ts))
        assert math.isnan(measure_error(np.cos, broken, knots))
        assert calls[0] is False and sum(calls) == 1

    def test_scan_memory_stays_near_one_block(self):
        # the sorted whole-grid scan allocated 8.7 MB here
        tf = get_test_function("runge")
        knots = np.linspace(-1.0, 1.0, 4097)
        s = self._order4(knots, tf)
        tracemalloc.start()
        try:
            measure_error(tf, s, knots)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2 ** 20


class TestRunVerify:

    def test_order2_rows(self):
        report = run_verify(SIN2_CONFIG)
        assert report.passed
        assert [r["n"] for r in report.rows] == [5, 9, 17]
        for r in report.rows:
            assert r["empirical_error"] <= r["bound"]
            assert 0.0 < r["ratio"] < 1.0
            assert r["M2_max"] is None
            assert r["norm_bound"] == 4.0
            assert r["c_factor"] < 0.5 + 1e-12
        deltas = [r["delta"] for r in report.rows]
        assert_allclose(deltas, [math.pi / 4, math.pi / 8, math.pi / 16],
                        rtol=1e-14)

    def test_order4_row_fields(self):
        report = run_verify(SIN4_CONFIG)
        assert report.passed
        row = report.rows[0]
        assert row["norm_bound"] == 4.0
        assert row["M0_max"] == row["M2_max"] > 0.0
        assert row["bound"] == pytest.approx(
            5.0 * row["M2_max"] * row["M0_max"] * (1 + 2.0 ** 2) ** 2)

    def test_explicit_knots_and_quads(self):
        config = {"function": "exp", "knots": [0.0, 0.4, 0.9, 1.5],
                  "frequencies": {"quads": [[0.3, -1.1, -1.0, 0.4]]},
                  "order": 4}
        report = run_verify(config)
        assert report.passed
        assert report.rows[0]["n"] == 4

    def test_samples_mode_has_no_certificate(self):
        report = run_verify(SAMPLES2_CONFIG)
        assert report.passed
        row = report.rows[0]
        assert row["bound"] is None and row["empirical_error"] is None
        assert row["c_factor"] > 0.0

    def test_order2_row_without_dominance_is_certified(self):
        # same-sign hats (3, 4) past their monotone radius 0.288: at n = 5
        # and 9 the Gram is not dominant, so no norm bound, which the
        # order-2 bound does not read; every level certifies
        config = {"function": "sin", "n": [5, 9, 33], "order": 2,
                  "frequencies": {"pairs": [[3.0, 4.0]]}}
        report = run_verify(config)
        assert report.passed
        for row, t in zip(report.rows, ("2.53845", "1.05331")):
            assert row["norm_bound"] is None
            assert row["no_norm_bound"] == ("no diagonal dominance: "
                                             f"interval 0 has |T| = {t} >= 1")
            assert row["empirical_error"] <= row["bound"]
        assert report.rows[2]["norm_bound"] > 0.0
        assert "no_norm_bound" not in report.rows[2]
        for got, want in zip(run_bounds(config).rows, report.rows):
            assert got == dict(want, empirical_error=None, ratio=None,
                               passed=True)

    def test_inexact_clamp_gets_no_certificate(self):
        # zero end slopes are not sin's, and the certificate bounds only the
        # spline clamped at F's own: the error is measured, no bound given
        config = dict(SIN4_CONFIG, n=[5, 9], clamp=[0.0, 0.0],
                      frequencies={"xi": 0.0})
        report = run_verify(config)
        assert report.passed
        for row in report.rows:
            assert row["bound"] is None and row["ratio"] is None
            assert row["empirical_error"] > 1e-2
            assert row["no_bound"] == ("clamp [0.0, 0.0] is not the end "
                                       "slopes [1.0, -1.0] of sin")
        # sin's own end slopes, given by value, are certified
        exact = run_verify(dict(config, clamp=[1.0, -1.0]))
        assert exact.rows == run_verify(dict(config, clamp="exact")).rows
        assert exact.rows[0]["bound"] > 0.0 and "no_bound" not in exact.rows[0]

    def test_per_interval_xi_list(self):
        config = {"function": "sin", "knots": [0.0, 1.0, 2.0, math.pi],
                  "frequencies": {"xi": [0.5, 1.0, 2.0]}, "order": 2}
        report = run_verify(config)
        assert report.passed


class TestRunBounds:

    @pytest.mark.parametrize("config", [SIN2_CONFIG, SIN4_CONFIG,
                                        WEIGHTED_CONFIG, SAMPLES2_CONFIG,
                                        SAMPLES4_CONFIG,
                                        dict(SIN4_CONFIG, clamp=[0.0, 0.0])],
                             ids=["sin2", "sin4", "weighted", "samples2",
                                  "samples4", "inexact-clamp"])
    def test_rows_are_verify_rows_without_measurement(self, config):
        want = run_verify(config)
        for row in want.rows:
            row.update(empirical_error=None, ratio=None, passed=True)
        got = run_bounds(config)
        assert got.rows == want.rows
        assert got.passed and got.config == want.config


class TestConfigValidation:

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            run_verify(dict(SIN2_CONFIG, extra=1))

    def test_bad_order(self):
        with pytest.raises(ConfigError, match="order"):
            run_verify({**SIN2_CONFIG, "order": 3})

    def test_knots_and_n_conflict(self):
        with pytest.raises(ConfigError, match="not both"):
            run_verify(dict(SIN2_CONFIG, knots=[0.0, 1.0]))

    def test_domain_knots_mismatch(self):
        with pytest.raises(ConfigError, match="domain"):
            run_verify({"function": "sin", "domain": [0.0, 1.0],
                        "knots": [0.0, 0.5, 2.0],
                        "frequencies": {"xi": 0.0}, "order": 2})

    def test_sample_count_mismatch(self):
        with pytest.raises(ConfigError, match="samples"):
            run_verify({"function": {"samples": [1.0, 2.0]},
                        "knots": [0.0, 0.5, 1.0],
                        "frequencies": {"xi": 0.0}, "order": 2})

    def test_quads_need_order4(self):
        with pytest.raises(ConfigError, match="order 4"):
            run_verify({"function": "sin", "domain": [0.0, 1.0], "n": 3,
                        "frequencies": {"quads": [[0.0] * 4]}, "order": 2})

    def test_pairs_need_order2(self):
        with pytest.raises(ConfigError, match="order 2"):
            run_verify({"function": "sin", "domain": [0.0, 1.0], "n": 3,
                        "frequencies": {"pairs": [[0.0, 0.0]]}, "order": 4})

    def test_bad_frequencies_key(self):
        with pytest.raises(ConfigError, match="frequencies"):
            run_verify({"function": "sin", "domain": [0.0, 1.0], "n": 3,
                        "frequencies": {"freqs": 1.0}, "order": 2})

    def test_samples_need_explicit_clamp(self):
        with pytest.raises(ConfigError, match="clamp"):
            run_verify({"function": {"samples": [0.0, 1.0, 0.0]},
                        "knots": [0.0, 1.0, 2.0],
                        "frequencies": {"xi": 1.0}, "order": 4})

    def test_unresolvable_quads(self):
        with pytest.raises(ConfigError, match="candidate p"):
            run_verify({"function": "sin", "domain": [0.0, 1.0], "n": 3,
                        "frequencies": {"quads": [[0.0, 0.0, 1.0, 2.0]]},
                        "order": 4})


class TestConvergence:

    def test_order4_slope(self):
        config = {"function": "sin", "domain": [0.0, math.pi],
                  "frequencies": {"xi": 0.0}, "n": [5, 9, 17], "order": 4}
        study = convergence_study(config)
        assert not study.kernel
        assert study.expected == (3.7, 4.3)
        assert study.within_expected

    def test_order2_slope(self):
        study = convergence_study(SIN2_CONFIG)
        assert study.expected == (1.8, 2.2)
        assert study.within_expected

    def test_kernel_flag(self):
        config = {"function": "exp", "domain": [0.0, 1.0],
                  "frequencies": {"xi": 1.0}, "n": [5, 9, 17], "order": 4}
        study = convergence_study(config)
        assert study.kernel
        assert study.slope is None
        assert study.within_expected is None

    def test_needs_three_levels(self):
        with pytest.raises(ConfigError, match="3 grid levels"):
            convergence_study(dict(SIN2_CONFIG, n=[5, 9]))

    def test_needs_catalog_function(self):
        config = {"function": {"samples": [0.0, 1.0, 0.0]},
                  "knots": [0.0, 1.0, 2.0],
                  "frequencies": {"xi": 1.0}, "order": 2}
        with pytest.raises(ConfigError, match="catalog"):
            convergence_study(config)


def _cli(args, config=None, tmp_path=None):
    """Run `python -m expspline.cli` on the package under test: its source
    directory leads PYTHONPATH, so no install and no environment is needed."""
    argv = [sys.executable, "-m", "expspline.cli"] + list(args)
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv += ["-c", str(path)]
    return subprocess.run(argv, capture_output=True, text=True, env=_env())


def _env():
    """The environment with the package's source directory leading
    PYTHONPATH."""
    src = str(Path(expspline.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


def test_import_loads_no_scipy():
    # scipy is a test dependency only: a fresh interpreter importing the
    # package (the CLI among it) loads none of it, nor numpy.polynomial,
    # whose Gauss-Legendre rule the quadrature keeps as literals, nor
    # numpy.random, which the acceptance checks load only when they run
    # (it adds about 6 MB to a fresh import's peak RSS)
    done = subprocess.run(
        [sys.executable, "-c", "import sys, expspline, expspline.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
         "or m.startswith(('numpy.polynomial', 'numpy.random'))))"],
        capture_output=True, text=True, env=_env(), check=True)
    assert done.stdout == "[]\n"


def _main(args, config, tmp_path, capsys):
    """cli.main in-process, on config unless it is None: (exit code,
    stdout, stderr)."""
    args = list(args)
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        args += ["-c", str(path)]
    code = cli.main(args)
    out, err = capsys.readouterr()
    return code, out, err


class TestCommandsComputeWhatTheyPrint:

    @pytest.mark.parametrize("command, config, refusal", [
        # h = pi/4 is past the monotone radius of the hats (3, 4), whose
        # Gram is then not dominant: the order-4 bound reads its K
        ("interp4", dict(SIN4_CONFIG, n=5, frequencies={
            "quads": [[3.0, 4.0, -3.0, -4.0]]}), (3, "no diagonal dominance")),
        # stiff hats whose Gram factors pass the double range, though the
        # entries do not: verify certifies them (refusal None)
        ("interp2", {"function": "sin", "domain": [0.0, 1.0], "n": 3,
                     "frequencies": {"pairs": [[-900.0, 3.0]]}, "order": 2},
         None),
        ("interp2", {"function": "sin", "domain": [0.0, math.pi], "n": 3,
                     "frequencies": {"xi": 400.0}, "order": 2}, None),
    ], ids=["quads-past-monotone-radius", "pairs-gram-overflow",
            "xi-gram-overflow"])
    def test_interp_builds_what_verify_cannot_certify(self, command, config,
                                                      refusal, tmp_path,
                                                      capsys):
        code, out, err = _main(["verify", "--format", "json"], config,
                               tmp_path, capsys)
        if refusal is None:
            (row,) = json.loads(out)["rows"]
            assert code == 0 and row["empirical_error"] <= row["bound"]
        else:
            assert code == refusal[0] and refusal[1] in err
        code, out, _ = _main([command, "--eval-grid", "5"], config, tmp_path,
                             capsys)
        assert code == 0
        table = np.array([[float(x) for x in line.split(",")]
                          for line in out.splitlines()[1:]])
        assert table.shape[0] == 5 and np.all(np.isfinite(table))
        # every knot is a grid point, and the spline keeps its data there
        knots = np.linspace(*config["domain"], config["n"])
        at = np.isclose(table[:, :1], knots, rtol=0.0, atol=1e-11).any(axis=1)
        assert at.sum() == knots.size
        assert_allclose(table[at, 1], np.sin(table[at, 0]), atol=1e-11)

    def test_interp2_stiff_straddling_pair_is_finite(self, tmp_path, capsys):
        # (-2000, 0) on h = 1: |s h| = |d h| = 1000, so the flank's
        # exp(s (x - y)) overflows where its sinhc ratio underflows
        config = {"function": "sin", "domain": [0.0, 2.0], "n": 3,
                  "frequencies": {"pairs": [[-2000.0, 0.0]]}, "order": 2}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, _ = _main(["interp2", "--eval-grid", "2001"], config,
                                 tmp_path, capsys)
        assert code == 0
        table = np.array([[float(x) for x in line.split(",")]
                          for line in out.splitlines()[1:]])
        assert table.shape == (2001, 2) and np.all(np.isfinite(table))
        assert_allclose(table[::1000, 1], np.sin([0.0, 1.0, 2.0]), atol=0.0)

    def test_bounds_certifies_what_the_build_refuses(self, tmp_path, capsys):
        # 40 intervals graded by 1.5: the build misses its C^2 joins
        lengths = 1.5 ** np.arange(40)
        knots = np.append(np.cumsum(lengths) - lengths, lengths.sum()) \
            * (math.pi / lengths.sum())
        config = {"function": "sin", "knots": knots.tolist(), "order": 4,
                  "frequencies": {"xi": 1.3}, "clamp": [1.0, -1.0]}
        code, _, err = _main(["verify"], config, tmp_path, capsys)
        assert code != 0 and "C^2 joins" in err
        code, out, _ = _main(["bounds"], config, tmp_path, capsys)
        assert code == 0
        cells = out.splitlines()[1].split(",")
        assert cells[2] == "" and float(cells[3]) > 0.0

    def test_bounds_neither_builds_nor_measures(self, monkeypatch, tmp_path,
                                                capsys):
        want = _main(["bounds"], SIN4_CONFIG, tmp_path, capsys)

        def refuse(*args, **kwargs):
            raise OverflowError("refused")
        for name in ("build_interpolant4", "interpolate2", "measure_error"):
            monkeypatch.setattr(harness, name, refuse)
        assert _main(["verify"], SIN4_CONFIG, tmp_path, capsys)[0] == 3
        for config in (SIN2_CONFIG, WEIGHTED_CONFIG, SAMPLES4_CONFIG):
            assert _main(["bounds"], config, tmp_path, capsys)[0] == 0
        assert _main(["bounds"], SIN4_CONFIG, tmp_path, capsys) == want


class TestEmission:

    def test_csv_header_and_blanks(self, tmp_path, capsys):
        code, out, _ = _main(["verify"], SAMPLES2_CONFIG, tmp_path, capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ("n,delta,empirical_error,bound,ratio,"
                            "norm_bound,M0_max,M2_max,c_factor")
        cells = lines[1].split(",")
        assert cells[0] == "4"
        assert cells[2] == "" and cells[3] == "" and cells[4] == ""

    def test_csv_bytes_deterministic(self, tmp_path, capsys):
        a = _main(["verify"], SIN2_CONFIG, tmp_path, capsys)
        b = _main(["verify"], SIN2_CONFIG, tmp_path, capsys)
        assert a == b

    def test_emit_csv_and_json(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = dict(SIN2_CONFIG, n=5)
        for fmt in ("csv", "json"):
            code, printed, _ = _main(["verify", "--format", fmt, "-o",
                                      str(out)], config, tmp_path, capsys)
            assert code == 0
            assert printed == f"{out / ('verify.' + fmt)}\n"
        doc = json.loads((out / "verify.json").read_text())
        assert doc["passed"] is True
        assert doc["config"]["function"] == "sin"
        assert len(doc["rows"]) == 1

    def test_emit_rejects_unknown_format(self, tmp_path, capsys):
        code, out, err = _main(["verify", "--format", "yaml", "-o",
                                str(tmp_path / "out")], SIN2_CONFIG,
                               tmp_path, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "format" in err
        assert not (tmp_path / "out").exists()

    def test_json_round_trip(self, tmp_path, capsys):
        _, out, _ = _main(["verify", "--format", "json"],
                          dict(SIN2_CONFIG, n=5), tmp_path, capsys)
        row = json.loads(out)["rows"][0]
        assert row["M2_max"] is None
        assert row["passed"] is True


# two fixed results in place of the real checklist, whose details carry
# timings
ACCEPTANCE = [harness.CriterionResult(1, "first check", True, "ok"),
              harness.CriterionResult(12, "last check", False, "off by 2")]
ACCEPTANCE_TXT = "PASS  1 first check: ok\nFAIL 12 last check: off by 2\n"
ACCEPTANCE_JSON = """[
  {
    "detail": "ok",
    "index": 1,
    "passed": true,
    "title": "first check"
  },
  {
    "detail": "off by 2",
    "index": 12,
    "passed": false,
    "title": "last check"
  }
]
"""


class TestOutput:

    def test_acceptance_bytes_and_exit_code(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "acceptance_criteria", lambda: ACCEPTANCE)
        assert _main(["acceptance"], None, None, capsys) == (
            2, ACCEPTANCE_TXT, "")
        assert _main(["acceptance", "--format", "json"], None, None,
                     capsys) == (2, ACCEPTANCE_JSON, "")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command, config", [
        ("verify", SIN2_CONFIG), ("bounds", SIN2_CONFIG),
        ("gram", WEIGHTED_CONFIG), ("interp2", dict(SIN2_CONFIG, n=5)),
        ("interp4", SIN4_CONFIG), ("converge", SIN2_CONFIG),
        ("acceptance", None)])
    def test_out_dir_holds_the_printed_bytes(self, monkeypatch, tmp_path,
                                             capsys, command, config, fmt):
        monkeypatch.setattr(cli, "acceptance_criteria", lambda: ACCEPTANCE)
        argv = [command, "--format", fmt]
        code, out, err = _main(argv, config, tmp_path, capsys)
        assert out
        outdir = tmp_path / "made" / "here"
        ext = "txt" if (command, fmt) == ("acceptance", "csv") else fmt
        path = outdir / f"{command}.{ext}"
        assert _main(argv + ["-o", str(outdir)], config, tmp_path,
                     capsys) == (code, f"{path}\n", err)
        assert sorted(outdir.iterdir()) == [path]
        assert path.read_bytes() == out.encode("ascii")

    @pytest.mark.parametrize("content, refusal", [
        (None, "cannot read config"),
        ("{not json", "config is not valid JSON"),
        ("[1, 2]", "config must be a JSON object")],
        ids=["missing", "not-json", "not-an-object"])
    def test_unreadable_config_is_exit_1(self, tmp_path, capsys, content,
                                         refusal):
        path = tmp_path / "config.json"
        if content is not None:
            path.write_text(content)
        code = cli.main(["verify", "-c", str(path)])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {refusal}")

    def test_eval_grid_of_one_point_is_exit_1(self, tmp_path, capsys):
        assert _main(["interp4", "--eval-grid", "1"], SIN4_CONFIG, tmp_path,
                     capsys) == (1, "", "error: --eval-grid must be at "
                                        "least 2\n")

    def test_converge_on_a_kernel_function_is_exit_0(self, tmp_path,
                                                      capsys):
        config = {"function": "exp", "domain": [0.0, 1.0],
                  "frequencies": {"xi": 1.0}, "n": [5, 9, 17], "order": 4}
        code, out, _ = _main(["converge"], config, tmp_path, capsys)
        assert code == 0
        assert out.splitlines()[-1] == ("# slope = , expected [3.7, 4.3], "
                                        "kernel = true")
        code, out, _ = _main(["converge", "--format", "json"], config,
                             tmp_path, capsys)
        doc = json.loads(out)
        assert code == 0 and doc["kernel"] is True
        assert doc["slope"] is None and doc["within_expected"] is None
        assert [set(row) for row in doc["rows"]] == [{
            "n", "delta", "empirical_error", "bound", "ratio", "norm_bound",
            "M0_max", "M2_max", "c_factor"}] * 3


class TestCli:

    def test_verify_csv_stdout(self, tmp_path, capsys):
        code, out, _ = _main(["verify"], dict(SIN2_CONFIG, n=5), tmp_path,
                             capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("n,delta,empirical_error")
        assert len(lines) == 2

    def test_verify_deterministic_bytes(self, tmp_path):
        first = _cli(["verify"], dict(SIN2_CONFIG, n=[5, 9]), tmp_path)
        second = _cli(["verify"], dict(SIN2_CONFIG, n=[5, 9]), tmp_path)
        assert first.returncode == second.returncode == 0
        assert first.stdout.encode() == second.stdout.encode()

    def test_verify_writes_file(self, tmp_path, capsys):
        out = tmp_path / "results"
        code, _, _ = _main(["verify", "-o", str(out), "--format", "json"],
                           dict(SIN2_CONFIG, n=5), tmp_path, capsys)
        assert code == 0
        doc = json.loads((out / "verify.json").read_text())
        assert doc["passed"] is True

    def test_usage_error_is_exit_1(self, tmp_path, capsys):
        code, _, err = _main(["verify"], {"function": "sin", "n": 5,
                                          "frequencies": {"xi": 1.0}},
                             tmp_path, capsys)
        assert code == 1
        assert "order" in err

    def test_unknown_subcommand_is_exit_1(self, capsys):
        assert _main(["frobnicate"], None, None, capsys)[0] == 1

    def test_bound_violation_is_exit_2(self, monkeypatch, tmp_path, capsys):
        # a measured error of 1 stands in for one past the bound
        monkeypatch.setattr(harness, "measure_error", lambda *args: 1.0)
        code, out, _ = _main(["verify"], dict(SIN4_CONFIG, n=5), tmp_path,
                             capsys)
        assert code == 2
        assert float(out.splitlines()[1].split(",")[4]) > 1.0

    def test_numerical_failure_is_exit_3(self, tmp_path, capsys):
        # the slope system's elimination overflows
        config = {"function": "sin", "domain": [0.0, 1.0], "n": 5,
                  "frequencies": {"quads": [[-1e3] * 4]}, "order": 4,
                  "clamp": [1.0, math.cos(1.0)]}
        code, _, err = _main(["verify"], config, tmp_path, capsys)
        assert code == 3
        assert "condition bound overflows" in err

    def test_interp4_grid_and_json(self, tmp_path, capsys):
        code, out, _ = _main(["interp4", "--eval-grid", "5"], SIN4_CONFIG,
                             tmp_path, capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,s,ds,d2s"
        assert len(lines) == 6
        mid = lines[3].split(",")
        assert float(mid[1]) == pytest.approx(math.sin(float(mid[0])),
                                              abs=1e-6)
        _, out, _ = _main(["interp4", "--format", "json"], SIN4_CONFIG,
                          tmp_path, capsys)
        doc = json.loads(out)
        assert len(doc["coefficients"]) == 8
        assert doc["p"] == 0.0
        # the rows (y_j, y_(j+1), G(t_j+), G(t_(j+1)-)) reload into the
        # spline the grid was printed from
        spline = spline_from_coefficients(doc["knots"], doc["quads"],
                                          doc["coefficients"])
        grid = np.linspace(doc["knots"][0], doc["knots"][-1], 5)
        for t, line in zip(grid, lines[1:]):
            assert line.split(",") == ["%.12g" % v for v in (
                t, *(spline(t, order=r) for r in range(3)))]

    def test_interp2_requires_order2_config(self, tmp_path, capsys):
        code, _, err = _main(["interp2"], SIN4_CONFIG, tmp_path, capsys)
        assert code == 1
        assert "interp2" in err

    def test_gram_dump(self, tmp_path, capsys):
        code, out, _ = _main(["gram"], dict(SIN2_CONFIG, n=4), tmp_path,
                             capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "i,diag,sub,super,rhs"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[2] == ""
        assert float(first[1]) > 0.0

    def test_gram_dump_order4_solves_to_projection(self, tmp_path, capsys):
        code, out, _ = _main(["gram", "--format", "json"], WEIGHTED_CONFIG,
                             tmp_path, capsys)
        assert code == 0
        doc = json.loads(out)
        knots = np.linspace(0.0, math.pi, 9)
        p, canon = resolve_weight(quad_frequency_set(8, quads=WEIGHTED_CONFIG[
            "frequencies"]["quads"][0]))
        assert doc["p"] == p == 1.0
        dense = np.diag(doc["diag"]) + np.diag(doc["sub"], -1) \
            + np.diag(doc["super"], 1)
        basis = build_hat_basis(knots, [q[:2] for q in canon])
        want = project(basis, get_test_function("sin"), p).coeffs
        assert_allclose(np.linalg.solve(dense, doc["rhs"]), want,
                        rtol=1e-10)

    @pytest.mark.parametrize("command", ["interp4", "gram"])
    def test_as_given_split_prints_positive_zero_weight(self, tmp_path,
                                                        capsys, command):
        # the as-given split of (1.3, 2.1, -1.3, -2.1) yields p = -(x - x)
        config = dict(SIN4_CONFIG, frequencies={"quads": [[1.3, 2.1, -1.3,
                                                           -2.1]]})
        code, out, _ = _main([command, "--format", "json"], config, tmp_path,
                             capsys)
        assert code == 0
        assert '"p": 0.0' in out
        assert math.copysign(1.0, json.loads(out)["p"]) == 1.0

    def test_interp2_dump_prints_the_resolved_weight(self, tmp_path,
                                                      capsys):
        # "1" passes validation as the weight 1.0 the hats are built with
        config = dict(SIN2_CONFIG, n=5, p="1")
        for command in ("interp2", "gram"):
            code, out, _ = _main([command, "--format", "json"], config,
                                 tmp_path, capsys)
            assert code == 0 and '"p": 1.0' in out

    def test_converge_exit_codes(self, tmp_path, capsys):
        code, out, _ = _main(["converge", "--format", "json"], SIN2_CONFIG,
                             tmp_path, capsys)
        assert code == 0
        doc = json.loads(out)
        assert 1.8 <= doc["slope"] <= 2.2
        config = {"function": "runge", "domain": [-1.0, 1.0],
                  "frequencies": {"xi": 0.0}, "n": [3, 4, 5], "order": 4}
        assert _main(["converge"], config, tmp_path, capsys)[0] in (0, 2)

    def test_bounds_subcommand(self, tmp_path, capsys):
        code, out, _ = _main(["bounds"], dict(SIN2_CONFIG, n=5), tmp_path,
                             capsys)
        assert code == 0
        cells = out.splitlines()[1].split(",")
        assert cells[2] == "" and cells[3] != ""

    @pytest.mark.parametrize("config", [
        dict(SIN2_CONFIG, frequencies={"pairs": 5}),
        dict(SIN4_CONFIG, frequencies={"quads": 5}),
        dict(SIN2_CONFIG, n=3, frequencies={"pairs": [[1.0, 2.0], 3.0]}),
        dict(SIN4_CONFIG, n=3,
             frequencies={"quads": [[1.0, 2.0, -1.0, -2.0], 3.0]}),
        dict(SIN4_CONFIG, clamp=5),
        dict(SIN4_CONFIG, domain=5),
        dict(SIN4_CONFIG, n=[None]),
        dict(SIN4_CONFIG, n=1e400),
    ], ids=["pairs-scalar", "quads-scalar", "pairs-ragged", "quads-ragged",
            "clamp-scalar", "domain-scalar", "n-null", "n-infinite"])
    @pytest.mark.parametrize("command", ["verify", "bounds"])
    def test_malformed_config_is_exit_1(self, tmp_path, capsys, command,
                                        config):
        code, out, err = _main([command], config, tmp_path, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_refused_build_is_exit_3(self, tmp_path, capsys):
        # 40 intervals graded by 1.5: the build's C^2 join gate refuses it
        # with a LinAlgError, a numerical failure
        lengths = 1.5 ** np.arange(40)
        knots = np.append(np.cumsum(lengths) - lengths, lengths.sum()) \
            * (math.pi / lengths.sum())
        config = {"function": "sin", "knots": knots.tolist(), "order": 4,
                  "frequencies": {"xi": 1.3}, "clamp": [1.0, -1.0]}
        code, _, err = _main(["verify"], config, tmp_path, capsys)
        assert code == 3
        assert err.startswith("numerical failure: order-4 interpolant")
