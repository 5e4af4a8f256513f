"""Tests for the verification harness and the command line interface."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

import expspline
from expspline.errbound2 import M_constant, interp2_error_bound
from expspline.expcore import operator_apply
from expspline.harness import (
    CATALOG,
    ConfigError,
    convergence_study,
    emit,
    error_grid,
    get_test_function,
    max_abs_L,
    measure_error,
    render_csv,
    render_json,
    run_verify,
)
from expspline.hatbasis import Partition, build_hat_basis
from expspline.l2proj import project
from expspline.spline4 import (
    quad_frequency_set,
    resolve_weight,
    spline_from_coefficients,
)


SIN2_CONFIG = {"function": "sin", "domain": [0.0, math.pi],
               "frequencies": {"xi": 1.0}, "n": [5, 9, 17], "order": 2}
SIN4_CONFIG = {"function": "sin", "domain": [0.0, math.pi],
               "frequencies": {"xi": 2.0}, "n": 9, "order": 4}


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
        vals = operator_apply(quad, tf.derivatives(ts, len(quad) + 1))
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
        # a first pass and a grid for each of the two sets
        assert seen[1] == 4
        per = [max_abs_L(tf, knots[j:j + 2], [sets[j]]) for j in range(8)]
        dense = max(_dense_scan(tf, knots[j:j + 2], sets[j])
                    for j in range(8))
        assert dense <= got <= (1.0 + 3e-7) * dense
        assert got <= (1.0 + 3e-7) * max(per)

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


class TestErrorGrid:

    def test_contains_knots_and_stays_inside(self):
        knots = (0.0, 0.3, 1.1, 2.0)
        grid = error_grid(Partition(knots))
        for k in knots:
            assert k in grid
        assert grid[0] == 0.0 and grid[-1] == 2.0
        assert np.all(np.diff(grid) > 0.0)
        assert grid.size >= 10 ** 4

    def test_measure_error_known_gap(self):
        part = Partition((0.0, math.pi))
        got = measure_error(np.sin, lambda ts: np.zeros_like(ts), part)
        assert_allclose(got, 1.0, rtol=1e-7)


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
        config = {"function": {"samples": [0.0, 0.7, 0.9, 1.0]},
                  "knots": [0.0, 0.5, 1.0, 1.5],
                  "frequencies": {"pairs": [[-1.0, 1.0]]}, "order": 2}
        report = run_verify(config)
        assert report.passed
        row = report.rows[0]
        assert row["bound"] is None and row["empirical_error"] is None
        assert row["c_factor"] > 0.0

    def test_wrong_clamp_violates_certificate(self):
        # zero end slopes are not sin's derivatives, so the clamped-error
        # certificate no longer applies and the report must say so
        config = dict(SIN4_CONFIG, n=5, clamp=[0.0, 0.0],
                      frequencies={"xi": 0.0})
        report = run_verify(config)
        assert not report.passed
        assert report.rows[0]["ratio"] > 1.0

    def test_per_interval_xi_list(self):
        config = {"function": "sin", "knots": [0.0, 1.0, 2.0, math.pi],
                  "frequencies": {"xi": [0.5, 1.0, 2.0]}, "order": 2}
        report = run_verify(config)
        assert report.passed


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


class TestEmission:

    def test_csv_header_and_blanks(self):
        config = {"function": {"samples": [0.0, 0.7, 0.9, 1.0]},
                  "knots": [0.0, 0.5, 1.0, 1.5],
                  "frequencies": {"pairs": [[-1.0, 1.0]]}, "order": 2}
        text = render_csv(run_verify(config).rows)
        lines = text.splitlines()
        assert lines[0] == ("n,delta,empirical_error,bound,ratio,"
                            "norm_bound,M0_max,M2_max,c_factor")
        cells = lines[1].split(",")
        assert cells[0] == "4"
        assert cells[2] == "" and cells[3] == "" and cells[4] == ""

    def test_csv_bytes_deterministic(self):
        a = render_csv(run_verify(SIN2_CONFIG).rows)
        b = render_csv(run_verify(SIN2_CONFIG).rows)
        assert a.encode() == b.encode()

    def test_emit_csv_and_json(self, tmp_path):
        report = run_verify(dict(SIN2_CONFIG, n=5))
        p_csv = emit(report, "csv", tmp_path)
        p_json = emit(report, "json", tmp_path)
        assert p_csv.name == "verify.csv"
        doc = json.loads(p_json.read_text())
        assert doc["passed"] is True
        assert doc["config"]["function"] == "sin"
        assert len(doc["rows"]) == 1

    def test_emit_rejects_unknown_format(self, tmp_path):
        report = run_verify(dict(SIN2_CONFIG, n=5))
        with pytest.raises(ConfigError, match="format"):
            emit(report, "yaml", tmp_path)

    def test_json_round_trip(self):
        report = run_verify(dict(SIN2_CONFIG, n=5))
        doc = json.loads(render_json(report))
        row = doc["rows"][0]
        assert row["M2_max"] is None
        assert row["passed"] is True


def _cli(args, config=None, tmp_path=None):
    """Run `python -m expspline.cli` on the package under test: its source
    directory leads PYTHONPATH, so no install and no environment is needed."""
    argv = [sys.executable, "-m", "expspline.cli"] + list(args)
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv += ["-c", str(path)]
    src = str(Path(expspline.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run(argv, capture_output=True, text=True, env=env)


class TestCli:

    def test_verify_csv_stdout(self, tmp_path):
        proc = _cli(["verify"], dict(SIN2_CONFIG, n=5), tmp_path)
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0].startswith("n,delta,empirical_error")
        assert len(lines) == 2

    def test_verify_deterministic_bytes(self, tmp_path):
        first = _cli(["verify"], dict(SIN2_CONFIG, n=[5, 9]), tmp_path)
        second = _cli(["verify"], dict(SIN2_CONFIG, n=[5, 9]), tmp_path)
        assert first.returncode == second.returncode == 0
        assert first.stdout.encode() == second.stdout.encode()

    def test_verify_writes_file(self, tmp_path):
        out = tmp_path / "results"
        proc = _cli(["verify", "-o", str(out), "--format", "json"],
                    dict(SIN2_CONFIG, n=5), tmp_path)
        assert proc.returncode == 0
        doc = json.loads((out / "verify.json").read_text())
        assert doc["passed"] is True

    def test_usage_error_is_exit_1(self, tmp_path):
        proc = _cli(["verify"], {"function": "sin", "n": 5,
                                 "frequencies": {"xi": 1.0}}, tmp_path)
        assert proc.returncode == 1
        assert "order" in proc.stderr

    def test_unknown_subcommand_is_exit_1(self):
        proc = _cli(["frobnicate"])
        assert proc.returncode == 1

    def test_bound_violation_is_exit_2(self, tmp_path):
        config = dict(SIN4_CONFIG, n=5, clamp=[0.0, 0.0],
                      frequencies={"xi": 0.0})
        proc = _cli(["verify"], config, tmp_path)
        assert proc.returncode == 2

    def test_numerical_failure_is_exit_3(self, tmp_path):
        config = {"function": "sin", "domain": [0.0, math.pi],
                  "frequencies": {"xi": 400.0}, "n": 3, "order": 2}
        proc = _cli(["verify"], config, tmp_path)
        assert proc.returncode == 3
        assert "overflow" in proc.stderr

    def test_interp4_grid_and_json(self, tmp_path):
        proc = _cli(["interp4", "--eval-grid", "5"], SIN4_CONFIG, tmp_path)
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "t,s,ds,d2s"
        assert len(lines) == 6
        mid = lines[3].split(",")
        assert float(mid[1]) == pytest.approx(math.sin(float(mid[0])),
                                              abs=1e-6)
        proc = _cli(["interp4", "--format", "json"], SIN4_CONFIG, tmp_path)
        doc = json.loads(proc.stdout)
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

    def test_interp2_requires_order2_config(self, tmp_path):
        proc = _cli(["interp2"], SIN4_CONFIG, tmp_path)
        assert proc.returncode == 1
        assert "interp2" in proc.stderr

    def test_gram_dump(self, tmp_path):
        proc = _cli(["gram"], dict(SIN2_CONFIG, n=4), tmp_path)
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "i,diag,sub,super,rhs"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[2] == ""
        assert float(first[1]) > 0.0

    def test_gram_dump_order4_solves_to_projection(self, tmp_path):
        config = dict(SIN4_CONFIG, frequencies={"quads": [[0.5, 2.0, -1.5,
                                                           -3.0]]})
        proc = _cli(["gram", "--format", "json"], config, tmp_path)
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        knots = np.linspace(0.0, math.pi, 9)
        p, canon = resolve_weight(quad_frequency_set(8, quads=config[
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
                                                        command):
        # the as-given split of (1.3, 2.1, -1.3, -2.1) yields p = -(x - x)
        config = dict(SIN4_CONFIG, frequencies={"quads": [[1.3, 2.1, -1.3,
                                                           -2.1]]})
        proc = _cli([command, "--format", "json"], config, tmp_path)
        assert proc.returncode == 0
        assert '"p": 0.0' in proc.stdout
        assert math.copysign(1.0, json.loads(proc.stdout)["p"]) == 1.0

    def test_converge_exit_codes(self, tmp_path):
        proc = _cli(["converge", "--format", "json"], SIN2_CONFIG, tmp_path)
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert 1.8 <= doc["slope"] <= 2.2
        config = {"function": "runge", "domain": [-1.0, 1.0],
                  "frequencies": {"xi": 0.0}, "n": [3, 4, 5], "order": 4}
        proc = _cli(["converge"], config, tmp_path)
        assert proc.returncode in (0, 2)

    def test_bounds_subcommand(self, tmp_path):
        proc = _cli(["bounds"], dict(SIN2_CONFIG, n=5), tmp_path)
        assert proc.returncode == 0
        cells = proc.stdout.splitlines()[1].split(",")
        assert cells[2] == "" and cells[3] != ""
