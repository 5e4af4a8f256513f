"""Acceptance checklist: twelve end-to-end criteria with pinned tolerances.

Each test runs one criterion from expspline.harness, prints its PASS/FAIL
line with the measured values, and asserts the verdict.  The same checklist
is runnable without pytest through `expspline acceptance`; the last test
runs it end to end as `python -m expspline.cli acceptance` with the current
interpreter and the package under test, so it needs no installed console
script and no PYTHONPATH.
"""

from test_harness import _cli

from expspline.harness import (
    _criterion_convolution,
    _criterion_cubic_limit,
    _criterion_derivative_bound,
    _criterion_dominance,
    _criterion_gram,
    _criterion_hat_sums,
    _criterion_kernel_reproduction,
    _criterion_omega_green,
    _criterion_orthogonality,
    _criterion_st_bounds,
    _criterion_symmetric_m,
    _criterion_xi_uniform,
)


def _check(index, title, fn):
    passed, detail = fn()
    tag = "PASS" if passed else "FAIL"
    print(f"{tag} {index:2d} {title}: {detail}")
    assert passed, f"criterion {index} ({title}): {detail}"


def test_criterion_01_convolution_identity():
    # 50 random frequency vectors, total size <= 8, |lambda| <= 5,
    # y in (0, 2]; scaled deviation <= 1e-8 and under 10 seconds
    _check(1, "convolution identity", _criterion_convolution)


def test_criterion_02_gram_closed_forms():
    # closed entries vs adaptive quadrature <= 1e-9 relative over
    # xi in {0, 0.1, 1, 10}, h in {0.1, 1, 2}, p in {0, 1};
    # polynomial tridiagonal thirds exact to 1e-12
    _check(2, "Gram closed forms vs quadrature", _criterion_gram)


def test_criterion_03_symmetric_interval_constant():
    # interval constant equals span^2 times the unit-interval value at
    # xi*span in {0.01, 0.5, 2, 10} to 1e-10; never above span^2/8
    _check(3, "symmetric interval constant identity", _criterion_symmetric_m)


def test_criterion_04_dominance_factors():
    # symmetric random bases stay at c <= 1/2; mixed-sign bases respect the
    # closed cap below 1; the all-positive pair (2, 1) must exhibit c > 1
    _check(4, "Gram dominance factors", _criterion_dominance)


def test_criterion_05_s_and_t_bounds():
    # 1e4 random draws: S <= 2 and symmetric T <= 1/2 up to 1e-11 relative
    # evaluation roundoff; polynomial S identically 3/2
    _check(5, "S and T bounds", _criterion_st_bounds)


def test_criterion_06_cubic_limit():
    # sin on [0, pi], xi = 0, n in {5, 9, 17}: error <= (5/64) delta^4 with
    # ratio < 1 in every row, slope in [3.7, 4.3], under 5 seconds
    _check(6, "order-4 bound in the cubic limit", _criterion_cubic_limit)


def test_criterion_07_xi_uniformity():
    # xi in {0.5, 1, 2, 5} with max|LF| = (1 + xi^2)^2: every row passes
    _check(7, "order-4 bound uniform in frequency", _criterion_xi_uniform)


def test_criterion_08_kernel_reproduction():
    # e^t at xi = 1 and t^3 at xi = 0 reproduced to 1e-9 relative by the
    # order-4 interpolant; order-2 interpolation exact at the knots
    _check(8, "kernel reproduction", _criterion_kernel_reproduction)


def test_criterion_09_residual_orthogonality():
    # weighted residual inner products <= 1e-7 for sin, xi in {0, 1},
    # n in {5, 9}
    _check(9, "residual orthogonality", _criterion_orthogonality)


def test_criterion_10_omega_green_properties():
    # boundary values <= 1e-12, interior positivity, |L omega + 1| <= 1e-6
    # by finite differences, omega below span * |G| for straddling pairs,
    # span * |G| below span^2/4 on 1e3 random pairs
    _check(10, "Omega and Green function properties", _criterion_omega_green)


def test_criterion_11_hat_sums():
    # sum of hats <= 2 always, <= 1 for mixed-sign pairs, and equal to 1
    # within 1e-14 for polynomial hats
    _check(11, "hat sum bounds", _criterion_hat_sums)


def test_criterion_12_derivative_level_bound():
    # max |(D - l2)(D - l3)(F - I4 F)| <= 5 max|LF| for the criterion-7
    # symmetric configurations
    _check(12, "second-derivative residual bound",
           _criterion_derivative_bound)


def test_checklist_runs_through_the_cli():
    proc = _cli(["acceptance"])
    lines = proc.stdout.strip().splitlines()
    print(proc.stdout)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert len(lines) == 12
    assert all(line.startswith("PASS") for line in lines)
