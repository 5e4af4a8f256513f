import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad as scipy_quad

from expspline.quadrature import (_GL_NODES, _GL_WEIGHTS, QuadratureError,
                                  integrate)


def test_rule_is_leggauss_15():
    nodes, weights = np.polynomial.legendre.leggauss(15)
    # bit for bit: every quadrature result depends on the last bits
    assert _GL_NODES.tobytes() == nodes.tobytes()
    assert _GL_WEIGHTS.tobytes() == weights.tobytes()


@pytest.mark.parametrize("k", range(30))
def test_rule_integrates_monomials_exactly(k):
    # 15 points are exact through degree 29
    exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
    assert abs(float(np.dot(_GL_WEIGHTS, _GL_NODES ** k)) - exact) <= 1e-15


def test_smooth_against_scipy():
    f = lambda t: np.exp(t) * np.sin(3.0 * t)
    got, err = integrate(f, 0.0, 1.0)
    ref, _ = scipy_quad(lambda t: math.exp(t) * math.sin(3.0 * t), 0.0, 1.0,
                        epsabs=1e-13, epsrel=1e-13)
    assert_allclose(got, ref, rtol=1e-11)
    assert err < 1e-9


def test_kink_with_breakpoint():
    f = lambda t: np.abs(t - 0.3)
    got, _ = integrate(f, 0.0, 1.0, breakpoints=[0.3])
    exact = 0.5 * 0.3 ** 2 + 0.5 * 0.7 ** 2
    assert_allclose(got, exact, rtol=1e-12)


def test_oscillatory():
    got, _ = integrate(lambda t: np.sin(40.0 * t), 0.0, 5.0)
    assert_allclose(got, (1.0 - math.cos(200.0)) / 40.0, atol=1e-11)


def test_reversed_endpoints_flip_sign():
    fwd, _ = integrate(np.exp, 0.0, 1.0)
    rev, _ = integrate(np.exp, 1.0, 0.0)
    assert_allclose(rev, -fwd, rtol=1e-14)


def test_empty_interval():
    assert integrate(np.exp, 0.7, 0.7) == (0.0, 0.0)


def test_panel_budget_exhaustion_raises():
    f = lambda t: 1.0 / np.abs(t - 0.37)
    with np.errstate(divide="ignore"), pytest.raises(QuadratureError):
        integrate(f, 0.0, 1.0, max_panels=64)


def test_breakpoints_outside_interval_ignored():
    got, _ = integrate(np.exp, 0.0, 1.0, breakpoints=[-5.0, 0.5, 9.0])
    assert_allclose(got, math.e - 1.0, rtol=1e-12)
