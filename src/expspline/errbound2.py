"""Certified pointwise error constants for second order interpolation.

The error of interpolation with a two-frequency pair on [a, b] is governed by
omega, the solution of L omega = -1 with omega(a) = omega(b) = 0 where
L = (d/dt - lambda_0)(d/dt - lambda_1).  Its maximum M over the interval
multiplies max|LF| in the pointwise bound.  omega scales with the interval,
so M is found once per rescaled pair lambda*(b-a) on the unit interval,
where omega is unimodal and a few batched bracket-shrinking rounds locate
its maximum; a bound over a partition costs one search per distinct
(pair, length) key, not one per interval.  omega is also minus the integral
of the Green function of L with Dirichlet conditions, which supplies an
independent quadrature route and the comparison inequalities used in the
tests.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .expcore import fundamental_eval
from .hatbasis import group_intervals
from .quadrature import integrate

_BRACKET_POINTS = 17

_BRACKET_WIDTH = 1e-10


def mstar(x):
    """Profile of the symmetric interval constant: M = (b-a)^2 * mstar(xi*(b-a)).

    mstar(x) = 2 sinh(x/4)^2 / (x^2 cosh(x/2)), continued by 1/8 at zero.
    Even, positive, decreasing in |x|, with limit 1/x^2 at infinity.
    """
    u = abs(float(x))
    if u < 1e-4:
        return 0.125 - 5.0 * u * u / 384.0
    if u < 600.0:
        s = math.sinh(0.25 * u)
        return 2.0 * s * s / (u * u * math.cosh(0.5 * u))
    sech = 2.0 * math.exp(-0.5 * u) / (1.0 + math.exp(-u))
    return (1.0 - sech) / (u * u)


def _check_interval(a, b):
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("interval endpoints must be finite")
    if not b > a:
        raise ValueError(f"need a < b, got [{a}, {b}]")


def omega_eval(lam0, lam1, a, b, t):
    """Evaluate omega, the nonnegative solution of L omega = -1 vanishing at
    both endpoints.

    Written as a sum of two products of fundamental functions, each factor
    positive inside (a, b) and vanishing exactly at one endpoint, so the
    evaluation is cancellation-free and the boundary values are exact zeros.
    """
    _check_interval(a, b)
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    ts = np.atleast_1d(t_arr).astype(float)
    if np.any(ts < a) or np.any(ts > b):
        raise ValueError("t must lie inside [a, b]")
    span = b - a
    pair = (lam0, lam1)
    neg = (-lam0, -lam1)
    neg0 = (-lam0, -lam1, 0.0)
    tau_a = ts - a
    tau_b = ts - b
    term1 = -fundamental_eval(pair, tau_b) * fundamental_eval(neg0, tau_a) \
        / fundamental_eval(neg, span)
    term2 = fundamental_eval(pair, tau_a) * fundamental_eval(neg0, tau_b) \
        / fundamental_eval(pair, span)
    out = term1 + term2
    return float(out[0]) if scalar else out.reshape(t_arr.shape)


def green_eval(lam0, lam1, a, b, t, s):
    """Green function of L on [a, b] with zero boundary values; G <= 0.

    Both triangular branches are products of one fundamental factor in t and
    one in s; they agree on the diagonal.
    """
    _check_interval(a, b)
    t_arr = np.asarray(t, dtype=float)
    s_arr = np.asarray(s, dtype=float)
    if np.any(t_arr < a) or np.any(t_arr > b) or np.any(s_arr < a) \
            or np.any(s_arr > b):
        raise ValueError("both arguments must lie inside [a, b]")
    span = b - a
    pair = (lam0, lam1)
    neg = (-lam0, -lam1)
    tb, sb = np.broadcast_arrays(t_arr, s_arr)
    scalar = tb.ndim == 0
    tb = np.atleast_1d(tb).astype(float)
    sb = np.atleast_1d(sb).astype(float)
    lower = fundamental_eval(pair, tb - b) \
        * fundamental_eval(neg, sb - a) / fundamental_eval(neg, span)
    upper = fundamental_eval(pair, tb - a) \
        * fundamental_eval(neg, sb - b) / fundamental_eval(pair, span)
    out = np.where(sb <= tb, lower, upper)
    return float(out[0]) if scalar else out.reshape(np.broadcast(t_arr, s_arr).shape)


def omega_via_green(lam0, lam1, a, b, t):
    """Quadrature of -G(t, .) over [a, b]; equals omega_eval up to tolerance."""
    _check_interval(a, b)
    t = float(t)
    if not a <= t <= b:
        raise ValueError("t must lie inside [a, b]")

    def integrand(ss):
        return -green_eval(lam0, lam1, a, b, t, ss)

    val, _ = integrate(integrand, a, b, breakpoints=[t])
    return val


@lru_cache(maxsize=4096)
def _m_unit(lam0_scaled, lam1_scaled):
    """Maximum of omega on the unit interval for rescaled frequencies.

    omega is strictly unimodal on (0, 1).  At a critical point omega' = 0,
    so L omega = -1 reads omega'' = -1 - l0*l1*omega there.  A local minimum
    has omega'' >= 0 and a local maximum omega'' <= 0, so a minimum between
    two maxima needs l0*l1 < 0 and omega_min >= 1/|l0*l1| >= omega_max.
    Then omega = -1/(l0*l1) and omega' = 0 at one point, and by uniqueness
    omega is that constant, which contradicts omega(0) = 0.  Hence the
    maximum lies between the neighbours of the largest of any set of
    samples.  Each round samples _BRACKET_POINTS equispaced points of the
    bracket in one batched omega_eval call and shrinks the bracket to the
    neighbours of the best, until it is narrower than _BRACKET_WIDTH; the
    largest sample is returned with its abscissa.  Results are cached keyed
    by the scale-invariant products lambda*(b-a), which makes repeated
    intervals of a uniform partition free after the first.
    """
    lo, hi = 0.0, 1.0
    best = (-math.inf, 0.5)
    while hi - lo > _BRACKET_WIDTH:
        xs = np.linspace(lo, hi, _BRACKET_POINTS)
        vals = omega_eval(lam0_scaled, lam1_scaled, 0.0, 1.0, xs)
        i = int(np.argmax(vals))
        best = max(best, (float(vals[i]), float(xs[i])))
        i = min(max(i, 1), _BRACKET_POINTS - 2)
        lo, hi = xs[i - 1], xs[i + 1]
    return best


@dataclass(frozen=True)
class IntervalBoundData:
    """Interval constant M = max omega and where it is attained."""
    a: float
    b: float
    lam0: float
    lam1: float
    value: float
    t_max: float


def M_constant(lam0, lam1, a, b):
    """Interval constant for the pointwise bound |F - I2 F| <= M max|LF|.

    Reduced to the unit interval through omega's scaling law
    M(lambda; a, b) = (b-a)^2 M(lambda*(b-a); 0, 1) and maximised
    numerically there.
    """
    _check_interval(a, b)
    span = b - a
    m_unit, t_unit = _m_unit(lam0 * span, lam1 * span)
    value = span * span * m_unit
    t_max = a + span * t_unit
    if not (value > 0.0 and math.isfinite(value)):
        raise ArithmeticError(
            f"interval constant failed for ({lam0}, {lam1}) on [{a}, {b}]")
    return IntervalBoundData(a=float(a), b=float(b), lam0=float(lam0),
                             lam1=float(lam1), value=value, t_max=t_max)


def interp2_error_bound(basis, max_lf):
    """Certified sup bound for |F - I2 F| over the whole partition.

    max_lf is max|L_j F| per interval (or one scalar for all); the bound is
    the largest per-interval product M_j * max_lf_j.  M_j is computed once
    per distinct (pair, length) key.
    """
    knots = basis.knots
    m = len(knots) - 1
    ml = np.asarray(max_lf, dtype=float)
    if ml.ndim == 0:
        ml = np.full(m, float(ml))
    if ml.shape != (m,):
        raise ValueError(f"need {m} interval values, got shape {ml.shape}")
    if np.any(ml < 0.0):
        raise ValueError("max|LF| values must be nonnegative")
    reps, inverse = group_intervals(basis.pairs, basis.partition.lengths)
    m_vals = np.array([
        M_constant(*basis.pairs[j], knots[j], knots[j + 1]).value
        for j in reps])
    return max(0.0, *(m_vals[inverse] * ml))
