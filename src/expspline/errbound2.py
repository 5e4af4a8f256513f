"""Certified pointwise error constants for second order interpolation.

The error of interpolation with a two-frequency pair on [a, b] is governed by
omega, the solution of L omega = -1 with omega(a) = omega(b) = 0 where
L = (d/dt - lambda_0)(d/dt - lambda_1).  Its maximum M over the interval
multiplies max|LF| in the pointwise bound.  omega scales with the interval,
so M is found once per rescaled pair lambda*(b-a) on the unit interval,
where omega is unimodal.  There its critical point t* has a closed form,
the divided difference g[l0, l1] of g(x) = log(expm1(x)/x), and one
batched evaluation of omega and omega' at t* and two points 1e-11 beside
it brackets the maximum; a pad from a bound on |omega''| over the bracket
turns the value found into an upper bound of M.  A key whose slopes there
do not bracket it reads 1/|l0*l1| on the plateau of a wide straddling
pair and is refused by ArithmeticError elsewhere.  A bound over a
partition needs one value per distinct (pair, length) key; a hat basis
computes them once and keeps them (HatBasis.constants).  The keys of one
call are searched together, in one batched evaluation of omega and omega'
over every key.  Both come from products of fundamental functions, formed
from their mantissas and log-scales, or from a closed form on the flat
plateau of a pair straddling zero, where the products lose ulps.  omega
is also minus the integral of the Green function of L with Dirichlet
conditions, which supplies an independent quadrature route and the
comparison inequalities used in the tests.
"""

import math

import numpy as np

from .expcore import (_columns, _corner_scaled, _phi_scaled, _quotient,
                      fundamental_eval)
from .quadrature import integrate

# half-width of the start bracket around the closed-form critical point
_START_RADIUS = 1e-11


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
    Where a straddling pair makes omega flat near -1/(lam0*lam1), the closed
    form of _omega takes over.
    """
    _check_interval(a, b)
    t_arr = np.asarray(t, dtype=float)
    ts = t_arr.ravel()
    if np.any(ts < a) or np.any(ts > b):
        raise ValueError("t must lie inside [a, b]")
    lam0, lam1 = (float(x) for x in (lam0, lam1))
    if not (math.isfinite(lam0) and math.isfinite(lam1)):
        raise ValueError(f"frequencies must be finite, got {(lam0, lam1)}")
    out, _ = _omega(np.full(ts.shape, lam0), np.full(ts.shape, lam1),
                    b - a, ts - a, ts - b)
    return float(out[0]) if t_arr.ndim == 0 else out.reshape(t_arr.shape)


def _omega(lam0, lam1, span, tau_a, tau_b):
    """omega and omega' at the points t with t - a = tau_a and t - b = tau_b,
    for the pair (lam0[i], lam1[i]) of each point on an interval of length
    span; elementwise, so a point gives the same bits in any batch.

    Product form: omega = -Phi_(l0,l1)(tau_b) Phi_(-l0,-l1,0)(tau_a) /
    Phi_(-l0,-l1)(span) + Phi_(l0,l1)(tau_a) Phi_(-l0,-l1,0)(tau_b) /
    Phi_(l0,l1)(span).  Its slope follows from the lowering identity,
    Phi'_(lo,hi) = hi*Phi_(lo,hi) + exp(lo*t) and Phi'_(-l0,-l1,0) =
    Phi_(-l0,-l1), so it needs no further three-frequency kernel call.
    The six pair values come from one _phi_scaled call and q at tau_a >= 0
    and tau_b <= 0 from one more, which is one Opitz kernel call for the
    batch.  The six products of the two forms are one stacked _quotient
    of their (mant, scale) parts, exp(lo*t) taken on the scale of
    Phi_(lo,hi), so a term is finite wherever its value is, although its
    factors may not be.  For
    lo < 0 < hi the same solution reads omega = (1 - x) / |lo*hi| with

        x = ((1 - e^(-hi*span)) e^(lo*tau_a)
             + (1 - e^(lo*span)) e^(hi*tau_b)) / (1 - e^((lo-hi)*span)),

    a sum of positive terms, and omega' = -x' / |lo*hi|.  Where x <= 1/2
    this form is accurate to a few ulps, while the product form rounds near
    15 ulps on the plateau of large |lo*hi|, and its slope is a difference
    of terms far larger than the slope; elsewhere 1 - x cancels and the
    product form is kept.
    """
    pair = np.sort(_columns(lam0.size, lam0, lam1), axis=1)
    neg0 = np.sort(_columns(lam0.size, -lam0, -lam1, 0.0), axis=1)
    neg = -pair[:, ::-1]
    span = np.broadcast_to(span, tau_a.shape)
    mant, scale = _phi_scaled(
        np.concatenate([pair, pair, pair, neg, neg, neg]),
        np.concatenate([tau_a, tau_b, span, span, tau_a, tau_b]))
    p_a, p_b, c_pair, c_neg, n_a, n_b = zip(mant.reshape(6, -1),
                                            scale.reshape(6, -1))
    mant, scale = _phi_scaled(np.concatenate([neg0, neg0]),
                              np.concatenate([tau_a, tau_b]))
    q_a, q_b = zip(mant.reshape(2, -1), scale.reshape(2, -1))
    lo, hi = pair.T
    # Phi'_(lo,hi) = hi Phi_(lo,hi) + exp(lo t) on the scale of Phi_(lo,hi)
    d_a, d_b = ((hi * m + np.exp(lo * tau - sc), sc)
                for (m, sc), tau in ((p_a, tau_a), (p_b, tau_b)))
    # the six products num * other / den, stacked into one _quotient
    num, other, den = (tuple(map(np.array, zip(*fs))) for fs in (
        (p_a, p_b, d_a, p_a, d_b, p_b), (q_b, q_a, q_b, n_b, q_a, n_a),
        (c_pair, c_neg, c_pair, c_pair, c_neg, c_neg)))
    a, b, a_d, a_n, b_d, b_n = _quotient([num, other], [den])
    out = a - b
    slope = a_d + a_n - b_d - b_n
    strad = (lo < 0.0) & (hi > 0.0)
    if np.any(strad):
        lo, hi = lo[strad], hi[strad]
        h = span[strad]
        e_a = -np.expm1(-hi * h) * np.exp(lo * tau_a[strad])
        e_b = -np.expm1(lo * h) * np.exp(hi * tau_b[strad])
        den = -np.expm1((lo - hi) * h)
        x = (e_a + e_b) / den
        flat = x <= 0.5
        idx = np.flatnonzero(strad)[flat]
        out[idx] = (1.0 - x[flat]) / -(lo[flat] * hi[flat])
        slope[idx] = ((lo * e_a + hi * e_b) / den)[flat] \
            / (lo[flat] * hi[flat])
    return out, slope


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


def _critical_point(lam0, lam1):
    """The critical point of omega on [0, 1] of each pair, in closed form:
    g[l0, l1] = log(E(l1)/E(l0)) / (l1 - l0), with E(x) = expm1(x)/x the
    Phi of (0, x) at 1.  With lo <= hi it is evaluated as rho * log1p(u)/u,
    where rho = Phi_(0,lo,hi)(1) / Phi_(0,lo)(1) and u = (hi - lo) * rho =
    E(hi)/E(lo) - 1 >= 0, so a near-confluent pair does not cancel; both
    Phi come from one _corner_scaled row (0, lo, hi), whose scale drops out
    of the ratio.  Where u passes the double range, which needs hi - lo of
    about 700, t* is (g(hi) - g(lo)) / (hi - lo) in log form: g(x) =
    x - log x for x > 700, where the dropped log1p(-e^-x) is below 1e-300,
    and log(expm1(x)/x) elsewhere, which does not overflow; a few ulps of g
    are small once divided by hi - lo.
    """
    lo, hi = np.minimum(lam0, lam1), np.maximum(lam0, lam1)
    first, _ = _corner_scaled(_columns(lo.size, 0.0, lo, hi),
                              np.ones(lo.size))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rho = first[:, 2] / first[:, 1]
        u = (hi - lo) * rho
        t = rho * np.where(u > 0.0, np.log1p(u) / u, 1.0)
        far = ~np.isfinite(u)
        if far.any():
            ends = np.stack([lo[far], hi[far]])
            g = np.where(ends > 700.0, ends - np.log(ends),
                         np.log(np.expm1(ends) / ends))
            # g(0) = 0, the limit that expm1(0)/0 leaves as NaN
            g[ends == 0.0] = 0.0
            t[far] = (g[1] - g[0]) / (hi[far] - lo[far])
    return t


def _bracket_search(lam0, lam1):
    """Upper bound of the maximum of omega on [0, 1] for each pair
    (lam0[i], lam1[i]), as one float array.

    omega is strictly unimodal on (0, 1).  At a critical point omega' = 0,
    so L omega = -1 reads omega'' = -1 - l0*l1*omega there.  A local minimum
    has omega'' >= 0 and a local maximum omega'' <= 0, so a minimum between
    two maxima needs l0*l1 < 0 and omega_min >= 1/|l0*l1| >= omega_max.
    Then omega = -1/(l0*l1) and omega' = 0 at one point, and by uniqueness
    omega is that constant, which contradicts omega(0) = 0.  Hence omega' > 0
    left of the maximum t* and omega' < 0 right of it, and any lo with
    omega'(lo) > 0 and hi with omega'(hi) <= 0 bracket t*.

    Start: for l0*l1 != 0 and l0 != l1, omega = -1/(l0*l1) + A e^(l0 t) +
    B e^(l1 t), and the two boundary conditions give A l0 / (B l1) =
    -E(l0)/E(l1) with E(x) = expm1(x)/x.  So omega'(t) = 0 reads
    e^((l1 - l0) t) = E(l1)/E(l0), and

        t* = (g(l1) - g(l0)) / (l1 - l0),   g(x) = log(expm1(x)/x),

    the divided difference g[l0, l1], which is g'(l) for l0 = l1 and
    covers l0*l1 = 0 by continuity.  g is the cumulant generating function
    of the uniform law on (0, 1), so g' increases from 0 to 1 and t* lies
    in (0, 1).  _critical_point evaluates it without cancellation.  One
    batched _omega call takes omega and omega' at t* and t* -+
    _START_RADIUS for every key.  A key with omega' > 0 at the left point
    and omega' <= 0 at the right one closes there, with t_N = t* and the
    bracket [t* - r, t* + r]; every generator, oracle and ledger key the
    tests draw does, and every key of their sweep up to |lambda| = 1400.
    For l0 < 0 < l1, omega = (1 - x)/|l0*l1| with x > 0 (see _omega), a
    bound that is sharp to rounding on the plateau of a wide pair, where
    the slopes beside t* are rounding noise: such a key that does not
    close but has omega(t*)*|l0*l1| >= 1 - 8 eps reads 1/|l0*l1|.  Any
    other key raises ArithmeticError naming it.

    Pad: t_N and t* lie in the bracket, of width w.  Let S bound |omega''|
    there.  Then |omega'| <= |omega'(t_N)| + S*w and |omega - omega(t_N)|
    <= |omega'(t_N)|*w + S*w^2 on the bracket, and the equation gives

        S <= |1 + l0*l1*omega(t_N)| + (|l0+l1| + |l0*l1|*w) |omega'(t_N)|
             + (|l0+l1|*w + |l0*l1|*w^2) S,

    solved for S below.  As omega'(t*) = 0, omega(t*) - omega(t_N) <=
    S*w^2/2.  So the best of the three start values, omega(t_N) among
    them, plus S*w^2/2, bounds the maximum in exact arithmetic.  Four
    ulps more cover the rounding of omega where it is measured small: on
    the bench generators' keys (234 keys, 15 points each) omega stays
    within 2.5 ulps of the mpmath oracle.  They are a sampled claim on
    stiff keys: with |lambda*span| up to 1400, omega at t_N was off by up
    to 50 ulps on 48 sampled keys, though M stayed at or above the
    maximum on all of them.  A computed sign of omega' can only be wrong
    where omega is flat to rounding.  On a plateau key the factor 1 + 4
    eps covers seven roundings of half an ulp: the two scaled frequencies,
    their product, its reciprocal, the factor itself, and span*span and
    the product with it in M_constants.  Every step is elementwise per pair,
    so a pair gives the same bits alone or in a batch.
    """
    count = lam0.size
    start = _critical_point(lam0, lam1)
    pts = np.array([start, np.maximum(start - _START_RADIUS, 0.0),
                    np.minimum(start + _START_RADIUS, 1.0)])
    vals, slopes = _omega(np.tile(lam0, 3), np.tile(lam1, 3), 1.0,
                          pts.ravel(), pts.ravel() - 1.0)
    vals, slopes = vals.reshape(3, count), slopes.reshape(3, count)
    v, d, w = vals[0], slopes[0], pts[2] - pts[1]
    sigma, prod = lam0 + lam1, lam0 * lam1
    a_sigma, a_prod = np.abs(sigma), np.abs(prod)
    eps = np.finfo(float).eps
    shut = (slopes[1] > 0.0) & (slopes[2] <= 0.0)
    flat = ~shut & (prod < 0.0) & (v * a_prod >= 1.0 - 8.0 * eps)
    if not (shut | flat).all():
        k = int(np.argmin(shut | flat))
        raise ArithmeticError(
            f"omega's slope does not change sign around the critical point "
            f"{float(start[k])!r} of the unit-interval pair "
            f"{(float(lam0[k]), float(lam1[k]))}")
    room = 1.0 - (a_sigma + a_prod * w) * w
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = (np.abs(1.0 + prod * v) + (a_sigma + a_prod * w) * np.abs(d)) \
            / room
    bound[~(room > 0.0)] = np.inf
    value = np.max(vals, axis=0) + 0.5 * bound * w * w
    value[flat] = 1.0 / a_prod[flat]
    return value * (1.0 + 4.0 * eps)


def M_constants(pairs, lefts, rights):
    """Interval constants M, |F - I2 F| <= M max|LF|, of the intervals
    [lefts[i], rights[i]] with pairs pairs[i] (sequences or arrays), as a
    float array, from omega's scaling law M(lambda; a, b) =
    (b-a)^2 M(lambda*(b-a); 0, 1) and one _bracket_search over every
    rescaled pair.  A constant past the double range, as for large
    same-sign pairs, raises OverflowError naming its interval; any other
    that is not finite and positive raises ArithmeticError."""
    pairs = np.asarray(pairs, dtype=float).reshape(-1, 2)
    lefts, rights = (np.asarray(x, dtype=float).ravel()
                     for x in (lefts, rights))
    for a, b in zip(lefts.tolist(), rights.tolist()):
        _check_interval(a, b)
    spans = rights - lefts
    scaled = pairs * spans[:, None]
    bad = ~np.isfinite(scaled).all(axis=1)
    if bad.any():
        key = tuple(scaled[np.argmax(bad)].tolist())
        raise ValueError(f"frequencies must be finite, got {key}")
    with np.errstate(over="ignore", invalid="ignore"):
        values = spans * spans * _bracket_search(*scaled.T)
    failed = ~((values > 0.0) & np.isfinite(values))
    if failed.any():
        j = int(np.argmax(failed))
        error, what = (OverflowError, "overflows") if values[j] == np.inf \
            else (ArithmeticError, "failed")
        raise error(
            f"interval constant {what} for {tuple(pairs[j].tolist())} on "
            f"[{lefts[j]}, {rights[j]}]")
    return values


def interp2_error_bound(basis, max_lf):
    """Certified sup bound for |F - I2 F| over the whole partition.

    max_lf is max|L_j F| per interval (or one scalar for all); the bound is
    the largest per-interval product M_j * max_lf_j.  M_j is the basis's
    interval constant of the interval's (pair, length) key.
    """
    knots = basis.knots
    m = knots.size - 1
    ml = np.asarray(max_lf, dtype=float)
    if ml.ndim == 0:
        ml = np.full(m, float(ml))
    if ml.shape != (m,):
        raise ValueError(f"need {m} interval values, got shape {ml.shape}")
    if not np.all(ml >= 0.0):
        raise ValueError("max|LF| values must be nonnegative numbers")
    _, inverse = basis.groups
    return max(0.0, float(np.max(basis.constants[inverse] * ml)))
