"""Fundamental functions of exponential splines.

For a vector of real frequencies Lambda = (lambda_0, ..., lambda_N) the
fundamental function Phi_Lambda(t) is the divided difference of z -> exp(z*t)
over the nodes lambda_0..lambda_N.  It spans, together with its translates,
the kernel of the operator L = (d/dt - lambda_0) ... (d/dt - lambda_N) and
plays the role that truncated powers t^N/N! play for polynomial splines.

Numerically Phi is evaluated through the bidiagonal (Opitz) matrix

    Z = diag(lambda_0..lambda_N) + superdiag(1, ..., 1),

whose exponential exp(t*Z) carries the divided differences of exp(.*t) in its
first row: entry j is Phi over the prefix lambda_0..lambda_j.  All entries are
positive for t > 0, so the evaluation is free of subtractive cancellation, and
repeated frequencies need no special casing.
Frequencies are mean-centred first and the removed exp factor is restored at
the end, which keeps the matrix norm small.

One numpy kernel, _opitz_corner, computes the first row of that exponential
for a whole batch of points at once, each point with its own frequency row in
any order: Taylor polynomial and scaling and squaring on the stacked matrices,
with the diagonal reset to the exact exponentials after every squaring
(Higham, SIMAX 2005; McCurdy, Ng and Parlett, Math. Comp. 1984).  Its
relative error against the divided-difference oracle stays below about 3e-14
for spreads of lambda*t up to several hundred and for clusters down to 1e-12
relative separation.  Each point is computed independently of the others in
its batch, to the bit.
"""

import math
from functools import reduce

import numpy as np

from .quadrature import integrate

_EXP_ARG_MAX = 705.0

# The Opitz kernel scales t*Z until max|t*mu| <= _TAYLOR_RADIUS and keeps
# _TAYLOR_TERMS terms of the divided-difference series in the first row; the
# first term dropped is below 0.5^15/15! = 2.3e-17 of the value.
_TAYLOR_RADIUS = 0.5

_TAYLOR_TERMS = 15


def as_frequency_vector(freqs):
    """Validate a frequency sequence and return it as a tuple of floats."""
    try:
        fr = tuple(float(x) for x in freqs)
    except TypeError:
        fr = (float(freqs),)
    if len(fr) == 0:
        raise ValueError("frequency vector must contain at least one entry")
    if not all(math.isfinite(x) for x in fr):
        raise ValueError(f"frequencies must be finite, got {fr}")
    return fr


def _sinhc(u):
    """sinh(u)/u, even and positive, accurate near zero."""
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < 1e-4
    usm = np.where(small, u, 0.0)
    ubig = np.where(small, 1.0, u)
    series = 1.0 + usm * usm / 6.0 * (1.0 + usm * usm / 20.0)
    with np.errstate(over="ignore"):
        direct = np.sinh(ubig) / ubig
    return np.where(small, series, direct)


def _log_sinhc(u):
    """log(sinh|u|/|u|), overflow-free for large |u|."""
    u = np.abs(np.asarray(u, dtype=float))
    out = np.empty_like(u)
    small = u < 1e-4
    mid = (~small) & (u < 350.0)
    big = u >= 350.0
    out[small] = np.log1p(u[small] ** 2 / 6.0)
    out[mid] = np.log(np.sinh(u[mid]) / u[mid])
    ub = u[big]
    out[big] = ub + np.log1p(-np.exp(-2.0 * ub)) - np.log(2.0 * ub)
    return out


def _phi_pair(lam0, lam1, t):
    """Phi over two frequencies: t * exp(s*t) * sinhc(d*t) with 2s=l0+l1.

    lam0 and lam1 may be arrays of the shape of t, one pair per point.
    """
    t = np.asarray(t, dtype=float)
    s = 0.5 * (lam0 + lam1)
    d = 0.5 * (lam1 - lam0)
    a = s * t
    u = d * t
    with np.errstate(over="ignore", invalid="ignore"):
        direct = t * np.exp(a) * _sinhc(u)
    bad = ~np.isfinite(direct)
    if np.any(bad):
        # redo the overflowing entries in log space
        tb = t[bad]
        logmag = np.log(np.abs(tb)) + a[bad] + _log_sinhc(u[bad])
        if np.any(logmag > _EXP_ARG_MAX):
            i = int(np.argmax(logmag))
            l0, l1 = (np.broadcast_to(x, t.shape)[bad][i]
                      for x in (lam0, lam1))
            raise OverflowError(
                f"fundamental function for ({l0}, {l1}) overflows at |t| "
                f"up to {np.max(np.abs(tb)):g}")
        direct[bad] = np.sign(tb) * np.exp(logmag)
    return direct


def _opitz_corner(x, sig):
    """First rows exp(B)[0, :] of the bidiagonal B = diag(x) +
    superdiag(sig), one matrix per row of x (N, k) and entry of sig (N,) >= 0.

    Each matrix is scaled by 2^-s so that max|x|/2^s <= _TAYLOR_RADIUS,
    exponentiated by its Taylor polynomial and squared s times.  The
    polynomial of degree m is m! * sum B^i/i!, built in Horner form with the
    integer coefficients m!/i!, then divided by m!.  Entry [i, j], j >= i, of
    exp(B) is sig^(j-i) times the divided difference of exp over x_i..x_j,
    an average of exp over their hull (Hermite-Genocchi), hence positive for
    sig > 0 whatever the order of the x; the diagonal is exp(x_i) in any
    order.  So the squarings add positive products and never cancel, and
    the diagonal is reset to exp(x/2^j) after every step, which keeps the
    relative error growing linearly in s rather than like 2^s.  Neither the
    argument nor any step uses sorted rows, so rows are taken in the order
    given.  All steps act matrix by matrix, so a row gives the same bits
    alone or inside any batch.
    """
    n, k = x.shape
    s = np.maximum(np.frexp(reduce(np.maximum, np.abs(x).T)
                            / _TAYLOR_RADIUS)[1], 0)
    scaled = np.ldexp(x, -s[:, None])
    diag = np.arange(k)
    b = np.zeros((n, k, k))
    b[:, diag, diag] = scaled
    b[:, diag[:-1], diag[1:]] = np.ldexp(sig, -s)[:, None]
    # Horner with c_i = m!/i!: e = c_m I, then e = c_(i-1) I + B e
    degree = _TAYLOR_TERMS + k - 2
    coeffs = np.cumprod(np.arange(degree, 0, -1.0))
    coeff_eye = coeffs[:, None, None] * np.eye(k)
    e = b + coeff_eye[0]
    for c_eye in coeff_eye[1:]:
        e = b @ e
        e += c_eye
    e /= coeffs[-1]
    e[:, diag, diag] = np.exp(scaled)
    for level in range(s.max(initial=0)):
        sq = e @ e
        live = s > level
        e = sq if live.all() else np.where(live[:, None, None], sq, e)
        e[:, diag, diag] = np.exp(
            np.ldexp(x, (np.minimum(level + 1, s) - s)[:, None]))
    return e[:, 0, :]


def _phi_corner_batch(rows, ts):
    """First rows of exp(t*Z) for the frequency rows of rows (N, k), in the
    order given, at ts (N,) >= 0: entry [i, j] is Phi over rows[i, :j+1] at
    ts[i], and the row at t = 0 is the first unit row.  Computed for the
    mean-centred row, the shift restored after."""
    k = rows.shape[1]
    m = rows.sum(axis=1) / k
    mu = rows - m[:, None]
    # positivity of the divided difference gives the Hermite-Genocchi bound
    # Phi_mu(t) <= t^j/j! * exp(max(mu) * t) for every prefix of j+1 entries
    top = reduce(np.maximum, mu.T)
    bound = (m + top) * ts + (k - 1) * np.log(np.maximum(ts, 1.0))
    if (bound > _EXP_ARG_MAX).any():
        i = int(np.argmax(bound))
        raise OverflowError(
            f"fundamental function for {tuple(rows[i].tolist())} overflows "
            f"at t up to {ts[i]:g}")
    with np.errstate(over="ignore", invalid="ignore"):
        first = _opitz_corner(mu * ts[:, None], ts)
    if not np.isfinite(first).all():
        i = int(np.argmin(np.isfinite(first).all(axis=1)))
        raise OverflowError(
            f"matrix exponential overflowed for frequencies "
            f"{tuple(rows[i].tolist())}")
    shift = m * ts
    direct = np.abs(shift) <= 690.0
    if direct.all():
        return np.exp(shift)[:, None] * first
    out = np.empty_like(first)
    out[direct] = np.exp(shift[direct])[:, None] * first[direct]
    rest = ~direct
    with np.errstate(divide="ignore"):
        logc = np.where(first[rest] > 0.0,
                        np.log(np.maximum(first[rest], 1e-308)), -np.inf)
    logv = shift[rest, None] + logc
    if (logv > _EXP_ARG_MAX).any():
        i = np.flatnonzero(rest)[int(np.argmax(logv)) // k]
        raise OverflowError(
            f"fundamental function for {tuple(rows[i].tolist())} overflows "
            f"at t up to {ts[i]:g}")
    vals = np.zeros(logv.shape)
    ok = logv > -745.0
    vals[ok] = np.exp(logv[ok])
    out[rest] = vals
    return out


def _phi_rows(rows, ts):
    """Phi at ts[i] over the sorted frequency row rows[i], for rows (N, k)
    and finite ts (N,); Phi(0) is 1 for one frequency and 0 otherwise."""
    k = rows.shape[1]
    if k == 1:
        arg = rows[:, 0] * ts
        if (arg > _EXP_ARG_MAX).any():
            raise OverflowError(
                f"exp({rows[int(np.argmax(arg)), 0]}*t) overflows at t up "
                f"to {ts.max():g}")
        return np.exp(arg)
    if k == 2:
        out = _phi_pair(rows[:, 0], rows[:, 1], ts)
        out[ts == 0.0] = 0.0
        return out
    pos = ts > 0.0
    if pos.all():
        return _phi_corner_batch(rows, ts)[:, -1]
    out = np.zeros_like(ts)
    neg = ts < 0.0
    if pos.any():
        out[pos] = _phi_corner_batch(rows[pos], ts[pos])[:, -1]
    if neg.any():
        # Phi_L(t) = (-1)^(k-1) Phi_(-L)(-t), and -L reversed is sorted
        out[neg] = (-1.0) ** (k - 1) * _phi_corner_batch(
            -rows[neg, ::-1], -ts[neg])[:, -1]
    return out


def fundamental_eval(freqs, t):
    """Evaluate Phi_Lambda(t), the divided difference of exp(.*t) over Lambda.

    Accepts scalar or array t.  Phi(0) is 1 for a single frequency and 0
    otherwise; Phi(t) > 0 for t > 0.  Raises OverflowError when the result
    exceeds the double range and ValueError on non-finite input.
    """
    fr = sorted(as_frequency_vector(freqs))
    t_arr = np.asarray(t, dtype=float)
    if not np.isfinite(t_arr).all():
        raise ValueError("t must be finite")
    flat = t_arr.ravel()
    rows = np.empty((flat.size, len(fr)))
    rows[:] = fr
    out = _phi_rows(rows, flat)
    return float(out[0]) if t_arr.ndim == 0 else out.reshape(t_arr.shape)


def fundamental_derivative(freqs, t, order):
    """Derivative of Phi_Lambda of the given order.

    Repeated use of the lowering identity Phi'_(l0..lk) = lk*Phi_(l0..lk)
    + Phi_(l0..l(k-1)) turns the derivative into an exact combination of
    fundamental functions over prefixes of Lambda, so no finite differences
    are involved.  order=0 returns the function itself.
    """
    if order < 0 or order != int(order):
        raise ValueError("order must be a nonnegative integer")
    fr = tuple(sorted(as_frequency_vector(freqs)))
    k = len(fr)
    coeff = np.zeros(k)
    coeff[k - 1] = 1.0
    lam = np.array(fr)
    for _ in range(int(order)):
        nxt = coeff * lam
        nxt[:-1] += coeff[1:]
        coeff = nxt
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    acc = np.zeros_like(np.atleast_1d(t_arr), dtype=float)
    for j in range(k):
        if coeff[j] != 0.0:
            acc += coeff[j] * np.atleast_1d(fundamental_eval(fr[:j + 1], t_arr))
    return float(acc[0]) if scalar else acc.reshape(t_arr.shape)


def _monic_coefficients(freqs):
    """Coefficients c_0 = 1, ..., c_k of prod (D - lambda_i) = sum_i c_i
    D^(k-i), one factor at a time as numpy.poly convolves them, so the bits
    are the same, without its per-call overhead."""
    coeffs = [1.0]
    for lam in freqs:
        coeffs = [a - lam * b for a, b in zip(coeffs + [0.0], [0.0] + coeffs)]
    return np.array(coeffs)


def operator_apply(freqs, derivs):
    """Apply L = prod (d/dt - lambda_i) given tabulated derivatives.

    derivs must hold F, F', ..., F^(N+1) evaluated at common points (scalars
    or arrays).  The monic characteristic polynomial of the frequencies
    supplies the combination coefficients.
    """
    fr = as_frequency_vector(freqs)
    k = len(fr)
    if len(derivs) != k + 1:
        raise ValueError(
            f"need {k + 1} derivative slots for {k} frequencies, "
            f"got {len(derivs)}")
    coeffs = _monic_coefficients(fr)
    acc = np.asarray(derivs[k], dtype=float).copy()
    for i in range(1, k + 1):
        acc = acc + coeffs[i] * np.asarray(derivs[k - i], dtype=float)
    return float(acc) if acc.ndim == 0 else acc


def convolution_check(freqs_a, freqs_b, y):
    """Compare int_0^y Phi_A(t) Phi_B(y-t) dt against Phi over the merged
    frequency vector, returning (quadrature_value, closed_form_value)."""
    fa = as_frequency_vector(freqs_a)
    fb = as_frequency_vector(freqs_b)
    if not y > 0.0:
        raise ValueError("y must be positive")

    def integrand(ts):
        return fundamental_eval(fa, ts) * fundamental_eval(fb, y - ts)

    lhs, _ = integrate(integrand, 0.0, y)
    rhs = fundamental_eval(fa + fb, y)
    return lhs, rhs
