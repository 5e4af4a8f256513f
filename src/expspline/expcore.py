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
Frequencies are centred first, and the removed exp factor is kept apart as a
scale, which keeps the matrix norm small.

One numpy kernel, _opitz_corner, computes the first row of that exponential
for a whole batch of points at once, each point with its own frequency row in
any order: Taylor polynomial and scaling and squaring on the stacked matrices,
with the diagonal reset to the exact exponentials after every squaring
(Higham, SIMAX 2005; McCurdy, Ng and Parlett, Math. Comp. 1984).  Its
relative error against the divided-difference oracle stays below about 3e-14
for spreads of lambda*t up to several hundred and for clusters down to 1e-12
relative separation.

Every caller takes Phi in two parts from one entry, _phi_scaled: Phi = mant *
exp(scale), where scale carries the exponent and mant cannot overflow, the
kernel's first row on the centred row or, for a pair, a closed form.
Products and ratios of Phi (omega's product form, the Gram integrals, the
T/S ratios, the hat flanks) multiply the mantissas and add the scales
(_quotient), so they overflow only where their own value does.  Plain values
(_plain) round the scale once more: their relative error is about eps *
|scale| <= eps * max|lambda*t| beyond the kernel's.  On 60 sampled rows per
width 2, 3 and 4 with values in the double range it reached 1.1e-13 (0.37
eps * max|lambda*t|) at |lambda*t| of 1400 and 5.7e-14 at 2800.  Each point
is computed independently of the others in its batch, to the bit.  So
callers stack their rows: _phi_scaled sends the points of both signs of t
through one kernel call, and each step of a certificate or projection
(omega's critical points, omega itself, the Gram integrals, the T/S ratios)
makes one kernel call per frequency width.
"""

import math
from functools import cache

import numpy as np

from .quadrature import integrate

_EXP_ARG_MAX = 705.0

# log 2 in two parts (fdlibm's): n * _LN2_HI is exact for |n| < 2^20
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10

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


@cache
def _horner_constants(k):
    """Read-only Horner coefficients of the width-k kernel: c = m!/i! for
    i = m - 1, ..., 0 (m the degree), and c times the k x k identity."""
    degree = _TAYLOR_TERMS + k - 2
    coeffs = np.cumprod(np.arange(degree, 0, -1.0))
    coeff_eye = coeffs[:, None, None] * np.eye(k)
    coeffs.setflags(write=False)
    coeff_eye.setflags(write=False)
    return coeffs, coeff_eye


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
    s = np.maximum(np.frexp(np.abs(x).max(axis=1)
                            / _TAYLOR_RADIUS)[1], 0)
    scaled = np.ldexp(x, -s[:, None])
    b = np.zeros((n, k, k))
    # b and every e below are C-contiguous, so reshape gives a view, and
    # its strided slices are the diagonal and the superdiagonal
    flat = b.reshape(n, k * k)
    flat[:, ::k + 1] = scaled
    flat[:, 1::k + 1] = np.ldexp(sig, -s)[:, None]
    # Horner with c_i = m!/i!: e = c_m I, then e = c_(i-1) I + B e
    coeffs, coeff_eye = _horner_constants(k)
    e = b + coeff_eye[0]
    for c_eye in coeff_eye[1:]:
        e = b @ e
        e += c_eye
    e /= coeffs[-1]
    e.reshape(n, k * k)[:, ::k + 1] = np.exp(scaled)
    for level in range(s.max(initial=0)):
        sq = e @ e
        live = s > level
        e = sq if live.all() else np.where(live[:, None, None], sq, e)
        e.reshape(n, k * k)[:, ::k + 1] = np.exp(
            np.ldexp(x, (np.minimum(level + 1, s) - s)[:, None]))
    return e[:, 0, :]


def _columns(n, *cols):
    """The (n, len(cols)) array, in C order, whose columns are cols, each an
    array (n,) or a scalar; it stacks rows for the kernel with fewer numpy
    calls than np.stack."""
    out = np.empty((n, len(cols)))
    for j, col in enumerate(cols):
        out[:, j] = col
    return out


def _corner_scaled(rows, ts):
    """(first, scale): the first rows of exp(t*Z) for the frequency rows of
    rows (N, k), in the order given, at ts (N,) >= 0, as first (N, k) times
    exp(scale) (N,).  Entry [i, j] is Phi over rows[i, :j+1] at ts[i], and
    the row at t = 0 is the first unit row.  first is the kernel's first
    row on the row centred at c, and scale = c t.  c is the mean, unless
    the centred Hermite-Genocchi bound Phi_mu(t) <= t^j/j! exp(max(mu) t)
    over every prefix of j+1 entries could pass the double range; then c
    is the row's largest entry, and every entry of first is at most
    t^j/j!."""
    k = rows.shape[1]
    top = rows.max(axis=1)
    m = rows.sum(axis=1) / k
    over = (top - m) * ts + (k - 1) * np.log(np.maximum(ts, 1.0)) \
        > _EXP_ARG_MAX
    centre = np.where(over, top, m)
    with np.errstate(over="ignore", invalid="ignore"):
        first = _opitz_corner((rows - centre[:, None]) * ts[:, None], ts)
    return first, centre * ts


def _phi_scaled(rows, ts):
    """(mant, scale) with Phi = mant * exp(scale) at ts[i] over the sorted
    frequency row rows[i], for rows (N, k) and finite ts (N,).  mant stays
    finite for |t| up to 1e90, and Phi(0) is 1 for one frequency and +-0
    otherwise.

    A pair (l0, l1) = (s - d, s + d) has scale = s t + |d t|, formed as
    max(l0 t, l1 t) in one rounding, and mant = t (1 - exp(-2 |d t|)) / (2
    |d t|), exactly t at d t = 0.  For k >= 3 the whole batch is one
    _corner_scaled call: a row at t < 0 enters reflected, as Phi_L(t) =
    (-1)^(k-1) Phi_(-L)(-t) with -L reversed sorted, beside the rows at
    t >= 0, and mant is the last entry of its first row.  Rows are
    independent, so each gives the bits it gives alone.
    """
    k = rows.shape[1]
    if k == 1:
        return np.ones(ts.shape), rows[:, 0] * ts
    if k == 2:
        return _pair_scaled(rows[:, 0], rows[:, 1], ts)
    neg = ts < 0.0
    if neg.any():
        rows = np.where(neg[:, None], -rows[:, ::-1], rows)
    first, scale = _corner_scaled(rows, np.abs(ts))
    mant = first[:, -1]
    mant[neg] *= (-1.0) ** (k - 1)
    return mant, scale


def _pair_scaled(lam0, lam1, t):
    """(mant, scale) of Phi over the pairs (lam0, lam1) at t, all broadcast
    together; see _phi_scaled."""
    lam0, lam1 = np.asarray(lam0, dtype=float), np.asarray(lam1, dtype=float)
    u = np.abs(0.5 * (lam1 - lam0) * t)
    with np.errstate(invalid="ignore"):
        mant = np.where(u > 0.0, t * -np.expm1(-2.0 * u) / (2.0 * u), t)
    return mant, np.maximum(lam0 * t, lam1 * t)


def _times_exp(mant, scale):
    """mant * exp(scale), broadcast: the plain product where |scale| <=
    700, elsewhere mant exp(r) 2^n with scale = n log 2 + r, so the result
    overflows or underflows only where the value does, and a zero mant
    gives a zero whatever the scale.  A value past the double range reads
    inf, with no warning."""
    far = np.abs(scale) > 700.0
    if not far.any():
        with np.errstate(over="ignore"):
            return mant * np.exp(scale)
    mant, scale, far = np.broadcast_arrays(mant, scale, far)
    with np.errstate(over="ignore", invalid="ignore"):
        out = mant * np.exp(scale)
        n = np.rint(scale[far] / (_LN2_HI + _LN2_LO))
        r = scale[far] - n * _LN2_HI - n * _LN2_LO
        out[far] = np.ldexp(mant[far] * np.exp(r), n.astype(int))
    return out


def _quotient(nums, dens):
    """The product of the factors nums over that of dens as plain values,
    each factor a (mant, scale) pair with value mant * exp(scale): the
    mantissas multiply and divide, the scales add and subtract, and one
    _times_exp joins them."""
    mant, scale = 1.0, 0.0
    for m, s in nums:
        mant, scale = mant * m, scale + s
    for m, s in dens:
        mant, scale = mant / m, scale - s
    return _times_exp(mant, scale)


def _plain(scaled, overflow):
    """The plain values mant * exp(scale) of scaled = (mant, scale), mant
    (N,) or (N, k) for N rows.  A value outside the double range raises
    OverflowError(overflow(i)), i the row of the largest."""
    mant, scale = scaled
    scale = scale.reshape(scale.shape + (1,) * (mant.ndim - 1))
    with np.errstate(over="ignore"):
        out = _times_exp(mant, scale)
    bad = ~np.isfinite(out)
    if bad.any():
        with np.errstate(divide="ignore", invalid="ignore"):
            size = np.log(np.abs(mant)) + scale
        size = np.where(bad, np.nan_to_num(size, nan=np.inf), -np.inf)
        raise OverflowError(overflow(
            int(np.argmax(size.reshape(len(size), -1).max(axis=1)))))
    return out


def _phi_rows(rows, ts):
    """Phi at ts[i] over the sorted frequency row rows[i], for rows (N, k)
    and finite ts (N,), as the plain values of _phi_scaled; a value
    outside the double range raises OverflowError naming its row and t."""
    return _plain(_phi_scaled(rows, ts), lambda i: (
        f"fundamental function for {tuple(rows[i].tolist())} overflows "
        f"at t = {ts[i]:g}"))


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
    are involved.  order is a Python or numpy integer >= 0; order=0
    returns the function itself.
    """
    if type(order) is not int and not isinstance(order, np.integer) \
            or order < 0:
        raise ValueError("order must be a nonnegative integer")
    fr = tuple(sorted(as_frequency_vector(freqs)))
    k = len(fr)
    coeff = np.zeros(k)
    coeff[k - 1] = 1.0
    lam = np.array(fr)
    for _ in range(order):
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
    are the same, without its per-call overhead.  freqs is k frequencies or
    a (k, m) array of m columns, one operator each, giving (k + 1, m)."""
    coeffs = np.zeros((len(freqs) + 1,) + np.shape(freqs)[1:])
    coeffs[0] = 1.0
    for i, lam in enumerate(freqs):
        coeffs[1:i + 2] -= lam * coeffs[:i + 1]
    return coeffs


def _apply_monic(coeffs, derivs):
    """derivs[k] + sum_(i >= 1) coeffs[i] derivs[k - i], the terms added in
    that order; coeffs[i] may be a scalar or one value per point."""
    k = len(coeffs) - 1
    acc = np.array(derivs[k], dtype=float)
    for i in range(1, k + 1):
        acc = acc + coeffs[i] * np.asarray(derivs[k - i], dtype=float)
    return acc


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
