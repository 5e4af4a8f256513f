"""Weighted least squares projection onto exponential hat functions.

The Gram matrix of a hat basis in the inner product <f, g> = int f g exp(pt)
is tridiagonal, and every entry has a closed form in fundamental functions,
so assembly needs no quadrature at all.  The hats are >= 0, so the Gram's
off-diagonals are > 0 and its sign-flipped copy is a Stieltjes matrix whose
inverse is |G^-1| exactly; one certified tridiagonal solve against the
hats' weighted masses, times the Lebesgue sup of the hats, bounds the
projection operator norm in the sup norm, which is the quantity the fourth
order error certificate consumes.  The sup is not sampled: on interval j
the hats sum to 1 + l0*l1*omega_j, omega_j solving L omega = -1 with zero
ends, so it comes from errbound2's interval constants M_j.  The T and S
functions of an interval, the row-dominance ratios of the paper's lemmas,
stay as checks of the Gram's structure.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .expcore import (_columns, _pair_scaled, _phi_scaled, _quotient,
                      fundamental_eval)
from .hatbasis import SplineOrder2, _flank_ends, _flank_ratio
from .quadrature import _GL_NODES, _GL_WEIGHTS, integrate

_TINY_H = 1e-100


def _finite_p(p):
    """The weight exponent p as a float; a non-finite p raises ValueError."""
    p = float(p)
    if not math.isfinite(p):
        raise ValueError(f"weight exponent p must be finite, got {p}")
    return p


@dataclass(frozen=True, eq=False)
class GramSystem:
    """Symmetric tridiagonal Gram matrix of a hat basis: diag (n,) and off
    (n-1,), off[i] coupling knots i and i+1 below and above the diagonal."""
    diag: np.ndarray = field(repr=False)
    off: np.ndarray = field(repr=False)


def _phi(ts, *groups):
    """Phi at ts (N,) over the frequency rows of each group, in one kernel
    call for all groups, as one (mant, scale) pair of _phi_scaled per
    group.  A group is a tuple of columns of one width, each an array (N,)
    or a scalar; row i of a group holds the frequencies at ts[i]."""
    rows = np.concatenate([_columns(ts.size, *cols) for cols in groups])
    rows.sort(axis=1)
    mant, scale = _phi_scaled(rows, np.tile(ts, len(groups)))
    return list(zip(mant.reshape(len(groups), -1),
                    scale.reshape(len(groups), -1)))


def gram_assemble(basis, p):
    """Closed form Gram matrix of the hats in the exp(p t) weighted product.

    On an interval of length h with pair function phi and w = exp(p t), the
    flank integrals over [0, h] are fundamental functions at h:

        int phi(t)^2 w        = 2 exp(p h) Phi_(2 l0, 2 l1, l0 + l1, -p)(h)
        int phi(t-h)^2 w      = 2 Phi_(-2 l0, -2 l1, -l0 - l1, p)(h)
        int phi(t-h) phi(t) w = -Phi_(p + l0, p + l1, -l0, -l1)(h)

    Divided by phi(h)^2, phi(-h)^2 and phi(h) phi(-h) they are the hat
    entries: the squared flanks land on the two adjacent diagonal entries,
    the cross integral on the off-diagonals.  They depend on the interval
    through its (pair, length) key and the weight w0 = exp(p t_j) at its
    left end only, so the fundamental functions are found once per
    distinct key, the three four-frequency integrals in one kernel call.
    Each entry is one _quotient of their (mant, scale) pairs and w0's
    exponent p t_j, so it overflows only where its value does, although
    its factors may pass the double range; such an entry reads inf, which
    project's residual check refuses.  A non-finite p raises ValueError.
    """
    p = _finite_p(p)
    knots = basis.knots
    reps, inverse = basis.groups
    l0, l1 = basis.pairs[reps].T
    h = basis.partition.lengths[reps]
    f_left, f_right, f_cross = _phi(h, (2.0 * l0, 2.0 * l1, l0 + l1, -p),
                                    (-2.0 * l0, -2.0 * l1, -l0 - l1, p),
                                    (p + l0, p + l1, -l0, -l1))
    # every factor per key as (mant, scale), exp(p h) in f_left's scale,
    # gathered per interval
    phi_h, phi_mh, f_left, f_right, f_cross = (
        (mant[inverse], scale[inverse]) for mant, scale in
        (_pair_scaled(l0, l1, h), _pair_scaled(l0, l1, -h),
         (f_left[0], f_left[1] + p * h), f_right, f_cross))
    w0 = (1.0, p * knots[:-1])
    diag = np.zeros(basis.n)
    diag[:-1] += 2.0 * _quotient([w0, f_right], [phi_mh, phi_mh])
    diag[1:] += 2.0 * _quotient([w0, f_left], [phi_h, phi_h])
    return GramSystem(diag=diag,
                      off=-_quotient([w0, f_cross], [phi_h, phi_mh]))


def _flank_ratios(part, lam0, lam1, p, h):
    """T (part "T") or S (part "S") at the lengths h, elementwise over the
    broadcast of lam0, lam1 and h, a float for scalar input.

    Both are quotients over Phi_(l0-l1, l1-l0, 0, -p-l0-l1)(h).  Every
    length with |h| >= _TINY_H, of either sign, shares each kernel call:
    T's numerator and the denominator are one four-frequency call, S's
    numerator one three-frequency call and one pair evaluation.  Each ratio
    is one _quotient of their (mant, scale) pairs, finite wherever the
    ratio is.  The other lengths get the h -> 0 limits T = 1/2 and S = 3/2.
    """
    lam0, lam1, h = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (lam0, lam1, h)))
    if not (math.isfinite(p) and np.all(np.isfinite(lam0))
            and np.all(np.isfinite(lam1)) and np.all(np.isfinite(h))):
        raise ValueError(f"{part.lower()}func arguments must be finite")
    out = np.full(h.shape, 0.5 if part == "T" else 1.5)
    live = np.abs(h) >= _TINY_H
    if np.any(live):
        l0, l1, hs = lam0[live], lam1[live], h[live]
        den_cols = (l0 - l1, l1 - l0, 0.0, -p - l0 - l1)
        if part == "T":
            den, num = _phi(hs, den_cols, (l0, l1, -p - l0, -p - l1))
            out[live] = 0.5 * _quotient([num], [den])
        else:
            (den,) = _phi(hs, den_cols)
            num = _phi(hs, (-l0, -l1))[0], _phi(hs, (l0, l1, -p))[0]
            # the polynomial pair with p = 0 has S = 3/2 identically
            poly = (l0 == 0.0) & (l1 == 0.0) & (p == 0.0)
            out[live] = np.where(poly, 1.5, 0.5 * _quotient(num, [den]))
    return float(out) if h.ndim == 0 else out


def tfunc(lam0, lam1, p, h):
    """Dominance ratio T of an interval of length h.

    T(h) is the ratio of the weighted cross integral of the two hats to the
    squared rising flank, written entirely in fundamental functions.  T -> 1/2
    as h -> 0 for every pair, and |T| < 1 on both half-meshes is exactly
    row dominance of the Gram matrix.  lam0, lam1 and h may be arrays; they
    broadcast against each other.
    """
    return _flank_ratios("T", lam0, lam1, float(p), h)


def sfunc(lam0, lam1, p, h):
    """Companion ratio S of an interval: first moment of a flank against its
    square.  S -> 3/2 as h -> 0; for the polynomial pair with p = 0 it is 3/2
    identically, which is returned as the exact constant.  lam0, lam1 and h
    may be arrays; they broadcast against each other."""
    return _flank_ratios("S", lam0, lam1, float(p), h)


def abcd_quadrature(lam0, lam1, p, h):
    """Quadrature route to the four flank ratios on an interval of length h.

    Returns (A, B, C, D) where A and B are the cross-to-square ratios of the
    rising and falling flanks and C and D the first-moment-to-square ratios.
    These must equal T(h), T(-h), S(h), S(-h); the identity is what the tests
    pin down, so this function deliberately shares nothing with tfunc/sfunc
    beyond the pair function itself.
    """
    if not h > 0.0:
        raise ValueError("h must be positive")
    pair = (lam0, lam1)
    phi = lambda ts: fundamental_eval(pair, ts)
    w = lambda ts: np.exp(p * ts)
    phi_h = fundamental_eval(pair, h)
    phi_mh = fundamental_eval(pair, -h)
    j_cross = integrate(lambda ts: phi(ts - h) * phi(ts) * w(ts), 0.0, h)[0]
    j_rise = integrate(lambda ts: phi(ts) ** 2 * w(ts), 0.0, h)[0]
    j_fall = integrate(lambda ts: phi(ts - h) ** 2 * w(ts), 0.0, h)[0]
    j_lin_rise = integrate(lambda ts: phi(ts) * w(ts), 0.0, h)[0]
    j_lin_fall = integrate(lambda ts: phi(ts - h) * w(ts), 0.0, h)[0]
    a_val = j_cross * phi_h / (j_rise * phi_mh)
    b_val = j_cross * phi_mh / (j_fall * phi_h)
    c_val = j_lin_rise * phi_h / j_rise
    d_val = j_lin_fall * phi_mh / j_fall
    return a_val, b_val, c_val, d_val


def dominance_factor(gram):
    """Largest row ratio (|off_(i-1)| + |off_i|)/diag_i, off 0 past the ends.

    A diagonal entry at or below zero, which the closed form gives only by
    underflow, raises LinAlgError naming the first such row.  A row with an
    entry past the double range has ratio inf, with no warning."""
    diag = np.asarray(gram.diag, dtype=float)
    bad = np.flatnonzero(diag <= 0.0)
    if bad.size:
        i = int(bad[0])
        raise np.linalg.LinAlgError(
            f"Gram diagonal must be positive: row {i} is {float(diag[i])!r}")
    couple, row = np.abs(gram.off), np.zeros(diag.size)
    row[:-1] += couple
    row[1:] += couple
    with np.errstate(invalid="ignore"):
        ratio = row / diag
    return float(np.max(np.where(np.isfinite(row) & np.isfinite(diag),
                                 ratio, np.inf)))


def _tridiag(sub, diag, sup, rhs):
    """(x, bound) for the tridiagonal system with subdiagonal sub, diagonal
    diag and superdiagonal sup: x by Gaussian elimination with partial
    pivoting on Python floats in LAPACK gtsv's order of operations, so with
    its bits, and bound >= ||A^-1||_inf from the same pass.  A zero pivot
    raises LinAlgError.  With the swaps P and the factors L, U, |A^-1| <=
    <U>^-1 |L^-1| P and P e = e (<U> the comparison matrix, e the ones;
    Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 8
    and 9), so max(y), y = <U>^-1 z, z = |L^-1| e, bounds every row sum of
    |A^-1|.  All terms of z and y are nonnegative and a path to an entry of
    y meets at most 6n roundings, so the computed max(y) is at least 1 - 3n
    2^-52 times its exact value for these factors; bound adds 4n ulps."""
    # row i of U is (d_i, u_i, v_i) on columns i to i+2; zeros past the last
    # row subtract only where gtsv has no term, which keeps its bits
    d, u, b = diag.tolist(), sup.tolist() + [0.0], rhs.tolist()
    n = len(d)
    v, z = [0.0] * n, [1.0] * n
    di, bi, zi = d[0], b[0], 1.0
    for i, li in enumerate(sub.tolist()):
        # gtsv swaps rows i and i+1 unless |d_i| >= |l_i|; a NaN keeps them
        if abs(li) > abs(di):
            fact, dn, bn = di / li, d[i + 1], b[i + 1]
            di, d[i], u[i] = u[i] - fact * dn, li, dn
            v[i], u[i + 1] = u[i + 1], -fact * u[i + 1]
            b[i], bi, z[i], zi = bn, bi - fact * bn, 1.0, zi + abs(fact)
        elif di == 0.0:
            break
        else:
            fact = li / di
            d[i], b[i], z[i] = di, bi, zi
            di, bi, zi = d[i + 1] - fact * u[i], b[i + 1] - fact * bi, \
                1.0 + abs(fact) * zi
    if di == 0.0:
        raise np.linalg.LinAlgError("singular tridiagonal system")
    d[-1], u[-1], b[-1], z[-1] = di, 0.0, bi, zi
    x, y, x1, x2, y1, y2 = [0.0] * n, [0.0] * n, 0.0, 0.0, 0.0, 0.0
    for i in range(n - 1, -1, -1):
        di, ui, vi = d[i], u[i], v[i]
        x1, x2 = (b[i] - ui * x1 - vi * x2) / di, x1
        y1, y2 = (z[i] + abs(ui) * y1 + abs(vi) * y2) / abs(di), y1
        x[i], y[i] = x1, y1
    # a NaN anywhere in y reaches y_0, and max keeps the NaN it starts with
    return np.array(x), max(y) * (1.0 + 4 * n * 2.0 ** -52)


def _lebesgue_sup(basis):
    """Upper bound of sup sum |H_j| from the basis's interval constants.

    On interval j, with pair (l0, l1) and length h, the live flanks sum to
    u = phi(t - t_(j+1))/phi(-h) + phi(t - t_j)/phi(h), both >= 0, monotone
    or not, as phi(t) = t e^(s t) sinhc(d t) has the sign of t.  u is in the
    kernel of L = (D - l0)(D - l1) and 1 at both knots, and L 1 = l0*l1, so
    sum |H| = u = 1 + l0*l1*omega_j.  The Lebesgue sup is thus 1 + max
    l0*l1*M_j over the keys with l0*l1 > 0, M_j the interval constant, an
    upper bound of max omega_j, rounded up by four ulps.
    """
    reps, _ = basis.groups
    # a key with l0*l1 <= 0 adds nothing above the initial 0
    excess = float(np.max(basis.pairs[reps].prod(axis=1) * basis.constants,
                          initial=0.0))
    return (1.0 + excess) * (1.0 + 4.0 * np.finfo(float).eps)


def _hat_masses(basis, p):
    """b_i = int H_i exp(p t) of every hat in closed form: on interval j, of
    left end t_j and length h, with w0 = exp(p t_j), the rising flank of
    H_(j+1) integrates to w0 e^(p h) Phi_(l0,l1,-p)(h) / Phi_(l0,l1)(h) and
    the falling flank of H_j to w0 Phi_(-l0,-l1,p)(h) / Phi_(-l0,-l1)(h),
    as Phi_A * Phi_B = Phi_(A,B) under convolution.  The numerators of all
    keys are one three-frequency kernel call, and each flank one
    _quotient over gram_assemble's pair values, as a Gram entry is."""
    reps, inverse = basis.groups
    l0, l1 = basis.pairs[reps].T
    h = basis.partition.lengths[reps]
    rise, fall = _phi(h, (l0, l1, -p), (-l0, -l1, p))
    rise, fall, phi_h, phi_mh = (
        (mant[inverse], scale[inverse]) for mant, scale in
        ((rise[0], rise[1] + p * h), fall, _pair_scaled(l0, l1, h),
         _pair_scaled(l0, l1, -h)))
    w0 = (1.0, p * basis.knots[:-1])
    mass = np.zeros(basis.n)
    mass[1:] += _quotient([w0, rise], [phi_h])
    # phi(-h) = -Phi_(-l0,-l1)(h)
    mass[:-1] -= _quotient([w0, fall], [phi_mh])
    return mass


def _m_matrix_solve(diag, couple, rhs):
    """x solving the symmetric tridiagonal system of diagonal diag and
    off-diagonals couple by elimination without pivoting on Python floats:
    for an M-matrix |L||U| = |A|, so its backward error is componentwise
    small however the rows are scaled (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., ch. 9).  NaN after a zero pivot."""
    d, c, x = diag.tolist(), couple.tolist(), rhs.tolist()
    try:
        for i, ci in enumerate(c):
            f = ci / d[i]
            d[i + 1] -= f * ci
            x[i + 1] -= f * x[i]
        x[-1] /= d[-1]
        for i in range(len(c) - 1, -1, -1):
            x[i] = (x[i] - c[i] * x[i + 1]) / d[i]
    except ZeroDivisionError:
        x = [math.nan] * len(x)
    return np.array(x)


def operator_norm_bound(basis, p):
    """Certified sup-norm bound K of the weighted projection onto the hats.

    The hats are >= 0 (see _lebesgue_sup), so the Gram G has positive
    off-diagonals, and A = D G D, D = diag((-1)^i), G's diagonal with the
    off-diagonals -|G_(i,i+1)|, is a Stieltjes matrix: A^-1 >= 0 and
    |G^-1| = A^-1 (Berman and Plemmons, Nonnegative Matrices in the
    Mathematical Sciences, ch. 6).  With c_j = <f, H_j>, |c_j| <= ||f|| b_j
    for the masses b_j = int H_j w, so |Pf(t)| <= ||f|| sum_i H_i(t)
    (A^-1 b)_i <= ||f|| Lambda max(A^-1 b), Lambda the Lebesgue sup of the
    hats.  K is Lambda max(x) for an x >= A^-1 b that the solve check
    certifies; no row dominance is asked for.  For p = 0 K is at or below
    the classical 4 for symmetric pairs, the straddling formula and 3 for
    polynomial pairs up to the pads, and wherever G's rows are dominant at
    or below Lambda S / (1 - T); the tests check both.

    The solve check: x from _m_matrix_solve, then r = A x - b per row in
    floating point.  r_i sums four terms, three of them products, so with
    u = 2^-53 its rounding error is at most gamma_4 = 4u / (1 - 4u) times
    the sum s_i of their magnitudes, whose computed value is within
    gamma_4 of it; underflow adds at most 2^-1075 per product.  So a
    computed r_i >= 5u s_i + 2^-1022 makes the exact r_i >= 0.  Until all
    rows pass, at most three times, x is raised by twice the largest
    shortfall relative to b: typically once, by about 10u s_i / b_i, which
    is the pad K carries over Lambda max(A^-1 b).  Then x > 0 and A x >= b
    > 0 prove the Z-matrix A a nonsingular M-matrix, so A^-1 >= 0, |G^-1|
    <= A^-1 (Ostrowski) and A^-1 b <= x.  A failed check raises LinAlgError
    naming the first hat and interval it fails on.  G and b are taken as
    their closed forms return them.
    """
    return _norm_bound(basis, p)


def _norm_bound(basis, p, gram=None):
    """operator_norm_bound on the caller's Gram of basis, when given."""
    if gram is None:
        gram = gram_assemble(basis, p)
    b = _hat_masses(basis, float(p))
    diag, couple = gram.diag, -np.abs(gram.off)
    x = _m_matrix_solve(diag, couple, b)
    # a non-finite x or entry fails the comparisons, so no warning is due
    with np.errstate(all="ignore"):
        for _ in range(3):
            # up, lo <= 0 wherever x > 0, which is checked before size counts
            up, lo, dx = couple * x[1:], couple * x[:-1], diag * x
            r, size = dx - b, np.abs(dx) + b
            r[:-1] += up
            r[1:] += lo
            size[:-1] -= up
            size[1:] -= lo
            short = (2.0 ** -53 * 5.0 * size + 2.0 ** -1022 - r) / b
            passed = (x > 0.0) & (b > 0.0)
            if not passed.all():
                break
            passed = short <= 0.0
            if passed.all():
                return _lebesgue_sup(basis) * float(np.max(x))
            x = x * (1.0 + 2.0 * np.max(short))
    i = int(np.argmin(passed))
    raise np.linalg.LinAlgError(
        f"no certified projector bound: the Gram solve fails its M-matrix "
        f"check at hat {i}, interval {min(i, basis.n - 2)}")


def _load_vector(basis, g, p):
    """<g, H_i> in the exp(p t) weighted product for every hat: on interval j
    the falling flank of H_j and the rising flank of H_(j+1).

    integrate's first panel over an interval uses the 15-point rule over
    the interval and over its two halves.  Those 45 nodes of every interval
    go into one array, on which g and the weight are evaluated once for both
    flanks.  A flank whose two estimates pass integrate's test is done;
    only the others go through integrate.  g maps an array of points to
    values; the points span many intervals, but Gauss-Legendre nodes are
    interior, so a piecewise g can find its piece from the knots.  g must be
    smooth inside each interval: the knots are the only panel ends, and
    integrate's estimate misses a kink inside a panel.
    """
    p = float(p)
    knots = basis.knots
    a, b = knots[:-1], knots[1:]
    mid = 0.5 * (a + b)
    centre = np.stack([mid, 0.5 * (a + mid), 0.5 * (mid + b)], axis=1)
    half = np.stack([0.5 * (b - a), 0.5 * (mid - a), 0.5 * (b - mid)], axis=1)
    ts = (centre[..., None] + half[..., None] * _GL_NODES).reshape(len(a), -1)
    # row 0 holds the falling flanks, anchored at b, row 1 the rising ones
    anchor = np.stack([b, a])
    y = np.stack([a - b, b - a])
    lam0, lam1 = basis.pairs.T[..., None]
    flanks = _flank_ratio(_flank_ends(lam0, lam1, y[..., None]),
                          ts - anchor[..., None]).reshape(2, -1)
    ts = ts.ravel()
    vals = flanks * g(ts) * np.exp(p * ts)
    panel = half * (vals.reshape(2, *half.shape, -1) @ _GL_WEIGHTS)
    coarse, fine = panel[..., 0], panel[..., 1] + panel[..., 2]
    with np.errstate(invalid="ignore"):
        ok = np.isfinite(coarse) & np.isfinite(fine) & (
            np.abs(fine - coarse) <= np.maximum(1e-11, 1e-10 * np.abs(fine)))
    for k, j in zip(*np.nonzero(~ok)):
        ends = _flank_ends(*basis.pairs[j], y[k, j])
        fine[k, j] = integrate(
            lambda t: _flank_ratio(ends, t - anchor[k, j])
            * g(t) * np.exp(p * t), a[j], b[j])[0]
    rhs = np.zeros(basis.n)
    rhs[:-1] += fine[0]
    rhs[1:] += fine[1]
    return rhs


def project(basis, g, p):
    """Weighted best approximation of g from the hat span, as the order-2
    spline SplineOrder2(basis, coeffs); the projector's norm bound is
    operator_norm_bound's.

    g must accept arrays.  The load vector f comes from one Gauss-Legendre
    pass over every flank, adaptive only where that fails, and is solved
    against the closed-form Gram matrix by _tridiag; nothing given is
    modified.  A residual above 1e-12 max|f|, which a non-finite Gram entry
    or coefficient also gives, raises LinAlgError.
    """
    gram = gram_assemble(basis, p)
    f = _load_vector(basis, g, p)
    coeffs = _tridiag(gram.off, gram.diag, gram.off, f)[0]
    # a non-finite entry gives a NaN or inf residual, which fails the check
    with np.errstate(all="ignore"):
        r = gram.diag * coeffs - f
        r[:-1] += gram.off * coeffs[1:]
        r[1:] += gram.off * coeffs[:-1]
        if not np.max(np.abs(r)) <= 1e-12 * max(np.max(np.abs(f)), 1e-300):
            raise np.linalg.LinAlgError(
                "projection solve failed the residual check")
    return SplineOrder2(basis, coeffs)
