"""Weighted least squares projection onto exponential hat functions.

The Gram matrix of a hat basis in the inner product <f, g> = int f g exp(pt)
is tridiagonal, and every entry has a closed form in fundamental functions,
so assembly needs no quadrature at all.  Row-sum dominance of that matrix is
controlled by the T function of each interval; together with the S function
and the Lebesgue sup of the hats it yields a certified upper bound for the
projection operator norm in the sup norm, which is the quantity the fourth
order error certificate consumes.  The sup is not sampled: on interval j the
hats are >= 0 and sum to 1 + l0*l1*omega_j, omega_j solving L omega = -1
with zero ends, so it comes from errbound2's interval constants M_j.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .expcore import _pair_scaled, _phi_scaled, _quotient, fundamental_eval
from .hatbasis import SplineOrder2, _flank_ends, _flank_ratio
from .quadrature import _GL_NODES, _GL_WEIGHTS, integrate

_TINY_H = 1e-100


class DominanceError(RuntimeError):
    """Row dominance of the Gram matrix failed, so no norm bound exists.

    Carries the offending interval index and the T value that reached 1.
    """

    def __init__(self, interval, t_value):
        self.interval = interval
        self.t_value = t_value
        super().__init__(
            f"no diagonal dominance: interval {interval} has |T| = "
            f"{t_value:.6g} >= 1")


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
    rows = np.concatenate([np.stack(np.broadcast_arrays(*cols, ts)[:-1],
                                    axis=1) for cols in groups])
    mant, scale = _phi_scaled(np.sort(rows, axis=1), np.tile(ts, len(groups)))
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
    tridiag_solve refuses.  A non-finite p raises ValueError.
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


def _flank_ratios(name, lam0, lam1, p, h, parts):
    """T and/or S (parts is a subset of "TS") at the lengths h, elementwise
    over the broadcast of lam0, lam1 and h, as floats for scalar input.

    T and S share the denominator Phi_(l0-l1, l1-l0, 0, -p-l0-l1)(h), which
    is evaluated once.  Every length with |h| >= _TINY_H, of either sign,
    shares each kernel call: the denominator and T's numerator are one
    four-frequency call, S's numerator one three-frequency call and one
    pair evaluation.  Each ratio is one _quotient of their (mant, scale)
    pairs, finite wherever the ratio is.  The other lengths get the h -> 0
    limits T = 1/2 and S = 3/2.
    """
    lam0, lam1, h = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (lam0, lam1, h)))
    if not (math.isfinite(p) and np.all(np.isfinite(lam0))
            and np.all(np.isfinite(lam1)) and np.all(np.isfinite(h))):
        raise ValueError(f"{name} arguments must be finite")
    out = {"T": np.full(h.shape, 0.5), "S": np.full(h.shape, 1.5)}
    live = np.abs(h) >= _TINY_H
    if np.any(live):
        l0, l1, hs = lam0[live], lam1[live], h[live]
        den_cols = (l0 - l1, l1 - l0, 0.0, -p - l0 - l1)
        if "T" in parts:
            den, num = _phi(hs, den_cols, (l0, l1, -p - l0, -p - l1))
            out["T"][live] = 0.5 * _quotient([num], [den])
        else:
            (den,) = _phi(hs, den_cols)
        if "S" in parts:
            num = _phi(hs, (-l0, -l1))[0], _phi(hs, (l0, l1, -p))[0]
            # the polynomial pair with p = 0 has S = 3/2 identically
            poly = (l0 == 0.0) & (l1 == 0.0) & (p == 0.0)
            out["S"][live] = np.where(poly, 1.5,
                                      0.5 * _quotient(num, [den]))
    return tuple(float(out[c]) if h.ndim == 0 else out[c] for c in parts)


def tfunc(lam0, lam1, p, h):
    """Dominance ratio T of an interval of length h.

    T(h) is the ratio of the weighted cross integral of the two hats to the
    squared rising flank, written entirely in fundamental functions.  T -> 1/2
    as h -> 0 for every pair, and |T| < 1 on both half-meshes is exactly
    row dominance of the Gram matrix.  lam0, lam1 and h may be arrays; they
    broadcast against each other.
    """
    return _flank_ratios("tfunc", lam0, lam1, float(p), h, "T")[0]


def sfunc(lam0, lam1, p, h):
    """Companion ratio S of an interval: first moment of a flank against its
    square.  S -> 3/2 as h -> 0; for the polynomial pair with p = 0 it is 3/2
    identically, which is returned as the exact constant.  lam0, lam1 and h
    may be arrays; they broadcast against each other."""
    return _flank_ratios("sfunc", lam0, lam1, float(p), h, "S")[0]


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
    underflow, raises LinAlgError naming the first such row."""
    diag = np.asarray(gram.diag, dtype=float)
    bad = np.flatnonzero(diag <= 0.0)
    if bad.size:
        i = int(bad[0])
        raise np.linalg.LinAlgError(
            f"Gram diagonal must be positive: row {i} is {float(diag[i])!r}")
    couple, row = np.abs(gram.off), np.zeros(diag.size)
    row[:-1] += couple
    row[1:] += couple
    return float(np.max(row / diag))


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


def tridiag_solve(sub, diag, sup, rhs):
    """Solve the tridiagonal system with subdiagonal sub, diagonal diag and
    superdiagonal sup for rhs by _tridiag (Gaussian elimination with partial
    pivoting) and check the residual.

    Inconsistent shapes and non-finite entries raise ValueError.  A
    singular system, a non-finite solution or a residual above 1e-12 *
    ||rhs|| raises LinAlgError.
    """
    sub, diag, sup, rhs = (np.asarray(x, dtype=float) for x in
                           (sub, diag, sup, rhs))
    n = diag.size
    if diag.ndim != 1 or rhs.shape != (n,) or sub.shape != (n - 1,) \
            or sup.shape != (n - 1,):
        raise ValueError("inconsistent system shapes")
    if not all(np.isfinite(x).all() for x in (diag, sub, sup, rhs)):
        raise ValueError("tridiagonal system entries must be finite")
    x = _tridiag(sub, diag, sup, rhs)[0]
    r = diag * x - rhs
    r[:-1] += sup * x[1:]
    r[1:] += sub * x[:-1]
    if not np.all(np.isfinite(x)) or np.max(np.abs(r)) \
            > 1e-12 * max(np.max(np.abs(rhs)), 1e-300):
        raise np.linalg.LinAlgError(
            "tridiagonal solve failed the residual check")
    return x


def _lebesgue_sup(basis):
    """Upper bound of sup sum |H_j| from the basis's interval constants;
    see operator_norm_bound."""
    reps, _ = basis.groups
    # a key with l0*l1 <= 0 adds nothing above the initial 0
    excess = float(np.max(basis.pairs[reps].prod(axis=1) * basis.constants,
                          initial=0.0))
    return (1.0 + excess) * (1.0 + 4.0 * np.finfo(float).eps)


def operator_norm_bound(basis, p):
    """Certified sup-norm bound for the weighted projection onto the hats.

    Three closed-form tiers cover the classical cases with p = 0: all
    polynomial pairs give 3, all symmetric pairs give 4, and pairs straddling
    zero give an explicit rational expression.  Everything else is the
    Lebesgue sup of the hats times S / (1 - T), with T and S the ratios at +h
    and -h, evaluated once per distinct (pair, length) key in mesh order; if
    some |T| reaches 1 the Gram matrix has no dominance margin and
    DominanceError reports the first such interval before any interval
    constant is asked for.  Hats past the monotone radius of their pair
    may get there; the order-4 certificate reads this bound, order 2 not.

    On interval j, with pair (l0, l1) and length h, the live flanks sum to
    u = phi(t - t_(j+1))/phi(-h) + phi(t - t_j)/phi(h), both >= 0, monotone
    or not, as phi(t) = t e^(s t) sinhc(d t) has the sign of t.  u is in the
    kernel of L = (D - l0)(D - l1) and 1 at both knots, and L 1 = l0*l1, so
    sum |H| = u = 1 + l0*l1*omega_j.  The Lebesgue sup is thus 1 + max
    l0*l1*M_j over the keys with l0*l1 > 0, M_j the interval constant, an
    upper bound of max omega_j, rounded up by four ulps.
    """
    p = float(p)
    l0, l1 = basis.pairs.T
    if p == 0.0:
        if np.all((l0 == 0.0) & (l1 == 0.0)):
            return 3.0
        if np.all(l1 == -l0):
            return 4.0
        if np.all((l0 < 0.0) & (0.0 < l1)):
            return 2.0 * float(np.max(np.maximum(
                (2.0 * l1 - 4.0 * l0) / (-3.0 * l0),
                (4.0 * l1 - 2.0 * l0) / (3.0 * l1))))
    lengths = basis.partition.lengths
    reps, _ = basis.groups
    lam0, lam1 = np.repeat(basis.pairs[reps], 2, axis=0).T
    both = np.column_stack([lengths[reps], -lengths[reps]]).ravel()
    t_val, s_val = _flank_ratios("operator_norm_bound", lam0, lam1, p, both,
                                 "TS")
    t_key = np.abs(t_val).reshape(-1, 2).max(axis=1)
    failed = ~(t_key < 1.0)
    if np.any(failed):
        k = int(np.argmax(failed))
        raise DominanceError(int(reps[k]), float(t_key[k]))
    c_factor = float(np.max(t_key))
    s_factor = float(np.max(np.abs(s_val)))
    return _lebesgue_sup(basis) * s_factor / (1.0 - c_factor)


@dataclass
class ProjectionResult:
    """Best approximation coefficients with the dominance and norm data."""
    coeffs: np.ndarray = field(repr=False)
    c: float = 0.0
    norm_bound: float = math.inf
    basis: object = None

    @property
    def spline(self):
        return SplineOrder2(self.basis, self.coeffs)


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
    """Weighted best approximation of g from the hat span.

    g must accept arrays.  The load vector comes from one Gauss-Legendre
    pass over every flank, adaptive only where that fails, and is passed
    with the closed-form Gram matrix to tridiag_solve; nothing given is
    modified.  When the basis admits no dominance-based norm bound the
    projection is still returned, with norm_bound set to inf.
    """
    gram = gram_assemble(basis, p)
    coeffs = tridiag_solve(gram.off, gram.diag, gram.off,
                           _load_vector(basis, g, p))
    c_factor = dominance_factor(gram)
    try:
        norm_bound = operator_norm_bound(basis, p)
    except DominanceError:
        norm_bound = math.inf
    return ProjectionResult(coeffs=coeffs, c=c_factor, norm_bound=norm_bound,
                            basis=basis)

