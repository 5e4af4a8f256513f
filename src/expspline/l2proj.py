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
from scipy.linalg.lapack import dgtsv

from .errbound2 import M_constants
from .expcore import _phi_rows, fundamental_eval
from .hatbasis import SplineOrder2, _phi_ratio, group_intervals
from .quadrature import integrate

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


@dataclass
class GramSystem:
    """Tridiagonal normal equations of a hat basis.

    sub[i] couples knots i and i+1 below the diagonal, sup[i] above; both
    equal here since the form is symmetric, but they are kept separate so the
    solver handles either convention.
    """
    n: int
    diag: np.ndarray = field(repr=False)
    sub: np.ndarray = field(repr=False)
    sup: np.ndarray = field(repr=False)
    rhs: np.ndarray = field(repr=False)
    p: float = 0.0


def _phi(ts, *freqs):
    """Phi at ts (N,) over the frequency rows given column by column, each
    an array (N,) or a scalar, in one kernel call."""
    rows = np.stack(np.broadcast_arrays(*freqs), axis=1)
    return _phi_rows(np.sort(rows, axis=1), ts)


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
    left end only, so each fundamental function is one batched kernel call
    over the distinct keys, and w0 scales them per interval.
    """
    p = float(p)
    knots = basis.knots
    n = basis.n
    lengths = basis.partition.lengths
    reps, inverse = group_intervals(basis.pairs, lengths)
    l0, l1 = np.array([basis.pairs[j] for j in reps]).T
    h = np.array([lengths[j] for j in reps])
    phi_h = _phi(h, l0, l1)
    phi_mh = _phi(-h, l0, l1)
    i_left = 2.0 * np.array([math.exp(p * x) for x in h]) \
        * _phi(h, 2.0 * l0, 2.0 * l1, l0 + l1, -p)
    i_right = 2.0 * _phi(h, -2.0 * l0, -2.0 * l1, -l0 - l1, p)
    cross = -_phi(h, p + l0, p + l1, -l0, -l1)
    per_key = np.stack([i_right, phi_mh * phi_mh, i_left, phi_h * phi_h,
                        cross, phi_h * phi_mh])
    i_right, sq_mh, i_left, sq_h, cross, prod = per_key[:, inverse]
    w0 = np.array([math.exp(p * t) for t in knots[:-1]])
    diag = np.zeros(n)
    diag[:-1] += w0 * i_right / sq_mh
    diag[1:] += w0 * i_left / sq_h
    sub = w0 * cross / prod
    return GramSystem(n=n, diag=diag, sub=sub, sup=sub.copy(),
                      rhs=np.zeros(n), p=p)


def _flank_ratios(name, lam0, lam1, p, h, parts):
    """T and/or S (parts is a subset of "TS") at the lengths h, elementwise
    over the broadcast of lam0, lam1 and h, as floats for scalar input.

    T and S share the denominator Phi_(l0-l1, l1-l0, 0, -p-l0-l1)(h), which
    is evaluated once; each fundamental function is one batched kernel call
    over every length with |h| >= _TINY_H, and the rest get the h -> 0
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
        den = _phi(hs, l0 - l1, l1 - l0, 0.0, -p - l0 - l1)
        if "T" in parts:
            num = _phi(hs, l0, l1, -p - l0, -p - l1)
            out["T"][live] = 0.5 * num / den
        if "S" in parts:
            num = _phi(hs, -l0, -l1) * _phi(hs, l0, l1, -p)
            # the polynomial pair with p = 0 has S = 3/2 identically
            poly = (l0 == 0.0) & (l1 == 0.0) & (p == 0.0)
            out["S"][live] = np.where(poly, 1.5, 0.5 * num / den)
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
    """Largest row ratio (|sub| + |sup|)/diag with zero boundary couplings."""
    diag = np.asarray(gram.diag, dtype=float)
    if np.any(diag <= 0.0):
        raise ValueError("Gram diagonal must be positive")
    n = gram.n
    off = np.zeros(n)
    off[:-1] += np.abs(gram.sup)
    off[1:] += np.abs(gram.sub)
    return float(np.max(off / diag))


def tridiag_solve(gram):
    """Solve the tridiagonal system by LAPACK gtsv (Gaussian elimination
    with partial pivoting) and check the residual.

    Non-finite entries raise ValueError.  A singular system, a non-finite
    solution or a residual above 1e-12 * ||rhs|| raises LinAlgError.
    """
    n = gram.n
    diag, sub, sup, rhs = (np.asarray(x, dtype=float) for x in
                           (gram.diag, gram.sub, gram.sup, gram.rhs))
    if diag.shape != (n,) or rhs.shape != (n,) or sub.shape != (n - 1,) \
            or sup.shape != (n - 1,):
        raise ValueError("inconsistent system shapes")
    if not all(np.isfinite(x).all() for x in (diag, sub, sup, rhs)):
        raise ValueError("tridiagonal system entries must be finite")
    # the wrapper wants off-diagonals of length at least one; gtsv never
    # reads them for a 1x1 system
    pad = [0.0] if n == 1 else []
    _, _, _, x, info = dgtsv(np.append(sub, pad), diag, np.append(sup, pad),
                             rhs)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"singular tridiagonal system (gtsv info {info})")
    r = diag * x - rhs
    r[:-1] += sup * x[1:]
    r[1:] += sub * x[:-1]
    if not np.all(np.isfinite(x)) or np.max(np.abs(r)) \
            > 1e-12 * max(np.max(np.abs(rhs)), 1e-300):
        raise np.linalg.LinAlgError(
            "tridiagonal solve failed the residual check")
    return x


def _lebesgue_sup(basis, reps):
    """Upper bound of sup sum |H_j| from the interval constants of the keys
    whose first intervals are reps; see operator_norm_bound."""
    pairs, knots = basis.pairs, basis.knots
    same = [j for j in reps if pairs[j][0] * pairs[j][1] > 0.0]
    constants = M_constants([pairs[j] for j in same],
                            [knots[j] for j in same],
                            [knots[j + 1] for j in same])
    excess = max((pairs[j][0] * pairs[j][1] * c.value
                  for j, c in zip(same, constants)), default=0.0)
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
    constant is asked for.

    On interval j, with pair (l0, l1) and length h, the live flanks sum to
    u = phi(t - t_(j+1))/phi(-h) + phi(t - t_j)/phi(h), both >= 0, monotone
    or not, as phi(t) = t e^(s t) sinhc(d t) has the sign of t.  u is in the
    kernel of L = (D - l0)(D - l1) and 1 at both knots, and L 1 = l0*l1, so
    sum |H| = u = 1 + l0*l1*omega_j.  The Lebesgue sup is thus 1 + max
    l0*l1*M_j over the keys with l0*l1 > 0, M_j the interval constant, an
    upper bound of max omega_j, rounded up by four ulps.
    """
    p = float(p)
    pairs = basis.pairs
    if p == 0.0:
        if all(l0 == 0.0 and l1 == 0.0 for l0, l1 in pairs):
            return 3.0
        if all(l1 == -l0 for l0, l1 in pairs):
            return 4.0
        if all(l0 < 0.0 < l1 for l0, l1 in pairs):
            worst = max(
                max((2.0 * l1 - 4.0 * l0) / (-3.0 * l0),
                    (4.0 * l1 - 2.0 * l0) / (3.0 * l1))
                for l0, l1 in pairs)
            return 2.0 * worst
    lengths = basis.partition.lengths
    reps, _ = group_intervals(pairs, lengths)
    lam0, lam1 = np.repeat([pairs[j] for j in reps], 2, axis=0).T
    both = np.array([(lengths[j], -lengths[j]) for j in reps]).ravel()
    t_val, s_val = _flank_ratios("operator_norm_bound", lam0, lam1, p, both,
                                 "TS")
    t_key = np.abs(t_val).reshape(-1, 2).max(axis=1)
    failed = ~(t_key < 1.0)
    if np.any(failed):
        k = int(np.argmax(failed))
        raise DominanceError(reps[k], float(t_key[k]))
    c_factor = float(np.max(t_key))
    s_factor = float(np.max(np.abs(s_val)))
    return _lebesgue_sup(basis, reps) * s_factor / (1.0 - c_factor)


@dataclass
class ProjectionResult:
    """Best approximation coefficients with the dominance and norm data."""
    coeffs: np.ndarray = field(repr=False)
    c: float = 0.0
    norm_bound: float = math.inf

    basis: object = None
    p: float = 0.0

    @property
    def spline(self):
        return SplineOrder2(self.basis, self.coeffs)


def _load_vector(basis, g, p):
    """<g, H_i> in the exp(p t) weighted product for every hat, by adaptive
    quadrature flank by flank: on interval j the falling flank of H_j and
    the rising flank of H_(j+1).

    g maps an array of points to values.  Each call holds points of one
    interval only, and Gauss-Legendre nodes are interior, so a piecewise g
    can find its piece from the knots without ambiguity.
    """
    p = float(p)
    knots = basis.knots
    rhs = np.zeros(basis.n)
    for j, (lam0, lam1) in enumerate(basis.pairs):
        a, b = knots[j], knots[j + 1]
        h = b - a

        def falling(ts):
            return _phi_ratio(lam0, lam1, ts - b, -h)

        def rising(ts):
            return _phi_ratio(lam0, lam1, ts - a, h)

        weight = lambda ts: np.exp(p * ts)
        rhs[j] += integrate(
            lambda ts: falling(ts) * g(ts) * weight(ts), a, b)[0]
        rhs[j + 1] += integrate(
            lambda ts: rising(ts) * g(ts) * weight(ts), a, b)[0]
    return rhs


def project(basis, g, p):
    """Weighted best approximation of g from the hat span.

    g must accept arrays.  The load vector comes from adaptive quadrature
    flank by flank, the solve from the closed-form Gram matrix.  When the
    basis admits no dominance-based norm bound the projection is still
    returned, with norm_bound set to inf.
    """
    p = float(p)
    gram = gram_assemble(basis, p)
    gram.rhs = _load_vector(basis, g, p)
    coeffs = tridiag_solve(gram)
    c_factor = dominance_factor(gram)
    try:
        norm_bound = operator_norm_bound(basis, p)
    except DominanceError:
        norm_bound = math.inf
    return ProjectionResult(coeffs=coeffs, c=c_factor, norm_bound=norm_bound,
                            basis=basis, p=p)


def lemma_constant(a, b):
    """Constant of the two-parameter comparison inequality used by the
    fourth order analysis; requires a < 0.

    The value is the largest of four rational expressions in (a, b); it is
    1/2 whenever the other three stay below 1/2, and grows once b drops far
    below zero.
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("arguments must be finite")
    if a >= 0.0:
        raise ValueError(f"need a < 0, got a = {a}")
    e1 = 0.5
    e2 = (2.0 - a - b) / (2.0 * (2.0 - a))
    e3 = (2.0 * a * a + (2.0 * a - 1.0) * b + 2.0 - 3.0 * a) \
        / (2.0 * (1.0 - 2.0 * a) * (2.0 - a))
    e4 = (1.0 - b) / (2.0 * (1.0 - 2.0 * a))
    return max(e1, e2, e3, e4)
