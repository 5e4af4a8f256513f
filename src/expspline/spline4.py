"""Fourth order piecewise exponential interpolation with clamped ends.

The interpolant of four frequencies per interval matches the knot values
and the two end slopes and is C^2.  Per interval, the data and G = M s at
both ends (M from the middle pair of the sorted quadruple) weigh four local
solutions; the knot slopes solve one tridiagonal system, refused by its
condition estimate.  Evaluation reads a Taylor table per sub-piece.  The
certificate combines the second order interval constants, the projection
norm and the weight exponent p tying each interval's two pairs.
"""

import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np
from scipy.linalg.lapack import dgtcon, dgttrf, dgttrs

from .errbound2 import M_constants
from .expcore import _TAYLOR_RADIUS, _TAYLOR_TERMS, _phi_corner_batch
from .hatbasis import Partition, build_hat_basis, group_intervals
from .l2proj import _load_vector, operator_norm_bound

_RESIDUAL_RTOL = 1e-10

_COND_MAX = 1e12


def _coerce_partition(knots):
    if isinstance(knots, Partition):
        return knots
    return Partition(tuple(np.asarray(knots, dtype=float)))


@dataclass(frozen=True)
class QuadFrequencySet:
    """Per-interval frequency quadruples with an optional weight exponent.

    The first two entries of each quadruple are the pair whose hats carry
    the projection step, the last two the pair whose operator produces the
    residual; a weight p links them by requiring {lam0, lam1} =
    {-p - lam2, -p - lam3} per interval.  The quadruples are stored exactly
    as given; pairing resolution happens on demand.
    """
    quads: tuple
    p: float = None

    def __post_init__(self):
        if self.p is not None:
            resolve_weight(self)


def quad_frequency_set(m, quads=None, xi=None, p=None):
    """Normalize user frequency input into a QuadFrequencySet for m intervals.

    Exactly one of quads and xi must be given.  quads is a single quadruple
    or one per interval; xi is the symmetric shorthand, a scalar or one value
    per interval, expanding to (xi, -xi, xi, -xi) with p = 0.
    """
    if (quads is None) == (xi is None):
        raise ValueError("give exactly one of quads or xi")
    if xi is not None:
        if p not in (None, 0, 0.0):
            raise ValueError("symmetric shorthand fixes p = 0")
        xs = np.atleast_1d(np.asarray(xi, dtype=float))
        if xs.size == 1:
            xs = np.repeat(xs, m)
        if xs.size != m:
            raise ValueError(f"need {m} xi values, got {xs.size}")
        out = tuple((float(x), -float(x), float(x), -float(x)) for x in xs)
        return QuadFrequencySet(quads=out, p=0.0)
    quads = list(quads)
    if len(quads) == 4 and np.isscalar(quads[0]):
        quads = [tuple(quads)] * m
    if len(quads) != m:
        raise ValueError(f"need {m} quadruples, got {len(quads)}")
    out = []
    for j, q in enumerate(quads):
        q = tuple(float(x) for x in q)
        if len(q) != 4:
            raise ValueError(f"quadruple {j} has {len(q)} entries")
        if not all(map(math.isfinite, q)):
            raise ValueError(f"quadruple {j} is not finite: {q}")
        out.append(q)
    return QuadFrequencySet(quads=tuple(out),
                            p=None if p is None else float(p))


def _splits(quad):
    a, b, c, d = quad
    yield (a, b), (c, d)
    yield (a, c), (b, d)
    yield (a, d), (b, c)


def _interval_candidates(quad, tol):
    """All (hat_pair, op_pair, p) decompositions of one quadruple, the
    as-given split first."""
    out = []
    for g, o in _splits(quad):
        for oo in (o, o[::-1]):
            p1 = -(g[0] + oo[0])
            p2 = -(g[1] + oo[1])
            if abs(p1 - p2) <= 2.0 * tol:
                out.append((g, oo, 0.5 * (p1 + p2)))
    return out


def resolve_weight(qset):
    """Find the weight exponent p and the per-interval pair decomposition.

    Returns (p, canonical) where canonical holds one quadruple per interval
    with both halves sorted and the pairing condition satisfied.  The split
    as given is preferred; when it fails, the other regroupings of the four
    frequencies are tried.  Raises ValueError listing every candidate p when
    no single exponent works across all intervals.
    """
    quads = qset.quads
    scale = max([1.0] + [abs(x) for q in quads for x in q])
    if qset.p is not None:
        scale = max(scale, abs(qset.p))
    tol = 1e-9 * scale
    per_interval = [_interval_candidates(q, tol) for q in quads]
    attempted = sorted({p for cands in per_interval for _, _, p in cands})
    if qset.p is not None:
        ps = [float(qset.p)]
    else:
        ps = []
        for _, _, p in per_interval[0]:
            if not any(abs(p - q) <= tol for q in ps):
                ps.append(p)
    for p in ps:
        canonical = []
        for cands in per_interval:
            hit = next((c for c in cands if abs(c[2] - p) <= tol), None)
            if hit is None:
                break
            g, o, _ = hit
            canonical.append(tuple(sorted(g)) + tuple(sorted(o)))
        else:
            # + 0.0 turns a -0.0 from the as-given split into +0.0
            return p + 0.0, tuple(canonical)
    raise ValueError(
        "no weight exponent pairs the quadruples; candidate p values per "
        f"interval were {attempted if attempted else 'none'}"
        + (f", requested p = {qset.p}" if qset.p is not None else ""))


def _derivative_table(table, order):
    """Taylor coefficients of the order-th derivative: row n becomes
    (n+1)...(n+order) times row n+order."""
    if order == 0:
        return table
    n = np.arange(table.shape[0] - order, dtype=float)
    factor = np.prod([n + i for i in range(1, order + 1)], axis=0)
    return table[order:] * factor[:, None]


def _horner(table, idx, u):
    """Polynomial with coefficient rows table (degree+1, pieces) of piece
    idx at u, one gathered row per step."""
    acc = table[-1][idx]
    for row in table[-2::-1]:
        acc *= u
        acc += row[idx]
    return acc


@dataclass
class SplineOrder4:
    """Clamped fourth order interpolant.

    coeffs[j] = (y_j, y_(j+1), a_j, b_j) weigh the local functions (F, R,
    W_F, W_R) of _local_ends on interval j.  Evaluation reads the table
    built from them: each interval is cut into equal sub-pieces of width w
    with max|quads[j]| * w <= _TAYLOR_RADIUS, starts holds their left ends
    and taylor[n, p] the n-th Taylor coefficient of the spline at starts[p].
    """
    partition: Partition
    quads: QuadFrequencySet
    coeffs: np.ndarray = field(repr=False)
    starts: np.ndarray = field(repr=False)
    taylor: np.ndarray = field(repr=False)

    @property
    def knots(self):
        return self.partition.knots

    def __call__(self, t, order=0):
        if order not in (0, 1, 2, 3):
            raise ValueError("order must be 0..3")
        a, b = self.knots[0], self.knots[-1]
        ts = np.asarray(t, dtype=float)
        scalar = ts.ndim == 0
        ts = np.atleast_1d(ts)
        tol = 1e-12 * (b - a)
        if np.any(ts < a - tol) or np.any(ts > b + tol):
            raise ValueError("evaluation point outside the knot range")
        ts = np.clip(ts, a, b)
        idx = np.searchsorted(self.starts, ts, side="right") - 1
        out = _horner(_derivative_table(self.taylor, order), idx,
                      ts - self.starts[idx])
        return float(out[0]) if scalar else out


def _local_ends(quads, lengths):
    """Local functions of every interval, from one kernel call at h.

    x is the sorted quadruple, middle pair (x0, x1) first, M = (D - x0)(D -
    x1).  On [0, h], R = phi_m(tau)/phi_m(h) is the right flank of M, W_R =
    (Phi_x(tau) - Phi_x(h) R)/phi_o(h) solves M W = phi_o(tau)/phi_o(h)
    with zero ends (phi_o over (x2, x3)), and F, W_F are those of -x at h -
    tau, as Phi_x(-t) = (-1)^k Phi_(-x)(t) over k+1 frequencies.  Returns
    orders (2, m, 4), x and -x; weights (2, m, 2, 4), (R, W_R) and (F, W_F)
    in their prefix functions; derivs (4, 2, 4, m), orders 0..3 of (F, R,
    W_F, W_R) at tau = 0 and h, W_R' from Phi' = x1 Phi + Phi_(x0, x2, x3)
    and phi_m' = x1 phi_m + exp(x0 tau) so that no large terms cancel.
    """
    keys, back = np.unique(np.column_stack([np.sort(quads, axis=1), lengths]),
                           axis=0, return_inverse=True)
    fwd = keys[:, [1, 2, 0, 3]]
    orders = np.stack([fwd, -fwd[:, [1, 0, 3, 2]]])
    e = _phi_corner_batch(np.concatenate([*orders,
                                          *orders[..., [2, 3, 0, 1]]]),
                          np.tile(keys[:, 4], 4))
    e_h, e_o = e.reshape(2, 2, -1, 4)[:, :, back.ravel()]
    orders = orders[:, back.ravel()]
    x0, x1, _, x3 = np.moveaxis(orders, 2, 0)
    inv_m, inv_o = 1.0 / e_h[..., 1], 1.0 / e_o[..., 1]
    ratio = e_h[..., 3] * inv_m
    weights = np.zeros(orders.shape[:2] + (2, 4))
    weights[..., 0, 1], weights[..., 1, 3] = inv_m, inv_o
    weights[..., 1, 1] = -ratio * inv_o
    # d[order, end, (R, W_R), side, j]; load = M (R, W_R)
    d = np.zeros((4, 2, 2) + inv_m.shape)
    load = np.zeros(d.shape)
    d[0, 1, 0] = load[0, 1, 1] = 1.0
    d[1, :, 0] = inv_m, x1 + e_h[..., 0] * inv_m
    d[1, :, 1] = -ratio * inv_o, (e_o[..., 2] - ratio * e_h[..., 0]) * inv_o
    load[1, :, 1] = inv_o, x3 + e_o[..., 0] * inv_o
    for r in (2, 3):
        d[r] = load[r - 2] + (x0 + x1) * d[r - 1] - x0 * x1 * d[r - 2]
    # in tau the reflected side swaps its ends and D changes sign
    d[..., 1, :] = d[:, ::-1, :, 1] * np.array([1.0, -1.0, 1.0, -1.0])[
        :, None, None, None]
    return orders, weights, np.stack([d[:, :, 0, 1], d[:, :, 0, 0],
                                      d[:, :, 1, 1], d[:, :, 1, 0]], axis=2)


def _taylor_rows(x, state):
    """Taylor coefficients (_TAYLOR_TERMS + 3, N) at 0 of the kernel
    functions of x (N, 4) with derivatives state (N, 4) of orders 0..3 there:
    (w_n)_0 with w_(n+1) = Z w_n / (n+1), w_0 the weights on the prefix
    functions, (D - x_(k-1))...(D - x_0) of the function at 0 (D - x_0
    takes x_0 out of every prefix).  The first term dropped is below
    0.5^15/15! relative for max|x| u <= _TAYLOR_RADIUS, as in the kernel."""
    v, w = state.T, []
    for xk in x.T:
        w.append(v[0])
        v = v[1:] - xk * v[:-1]
    w = np.stack(w, axis=1)
    taylor = np.empty((_TAYLOR_TERMS + 3, x.shape[0]))
    for n in range(len(taylor)):
        taylor[n] = w[:, 0]
        nxt = x * w
        nxt[:, :-1] += w[:, 1:]
        w = nxt / (n + 1)
    return taylor


def _assemble(part, quads, coeffs, ends):
    """SplineOrder4 whose sub-pieces get _taylor_rows of the spline's
    derivatives at their starts: on the first of an interval from derivs
    at tau = 0, on the last from the series at tau = h run back, so the
    knots read the end values the build solved with, and elsewhere from
    each side, e(tau) Z^r (weights . (y_(j+1), b_j)) and the same in h -
    tau with -Z for (y_j, a_j), e from one kernel call."""
    orders, weights, derivs = ends
    knots, lengths = np.array(part.knots), np.array(part.lengths)
    counts = np.maximum(1, np.ceil(np.abs(orders[0]).max(axis=1) * lengths
                                   / _TAYLOR_RADIUS)).astype(int)
    owner = np.repeat(np.arange(lengths.size), counts)
    sub = np.arange(owner.size) - (np.cumsum(counts) - counts)[owner]
    starts = knots[owner] + sub * (lengths / counts)[owner]
    # offsets from the stored starts: evaluation meets each series there
    tau, rest = starts - knots[owner], knots[owner + 1] - starts
    state = np.empty((owner.size, 4))
    state[sub == 0] = np.einsum("jk,rkj->jr", coeffs, derivs[:, 0])
    last = np.flatnonzero(sub == counts[owner] - 1)[counts > 1]
    if last.size:
        j = owner[last]
        at_h = _taylor_rows(orders[0, j], np.einsum("jk,rkj->jr", coeffs[j],
                                                    derivs[:, 1][..., j]))
        state[last] = np.stack([_horner(_derivative_table(at_h, r),
                                        np.arange(j.size), -rest[last])
                                for r in range(4)], axis=1)
    inner = np.flatnonzero((sub > 0) & (sub < counts[owner] - 1))
    if inner.size:
        j = owner[inner]
        e = _phi_corner_batch(np.concatenate([orders[0, j], orders[1, j]]),
                              np.concatenate([tau[inner], rest[inner]]))
        c = np.einsum("jfs,sjfk->sjk", coeffs[j].reshape(-1, 2, 2)[..., ::-1],
                      weights[:, j])
        for r in range(4):
            state[inner, r] = np.einsum("spk,spk->p", e.reshape(c.shape), c)
            nxt = orders[:, j] * c
            nxt[..., :-1] += c[..., 1:]
            c = nxt * np.array([1.0, -1.0])[:, None, None]
    return SplineOrder4(partition=part, quads=quads, coeffs=coeffs,
                        starts=starts,
                        taylor=_taylor_rows(orders[0, owner], state))


def _checked(partition, quads):
    """(Partition, QuadFrequencySet) with one quadruple per interval."""
    part = _coerce_partition(partition)
    m = part.n - 1
    if not isinstance(quads, QuadFrequencySet):
        quads = quad_frequency_set(m, quads=quads)
    if len(quads.quads) != m:
        raise ValueError(f"need {m} quadruples, got {len(quads.quads)}")
    return part, quads


def spline_from_coefficients(partition, quads, coeffs):
    """Assemble a SplineOrder4 from its coefficients (y_j, y_(j+1), a_j,
    b_j), one row per interval; the reload path for serialized splines."""
    part, quads = _checked(partition, quads)
    coeffs = np.asarray(coeffs, dtype=float).reshape(part.n - 1, 4)
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("coefficients must be finite")
    ends = _local_ends(np.array(quads.quads), np.array(part.lengths))
    return _assemble(part, quads, coeffs, ends)


# overflow in an ill-posed system ends in the LinAlgError, not in warnings
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def build_interpolant4(partition, quads, values, d_left, d_right):
    """Interpolate values at the knots with clamped end slopes.

    On interval j the spline is y_j F + y_(j+1) R + a_j W_F + b_j W_R
    (_local_ends), and a 2x2 solve turns its end slopes into (a_j, b_j) =
    (G(t_j+), G(t_(j+1)-)), G = M s.  The unknowns are the knot slopes m_k,
    m_0 and m_(n-1) the clamps; C^2 at t_k reads b_(k-1) + sigma_(k-1) m_k
    - pi_(k-1) y_k = a_k + sigma_k m_k - pi_k y_k, sigma and pi the sum and
    product of M's pair.  LinAlgError refuses the system when its gtcon
    condition estimate reaches 1e12, and the spline when its table is not
    finite, misses the knot values and clamps by 1e-12 of max(1, |data|)
    or its C^2 joins by 1e-10 of 1 + max|coeffs|.
    """
    part, quads = _checked(partition, quads)
    values = np.asarray(values, dtype=float)
    if values.shape != (part.n,):
        raise ValueError(f"need {part.n} values, got shape {values.shape}")
    d_left, d_right = float(d_left), float(d_right)
    if not np.all(np.isfinite([*values, d_left, d_right])):
        raise ValueError("data must be finite")

    ends = _local_ends(np.array(quads.quads), np.array(part.lengths))
    (d0, dh), y0, y1 = ends[2][1], values[:-1], values[1:]
    # (a_j, b_j) = inv_j (m_j - known_j[0], m_(j+1) - known_j[1])
    inv = np.array([[dh[3], -d0[3]], [-dh[2], d0[2]]]) \
        / (d0[2] * dh[3] - d0[3] * dh[2])
    known = np.array([y0 * d0[0] + y1 * d0[1], y0 * dh[0] + y1 * dh[1]])
    sigma, pi = ends[0][0, :, :2].sum(axis=1), ends[0][0, :, :2].prod(axis=1)
    # row k couples (m_(k-1), m_k, m_(k+1)): the clamps, C^2 at the others
    rows = np.zeros((3, part.n))
    rows[:, 1:-1] = (inv[1, 0, :-1], inv[1, 1, :-1] - inv[0, 0, 1:]
                     + sigma[:-1] - sigma[1:], -inv[0, 1, 1:])
    rows[1, [0, -1]] = 1.0
    slopes, cond = _tridiagonal_solve(rows, np.concatenate([
        [d_left], (pi[:-1] - pi[1:]) * y1[:-1]
        + np.sum(inv[1, :, :-1] * known[:, :-1], axis=0)
        - np.sum(inv[0, :, 1:] * known[:, 1:], axis=0), [d_right]]))
    a, b = np.einsum("ikj,kj->ij", inv, np.array([slopes[:-1], slopes[1:]])
                     - known)
    spline = _assemble(part, quads, np.column_stack([y0, y1, a, b]), ends)
    # rounding at the right ends and joins grows with the local functions
    # (like exp(min|l| h) for a same-sign pair) and with the coefficients
    left, right = _knot_readback(spline)
    miss = max(np.max(np.abs(right[:, 0] - y0)), abs(left[-1, 0] - y1[-1]),
               abs(right[0, 1] - d_left), abs(left[-1, 1] - d_right))
    scale = max(1.0, np.max(np.abs(values)), abs(d_left), abs(d_right))
    jump = np.max(np.abs(left[:-1] - right[1:]), initial=0.0)
    if not (np.all(np.isfinite(spline.taylor)) and miss * _COND_MAX <= scale
            and jump <= _RESIDUAL_RTOL * (1 + np.max(np.abs(spline.coeffs)))):
        raise np.linalg.LinAlgError(
            f"order-4 interpolant is not finite or misses its data by "
            f"{miss:.3e} (data scale {scale:.3g}) or its C^2 joins by "
            f"{jump:.3e}; condition estimate {cond:.3g}")
    return spline


def _tridiagonal_solve(rows, rhs):
    """(x, cond) for the tridiagonal system with rows[:, i] = (a_(i,i-1),
    a_ii, a_(i,i+1)) scaled to largest entries 1, by one LAPACK LU (gttrf)
    that also gives the infinity-norm condition estimate (gtcon)."""
    n = rhs.size
    # the gttrf wrapper needs three unknowns: pad with identity rows
    pad = max(0, 3 - n)
    rows = np.hstack([rows, np.tile([[0.0], [1.0], [0.0]], (1, pad))])
    scale = np.abs(rows).max(axis=0)
    rows /= scale
    lu = dgttrf(rows[0, 1:], rows[1], rows[2, :-1])
    rcond = dgtcon(*lu[:-1], np.abs(rows).sum(axis=0).max(), norm="I")[0] \
        if lu[-1] == 0 else 0.0
    cond = 1.0 / rcond if rcond > 0.0 else math.inf
    if not cond < _COND_MAX:
        raise np.linalg.LinAlgError(
            f"order-4 slope system is ill conditioned: condition estimate "
            f"{cond:.3g} reaches {_COND_MAX:.0e}")
    b = np.append(rhs, np.zeros(pad)) / scale
    return dgttrs(*lu[:-1], b)[0][:n], cond


def spline4_eval(s, t, order=0):
    """Evaluate the spline or one of its first three derivatives."""
    return s(t, order=order)


def _knot_readback(s):
    """Derivatives of orders 0..2 at the knots, each (n-1, 3): from the
    left, the last sub-piece of each interval run to its right end; from
    the right, the first sub-piece of each interval."""
    knots = np.array(s.knots)
    first = np.searchsorted(s.starts, knots[:-1])
    last = np.append(first[1:], s.starts.size) - 1
    table, every = s.taylor[:, last], np.arange(last.size)
    left = np.stack([_horner(_derivative_table(table, r), every,
                             knots[1:] - s.starts[last]) for r in range(3)],
                    axis=1)
    return left, s.taylor[:3, first].T * np.array([1.0, 1.0, 2.0])


def smoothness_report(s):
    """Jump magnitudes |left - right| of value, first and second derivative
    at the interior knots, as an (n-2, 3) array; empty for one interval."""
    left, right = _knot_readback(s)
    return np.abs(left[:-1] - right[1:])


def _match_op_pairs(qset, basis, p):
    """Per interval, the (lam2, lam3) pair whose weighted residual is
    orthogonal to the given hats; errors if the quadruples cannot be paired
    with the basis pairs under the exponent p."""
    p = float(p)
    scale = max([1.0, abs(p)] + [abs(x) for q in qset.quads for x in q])
    tol = 1e-9 * scale
    out = []
    for j, quad in enumerate(qset.quads):
        want = tuple(sorted(basis.pairs[j]))
        hit = None
        for g, o, pc in _interval_candidates(quad, tol):
            implied = tuple(sorted((-p - o[0], -p - o[1])))
            if abs(pc - p) <= tol \
                    and abs(implied[0] - want[0]) <= tol \
                    and abs(implied[1] - want[1]) <= tol:
                hit = o
                break
        if hit is None:
            raise ValueError(
                f"interval {j}: quadruple {quad} does not match hat pair "
                f"{basis.pairs[j]} under p = {p}")
        out.append(hit)
    return out


def residual_orthogonality(F_derivs, s, basis, p):
    """Largest weighted inner product of the interpolation residual against
    the hats.

    F_derivs maps an array of points to the triple (F, F', F'').  Per
    interval the residual is (D - lam2)(D - lam3) applied to F minus the
    spline; for a clamped interpolant this is orthogonal to every hat in the
    exp(p t) product, so the returned maximum should sit at quadrature noise
    level.
    """
    if len(basis.knots) != len(s.knots) \
            or not np.array_equal(basis.knots, s.knots):
        raise ValueError("basis and spline use different partitions")
    p = float(p)
    l2, l3 = np.array(_match_op_pairs(s.quads, basis, p)).T
    su, pr = l2 + l3, l2 * l3
    knots = np.array(s.knots)

    def residual(ts):
        # quadrature nodes are interior, so each lies in exactly one interval
        j = np.searchsorted(knots, ts) - 1
        f0, f1, f2 = F_derivs(ts)
        return ((np.asarray(f2, dtype=float)
                 - su[j] * np.asarray(f1, dtype=float)
                 + pr[j] * np.asarray(f0, dtype=float))
                - (s(ts, 2) - su[j] * s(ts, 1) + pr[j] * s(ts, 0)))

    return float(np.max(np.abs(_load_vector(basis, residual, p))))


@dataclass(frozen=True)
class BoundCertificate:
    """Assembled error certificate: constant = (1 + norm_bound) * m2_max *
    m0_max and bound = constant * max|LF|."""
    delta: float
    constant: float
    norm_bound: float
    m2_max: float
    m0_max: float
    bound: float


def _certificate_parts(part, quads, p):
    """Resolve the pairing and return (p, norm_bound, m2_max, m0_max), the
    closed-form tiers short-circuiting the generic machinery."""
    _, quads = _checked(part, quads)
    if p is not None and quads.p is not None \
            and float(p) != float(quads.p):
        raise ValueError("conflicting weight exponents")
    if p is not None and quads.p is None:
        quads = QuadFrequencySet(quads=quads.quads, p=float(p))
    p_res, canon = resolve_weight(quads)
    delta = part.mesh
    if p_res == 0.0 and all(q == (0.0, 0.0, 0.0, 0.0) for q in canon):
        return p_res, 3.0, delta ** 2 / 8.0, delta ** 2 / 8.0
    if p_res == 0.0 and all(q[0] == -q[1] and q[:2] == q[2:] for q in canon):
        return p_res, 4.0, delta ** 2 / 8.0, delta ** 2 / 8.0
    basis = build_hat_basis(part, [q[:2] for q in canon])
    # the interval constants first: the hats' Lebesgue sup reads the keys
    # of the first pairing from the cache
    m2, m0 = _max_interval_constants(part, [basis.pairs,
                                            [q[2:] for q in canon]])
    norm = operator_norm_bound(basis, p_res)
    return p_res, norm, m2, m0


def _max_interval_constants(part, pairings):
    """Largest M_constant over the intervals for each pairing, one value per
    distinct (pair, length) key; the cold keys of all pairings share one
    batched search."""
    knots = part.knots
    groups = [[(pairs[j], knots[j], knots[j + 1])
               for j in group_intervals(pairs, part.lengths)[0]]
              for pairs in pairings]
    values = iter([c.value for c in M_constants(
        *zip(*(item for group in groups for item in group)))])
    return [max(islice(values, len(group))) for group in groups]


def error_bound4(partition, quads, p, max_lf):
    """Certified sup-norm bound for clamped fourth order interpolation.

    max_lf bounds |L F| over the domain, L being the per-interval product
    operator.  All-polynomial and all-symmetric quadruples use the closed
    norm constants 3 and 4 with interval constant delta^2/8; otherwise the
    pieces are assembled from the numeric interval constants and the
    projection norm bound.
    """
    part = _coerce_partition(partition)
    max_lf = float(max_lf)
    if not max_lf >= 0.0:
        raise ValueError("max_lf must be nonnegative")
    _, norm, m2, m0 = _certificate_parts(part, quads, p)
    constant = (1.0 + norm) * m2 * m0
    return BoundCertificate(delta=part.mesh, constant=constant,
                            norm_bound=norm, m2_max=m2, m0_max=m0,
                            bound=constant * max_lf)


def second_order_error_bound(partition, quads, p, max_lf):
    """Bound for the derivative-level residual max |(D-lam2)(D-lam3)
    (F - I4 F)|, equal to (1 + norm_bound) * max|LF|."""
    part = _coerce_partition(partition)
    max_lf = float(max_lf)
    if not max_lf >= 0.0:
        raise ValueError("max_lf must be nonnegative")
    _, norm, _, _ = _certificate_parts(part, quads, p)
    return (1.0 + norm) * max_lf
