"""Fourth order piecewise exponential interpolation with clamped ends.

The interpolant of four frequencies per interval matches the knot values
and the two end slopes and is C^2.  Per interval, the data and G = M s at
both ends (M from the middle pair of the sorted quadruple) weigh four local
solutions; the knot slopes solve one tridiagonal system by l2proj's
elimination, refused by the condition bound of the same pass.  Evaluation
reads a Taylor table per sub-piece, found by a bucket lookup.  The
certificate combines the second order interval constants, the projection
norm and the weight exponent p tying each interval's two pairs.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errbound2 import M_constants
from .expcore import _TAYLOR_RADIUS, _TAYLOR_TERMS, _corner_scaled, _plain
from .hatbasis import (Partition, _frequency_rows, as_partition,
                       build_hat_basis, group_intervals)
from .l2proj import _finite_p, _load_vector, _tridiag, operator_norm_bound

_RESIDUAL_RTOL = 1e-10

_COND_MAX = 1e12

# points per block of SplineOrder4.__call__: the lookup's and Horner's
# temporaries (128 KiB each) stay in L2
_EVAL_BLOCK = 16384


@dataclass(frozen=True, eq=False)
class QuadFrequencySet:
    """Per-interval frequency quadruples with an optional weight exponent.

    quads is a read-only (m, 4) float array, one row per interval, stored
    exactly as given.  The first two entries of a row are the pair whose
    hats carry the projection step, the last two the pair whose operator
    produces the residual; a weight p links them by requiring {lam0, lam1}
    = {-p - lam2, -p - lam3} per interval.  The pairing is resolved on
    first use, at construction when p is given, and kept as _pairing = (p,
    canonical (m, 4) array) for every later reader.
    """
    quads: np.ndarray
    p: float = None

    def __post_init__(self):
        quads = np.array(self.quads, dtype=float)
        if quads.ndim != 2 or quads.shape[1] != 4 or len(quads) == 0:
            raise ValueError("need an (m, 4) array with m >= 1, got shape "
                             f"{quads.shape}")
        quads.setflags(write=False)
        object.__setattr__(self, "quads", quads)
        if self.p is not None:
            self._pairing

    @cached_property
    def _pairing(self):
        """resolve_weight's search, once over the distinct rows."""
        p, back, split, hit, _, cands = _splits(self.quads, self.p)
        if not hit.any(axis=1).all():
            attempted = sorted(set(cands.tolist()))
            raise ValueError(
                "no weight exponent pairs the quadruples; candidate p values "
                f"per interval were {attempted if attempted else 'none'}"
                + (f", requested p = {self.p}" if self.p is not None else ""))
        first = split[np.arange(len(split)), hit.argmax(axis=1)]
        canonical = _sorted_pairs(first.reshape(-1, 2, 2)).reshape(-1, 4)[back]
        canonical.setflags(write=False)
        # + 0.0 turns a -0.0 from the as-given split into +0.0
        return p + 0.0, canonical


def quad_frequency_set(m, quads=None, xi=None, p=None):
    """Normalize user frequency input into a QuadFrequencySet for m intervals.

    Exactly one of quads and xi must be given.  quads is a single quadruple
    or one per interval; xi is the symmetric shorthand, a scalar or one value
    per interval, expanding to (xi, -xi, xi, -xi) with p = 0.  Other shapes
    and non-finite values raise ValueError naming the offending row.
    """
    if (quads is None) == (xi is None):
        raise ValueError("give exactly one of quads or xi")
    if xi is not None:
        if p not in (None, 0, 0.0):
            raise ValueError("symmetric shorthand fixes p = 0")
        xs = np.array(xi, dtype=float)
        if xs.size == 1:
            xs = np.repeat(xs, m)
        if xs.shape != (m,):
            got = xs.size if xs.ndim == 1 else f"shape {xs.shape}"
            raise ValueError(f"need {m} xi values, got {got}")
        qs, p = np.column_stack([xs, -xs, xs, -xs]), 0.0
    else:
        qs = _frequency_rows(quads, "quadruple", m, 4)
    bad = ~np.isfinite(qs).all(axis=1)
    if bad.any():
        j = int(np.argmax(bad))
        raise ValueError(f"xi {j} is not finite: {xs[j]}" if xi is not None
                         else f"quadruple {j} is not finite: "
                         f"{tuple(qs[j].tolist())}")
    return QuadFrequencySet(quads=qs, p=None if p is None else float(p))


# the (hat pair, operator pair) splits of a quadruple, the as-given first
_SPLITS = np.array([[0, 1, 2, 3], [0, 1, 3, 2], [0, 2, 1, 3],
                    [0, 2, 3, 1], [0, 3, 1, 2], [0, 3, 2, 1]])


def _splits(quads, p_req):
    """(p, back, split, hit, tol, cands), the one search of both pairings,
    over the distinct rows of the quadruples quads (m, 4): back maps each
    interval to its row, split (k, 6, 4) regroups the rows by _SPLITS, cands
    lists the p of every split whose two cross sums -(hat + op) agree within 2
    tol, in interval order, and hit marks those within tol of p, which is
    p_req or else the first candidate of interval 0.  A non-finite p_req
    raises ValueError.  tol is 1e-9 of the largest of 1, every |frequency| and
    |p_req|.  The cross sums of a split add to -(l0 + l1 + l2 + l3), so one
    row's candidates agree to rounding."""
    reps, back = group_intervals(quads, np.zeros(len(quads)))
    scale = max(1.0, float(np.abs(quads).max()))
    if p_req is not None:
        p_req = _finite_p(p_req)
        scale = max(scale, abs(p_req))
    tol = 1e-9 * scale
    split = quads[reps][:, _SPLITS]
    p1 = -(split[..., 0] + split[..., 2])
    p2 = -(split[..., 1] + split[..., 3])
    pc, ok = 0.5 * (p1 + p2), np.abs(p1 - p2) <= 2.0 * tol
    p = p_req
    if p is None:
        # a NaN matches no candidate
        p = float(pc[0, ok[0]][0]) if ok[0].any() else math.nan
    return p, back, split, ok & (np.abs(pc - p) <= tol), tol, pc[ok]


def _sorted_pairs(pairs):
    """pairs (..., 2) sorted as sorted() sorts them: swapped only when the
    second entry is below the first, so -0.0 and +0.0 keep their order."""
    swap = pairs[..., 1] < pairs[..., 0]
    return np.where(swap[..., None], pairs[..., ::-1], pairs)


def resolve_weight(qset):
    """Find the weight exponent p and the per-interval pair decomposition
    of a QuadFrequencySet.

    Returns (p, canonical) where canonical holds one quadruple per interval
    with both halves sorted and the pairing condition satisfied.  p is the
    requested one or that of interval 0; per distinct quadruple the split
    as given is preferred, and when it fails the other regroupings of the
    four frequencies are tried.  Raises ValueError listing every candidate
    p, in interval order, when no single exponent works across all
    intervals.  The set keeps p and the canonical (m, 4) array; only this
    public return makes tuples of them, the 4-tuples its callers compare.
    """
    p, canonical = qset._pairing
    return p, tuple(map(tuple, canonical.tolist()))


# _RISING[r, n] = (n+1)...(n+r), exact in floats: the factor of row n + r
# of a Taylor table in its r-th derivative
_RISING = np.array([[math.perm(n + r, r) for n in range(_TAYLOR_TERMS + 3)]
                    for r in range(4)], dtype=float)


def _derivative_table(table, order):
    """Taylor coefficients of the order-th derivative: row n becomes
    (n+1)...(n+order) times row n+order."""
    if order == 0:
        return table
    return table[order:] * _RISING[order, :table.shape[0] - order, None]


def _horner(table, idx, u, out=None):
    """Polynomial with coefficient rows table (degree+1, pieces) of piece
    idx at u, one gathered row per step, accumulated in out when given."""
    acc = np.take(table[-1], idx, out=out)
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
    with max|quads[j]| * w <= _TAYLOR_RADIUS, starts (a view of probe's
    head) holds their left ends and taylor[n, p] the n-th Taylor
    coefficient of the spline at starts[p].  The table keeps only the rows
    its widest sub-piece needs, _row_count(r) for r the largest max|quads[j]|
    * w: the first term dropped is below 0.5^15/15! = 2.3e-17 relative, as
    in the kernel, so r = 0.5 keeps 18 rows and a cubic 4.  That bound is
    the value's: derivative order r reads row n + r weighted by
    (n+1)...(n+r), so its first dropped term can be up to binom(n+r, r)
    times larger, 816 times for s''' at 18 rows.  No certificate reads s'''.

    A point's sub-piece is found without a search.  [a, b] is cut into one
    equal bucket per sub-piece; buckets[k] is the lowest sub-piece a point
    of bucket k can lie in, and steps branchless halving steps over probe
    (starts padded with 2**steps - 1 infinities) reach the highest, steps
    = ceil(log2(spread + 1)) for the largest spread of a bucket (one on a
    uniform mesh, more where a graded mesh crowds sub-pieces into a
    bucket).  Points are evaluated in blocks of _EVAL_BLOCK.
    """
    partition: Partition
    quads: QuadFrequencySet
    coeffs: np.ndarray = field(repr=False)
    starts: np.ndarray = field(repr=False)
    taylor: np.ndarray = field(repr=False)
    buckets: np.ndarray = field(repr=False)
    probe: np.ndarray = field(repr=False)
    steps: int

    @property
    def knots(self):
        return self.partition.knots

    def _piece(self, ts):
        """searchsorted(starts, ts, "right") - 1 for ts in [a, b]."""
        idx = self.buckets[_bucket(ts, self.knots[0], self.knots[-1],
                                   self.buckets.size)]
        for k in range(self.steps - 1, -1, -1):
            shift = 1 << k
            np.add(idx, shift, out=idx, where=self.probe[idx + shift] <= ts)
        return idx

    def __call__(self, t, order=0):
        if type(order) is not int and not isinstance(order, np.integer) \
                or order not in (0, 1, 2, 3):
            raise ValueError("order must be 0..3")
        a, b = self.knots[0], self.knots[-1]
        ts = np.asarray(t, dtype=float)
        flat, tol = ts.ravel(), 1e-12 * (b - a)
        table = _derivative_table(self.taylor, order)
        out = np.empty(flat.shape)
        for lo in range(0, flat.size, _EVAL_BLOCK):
            block = flat[lo:lo + _EVAL_BLOCK]
            low, high = block.min(), block.max()
            # a NaN fails both comparisons
            if not (low >= a - tol and high <= b + tol):
                if not np.all(np.isfinite(block)):
                    raise ValueError("evaluation points must be finite")
                raise ValueError("evaluation point outside the knot range")
            if low < a or high > b:
                block = np.clip(block, a, b)
            idx = self._piece(block)
            _horner(table, idx, block - self.starts[idx],
                    out[lo:lo + _EVAL_BLOCK])
        return float(out[0]) if ts.ndim == 0 else out.reshape(ts.shape)


def _bucket(ts, a, b, count):
    """Bucket of each point of ts in [a, b] among count equal ones; rounding
    is monotone, so the bucket never decreases with ts."""
    k = ((ts - a) * (count / (b - a))).astype(np.intp)
    return np.minimum(k, count - 1, out=k)


def _lookup(knots, starts):
    """(buckets, probe, steps) of SplineOrder4's sub-piece lookup.  A point
    t of bucket k lies in sub-piece i with bucket(starts[i]) <= k <=
    bucket(starts[i + 1]), so i runs from one below the first start in
    bucket k to the last start in it."""
    count = starts.size
    k = _bucket(starts, knots[0], knots[-1], count)
    every = np.arange(count)
    buckets = np.maximum(np.searchsorted(k, every) - 1, 0)
    spread = np.max(np.searchsorted(k, every, side="right") - 1 - buckets)
    steps = int(spread).bit_length()
    probe = np.concatenate([starts, np.full((1 << steps) - 1, np.inf)])
    return buckets, probe, steps


def _local_rows(rows, ts, quads, owner):
    """First kernel rows of rows at offsets ts from a knot of interval
    owner[i]; an overflow names that interval and its quadruple as given."""
    return _plain(_corner_scaled(rows, ts), lambda i: (
        f"local functions of interval {owner[i]} for quadruple "
        f"{tuple(quads[owner[i]].tolist())} overflow at offset {ts[i]:g}"))


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
    sorted_quads = np.sort(quads, axis=1)
    reps, back = group_intervals(sorted_quads, lengths)
    keys = np.column_stack([sorted_quads[reps], lengths[reps]])
    fwd = keys[:, [1, 2, 0, 3]]
    orders = np.stack([fwd, -fwd[:, [1, 0, 3, 2]]])
    freqs = np.concatenate([*orders, *orders[..., [2, 3, 0, 1]]])
    ts = np.tile(keys[:, 4], 4)
    e = _local_rows(freqs, ts, quads, np.tile(reps, 4))
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


# r^n/n! for n = 1.._TAYLOR_TERMS at r = _TAYLOR_RADIUS, by the recurrence
# _row_count runs: the last is the kernel's bound 0.5^15/15! = 2.3e-17
_TAIL = np.cumprod(_TAYLOR_RADIUS / np.arange(1.0, _TAYLOR_TERMS + 1))[-1]


def _row_count(r):
    """Rows of a Taylor table whose sub-pieces have max|x| u <= r: n + 3, n
    the least n >= 1 with r^n/n! <= _TAIL, so that the first term dropped
    is below the kernel's bound.  A width rounded past _TAYLOR_RADIUS counts
    as the radius, so r = _TAYLOR_RADIUS keeps _TAYLOR_TERMS + 3 rows, no
    table keeps more, and r = 0 (a cubic) keeps 4."""
    terms = np.cumprod(min(r, _TAYLOR_RADIUS)
                       / np.arange(1.0, _TAYLOR_TERMS + 1))
    return int(np.count_nonzero(terms > _TAIL)) + 4


def _taylor_rows(x, state, rows):
    """Taylor coefficients (rows, N) at 0 of the kernel functions of x (N,
    4) with derivatives state (N, 4) of orders 0..3 there: (w_n)_0 with
    w_(n+1) = Z w_n / (n+1), w_0 the weights on the prefix functions, (D -
    x_(k-1))...(D - x_0) of the function at 0 (D - x_0 takes x_0 out of
    every prefix).  With rows = _row_count(r), the first term dropped is
    below 0.5^15/15! = 2.3e-17 relative for max|x| u <= r, as in the
    kernel.  That holds for the value only: order r reads row n + r
    weighted by (n+1)...(n+r), so its first dropped term can be up to
    binom(n+r, r) times larger, 816 times for s''' at 18 rows, which no
    certificate reads."""
    v, w = state.T, []
    for xk in x.T:
        w.append(v[0])
        v = v[1:] - xk * v[:-1]
    w = np.stack(w, axis=1)
    taylor = np.empty((rows, x.shape[0]))
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
    tau with -Z for (y_j, a_j), e from one kernel call.

    Each state sums four terms per side in the order np.einsum took on two
    or more intervals, which keeps the tables' bits: left to right on first
    sub-pieces, (k0 + k2) + (k1 + k3) on last ones and on each side of inner
    ones, then side 0 plus side 1.  Fixed, no order depends on how many
    intervals one call covers."""
    orders, weights, derivs = ends
    knots, lengths = part.knots, part.lengths
    top = np.abs(orders[0]).max(axis=1)
    counts = np.maximum(1, np.ceil(top * lengths / _TAYLOR_RADIUS)).astype(int)
    width = lengths / counts
    rows = _row_count(np.max(top * width))
    owner = np.repeat(np.arange(lengths.size), counts)
    sub = np.arange(owner.size) - (np.cumsum(counts) - counts)[owner]
    starts = knots[owner] + sub * width[owner]
    # offsets from the stored starts: evaluation meets each series there
    tau, rest = starts - knots[owner], knots[owner + 1] - starts
    state = np.empty((owner.size, 4))
    # t[r, k, j] = coeffs[j, k] * derivs[r, end, k, j]
    t = coeffs.T * derivs[:, 0]
    state[sub == 0] = (t[:, 0] + t[:, 1] + t[:, 2] + t[:, 3]).T
    last = np.flatnonzero(sub == counts[owner] - 1)[counts > 1]
    if last.size:
        j = owner[last]
        t = coeffs[j].T * derivs[:, 1][..., j]
        at_end = (t[:, 0] + t[:, 2]) + (t[:, 1] + t[:, 3])
        # the full series, so that every kept row equals the full table's:
        # a shorter one rounds the derivatives it sets differently
        at_h = _taylor_rows(orders[0, j], at_end.T, _TAYLOR_TERMS + 3)
        state[last] = np.stack([_horner(_derivative_table(at_h, r),
                                        np.arange(j.size), -rest[last])
                                for r in range(4)], axis=1)
    inner = np.flatnonzero((sub > 0) & (sub < counts[owner] - 1))
    if inner.size:
        j = owner[inner]
        freqs = np.concatenate([orders[0, j], orders[1, j]])
        ts = np.concatenate([tau[inner], rest[inner]])
        e = _local_rows(freqs, ts, quads.quads,
                        np.tile(j, 2)).reshape(2, -1, 4)
        # c[s, p] = (y_(j+1), b_j) . weights[0] and (y_j, a_j) . weights[1]
        data = coeffs[j].reshape(-1, 2, 2)[..., ::-1].transpose(2, 0, 1)
        c = data[..., 0, None] * weights[:, j, 0] \
            + data[..., 1, None] * weights[:, j, 1]
        for r in range(4):
            t = e * c
            side = (t[..., 0] + t[..., 2]) + (t[..., 1] + t[..., 3])
            state[inner, r] = side[0] + side[1]
            nxt = orders[:, j] * c
            nxt[..., :-1] += c[..., 1:]
            c = nxt * np.array([1.0, -1.0])[:, None, None]
    buckets, probe, steps = _lookup(knots, starts)
    return SplineOrder4(partition=part, quads=quads, coeffs=coeffs,
                        starts=probe[:starts.size],
                        taylor=_taylor_rows(orders[0, owner], state, rows),
                        buckets=buckets, probe=probe, steps=steps)


def _checked(partition, quads):
    """(Partition, QuadFrequencySet) with one quadruple per interval."""
    part = as_partition(partition)
    m = part.n - 1
    if not isinstance(quads, QuadFrequencySet):
        quads = quad_frequency_set(m, quads=quads)
    if len(quads.quads) != m:
        raise ValueError(f"need {m} quadruples, got {len(quads.quads)}")
    return part, quads


def spline_from_coefficients(partition, quads, coeffs):
    """Assemble a SplineOrder4 from its coefficients (y_j, y_(j+1), a_j,
    b_j), an (m, 4) array of one row per interval; the reload path for
    serialized splines."""
    part, quads = _checked(partition, quads)
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (part.n - 1, 4):
        raise ValueError(f"need coefficients of shape {(part.n - 1, 4)}, "
                         f"got shape {coeffs.shape}")
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("coefficients must be finite")
    ends = _local_ends(quads.quads, part.lengths)
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
    product of M's pair.  LinAlgError refuses the system when its
    condition bound reaches 1e12, and the spline when its table is not
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

    ends = _local_ends(quads.quads, part.lengths)
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
            f"{jump:.3e}; condition bound {cond:.3g}")
    return spline


def _tridiagonal_solve(rows, rhs):
    """(x, cond) for the tridiagonal system with rows[:, i] = (a_(i,i-1),
    a_ii, a_(i,i+1)) scaled to largest entries 1, by l2proj's elimination:
    cond = ||A||_inf times the bound of ||A^-1||_inf from the same pass, an
    upper bound of the scaled system's condition number."""
    scale = np.abs(rows).max(axis=0)
    rows = rows / scale
    x, bound = _tridiag(rows[0, 1:], rows[1], rows[2, :-1], rhs / scale)
    cond = float(np.abs(rows).sum(axis=0).max()) * bound
    if not cond < _COND_MAX:
        why = f"condition bound {cond:.3g} reaches {_COND_MAX:.0e}" \
            if math.isfinite(cond) else "its condition bound overflows"
        raise np.linalg.LinAlgError(
            f"order-4 slope system is ill conditioned: {why}")
    return x, cond


def spline4_eval(s, t, order=0):
    """Evaluate the spline or one of its first three derivatives."""
    return s(t, order=order)


def _knot_readback(s):
    """Derivatives of orders 0..2 at the knots, each (n-1, 3): from the
    left, the last sub-piece of each interval run to its right end; from
    the right, the first sub-piece of each interval."""
    knots = s.knots
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
    """The (m, 2) array of (lam2, lam3) pairs, one per interval, whose
    weighted residual is orthogonal to the given hats.

    Per interval it takes the first split of its quadruple under p (the
    search of resolve_weight, then the same six splits with their hat and
    operator pairs swapped, which keeps p) whose sorted -p - (lam2, lam3)
    matches the sorted hat pair within tol.  Raises ValueError naming the
    first interval, in mesh order, that has none.
    """
    quads, pairs = qset.quads, basis.pairs
    p, back, split, hit, tol, _ = _splits(quads, p)
    split = np.concatenate([split, split[..., [2, 3, 0, 1]]], axis=1)
    hit = np.tile(hit, 2)
    ops = split[back, :, 2:]
    want = _sorted_pairs(pairs)[:, None]
    hit = hit[back] & (np.abs(_sorted_pairs(-p - ops) - want) <= tol).all(2)
    found = hit.any(axis=1)
    if not found.all():
        j = int(np.argmin(found))
        raise ValueError(
            f"interval {j}: quadruple {tuple(quads[j].tolist())} does not "
            f"match hat pair {tuple(pairs[j].tolist())} under p = {p}")
    return ops[np.arange(len(ops)), hit.argmax(axis=1)]


def residual_orthogonality(F_derivs, s, basis, p):
    """Largest weighted inner product of the interpolation residual against
    the hats.

    F_derivs maps an array of points to the triple (F, F', F'').  Per
    interval the residual is (D - lam2)(D - lam3) applied to F minus the
    spline; for a clamped interpolant this is orthogonal to every hat in the
    exp(p t) product, so the returned maximum should sit at quadrature noise
    level.
    """
    if not np.array_equal(basis.knots, s.knots):
        raise ValueError("basis and spline use different partitions")
    l2, l3 = _match_op_pairs(s.quads, basis, p).T
    su, pr = l2 + l3, l2 * l3
    knots = s.knots

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


def _certificate_parts(part, quads, p, basis=None):
    """Resolve the pairing and return (norm_bound, m2_max, m0_max), the
    closed-form tiers short-circuiting the generic machinery.  basis is the
    hat basis of the resolved pairing's first pairs when the caller has
    built it already."""
    _, quads = _checked(part, quads)
    if p is not None and quads.p is not None \
            and float(p) != float(quads.p):
        raise ValueError("conflicting weight exponents")
    if p is not None and quads.p is None:
        quads = QuadFrequencySet(quads=quads.quads, p=float(p))
    p_res, canon = quads._pairing
    delta = part.mesh
    # the all-polynomial tier is the symmetric one at xi = 0
    if p_res == 0.0 and (canon[:, 0] == -canon[:, 1]).all() \
            and (canon[:, :2] == canon[:, 2:]).all():
        norm = 3.0 if (canon == 0.0).all() else 4.0
        return norm, delta ** 2 / 8.0, delta ** 2 / 8.0
    if basis is None:
        basis = build_hat_basis(part, canon[:, :2])
    ops = canon[:, 2:]
    # both pairings' interval constants in one search; the hats' half is
    # the basis's own, which the Lebesgue sup reads
    hat_reps = basis.groups[0]
    op_reps = group_intervals(ops, part.lengths)[0]
    reps = np.concatenate([hat_reps, op_reps])
    hats, opers = np.split(M_constants(
        np.concatenate([basis.pairs[hat_reps], ops[op_reps]]),
        part.knots[reps], part.knots[reps + 1]), [hat_reps.size])
    hats.setflags(write=False)
    basis.constants = hats
    norm = operator_norm_bound(basis, p_res)
    return norm, float(np.max(hats)), float(np.max(opers))


def error_bound4(partition, quads, p, max_lf):
    """Certified sup-norm bound for clamped fourth order interpolation.

    max_lf bounds |L F| over the domain, L being the per-interval product
    operator.  All-polynomial and all-symmetric quadruples use the closed
    norm constants 3 and 4 with interval constant delta^2/8; otherwise the
    pieces are assembled from the numeric interval constants and the
    projection norm bound.
    """
    return _error_bound4(as_partition(partition), quads, p, max_lf)


def _error_bound4(part, quads, p, max_lf, basis=None):
    """error_bound4 on a Partition, reusing the caller's hat basis of the
    resolved pairing when given (see _certificate_parts)."""
    max_lf = float(max_lf)
    if not max_lf >= 0.0:
        raise ValueError("max_lf must be nonnegative")
    norm, m2, m0 = _certificate_parts(part, quads, p, basis)
    constant = (1.0 + norm) * m2 * m0
    return BoundCertificate(delta=part.mesh, constant=constant,
                            norm_bound=norm, m2_max=m2, m0_max=m0,
                            bound=constant * max_lf)
