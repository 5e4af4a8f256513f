"""Fourth order piecewise exponential interpolation with clamped ends.

Each interval carries four frequencies; the interpolant matches values at
every knot, first derivatives at the two ends, and is C^2 across interior
knots.  The coefficients live in a triangular local basis of fundamental
functions (well scaled even when frequencies nearly coincide) and come from
one banded solve.  The spline has one representation for evaluation: a table
of Taylor coefficients per sub-piece, read off from the first row of the
Opitz exponential exp(tau*Z) that also gives the build its endpoint rows, so
a derivative is the same Horner pass on shifted coefficients.  The error
certificate combines the second order interval constants with the projection
operator norm: the weight exponent p that ties the two frequency pairs of each
interval together is recovered from the quadruples themselves when not
supplied.
"""

import math
import warnings
from dataclasses import dataclass, field
from itertools import islice

import numpy as np
from scipy.linalg.lapack import dgbcon, dgbtrf, dgbtrs

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


def _times_z_powers(rows, quads):
    """(e, e Z, e Z^2) stacked on axis 1 for each row e of rows (m, 4), Z =
    diag(quad) + superdiag(1) for the quadruple of that row."""
    out = [rows]
    for _ in range(2):
        nxt = out[-1] * quads
        nxt[:, 1:] += out[-1][:, :-1]
        out.append(nxt)
    return np.stack(out, axis=1)


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

    On interval j, in tau = t - t_j, the spline is sum_k coeffs[j, k] times
    the fundamental function over quads[j][:k+1], that is e(tau) . coeffs[j]
    with e(tau) the first row of exp(tau*Z_j), Z_j = diag(quads[j]) +
    superdiag(1).  Evaluation reads the table spline_from_coefficients
    builds from them: every interval is cut into equal sub-pieces of width
    w with max|quads[j]| * w <= _TAYLOR_RADIUS, starts holds their left ends
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


def _taylor_table(part, quads, coeffs):
    """Sub-piece starts (pieces,) and Taylor table (degree+1, pieces).

    Interval j is cut into max(1, ceil(max|q_j| h_j / _TAYLOR_RADIUS)) equal
    sub-pieces.  On the one starting at tau_s the spline is e(tau_s + u) c_j
    = sum_n u^n e(tau_s) w_n with w_0 = c_j and w_(n+1) = Z_j w_n / (n+1),
    kept to the kernel's degree _TAYLOR_TERMS + 2 for four frequencies, so
    that, as in the kernel, the first term dropped is below 0.5^15/15!
    relative.  e(0) is the first unit row;
    the other e(tau_s) come from one kernel call.
    """
    knots = np.array(part.knots)
    lengths = np.array(part.lengths)
    q = np.array(quads.quads)
    counts = np.maximum(1, np.ceil(np.abs(q).max(axis=1) * lengths
                                   / _TAYLOR_RADIUS)).astype(int)
    owner = np.repeat(np.arange(len(lengths)), counts)
    sub = np.arange(owner.size) - (np.cumsum(counts) - counts)[owner]
    taus = sub * (lengths / counts)[owner]
    e = np.zeros((owner.size, 4))
    e[:, 0] = 1.0
    inner = sub > 0
    if inner.any():
        e[inner] = _phi_corner_batch(q[owner[inner]], taus[inner])
    w = np.empty((_TAYLOR_TERMS + 3,) + coeffs.shape)
    w[0] = coeffs
    for n in range(1, len(w)):
        w[n] = q * w[n - 1]
        w[n][:, :-1] += w[n - 1][:, 1:]
        w[n] /= n
    return knots[owner] + taus, np.einsum("pk,npk->np", e, w[:, owner])


def spline_from_coefficients(partition, quads, coeffs):
    """Assemble a SplineOrder4 from raw local-basis coefficients, one row of
    four per interval; this is the reload path for serialized splines."""
    part = _coerce_partition(partition)
    m = part.n - 1
    if not isinstance(quads, QuadFrequencySet):
        quads = quad_frequency_set(m, quads=quads)
    if len(quads.quads) != m:
        raise ValueError(f"need {m} quadruples, got {len(quads.quads)}")
    coeffs = np.asarray(coeffs, dtype=float).reshape(m, 4)
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("coefficients must be finite")
    starts, taylor = _taylor_table(part, quads, coeffs)
    return SplineOrder4(partition=part, quads=quads, coeffs=coeffs,
                        starts=starts, taylor=taylor)


def _endpoint_rows(qset, lengths):
    """Local basis rows at both ends of every interval, orders 0..2.

    Returns (at_zero, at_h), each of shape (m, 3, 4), with entry [j, r, k]
    the r-th derivative of the fundamental function over quads[j][:k+1] at
    tau = 0 and tau = h_j: the rows e(0) Z_j^r and e(h_j) Z_j^r, e(tau)
    being the first row of exp(tau*Z_j).  e(h_j) comes from one kernel call
    over the distinct (quadruple, length) keys, so neither the calls nor
    their size grow with a mesh of repeated keys.
    """
    q = np.array(qset.quads)
    keys, back = np.unique(np.column_stack([q, lengths]), axis=0,
                           return_inverse=True)
    e_h = _phi_corner_batch(keys[:, :4], keys[:, 4])[back.ravel()]
    e_0 = np.zeros_like(e_h)
    e_0[:, 0] = 1.0
    return _times_z_powers(e_0, q), _times_z_powers(e_h, q)


def _banded_lu_solve(rows, cols, vals, rhs):
    """Solve the (4, 4)-banded system given by its nonzero triplets.

    One LAPACK LU factorization (gbtrf) serves both the solve (gbtrs) and
    the 1-norm condition estimate (gbcon).  Returns (x, cond); an exactly
    singular factor gives x = NaN and cond = inf.
    """
    n = len(rhs)
    ab = np.zeros((13, n))
    ab[8 + rows - cols, cols] = vals
    anorm = float(np.max(np.sum(np.abs(ab), axis=0)))
    lu, piv, info = dgbtrf(ab, 4, 4, overwrite_ab=True)
    if info != 0:
        return np.full(n, np.nan), math.inf
    x, _ = dgbtrs(lu, 4, 4, rhs, piv)
    rcond, _ = dgbcon(4, 4, lu, piv, anorm)
    return x, (1.0 / rcond if rcond > 0.0 else math.inf)


def build_interpolant4(partition, quads, values, d_left, d_right):
    """Interpolate values at the knots with clamped end slopes.

    Sets up the 4(n-1) banded system: both endpoint values per interval,
    first and second derivative continuity at interior knots, and the two
    clamp equations.  The system is factored once by banded LU, which also
    gives the LAPACK 1-norm condition estimate; at every size an estimate
    at or above 1e12 triggers a warning and a re-solve in interval-scaled
    variables.  The accepted solution must pass a residual check at 1e-10
    relative to the system, and the interpolation and clamp rows must meet
    the data to 1e-10 relative to max(1, |values|, |d_left|, |d_right|);
    otherwise LinAlgError is raised.
    """
    part = _coerce_partition(partition)
    m = part.n - 1
    if not isinstance(quads, QuadFrequencySet):
        quads = quad_frequency_set(m, quads=quads)
    if len(quads.quads) != m:
        raise ValueError(f"need {m} quadruples, got {len(quads.quads)}")
    values = np.asarray(values, dtype=float)
    if values.shape != (part.n,):
        raise ValueError(f"need {part.n} values, got shape {values.shape}")
    d_left = float(d_left)
    d_right = float(d_right)
    if not np.all(np.isfinite(values)) or not math.isfinite(d_left) \
            or not math.isfinite(d_right):
        raise ValueError("data must be finite")

    lengths = np.array(part.lengths)
    nuk = 4 * m
    at_zero, at_h = _endpoint_rows(quads, lengths)
    inner = np.arange(1, m)
    ends = np.arange(m)
    # (row, interval, four entries) blocks: value and clamp at the left
    # end; per interior knot i the value from the right interval and its
    # side of the C^1, C^2 joins; value and slope at every right end (the
    # last slope row is the right clamp); the left side of the C^2 joins.
    blocks = [
        ([0], [0], at_zero[:1, 0]),
        ([1], [0], at_zero[:1, 1]),
        (4 * inner + 1, inner, at_zero[1:, 0]),
        (4 * inner - 1, inner, -at_zero[1:, 1]),
        (4 * inner, inner, -at_zero[1:, 2]),
        (4 * ends + 2, ends, at_h[:, 0]),
        (4 * ends + 3, ends, at_h[:, 1]),
        (4 * inner, inner - 1, at_h[:-1, 2]),
    ]
    rows_a = np.concatenate([np.repeat(r, 4) for r, _, _ in blocks])
    cols_a = np.concatenate([(4 * np.asarray(j)[:, None] + np.arange(4))
                             .ravel() for _, j, _ in blocks])
    vals_a = np.concatenate([v.ravel() for _, _, v in blocks])
    live = vals_a != 0.0
    rows_a, cols_a, vals_a = rows_a[live], cols_a[live], vals_a[live]
    if not np.all(np.isfinite(vals_a)):
        raise np.linalg.LinAlgError(
            "system entries overflowed; frequencies too large for the mesh")
    rhs = np.zeros(nuk)
    rhs[0] = values[0]
    rhs[1] = d_left
    rhs[4 * inner + 1] = values[1:m]
    rhs[4 * ends + 2] = values[1:]
    rhs[nuk - 1] = d_right
    data_rows = np.ones(nuk, dtype=bool)
    data_rows[4 * inner - 1] = False
    data_rows[4 * inner] = False
    data_scale = max(1.0, float(np.max(np.abs(values))), abs(d_left),
                     abs(d_right))

    def residual(x):
        r = -rhs
        np.add.at(r, rows_a, vals_a * x[cols_a])
        return r

    def residual_inf(x):
        return float(np.max(np.abs(residual(x))))

    row_sums = np.zeros(nuk)
    np.add.at(row_sums, rows_a, np.abs(vals_a))

    def residual_tol(x):
        scale = float(np.max(row_sums)) * float(np.max(np.abs(x))) \
            + float(np.max(np.abs(rhs)))
        return _RESIDUAL_RTOL * max(scale, 1e-300)

    x, cond_est = _banded_lu_solve(rows_a, cols_a, vals_a, rhs)
    bad = not np.all(np.isfinite(x)) or residual_inf(x) > residual_tol(x)
    if bad or cond_est >= _COND_MAX:
        warnings.warn(
            f"order-4 system is ill conditioned (estimate {cond_est:.3g}); "
            "re-solving in interval-scaled variables", RuntimeWarning)
        col_scale = np.repeat(lengths, 4) ** np.tile(np.arange(4.0), m)
        scaled = vals_a * col_scale[cols_a]
        row_max = np.zeros(nuk)
        np.maximum.at(row_max, rows_a, np.abs(scaled))
        row_max[row_max == 0.0] = 1.0
        y, _ = _banded_lu_solve(rows_a, cols_a, scaled / row_max[rows_a],
                                rhs / row_max)
        x2 = col_scale * y
        if np.all(np.isfinite(x2)) and (not np.all(np.isfinite(x))
                                        or residual_inf(x2) < residual_inf(x)):
            x = x2
    finite = np.all(np.isfinite(x))
    r = np.abs(residual(x)) if finite else np.full(nuk, math.inf)
    res, data_res = float(np.max(r)), float(np.max(r[data_rows]))
    if not finite or res > residual_tol(x) \
            or data_res > _RESIDUAL_RTOL * data_scale:
        raise np.linalg.LinAlgError(
            f"order-4 interpolation system residual {res:.3e} (data rows "
            f"{data_res:.3e} against data scale {data_scale:.3g}) exceeds "
            f"tolerance; condition estimate {cond_est:.3g}")
    return spline_from_coefficients(part, quads, x.reshape(m, 4))


def spline4_eval(s, t, order=0):
    """Evaluate the spline or one of its first three derivatives."""
    return s(t, order=order)


def smoothness_report(s):
    """Jump magnitudes |left - right| of value, first and second derivative
    at the interior knots, as an (n-2, 3) array; empty for one interval."""
    inner = np.array(s.knots[1:-1])
    first = np.searchsorted(s.starts, inner)
    out = np.empty((inner.size, 3))
    for r in range(3):
        table = _derivative_table(s.taylor, r)
        left = _horner(table, first - 1, inner - s.starts[first - 1])
        out[:, r] = np.abs(left - table[0][first])
    return out


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
    """Resolve the pairing and return (norm_bound, m2_max, m0_max) with the
    closed-form tiers short-circuiting the generic machinery."""
    if not isinstance(quads, QuadFrequencySet):
        quads = quad_frequency_set(part.n - 1, quads=quads)
    if len(quads.quads) != part.n - 1:
        raise ValueError(
            f"need {part.n - 1} quadruples, got {len(quads.quads)}")
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
    norm = operator_norm_bound(basis, p_res)
    m2, m0 = _max_interval_constants(part, [basis.pairs,
                                            [q[2:] for q in canon]])
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
