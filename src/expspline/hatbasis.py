"""Hat functions built from two-frequency exponential kernels.

Every interval [t_j, t_(j+1)] of a partition carries a frequency pair
(lambda_0, lambda_1).  Writing phi_j for the fundamental pair function of
interval j, the hat anchored at knot j rises as phi_(j-1)(t - t_(j-1)),
normalised to 1 at t_j, and falls as phi_j(t - t_(j+1)), again normalised
at t_j.  Hats reproduce Kronecker data at the knots; the first and last are
half hats.  Keeping each interval shorter than the monotone radius of its
pair guarantees 0 <= H_j <= 1.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .expcore import _log_sinhc, _sinhc

# points per pass of the hat evaluation, so its temporaries stay small
_EVAL_BLOCK = 2048


def monotone_radius(lam0, lam1):
    """Largest delta such that the pair function increases on [-delta, delta].

    Pairs straddling zero (lambda_0 <= 0 <= lambda_1) are monotone on the
    whole line.  For 0 < lambda_0 the derivative vanishes at
    log(lambda_1/lambda_0)/(lambda_1-lambda_0) to the left of the origin, and
    the mirrored statement covers pairs below zero; a double frequency gives
    1/|lambda|.
    """
    if not (math.isfinite(lam0) and math.isfinite(lam1)):
        raise ValueError("frequencies must be finite")
    if lam0 > lam1:
        raise ValueError(f"pair must be ordered, got ({lam0}, {lam1})")
    if lam0 <= 0.0 <= lam1:
        return math.inf
    if lam0 == lam1:
        return 1.0 / abs(lam0)
    if lam0 > 0.0:
        return (math.log(lam1) - math.log(lam0)) / (lam1 - lam0)
    return (math.log(-lam0) - math.log(-lam1)) / (lam1 - lam0)


@dataclass(frozen=True)
class Partition:
    """Strictly increasing knot sequence t_0 < ... < t_(n-1), n >= 2."""
    knots: tuple

    def __post_init__(self):
        kn = tuple(float(x) for x in self.knots)
        if len(kn) < 2:
            raise ValueError("a partition needs at least two knots")
        if not all(math.isfinite(x) for x in kn):
            raise ValueError("knots must be finite")
        if any(b <= a for a, b in zip(kn[:-1], kn[1:])):
            raise ValueError("knots must be strictly increasing")
        object.__setattr__(self, "knots", kn)

    @property
    def n(self):
        return len(self.knots)

    @property
    def lengths(self):
        return tuple(b - a for a, b in zip(self.knots[:-1], self.knots[1:]))

    @property
    def mesh(self):
        return max(self.lengths)


def _phi_ratio(lam0, lam1, x, y):
    """phi(x)/phi(y) for the pair function, stable for large frequency loads.

    Uses phi(t) = t exp(s t) sinhc(d t) with 2s = lam0+lam1, 2d = lam1-lam0,
    so the exponential factor enters only through exp(s (x - y)).  All four
    arguments broadcast against each other, one pair per point; points with
    |d x| or |d y| >= 350 take the ratio of sinhc in log space.
    """
    lam0, lam1, x, y = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (lam0, lam1, x, y)))
    s = 0.5 * (lam0 + lam1)
    d = 0.5 * (lam1 - lam0)
    ux = d * x
    uy = d * y
    big = np.maximum(np.abs(ux), np.abs(uy)) >= 350.0
    ratio = _sinhc(np.where(big, 0.0, ux)) / _sinhc(np.where(big, 0.0, uy))
    if np.any(big):
        sign = np.where(x[big] == 0.0, 0.0, 1.0)
        ratio[big] = sign * np.exp(_log_sinhc(ux[big]) - _log_sinhc(uy[big]))
    return (x / y) * np.exp(s * (x - y)) * ratio


class HatBasis:
    """Hat functions over a partition with one frequency pair per interval."""

    def __init__(self, partition, pairs, allow_nonmonotone=False):
        self.partition = partition
        self.pairs = pairs
        self.allow_nonmonotone = allow_nonmonotone

    @property
    def n(self):
        return self.partition.n

    @property
    def knots(self):
        return self.partition.knots


def build_hat_basis(partition, pairs, allow_nonmonotone=False):
    """Validate pairs against the partition and return a HatBasis.

    pairs is one (lambda_0, lambda_1) per interval, each ordered, or a single
    pair applied everywhere.  Intervals longer than the monotone radius of
    their pair are rejected unless allow_nonmonotone is set, because the hats
    would leave [0, 1] and every bound downstream assumes they do not.
    """
    if not isinstance(partition, Partition):
        partition = Partition(tuple(partition))
    m = partition.n - 1
    pairs = list(pairs)
    if len(pairs) == 2 and np.isscalar(pairs[0]):
        pairs = [tuple(pairs)] * m
    if len(pairs) != m:
        raise ValueError(f"need {m} frequency pairs, got {len(pairs)}")
    canon = []
    for j, pair in enumerate(pairs):
        lam0, lam1 = (float(pair[0]), float(pair[1]))
        if not (math.isfinite(lam0) and math.isfinite(lam1)):
            raise ValueError(f"pair {j} is not finite: {pair}")
        if lam0 > lam1:
            raise ValueError(f"pair {j} must be ordered, got {pair}")
        canon.append((lam0, lam1))
    if not allow_nonmonotone:
        lengths = partition.lengths
        for j, (lam0, lam1) in enumerate(canon):
            h = lengths[j]
            delta = monotone_radius(lam0, lam1)
            if h > delta * (1.0 + 1e-12):
                raise ValueError(
                    f"interval {j} has length {h:g} beyond the monotone "
                    f"radius {delta:g} of pair ({lam0}, {lam1}); pass "
                    f"allow_nonmonotone=True to override")
    return HatBasis(partition, tuple(canon), allow_nonmonotone)


def group_intervals(pairs, lengths):
    """Group intervals by their (pair, length) key.

    Returns (reps, inverse): reps[k] is the first interval, in mesh order,
    carrying the k-th distinct key, and inverse[j] the key of interval j.
    The Gram integrals, the T and S ratios, the hat flanks and the interval
    constant of an interval depend on its key alone, so work per key
    replaces work per interval.
    """
    index = {}
    reps = []
    inverse = np.empty(len(pairs), dtype=np.intp)
    for j, key in enumerate(zip(pairs, lengths)):
        k = index.setdefault(key, len(reps))
        if k == len(reps):
            reps.append(j)
        inverse[j] = k
    return reps, inverse


def _flank_values(basis, ts):
    """Falling and rising hat factors at each t of the 1-d array ts, with
    the interval index, computed in blocks of _EVAL_BLOCK points.

    For t in interval i the active hats are H_i (falling flank) and H_(i+1)
    (rising flank); everything else vanishes there.
    """
    knots = np.array(basis.knots)
    if not np.all(np.isfinite(ts)):
        raise ValueError("evaluation points must be finite")
    if np.any(ts < knots[0]) or np.any(ts > knots[-1]):
        raise ValueError("evaluation points must lie inside the partition")
    idx = np.clip(np.searchsorted(knots, ts, side="right") - 1, 0,
                  len(knots) - 2)
    pairs, lengths = np.array(basis.pairs), np.diff(knots)
    fall = np.empty_like(ts)
    rise = np.empty_like(ts)
    for lo in range(0, ts.size, _EVAL_BLOCK):
        sl, i = slice(lo, lo + _EVAL_BLOCK), idx[lo:lo + _EVAL_BLOCK]
        (lam0, lam1), h = pairs[i].T, lengths[i]
        tau = ts[sl] - knots[i]
        fall[sl] = _phi_ratio(lam0, lam1, tau - h, -h)
        rise[sl] = _phi_ratio(lam0, lam1, tau, h)
    return idx, fall, rise


def hat_eval(basis, j, t):
    """Evaluate the hat anchored at knot j (0-based) at scalar or array t."""
    n = basis.n
    if not 0 <= j <= n - 1:
        raise ValueError(f"knot index {j} outside 0..{n - 1}")
    t_arr = np.asarray(t, dtype=float)
    ts = t_arr.ravel()
    idx, fall, rise = _flank_values(basis, ts)
    out = np.zeros_like(ts)
    out[idx == j] = fall[idx == j]
    out[idx == j - 1] = rise[idx == j - 1]
    # the shared knot itself belongs to the right interval after searchsorted,
    # except t_(n-1) which folds into the last one; both give exactly 1 there
    out[ts == basis.knots[j]] = 1.0
    return float(out[0]) if t_arr.ndim == 0 else out.reshape(t_arr.shape)


def sum_hats(basis, t):
    """Pointwise sum of the absolute values of all hats at t."""
    t_arr = np.asarray(t, dtype=float)
    ts = t_arr.ravel()
    _, fall, rise = _flank_values(basis, ts)
    out = np.abs(fall) + np.abs(rise)
    out[np.isin(ts, basis.knots)] = 1.0
    return float(out[0]) if t_arr.ndim == 0 else out.reshape(t_arr.shape)


@dataclass
class SplineOrder2:
    """Piecewise exponential interpolant sum_j c_j H_j."""
    basis: HatBasis
    coeffs: np.ndarray = field(repr=False)

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        ts = t_arr.ravel()
        idx, fall, rise = _flank_values(self.basis, ts)
        c = np.asarray(self.coeffs)
        out = c[idx] * fall + c[idx + 1] * rise
        knots = np.array(self.basis.knots)
        at_knot = np.isin(ts, knots)
        out[at_knot] = c[np.searchsorted(knots, ts[at_knot])]
        return float(out[0]) if t_arr.ndim == 0 else out.reshape(t_arr.shape)


def interpolate2(basis, values):
    """Interpolant through (t_j, values_j); hat coefficients are the values."""
    vals = np.asarray(values, dtype=float)
    if vals.shape != (basis.n,):
        raise ValueError(
            f"need {basis.n} values, got shape {vals.shape}")
    if not np.all(np.isfinite(vals)):
        raise ValueError("values must be finite")
    return SplineOrder2(basis, vals.copy())
