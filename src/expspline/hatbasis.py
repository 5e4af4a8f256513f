"""Hat functions built from two-frequency exponential kernels.

Every interval [t_j, t_(j+1)] of a partition carries a frequency pair
(lambda_0, lambda_1).  Writing phi_j for the fundamental pair function of
interval j, the hat anchored at knot j rises as phi_(j-1)(t - t_(j-1)),
normalised to 1 at t_j, and falls as phi_j(t - t_(j+1)), again normalised
at t_j.  Hats reproduce Kronecker data at the knots; the first and last are
half hats.  Past the monotone radius of its pair an interval's hats leave
[0, 1], which neither certificate assumes.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errbound2 import M_constants
from .expcore import _pair_scaled, _quotient

# points per pass of the hat evaluation, so its temporaries stay small
_EVAL_BLOCK = 2048


def monotone_radius(lam0, lam1):
    """Largest delta such that the pair function increases on [-delta, delta],
    elementwise over arrays of pairs, a float for scalars.

    Pairs straddling zero (lambda_0 <= 0 <= lambda_1) are monotone on the
    whole line.  For 0 < lambda_0 the derivative vanishes at
    log(lambda_1/lambda_0)/(lambda_1-lambda_0) to the left of the origin, and
    the mirrored statement covers pairs below zero; a double frequency gives
    1/|lambda|.
    """
    lam0, lam1 = np.asarray(lam0, dtype=float), np.asarray(lam1, dtype=float)
    if not (np.isfinite(lam0).all() and np.isfinite(lam1).all()
            and (lam0 <= lam1).all()):
        raise ValueError("pairs must be finite and ordered, lam0 <= lam1")
    a0, a1 = np.abs(lam0), np.abs(lam1)
    with np.errstate(divide="ignore", invalid="ignore"):
        radius = np.where(a0 == a1, 1.0 / a0,
                          (np.log(a1) - np.log(a0)) / (a1 - a0))
    radius = np.where((lam0 <= 0.0) & (lam1 >= 0.0), np.inf, radius)
    return float(radius) if radius.ndim == 0 else radius


@dataclass(frozen=True, eq=False)
class Partition:
    """Strictly increasing knot sequence t_0 < ... < t_(n-1), n >= 2, held
    with its interval lengths as read-only float arrays."""
    knots: np.ndarray
    lengths: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        kn = np.array(self.knots, dtype=float)
        if kn.ndim != 1 or kn.size < 2:
            raise ValueError("a partition needs a flat list of 2+ knots")
        lengths = kn[1:] - kn[:-1]
        # NaNs fail the test; increasing knots with finite ends are finite
        if not (lengths.min() > 0.0 and math.isfinite(kn[0])
                and math.isfinite(kn[-1])):
            if not np.isfinite(kn).all():
                raise ValueError("knots must be finite")
            raise ValueError("knots must be strictly increasing")
        for name, array in (("knots", kn), ("lengths", lengths)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def n(self):
        return self.knots.size

    @property
    def mesh(self):
        return float(self.lengths.max())


def as_partition(knots):
    """knots as a Partition; a Partition is returned as it is."""
    return knots if isinstance(knots, Partition) else Partition(knots)


def _frequency_rows(rows, what, m, width=None):
    """rows as an (m, width) float array, one row of width alone standing
    for all m; ragged rows raise ValueError naming the first whose length
    differs from row 0's, and any other shape raises it too."""
    try:
        arr = np.array(rows, dtype=float)
    except ValueError:
        sizes = np.array([np.size(row) for row in rows])
        j = int(np.argmax(sizes != sizes[0]))
        if j == 0:
            raise
        raise ValueError(f"{what} {j} has {sizes[j]} entries, "
                         f"{what} 0 has {sizes[0]}") from None
    if width is not None and arr.shape == (width,):
        arr = np.tile(arr, (m, 1))
    if arr.ndim != 2 or len(arr) != m or width not in (None, arr.shape[1]):
        raise ValueError(f"need {m} {what}s, got shape {arr.shape}")
    return arr


def _flank_ends(lam0, lam1, y):
    """(lam0, lam1, mant, scale): the factors of _flank_ratio that do not
    depend on x, for pairs and ends y broadcast together, phi(y) = mant *
    exp(scale) from _pair_scaled."""
    return lam0, lam1, *_pair_scaled(lam0, lam1, np.asarray(y, dtype=float))


def _flank_ratio(ends, x):
    """phi(x)/phi(y) at x between 0 and y from ends = _flank_ends(lam0,
    lam1, y), all broadcast against x: the mantissas divide and the scales
    subtract, so a flank overflows only where its value does.  At x = y
    the ratio is y/y times exp(0), exactly 1, and at x = 0 it is 0/y, +-0,
    whatever the exponent, with no case of its own."""
    lam0, lam1, mant_y, scale_y = ends
    return _quotient([_pair_scaled(lam0, lam1, x)], [(mant_y, scale_y)])


@dataclass(eq=False)
class HatBasis:
    """Hat functions over a partition with one frequency pair per interval,
    pairs a read-only (m, 2) array."""
    partition: Partition
    pairs: np.ndarray = field(repr=False)

    @cached_property
    def groups(self):
        """group_intervals of the (pair, length) keys, computed once."""
        return group_intervals(self.pairs, self.partition.lengths)

    @cached_property
    def constants(self):
        """Read-only array of the interval constant M of each (pair,
        length) key, in the order of groups[0], computed once."""
        reps = self.groups[0]
        constants = M_constants(self.pairs[reps], self.knots[reps],
                                self.knots[reps + 1])
        constants.setflags(write=False)
        return constants

    @property
    def n(self):
        return self.partition.n

    @property
    def knots(self):
        return self.partition.knots


def build_hat_basis(partition, pairs):
    """Validate pairs against the partition and return a HatBasis.

    pairs is one (lambda_0, lambda_1) per interval, each finite and ordered,
    or a single pair applied everywhere; the first offending pair is named.
    Every interval length is accepted: past the monotone radius of its pair
    the hats leave [0, 1], which neither certificate assumes.
    """
    partition = as_partition(partition)
    pairs = _frequency_rows(pairs, "frequency pair", partition.n - 1, 2)
    lam0, lam1 = pairs.T
    bad = ~(np.isfinite(pairs).all(axis=1) & (lam0 <= lam1))
    if bad.any():
        j = int(np.argmax(bad))
        pair = tuple(pairs[j].tolist())
        if not np.isfinite(pairs[j]).all():
            raise ValueError(f"pair {j} is not finite: {pair}")
        raise ValueError(f"pair {j} must be ordered, got {pair}")
    pairs.setflags(write=False)
    return HatBasis(partition, pairs)


def group_intervals(pairs, lengths):
    """Group intervals by their (pair, length) key.

    pairs is an (m, k) array of frequencies, lengths the m interval lengths.
    Returns (reps, inverse): reps[k] is the first interval, in mesh order,
    carrying the k-th distinct key, and inverse[j] the key of interval j.
    Keys are compared as floats, so +0.0 and -0.0 are one key.  The Gram
    integrals, the T and S ratios, the hat flanks and the interval
    constants of an interval depend on its key alone, so work per key
    replaces work per interval.
    """
    keys = np.column_stack([pairs, lengths])
    # lexsort is stable, so each run of equal keys starts at its first
    # interval, which then labels every interval of the run
    order = np.lexsort(keys.T)
    run = keys[order]
    starts = np.concatenate([[True], (run[1:] != run[:-1]).any(axis=1)])
    first = np.empty_like(order)
    first[order] = order[starts][np.cumsum(starts) - 1]
    own = first == np.arange(first.size)
    return np.flatnonzero(own), (np.cumsum(own) - 1)[first]


def _flank_values(basis, ts):
    """Falling and rising hat factors at each t of the 1-d array ts, with
    the interval index, computed in blocks of _EVAL_BLOCK points.

    For t in interval i the active hats are H_i (falling flank) and H_(i+1)
    (rising flank); everything else vanishes there.  A flank's x lies
    between 0 and y = -+h, and the factors of _flank_ends, phi(-+h) among
    them, are found once per interval and gathered per point.  Knot t_i
    falls in interval i, the last knot in the last interval; there the
    factors are exactly 1 and +-0, which SplineOrder2 relies on to keep its
    data at the knots.
    """
    knots = basis.knots
    if not np.all(np.isfinite(ts)):
        raise ValueError("evaluation points must be finite")
    if np.any(ts < knots[0]) or np.any(ts > knots[-1]):
        raise ValueError("evaluation points must lie inside the partition")
    idx = np.clip(np.searchsorted(knots, ts, side="right") - 1, 0,
                  len(knots) - 2)
    (lam0, lam1), h = basis.pairs.T, basis.partition.lengths
    ends = [_flank_ends(lam0, lam1, y) for y in (-h, h)]
    fall = np.empty_like(ts)
    rise = np.empty_like(ts)
    for lo in range(0, ts.size, _EVAL_BLOCK):
        sl, i = slice(lo, lo + _EVAL_BLOCK), idx[lo:lo + _EVAL_BLOCK]
        tau, hi = ts[sl] - knots[i], h[i]
        for out, part, x in ((fall, ends[0], tau - hi), (rise, ends[1], tau)):
            out[sl] = _flank_ratio([e[i] for e in part], x)
    return idx, fall, rise


def hat_eval(basis, j, t):
    """Evaluate the hat anchored at knot j (0-based) at scalar or array t:
    the interpolant of the j-th unit vector, so exactly 1 at t_j and 0 at
    the other knots."""
    n = basis.n
    if type(j) is not int and not isinstance(j, np.integer) \
            or not 0 <= j <= n - 1:
        raise ValueError(f"knot index must be an integer in 0..{n - 1}, "
                         f"got {j!r}")
    coeffs = np.zeros(n)
    coeffs[j] = 1.0
    return SplineOrder2(basis, coeffs)(t)


def sum_hats(basis, t):
    """Pointwise sum of the absolute values of all hats at t: the flanks
    are >= 0, so this is the interpolant of the ones."""
    return SplineOrder2(basis, np.ones(basis.n))(t)


@dataclass
class SplineOrder2:
    """Piecewise exponential interpolant sum_j c_j H_j.

    On interval i it is c_i fall + c_(i+1) rise from _flank_values.  No
    knot value is set apart: at its own knot a flank is (y/y) exp(0) = 1,
    and at the other knot (0/y) exp(scale) = +-0 for every pair.  The sum
    is c_j there to the bit, up to the sign of a zero.  A value outside the
    double range raises OverflowError naming the first such t.
    """
    basis: HatBasis
    coeffs: np.ndarray = field(repr=False)

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        ts = t_arr.ravel()
        idx, fall, rise = _flank_values(self.basis, ts)
        c = np.asarray(self.coeffs)
        with np.errstate(over="ignore", invalid="ignore"):
            out = c[idx] * fall + c[idx + 1] * rise
            bad = ~np.isfinite(out)
            if bad.any():
                # a zero coefficient adds zero, however large its flank
                i = idx[bad]
                out[bad] = sum(np.where(w == 0.0, 0.0, w * f) for w, f in
                               ((c[i], fall[bad]), (c[i + 1], rise[bad])))
                bad = ~np.isfinite(out)
        if bad.any():
            raise OverflowError(f"order-2 interpolant overflows at t = "
                                f"{ts[int(np.argmax(bad))]:g}")
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
