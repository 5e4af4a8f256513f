"""End-to-end verification: analytic test functions, dense-grid error
measurement against certificates, convergence studies and the acceptance
checklist, returned as data for the command line to render.

Everything here stays on the consumer side of the library API: errors are
measured by sampling, certificates come from the bound constructors, and the
two must agree (empirical below certified) for a run to pass.

The one certified input computed here is max|LF|, and it is not a sample:
max_abs_L takes the maximum of g = L F over an equally spaced grid of
spacing d_j on interval j and adds d_j^2/8 * B_j, the linear-interpolation
error with B_j >= sup|g''| on the interval.  B_j = sum_i |c_i| D_(k+2-i, j)
comes from the monic coefficients c_i of L and the bounds D_(r, j) >=
sup|F^(r)| (r = 0..6) that each catalog function declares per interval, so
the result is an upper bound wherever those declarations hold; a function
without them gets no max|LF|.  The spacing keeps the pad within 2.5e-7 of
the sampled maximum.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errbound2 import (
    M_constants,
    green_eval,
    interp2_error_bound,
    mstar,
    omega_eval,
)
from .expcore import (
    _apply_monic,
    _monic_coefficients,
    convolution_check,
)
from .hatbasis import (
    Partition,
    _frequency_rows,
    as_partition,
    build_hat_basis,
    hat_eval,
    interpolate2,
    monotone_radius,
    sum_hats,
)
from .l2proj import (
    _load_vector,
    _norm_bound,
    dominance_factor,
    gram_assemble,
    tfunc,
    sfunc,
)
from .spline4 import (
    _EVAL_BLOCK,
    _hat_basis,
    build_interpolant4,
    error_bound4,
    quad_frequency_set,
    residual_orthogonality,
)


class ConfigError(ValueError):
    """Invalid configuration or usage; maps to CLI exit code 1."""


@dataclass(frozen=True)
class TestFunction:
    """Named function with closed-form derivatives through order four.

    bounds(lefts, rights) returns a (7, m) array whose row r bounds |F^(r)|
    from above on each interval [lefts[j], rights[j]], r = 0..6; max_abs_L
    pads its grid maxima with it, so a function without it has no
    certified max|LF|.
    """
    name: str
    evaluators: tuple = field(repr=False)
    default_domain: tuple = (0.0, 1.0)
    bounds: object = field(default=None, repr=False)

    def __call__(self, ts):
        return self.evaluators[0](np.asarray(ts, dtype=float))

    def derivatives(self, ts, count=5):
        """[ev(ts) for ev in evaluators[:count]], each a new array; the
        evaluators of one kernel (an _Order's or their own) share its value."""
        ts = np.asarray(ts, dtype=float)
        shared, out = {}, []
        for ev in self.evaluators[:count]:
            kernel = getattr(ev, "kernel", ev)
            value = shared.get(kernel)
            if value is None:
                value = shared[kernel] = kernel(ts)
            elif kernel is ev:
                value = value.copy()
            out.append(value if kernel is ev else ev.formula(ts, value))
        return out


@dataclass(frozen=True)
class _Order:
    """A catalog derivative formula(ts, kernel(ts)), kernel the
    transcendental that it shares with other orders."""
    kernel: object
    formula: object

    def __call__(self, ts):
        return self.formula(ts, self.kernel(ts))


# Orders of the declared derivative bounds, as a column against intervals.
_ORDERS = np.arange(7.0)[:, None]
_FACTORIALS = np.array([math.factorial(r) for r in range(7)], float)[:, None]
# Cramer's constant: |H_r(t)| exp(-t^2/2) <= K 2^(r/2) sqrt(r!) for the
# Hermite polynomials (Abramowitz and Stegun 22.14.17).
_CRAMER = 1.086435
# The bounds' constant factors, each the leading products of its formula
# taken left to right, so the bits are those of the whole formula.
_RUNGE_SCALE = _FACTORIALS * 5.0 ** _ORDERS
_RUNGE_POWERS = -(_ORDERS + 1.0) / 2.0
_GAUSS_SCALE = _CRAMER * 2.0 ** (_ORDERS / 2.0) * np.sqrt(_FACTORIALS)


# The bounds take float arrays and stay off np.clip and np.broadcast_to,
# whose fixed cost is most of a one-interval call.
def _nearest_zero(lefts, rights):
    return np.minimum(np.maximum(0.0, lefts), rights)


def _constant_bounds(value):
    def bounds(lefts, rights):
        return value(rights)[None].repeat(7, 0)
    return bounds


def _monomial(k):
    evs = []
    for r in range(5):
        if r > k:
            evs.append(lambda ts: np.zeros_like(ts))
        else:
            c = float(math.factorial(k) // math.factorial(k - r))
            e = k - r
            evs.append(lambda ts, c=c, e=e: c * ts ** e)
    # |F^(r)| = k!/(k-r)! |t|^(k-r) grows with |t|: the larger endpoint
    falling = np.array([math.factorial(k) // math.factorial(k - r)
                        if r <= k else 0 for r in range(7)], float)[:, None]
    powers = np.maximum(k - _ORDERS, 0.0)

    def bounds(lefts, rights):
        top = np.maximum(np.abs(np.asarray(lefts, float)),
                         np.abs(np.asarray(rights, float)))
        return falling * top ** powers
    return TestFunction(name=f"t{k}", evaluators=tuple(evs),
                        default_domain=(0.0, 1.0), bounds=bounds)


def _runge_evaluators():
    def d(ts):
        return 1.0 + 25.0 * ts ** 2
    return tuple(_Order(d, formula) for formula in (
        lambda ts, d: 1.0 / d,
        lambda ts, d: -50.0 * ts / d ** 2,
        lambda ts, d: 50.0 * (75.0 * ts ** 2 - 1.0) / d ** 3,
        lambda ts, d: 15000.0 * ts * (1.0 - 25.0 * ts ** 2) / d ** 4,
        # t^4 as a square of a product: numpy's pow is slow on a negative base
        lambda ts, d: 15000.0 * (1.0 - 250.0 * ts ** 2
                                 + 3125.0 * (ts * ts) ** 2) / d ** 5))


def _runge_bounds(lefts, rights):
    # 1/(1+u^2) = Re 1/(1-iu) with u = 5t, and |d^r/du^r 1/(1-iu)| =
    # r!/(1+u^2)^((r+1)/2), which falls with |t|
    t = _nearest_zero(lefts, rights)
    return _RUNGE_SCALE * (1.0 + 25.0 * t * t) ** _RUNGE_POWERS


def _gauss_evaluators():
    def g(ts):
        return np.exp(-ts ** 2)
    return (g,) + tuple(_Order(g, formula) for formula in (
        lambda ts, g: -2.0 * ts * g,
        lambda ts, g: (4.0 * ts ** 2 - 2.0) * g,
        # t^3 and t^4 as products: numpy's pow is slow on a negative base
        lambda ts, g: (12.0 * ts - 8.0 * (ts * ts * ts)) * g,
        lambda ts, g: (16.0 * (ts * ts) ** 2 - 48.0 * ts ** 2 + 12.0) * g))


def _gauss_bounds(lefts, rights):
    # F^(r) = (-1)^r H_r(t) exp(-t^2), and Cramer's inequality bounds
    # |H_r(t)| exp(-t^2/2); the factor exp(-t^2/2) left over falls with |t|
    t = _nearest_zero(lefts, rights)
    return _GAUSS_SCALE * np.exp(-t * t / 2.0)


def _build_catalog():
    unit = _constant_bounds(np.ones_like)
    # sin, cos, -sin, -cos: the derivatives of sin, and from cos on of cos
    cycle = (np.sin, np.cos, _Order(np.sin, lambda ts, s: -s),
             _Order(np.cos, lambda ts, c: -c))
    cat = {
        "sin": TestFunction("sin", cycle + cycle[:1], (0.0, math.pi), unit),
        "cos": TestFunction("cos", cycle[1:] + cycle[:2], (0.0, math.pi),
                            unit),
        "exp": TestFunction("exp", (np.exp,) * 5, (0.0, 1.0),
                            _constant_bounds(np.exp)),
        "runge": TestFunction("runge", _runge_evaluators(), (-1.0, 1.0),
                              _runge_bounds),
        "gauss": TestFunction("gauss", _gauss_evaluators(), (-2.0, 2.0),
                              _gauss_bounds),
    }
    for k in range(7):
        cat[f"t{k}"] = _monomial(k)
        cat[f"t^{k}"] = cat[f"t{k}"]
    return cat


CATALOG = _build_catalog()


def get_test_function(name):
    try:
        return CATALOG[name]
    except KeyError:
        raise ConfigError(
            f"unknown test function {name!r}; available: "
            + ", ".join(sorted(k for k in CATALOG if "^" not in k)))


# max_abs_L pads each interval's grid maximum by at most this share of the
# sampled maximum ...
_PAD_REL = 2.5e-7
# ... or of the a-priori bound A_j of |L F| (see _lf_bounds) where L F
# nearly vanishes (F in the kernel of L), which keeps the grid finite there.
_PAD_FLOOR = 1e-12
# Rounding allowance on each grid value of L F, in units of A_j.
_ROUNDING = 64.0 * math.ulp(1.0)
# Most segments of one interval's grid; past it the pad exceeds its target.
_MAX_SEGMENTS = 2 ** 20


def _check_interval_values(bad, knots, what):
    """Raise ValueError naming the first interval flagged in bad."""
    if bad.any():
        j = int(np.argmax(bad))
        raise ValueError(f"{what} on interval {j} "
                         f"[{knots[j]:g}, {knots[j + 1]:g}]")


def _lf_bounds(tf, part, sets, per_interval):
    """Upper bound of sup |L_j F| on each interval j of the partition, L_j
    the operator of row j of sets, an (m, k) frequency array.

    Interval j returns max_grid |g| + d_j^2/8 * B_j + 64 eps A_j, g = L_j F,
    on a grid of spacing d_j, endpoints included: between two grid points
    g is within d_j^2/8 * sup|g''| of its chord, and B_j = sum_i |c_i|
    D_(k+2-i, j) bounds sup|g''| by the triangle inequality over the monic
    coefficients c_i of L_j = sum_i c_i D^(k-i), from the declared bounds
    D_(r, j) >= sup |F^(r)| on the interval.  A_j = sum_i e_i
    D_(k-i, j), with e_i the coefficients of prod (D + |lambda|) (e_i >=
    |c_i|), bounds |g| and the rounding of its evaluated terms.  d_j comes
    from a first pass at the left ends and midpoints, so that the pad is at
    most _PAD_REL of the sampled maximum, the partition's or, with
    per_interval, the interval's own, and at least _PAD_FLOOR * A_j.
    The first pass and the grid each take one derivatives call over all
    intervals, every point combining its own interval's coefficients.
    This is the reference for _lf_bound_one, which gives one interval's
    value with the same bits.
    """
    knots = part.knots
    lefts, rights = knots[:-1], knots[1:]
    if tf.bounds is None:
        raise ValueError(f"test function {tf.name!r} declares no derivative "
                         "bounds, so max|LF| has no certified value")
    m, k = sets.shape
    if not 1 <= k <= 4:
        raise ValueError("max|LF| takes one to four frequencies per "
                         f"interval, got {k}")
    # columns: c of each L_j, then e of prod (D + |lambda_i|), e_i >= |c_i|
    both = _monic_coefficients(np.concatenate([sets, -np.abs(sets)]).T)
    coeffs = both[:, :m]
    with np.errstate(over="ignore", invalid="ignore"):
        dbound = np.asarray(tf.bounds(lefts, rights), dtype=float)
        curve = _apply_monic(np.abs(coeffs), dbound[2:k + 3])
        apriori = _apply_monic(both[:, m:], dbound[:k + 1])
    _check_interval_values(~np.isfinite(curve + apriori), knots,
                           f"derivative bounds of {tf.name!r} give no "
                           "finite pad")

    # first pass: a row of left ends and a row of midpoints
    ends = np.concatenate([lefts, 0.5 * (lefts + rights)]).reshape(2, m)
    vals = np.abs(_apply_monic(coeffs, tf.derivatives(ends, k + 1)))
    coarse = np.maximum(vals[0], vals[1])
    _check_interval_values(np.isnan(coarse), knots, "L F is NaN")
    scale = coarse if per_interval else np.max(coarse)
    target = np.maximum(_PAD_REL * scale, _PAD_FLOOR * apriori)
    with np.errstate(divide="ignore", invalid="ignore"):
        segments = np.ceil((rights - lefts) * np.sqrt(curve / (8.0 * target)))
    # fmax sends the NaN of 0/0 (g'' and the target both zero) to one segment
    segments = np.fmin(np.fmax(segments, 1.0), _MAX_SEGMENTS).astype(np.intp)

    # the grid: segments[j] + 1 equally spaced points of interval j
    counts = segments + 1
    starts = np.cumsum(counts) - counts
    owner = np.repeat(np.arange(m), counts)
    frac = (np.arange(counts.sum()) - starts[owner]) / segments[owner]
    # exact at both ends: (1 - 0) a + 0 b = a and 0 a + 1 b = b
    ts = (1.0 - frac) * lefts[owner] + frac * rights[owner]
    vals = _apply_monic(np.repeat(coeffs, counts, axis=1),
                        tf.derivatives(ts, k + 1))
    grid = np.maximum.reduceat(np.abs(vals), starts)
    _check_interval_values(np.isnan(grid), knots, "L F is NaN")
    spacing = (rights - lefts) / segments
    return grid + spacing ** 2 / 8.0 * curve + _ROUNDING * apriori


def _lf_bound_one(tf, knots, freqs):
    """_lf_bounds(tf, Partition(knots), [freqs], False)[0] for the one
    interval of knots, with the same bits: the same operations in the same
    order, on Python floats except the catalog's bounds, its evaluators and
    the grid, which keep numpy.  None when a value turns non-finite, where
    _lf_bounds raises or warns; its caller then takes _lf_bounds.
    """
    k = len(freqs)
    if tf.bounds is None or not 1 <= k <= 4:
        return None
    a, b = knots.tolist()
    # _monic_coefficients' recurrence, each step from the last one's values
    c, e = [1.0], [1.0]
    for lam in freqs:
        neg = -abs(lam)
        c, e = ([1.0] + [x - lam * y for x, y in zip(c[1:] + [0.0], c)],
                [1.0] + [x - neg * y for x, y in zip(e[1:] + [0.0], e)])
    with np.errstate(over="ignore", invalid="ignore"):
        dbound = np.asarray(tf.bounds(knots[:-1], knots[1:]),
                            dtype=float)[:, 0].tolist()
    curve = _apply_monic([abs(x) for x in c], dbound[2:k + 3])
    apriori = _apply_monic(e, dbound[:k + 1])
    if not math.isfinite(curve + apriori):
        return None

    # first pass: the left end and the midpoint
    points = np.array(tf.derivatives(np.array((a, 0.5 * (a + b))), k + 1),
                      dtype=float).T.tolist()
    v0, v1 = (abs(_apply_monic(c, row)) for row in points)
    if not (math.isfinite(v0) and math.isfinite(v1)):
        return None
    target = max(_PAD_REL * max(v0, v1), _PAD_FLOOR * apriori)
    length = b - a
    if curve == 0.0 and target == 0.0:
        segments = 1    # numpy's 0 / 0 is NaN, which takes one segment
    elif curve >= 0.0 and target > 0.0:
        size = length * math.sqrt(curve / (8.0 * target))
        if math.isinf(size):
            return None     # an overflow, which numpy warns of
        segments = min(max(math.ceil(size), 1), _MAX_SEGMENTS)
    else:
        return None     # numpy's inf or NaN of x / 0 or of a negative root

    frac = np.arange(segments + 1) / segments
    ts = (1.0 - frac) * a + frac * b
    grid = float(np.max(np.abs(_apply_monic(c, tf.derivatives(ts, k + 1)))))
    spacing = length / segments
    out = grid + spacing * spacing / 8.0 * curve + _ROUNDING * apriori
    return out if math.isfinite(out) else None


def max_abs_L(tf, partition, freq_sets):
    """Certified upper bound of sup |L F| over the domain, L being the
    per-interval operator prod (D - lambda_i) of freq_sets[j] on interval j.

    freq_sets is an (m, k) array or m sequences of k frequencies each.
    Each interval's maximum over an equally spaced grid is padded by the
    linear-interpolation error d^2/8 * sup|(L F)''|, the latter bounded
    from the catalog function's declared derivative bounds (see
    _lf_bounds); the result is never below the true supremum as long as
    those bounds hold, and at most about 2.5e-7 relative above it.  One
    grid covers all intervals.  A NaN value raises ValueError naming the
    first such interval in mesh order; ragged frequency sets, a function
    without declared bounds, or bounds that give no finite pad, raise
    ValueError too.

    A partition of one interval takes _lf_bound_one, which does the same
    operations on Python floats and so skips most of numpy's per-call
    cost; its value, and any error or warning, are _lf_bounds' own.
    """
    part = as_partition(partition)
    sets = _frequency_rows(freq_sets, "frequency set", part.n - 1)
    if part.n == 2:
        one = _lf_bound_one(tf, part.knots, sets[0].tolist())
        if one is not None:
            return one
    return float(np.max(_lf_bounds(tf, part, sets, False)))


# error_grid's uniform points over the domain and Chebyshev points per interval
_GRID_UNIFORM = 10 ** 4
_GRID_CHEB = 64


def _grid_blocks(knots):
    """error_grid's points, unsorted and possibly repeated, in blocks of at
    most _EVAL_BLOCK: the uniform points and the knots first, the rest of
    their block filled with the Chebyshev points of the leading intervals,
    then those of _EVAL_BLOCK // _GRID_CHEB intervals per block."""
    head = np.concatenate([
        np.linspace(knots[0], knots[-1], _GRID_UNIFORM), knots])
    angles = (2.0 * np.arange(_GRID_CHEB) + 1.0) * math.pi / (2.0 * _GRID_CHEB)
    offsets, m = np.cos(angles), knots.size - 1
    per = _EVAL_BLOCK // _GRID_CHEB

    def cheb(lo, hi):
        a, b = knots[lo:hi], knots[lo + 1:hi + 1]
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        return (mid[:, None] + half[:, None] * offsets).ravel()

    while head.size > _EVAL_BLOCK:
        yield head[:_EVAL_BLOCK]
        head = head[_EVAL_BLOCK:]
    first = min(m, (_EVAL_BLOCK - head.size) // _GRID_CHEB)
    yield np.concatenate([head, cheb(0, first)])
    for lo in range(first, m, per):
        yield cheb(lo, min(m, lo + per))


def error_grid(partition):
    """Measurement grid, sorted and without repeats: _GRID_UNIFORM uniform
    points, every knot, and _GRID_CHEB Chebyshev points in each interval so
    boundary-layer maxima at stiff frequencies are seen."""
    knots = as_partition(partition).knots
    return np.unique(np.concatenate(list(_grid_blocks(knots))))


def measure_error(reference, candidate, partition):
    """Sup of |reference - candidate| over error_grid's points.

    Both are called on blocks of at most _EVAL_BLOCK points in no
    guaranteed order, some of them repeated, so memory stays O(block + n)
    whatever the mesh; the value is the same maximum, and a NaN anywhere
    makes it NaN."""
    knots = as_partition(partition).knots
    return float(np.max([
        np.max(np.abs(np.asarray(reference(g), dtype=float)
                      - np.asarray(candidate(g), dtype=float)))
        for g in _grid_blocks(knots)]))


@dataclass
class VerifyReport:
    """Per-level verification rows plus the overall flag; passes only when
    every measured error sits below its certificate."""
    config: dict
    rows: list
    passed: bool


def _floats(value, shape, message, rows=False):
    """value as a float array of the given shape or, with rows, of shape
    (k, *shape), one alone making k = 1; else ConfigError(message)."""
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(message) from None
    if rows and arr.shape == shape:
        arr = arr[None]
    if arr.shape[int(rows):] != shape or arr.ndim != len(shape) + rows:
        raise ConfigError(message)
    return arr


def _normalize_config(cfg):
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    known = {"domain", "knots", "n", "frequencies", "p", "order", "function",
             "clamp"}
    extra = set(cfg) - known
    if extra:
        raise ConfigError(f"unknown config keys: {sorted(extra)}")

    order = cfg.get("order")
    if order not in (2, 4):
        raise ConfigError("order must be 2 or 4")

    func = cfg.get("function")
    samples = None
    tf = None
    if isinstance(func, str):
        tf = get_test_function(func)
    elif isinstance(func, dict) and set(func) == {"samples"}:
        message = "samples must be a flat list of finite values"
        samples = _floats(func["samples"], (), message, rows=True)
        if samples.size < 2 or not np.all(np.isfinite(samples)):
            raise ConfigError(message)
    else:
        raise ConfigError('function must be a catalog name or {"samples": '
                          '[...]}')

    if "knots" in cfg and "n" in cfg:
        raise ConfigError("give knots or n, not both")
    domain = cfg.get("domain")
    if domain is None and tf is not None:
        domain = tf.default_domain
    if domain is not None:
        domain = _floats(domain, (2,), "domain must be [a, b]")
    if "knots" in cfg:
        knots = _floats(cfg["knots"], (), "knots must be a list of reals",
                        rows=True)
        try:
            levels = [Partition(knots)]
        except ValueError as exc:
            raise ConfigError(str(exc))
        if "domain" in cfg and (abs(domain[0] - knots[0]) > 1e-12
                                or abs(domain[1] - knots[-1]) > 1e-12):
            raise ConfigError("domain does not match the explicit knots")
    else:
        if domain is None:
            raise ConfigError("domain is required when n is given without a "
                              "catalog function")
        a, b = domain.tolist()
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise ConfigError("domain must be [a, b] with a < b")
        ns = cfg.get("n")
        if ns is None:
            raise ConfigError("give knots or n")
        ns = _floats(ns, (), "n must be integers", rows=True).tolist()
        for n in ns:
            if not (n >= 2 and n % 1 == 0):
                raise ConfigError(f"grid size must be an integer >= 2: {n:g}")
        levels = [Partition(np.linspace(a, b, int(n))) for n in ns]

    if samples is not None:
        if len(levels) != 1:
            raise ConfigError("samples require a single grid level")
        if samples.size != levels[0].n:
            raise ConfigError(
                f"got {samples.size} samples for {levels[0].n} knots")

    freq = cfg.get("frequencies")
    if not isinstance(freq, dict) or len(freq) != 1 \
            or next(iter(freq)) not in ("xi", "pairs", "quads"):
        raise ConfigError('frequencies must be {"xi": ...} or {"pairs": ...}'
                          ' or {"quads": ...}')
    fkind, fval = next(iter(freq.items()))
    shape, what = {"xi": ((), "a number"), "pairs": ((2,), "a pair"),
                   "quads": ((4,), "a quadruple")}[fkind]
    fval = _floats(fval, shape, f"{fkind} must be {what} or a list of one "
                   "per interval", rows=True)
    if fkind == "quads" and order != 4:
        raise ConfigError("quads require order 4")
    if fkind == "pairs" and order != 2:
        raise ConfigError("pairs require order 2")

    p = cfg.get("p")
    if p is not None:
        p = float(_floats(p, (), "p must be a number"))
        if not math.isfinite(p):
            raise ConfigError("p must be finite")
    elif order == 2:
        p = 0.0

    if "clamp" in cfg and order != 4:
        raise ConfigError("clamp requires order 4")
    clamp = cfg.get("clamp", "exact")
    if order == 4:
        if clamp == "exact":
            if tf is None:
                raise ConfigError('clamp "exact" needs a catalog function')
        else:
            clamp = _floats(clamp, (2,), 'clamp must be [d_left, d_right] '
                            'or "exact"').tolist()
            if not all(map(math.isfinite, clamp)):
                raise ConfigError("clamp derivatives must be finite")

    return {"order": order, "tf": tf, "samples": samples, "levels": levels,
            "fkind": fkind, "fval": fval, "p": p, "clamp": clamp,
            "echo": dict(cfg)}


def _level(norm, part):
    """(partition, frequencies, p) of one grid level, the only reader of
    the config's frequencies: order 2 makes them a hat basis, order 4 a
    QuadFrequencySet with its resolved weight exponent p."""
    m = part.n - 1
    # fval has one row per interval, or one row for all of them
    fkind, fval = norm["fkind"], norm["fval"]
    if norm["order"] == 2:
        pairs, what = (fval, "pairs") if fkind == "pairs" else \
            (np.column_stack([-np.abs(fval), np.abs(fval)]), "xi values")
        if len(pairs) not in (1, m):
            raise ConfigError(f"need {m} {what}, got {len(pairs)}")
        return part, build_hat_basis(part, np.broadcast_to(pairs, (m, 2))), \
            norm["p"]
    try:
        if fkind == "xi":
            qset = quad_frequency_set(m, xi=fval, p=norm["p"])
        else:
            qset = quad_frequency_set(
                m, quads=fval[0] if len(fval) == 1 else fval, p=norm["p"])
        return part, qset, qset._pairing[0]
    except ValueError as exc:
        raise ConfigError(str(exc))


def _end_slopes(tf, knots):
    """F' at the first and the last knot: the clamp "exact" stands for."""
    return [float(tf.evaluators[1](knots[i])) for i in (0, -1)]


def _spline(norm, level):
    """The level's interpolant of the catalog function or the samples."""
    part, freqs, _ = level
    tf = norm["tf"]
    knots = part.knots
    values = tf(knots) if tf is not None else norm["samples"]
    if norm["order"] == 2:
        return interpolate2(freqs, values)
    if norm["clamp"] == "exact":
        dl, dr = _end_slopes(tf, knots)
    else:
        dl, dr = norm["clamp"]
    return build_interpolant4(part, freqs, values, dl, dr)


def _certificate(norm, level):
    """A level's row with its certificate columns and the measured ones
    blank; a catalog function adds max|LF| and the bound.  An order-4 row
    reads c_factor, the norm bound, M2, M0 and the bound from one
    error_bound4 certificate, which builds its own hats.  That bound is the
    one of the spline clamped at F's own end slopes, so a level clamped at
    other slopes gets none, and its row names why in no_bound.  An order-2
    row reads c_factor and the norm bound from one Gram assembly, and its
    bound reads no norm bound: where the projector's solve check fails,
    norm_bound is blank and no_norm_bound names why."""
    part, freqs, p = level
    tf = norm["tf"]
    row = {"n": part.n, "delta": part.mesh, "c_factor": None,
           "M2_max": None, "M0_max": None, "bound": None,
           "empirical_error": None, "ratio": None, "passed": True}
    if norm["order"] == 4:
        clamp = norm["clamp"]
        exact = None if tf is None else _end_slopes(tf, part.knots)
        certified = clamp in ("exact", exact)
        ml = max_abs_L(tf, part, freqs.quads) if certified else 0.0
        cert = error_bound4(part, freqs, None, ml)
        row.update(c_factor=cert.c_factor, M2_max=cert.m2_max,
                   M0_max=cert.m0_max,
                   bound=cert.bound if certified else None,
                   norm_bound=cert.norm_bound)
        if tf is not None and not certified:
            row["no_bound"] = (f"clamp {clamp} is not the end slopes "
                               f"{exact} of {tf.name}")
        return row
    gram = gram_assemble(freqs, p)
    row["c_factor"] = dominance_factor(gram)
    try:
        row["norm_bound"] = _norm_bound(freqs, p, gram)
    except np.linalg.LinAlgError as exc:
        row.update(norm_bound=None, no_norm_bound=str(exc))
    if tf is not None:
        row["bound"] = interp2_error_bound(
            freqs, _lf_bounds(tf, part, freqs.pairs, True))
        row["M0_max"] = float(np.max(freqs.constants))
    return row


def _verify_row(norm, level):
    """Build, certify, then measure: a level that fails more than one step
    fails at the first."""
    spline = _spline(norm, level)
    row = _certificate(norm, level)
    if norm["tf"] is not None:
        empirical = measure_error(norm["tf"], spline, level[0])
        bound = row["bound"]
        row["empirical_error"] = empirical
        if bound is not None:
            row.update(ratio=empirical / bound if bound > 0.0 else None,
                       passed=bool(empirical <= bound))
    return row


def _report(config, row_of):
    norm = _normalize_config(config)
    rows = [row_of(norm, _level(norm, part)) for part in norm["levels"]]
    return VerifyReport(config=norm["echo"], rows=rows,
                        passed=all(r["passed"] for r in rows))


def run_verify(config):
    """Build the configured interpolants, measure dense-grid errors, and
    compare them with their certificates level by level."""
    return _report(config, _verify_row)


def run_bounds(config):
    """The certificate columns of run_verify's rows, level by level, with
    no interpolant built and no error measured."""
    return _report(config, _certificate)


def _single_level(config, refusal):
    norm = _normalize_config(config)
    if len(norm["levels"]) != 1:
        raise ConfigError(refusal)
    return norm, _level(norm, norm["levels"][0])


def build_configured_spline(config):
    """The interpolant of the single-level configuration, for evaluation
    exports; returns (spline, partition, p), p the level's weight
    exponent."""
    norm, level = _single_level(
        config, "evaluation exports need a single grid level")
    return _spline(norm, level), level[0], level[2]


def configured_gram(config):
    """The weighted Gram system of the single-level configuration's hats:
    (gram, load vector of the catalog function or None, p)."""
    norm, level = _single_level(config,
                                 "the gram dump needs a single grid level")
    part, freqs, p = level
    basis, p = _hat_basis(part, freqs) if norm["order"] == 4 else (freqs, p)
    tf = norm["tf"]
    return gram_assemble(basis, p), \
        None if tf is None else _load_vector(basis, tf, p), p


@dataclass
class ConvergenceStudy:
    """Log-log slope of error against mesh width over the grid levels."""
    rows: list
    slope: float
    kernel: bool
    order: int
    expected: tuple

    @property
    def within_expected(self):
        if self.kernel or self.slope is None:
            return None
        return self.expected[0] <= self.slope <= self.expected[1]


def convergence_study(config):
    """Measure the empirical convergence rate across at least three levels.

    Functions reproduced to rounding (kernel elements) are flagged instead
    of fitted, since their errors carry no rate information.
    """
    norm = _normalize_config(config)
    if norm["tf"] is None:
        raise ConfigError("a convergence study needs a catalog function")
    if len(norm["levels"]) < 3:
        raise ConfigError("a convergence study needs at least 3 grid levels")
    report = run_verify(config)
    errs = np.array([r["empirical_error"] for r in report.rows])
    deltas = np.array([r["delta"] for r in report.rows])
    knots = as_partition(norm["levels"][0]).knots
    scale = float(np.max([np.max(np.abs(norm["tf"](g)))
                          for g in _grid_blocks(knots)]))
    expected = (3.7, 4.3) if norm["order"] == 4 else (1.8, 2.2)
    if np.all(errs < 1e-12 * max(scale, 1e-300)):
        return ConvergenceStudy(rows=report.rows, slope=None, kernel=True,
                                order=norm["order"], expected=expected)
    slope = float(np.polyfit(np.log(deltas), np.log(errs), 1)[0])
    return ConvergenceStudy(rows=report.rows, slope=slope, kernel=False,
                            order=norm["order"], expected=expected)


@dataclass
class CriterionResult:
    index: int
    title: str
    passed: bool
    detail: str

    def line(self):
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} {self.index:2d} {self.title}: {self.detail}"


def _criterion_convolution():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        ka = int(rng.integers(1, 7))
        kb = int(rng.integers(1, 8 - ka + 1))
        fa = tuple(rng.uniform(-5.0, 5.0, size=ka))
        fb = tuple(rng.uniform(-5.0, 5.0, size=kb))
        y = float(rng.uniform(0.05, 2.0))
        lhs, rhs = convolution_check(fa, fb, y)
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    return ok, f"max scaled deviation {worst:.3e} (limit 1e-08), " \
               f"{elapsed:.2f}s over 50 random pairs"


def _criterion_gram():
    from .quadrature import integrate
    worst = 0.0
    for xi in (0.0, 0.1, 1.0, 10.0):
        for h in (0.1, 1.0, 2.0):
            for p in (0.0, 1.0):
                basis = build_hat_basis((0.0, h), [(-xi, xi)])
                g = gram_assemble(basis, p)
                for (i, j), closed in (((0, 0), g.diag[0]),
                                       ((1, 1), g.diag[1]),
                                       ((0, 1), g.off[0])):
                    direct, _ = integrate(
                        lambda ts: hat_eval(basis, i, ts)
                        * hat_eval(basis, j, ts) * np.exp(p * ts),
                        0.0, h, abs_tol=1e-30, rel_tol=1e-12)
                    worst = max(worst, abs(closed - direct)
                                / max(abs(direct), 1e-300))
    h = 0.37
    basis = build_hat_basis(np.arange(6) * h, [(0.0, 0.0)] * 5)
    g = gram_assemble(basis, 0.0)
    poly_dev = max(
        float(np.max(np.abs(g.diag[1:-1] - 2 * h / 3))) / (2 * h / 3),
        float(np.max(np.abs(g.off - h / 6))) / (h / 6),
        abs(g.diag[0] - h / 3) / (h / 3), abs(g.diag[-1] - h / 3) / (h / 3))
    ok = worst <= 1e-9 and poly_dev <= 1e-12
    return ok, f"closed vs quadrature {worst:.3e} (limit 1e-09), " \
               f"polynomial thirds dev {poly_dev:.3e} (limit 1e-12)"


def _criterion_symmetric_m():
    span = 0.7
    xs = (0.01, 0.5, 2.0, 10.0)
    got = M_constants([(-x / span, x / span) for x in xs], [0.0] * len(xs),
                      [span] * len(xs))
    worst = max(abs(m - span ** 2 * mstar(x)) / (span ** 2 * mstar(x))
                for m, x in zip(got.tolist(), xs))
    rng = np.random.default_rng(314)
    xi, length = rng.uniform([0.0, 0.05], [12.0, 3.0], size=(100, 2)).T
    got = M_constants(np.column_stack([-xi, xi]), np.zeros(100), length)
    cap_ok = bool(np.all(got <= length ** 2 / 8.0 * (1.0 + 1e-12)))
    ok = worst <= 1e-10 and cap_ok
    return ok, f"max relative gap {worst:.3e} (limit 1e-10), " \
               f"eighth-of-square cap {'held' if cap_ok else 'VIOLATED'}"


def _criterion_dominance():
    rng = np.random.default_rng(2024)
    worst_sym = 0.0
    for _ in range(100):
        xi = float(rng.uniform(0.0, 10.0))
        h = float(rng.uniform(0.05, 2.0))
        basis = build_hat_basis(np.arange(4) * h, [(-xi, xi)] * 3)
        worst_sym = max(worst_sym,
                        dominance_factor(gram_assemble(basis, 0.0)))
    mixed_ok = True
    for _ in range(100):
        l0 = float(rng.uniform(-10.0, -0.05))
        l1 = float(rng.uniform(0.05, 10.0))
        h = float(rng.uniform(0.05, 2.0))
        cap = max((2 * l1 - l0) / (2 * l1 - 4 * l0),
                  (l1 - 2 * l0) / (4 * l1 - 2 * l0))
        basis = build_hat_basis((0.0, h, 2 * h), [(l0, l1)] * 2)
        c = dominance_factor(gram_assemble(basis, 0.0))
        mixed_ok = mixed_ok and c <= cap + 1e-12 and cap < 1.0
    t_pos = tfunc(2.0, 1.0, 0.0, 1.2)
    ok = worst_sym <= 0.5 + 1e-12 and mixed_ok and t_pos > 1.0
    return ok, f"symmetric c max {worst_sym:.12f} (limit 0.5), mixed-sign " \
               f"caps {'held' if mixed_ok else 'VIOLATED'}, positive pair " \
               f"(2,1) at h=1.2 reports T = {t_pos:.6f} > 1"


def _criterion_st_bounds():
    rng = np.random.default_rng(55)
    # per row: a pair, then t and xi
    draws = rng.uniform([-10.0, -10.0, -10.0, 0.0], 10.0, size=(10 ** 4, 4))
    lam0, lam1 = np.sort(draws[:, :2], axis=1).T
    ts, xi = draws[:, 2], draws[:, 3]
    # np.max keeps a NaN ratio, which then fails the comparisons below
    worst_s = float(np.max(sfunc(lam0, lam1, 0.0, ts), initial=0.0))
    worst_t = float(np.max(tfunc(-xi, xi, 0.0, ts), initial=0.0))
    exact = bool(np.all(
        sfunc(0.0, 0.0, 0.0, np.linspace(-20.0, 20.0, 401)) == 1.5))
    ok = worst_s <= 2.0 * (1.0 + 1e-11) and worst_t <= 0.5 * (1.0 + 1e-11) \
        and exact
    return ok, f"S max {worst_s:.13f} (limit 2, evaluation roundoff " \
               f"1e-11 rel), symmetric T max {worst_t:.13f} (limit 0.5), " \
               f"polynomial S identically 3/2: {exact}"


def _criterion_cubic_limit():
    start = time.perf_counter()
    config = {"function": "sin", "domain": [0.0, math.pi],
              "frequencies": {"xi": 0.0}, "n": [5, 9, 17], "order": 4}
    study = convergence_study(config)
    rows_ok = all(r["passed"] and r["ratio"] is not None and r["ratio"] < 1.0
                  for r in study.rows)
    closed_ok = all(
        r["empirical_error"] <= 5.0 / 64.0 * r["delta"] ** 4
        for r in study.rows)
    elapsed = time.perf_counter() - start
    ok = rows_ok and closed_ok and study.within_expected and elapsed < 5.0
    return ok, f"ratios {[round(r['ratio'], 4) for r in study.rows]} all " \
               f"< 1, slope {study.slope:.3f} in [3.7, 4.3], {elapsed:.2f}s"


def _criterion_xi_uniform():
    details = []
    ok = True
    for xi in (0.5, 1.0, 2.0, 5.0):
        config = {"function": "sin", "domain": [0.0, math.pi],
                  "frequencies": {"xi": xi}, "n": 9, "order": 4}
        report = run_verify(config)
        row = report.rows[0]
        lf_ok = abs(row["bound"] / row["M2_max"] / row["M0_max"]
                    / (1.0 + row["norm_bound"]) - (1 + xi ** 2) ** 2) \
            <= 1e-6 * (1 + xi ** 2) ** 2
        ok = ok and report.passed and lf_ok
        details.append(f"xi={xi:g} ratio={row['ratio']:.3g}")
    return ok, "all rows pass with max|LF| = (1+xi^2)^2; " + ", ".join(details)


def _criterion_kernel_reproduction():
    kn = np.linspace(0.0, 1.5, 6)
    s4 = build_interpolant4(kn, quad_frequency_set(5, xi=1.0), np.exp(kn),
                            1.0, math.exp(1.5))
    grid = np.linspace(0.0, 1.5, 2001)
    rel_exp = float(np.max(np.abs(s4(grid) - np.exp(grid)))) / math.exp(1.5)
    kn2 = np.linspace(0.0, 2.0, 5)
    s4b = build_interpolant4(kn2, quad_frequency_set(4, xi=0.0), kn2 ** 3,
                             0.0, 12.0)
    grid2 = np.linspace(0.0, 2.0, 2001)
    rel_cub = float(np.max(np.abs(s4b(grid2) - grid2 ** 3))) / 8.0
    basis = build_hat_basis(kn, [(-1.0, 1.0)] * 5)
    s2 = interpolate2(basis, np.exp(kn))
    knots_exact = bool(np.array_equal(s2(kn), np.exp(kn)))
    ok = rel_exp <= 1e-9 and rel_cub <= 1e-9 and knots_exact
    return ok, f"order-4 rel errors {rel_exp:.2e} (exp), {rel_cub:.2e} " \
               f"(cubic), order-2 knot values exact: {knots_exact}"


def _criterion_orthogonality():
    worst = 0.0
    for xi in (0.0, 1.0):
        for n in (5, 9):
            kn = np.linspace(0.0, math.pi, n)
            s = build_interpolant4(kn, quad_frequency_set(n - 1, xi=xi),
                                   np.sin(kn), 1.0, -1.0)
            basis = build_hat_basis(kn, [(-xi, xi)] * (n - 1))
            fd = lambda ts: (np.sin(ts), np.cos(ts), -np.sin(ts))
            worst = max(worst, residual_orthogonality(fd, s, basis, 0.0))
    ok = worst <= 1e-7
    return ok, f"max residual {worst:.3e} (limit 1e-07) over sin, " \
               "xi in {0, 1}, n in {5, 9}"


def _criterion_omega_green():
    rng = np.random.default_rng(77)
    boundary = 0.0
    positive = True
    lop_worst = 0.0
    for k in range(20):
        lam = np.sort(rng.uniform(-4.0, 4.0, size=2))
        a = float(rng.uniform(-1.0, 1.0))
        b = a + float(rng.uniform(0.3, 2.0))
        l0, l1 = float(lam[0]), float(lam[1])
        boundary = max(boundary, abs(omega_eval(l0, l1, a, b, a)),
                       abs(omega_eval(l0, l1, a, b, b)))
        ts = np.linspace(a, b, 101)[1:-1]
        vals = omega_eval(l0, l1, a, b, ts)
        positive = positive and bool(np.all(vals > 0.0))
        h = 1e-3 * (b - a)
        for t in np.linspace(a + 3 * h, b - 3 * h, 7):
            f = lambda x: omega_eval(l0, l1, a, b, x)
            d2 = (-f(t + 2 * h) + 16 * f(t + h) - 30 * f(t)
                  + 16 * f(t - h) - f(t - 2 * h)) / (12 * h * h)
            d1 = (-f(t + 2 * h) + 8 * f(t + h) - 8 * f(t - h)
                  + f(t - 2 * h)) / (12 * h)
            res = d2 - (l0 + l1) * d1 + l0 * l1 * f(t)
            lop_worst = max(lop_worst, abs(res + 1.0))
    green_ok = True
    quarter_ok = True
    for k in range(1000):
        lam = np.sort(rng.uniform(-5.0, 5.0, size=2))
        a = float(rng.uniform(-1.0, 1.0))
        b = a + float(rng.uniform(0.2, 2.0))
        l0, l1 = float(lam[0]), float(lam[1])
        t = float(rng.uniform(a + 1e-3, b - 1e-3))
        gdiag = abs(green_eval(l0, l1, a, b, t, t))
        quarter_ok = quarter_ok and (b - a) * gdiag \
            <= 0.25 * (b - a) ** 2 * (1.0 + 1e-12)
        if l0 < 0.0 < l1:
            green_ok = green_ok and omega_eval(l0, l1, a, b, t) \
                <= (b - a) * gdiag * (1.0 + 1e-12)
    ok = boundary <= 1e-12 and positive and lop_worst <= 1e-6 \
        and green_ok and quarter_ok
    return ok, f"boundary {boundary:.1e} (limit 1e-12), interior positive: " \
               f"{positive}, |L Omega + 1| max {lop_worst:.2e} (limit " \
               f"1e-06), Green bounds held: {green_ok and quarter_ok}"


def _criterion_hat_sums():
    rng = np.random.default_rng(4040)
    worst_all = 0.0
    worst_mixed = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 8))
        knots = np.cumsum(np.concatenate([[0.0],
                                          rng.uniform(0.2, 1.0, size=n - 1)]))
        mixed = rng.uniform([-3.0, 0.1], [-0.1, 3.0], size=(n - 1, 2))
        basis = build_hat_basis(knots, mixed)
        ts = np.linspace(knots[0], knots[-1], 801)
        worst_mixed = max(worst_mixed, float(np.max(sum_hats(basis, ts))))
        shift = float(rng.uniform(0.5, 3.0))
        reach = monotone_radius(*(mixed + shift).T) * (1.0 + 1e-12)
        if np.any(np.diff(knots) > reach):  # the bound 2 is for monotone hats
            continue
        basis2 = build_hat_basis(knots, mixed + shift)
        worst_all = max(worst_all, float(np.max(sum_hats(basis2, ts))))
    h = 0.31
    basis = build_hat_basis(np.arange(5) * h, [(0.0, 0.0)] * 4)
    ts = np.linspace(0.0, 4 * h, 1001)
    unity_dev = float(np.max(np.abs(sum_hats(basis, ts) - 1.0)))
    ok = worst_mixed <= 1.0 + 1e-12 and worst_all <= 2.0 + 1e-12 \
        and unity_dev <= 1e-14
    return ok, f"mixed-sign sum max {worst_mixed:.12f} (limit 1), overall " \
               f"max {max(worst_all, worst_mixed):.12f} (limit 2), " \
               f"polynomial unity dev {unity_dev:.1e} (limit 1e-14)"


def _criterion_derivative_bound():
    details = []
    ok = True
    for xi in (0.5, 1.0, 2.0, 5.0):
        kn = np.linspace(0.0, math.pi, 9)
        s = build_interpolant4(kn, quad_frequency_set(8, xi=xi),
                               np.sin(kn), 1.0, -1.0)
        grid = error_grid(kn)
        measured = float(np.max(np.abs(
            (-np.sin(grid) - xi ** 2 * np.sin(grid))
            - (s(grid, order=2) - xi ** 2 * s(grid)))))
        cap = 5.0 * (1 + xi ** 2) ** 2
        ok = ok and measured <= cap
        details.append(f"xi={xi:g}: {measured:.3g} <= {cap:.3g}")
    return ok, "; ".join(details)


def acceptance_criteria():
    """Run the twelve acceptance checks and return their results."""
    checks = [
        ("convolution identity", _criterion_convolution),
        ("Gram closed forms vs quadrature", _criterion_gram),
        ("symmetric interval constant identity", _criterion_symmetric_m),
        ("Gram dominance factors", _criterion_dominance),
        ("S and T bounds", _criterion_st_bounds),
        ("order-4 bound in the cubic limit", _criterion_cubic_limit),
        ("order-4 bound uniform in frequency", _criterion_xi_uniform),
        ("kernel reproduction", _criterion_kernel_reproduction),
        ("residual orthogonality", _criterion_orthogonality),
        ("Omega and Green function properties", _criterion_omega_green),
        ("hat sum bounds", _criterion_hat_sums),
        ("second-derivative residual bound", _criterion_derivative_bound),
    ]
    results = []
    for idx, (title, fn) in enumerate(checks, start=1):
        passed, detail = fn()
        results.append(CriterionResult(index=idx, title=title,
                                       passed=bool(passed), detail=detail))
    return results
