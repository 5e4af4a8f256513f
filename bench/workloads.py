"""The three benchmark workloads: input generators, operations and checks.

Every workload runs as a closed loop with one client.  Inputs come in
rounds: each round holds a fixed mix of strata (size, frequency class,
batch size) and the seed draws the values inside each stratum, so every
seed gives the same mix.  That keeps the medians steady with the few
operations a run of this library completes.

An operation is a list of public library calls.  Each goes through the
tracer handed in, which is a pass-through in the untraced run.
"""

import math
import warnings

import numpy as np

from expspline import (
    Partition,
    build_hat_basis,
    build_interpolant4,
    error_bound4,
    get_test_function,
    interp2_error_bound,
    interpolate2,
    max_abs_L,
    measure_error,
    monotone_radius,
    project,
    quad_frequency_set,
    resolve_weight,
    spline4_eval,
)

from tracing import NullTracer

FUNCS = ("sin", "cos", "gauss", "runge")

# Measured errors at or below this share of max|F| are rounding noise (the
# function lies in the spline's kernel) and give no looseness reading.
ROUNDING_LEVEL = 1e-12


class Outcome:
    """What one operation produced, as far as the benchmark checks it."""

    def __init__(self, ok, detail="", looseness=None, warnings=0):
        self.ok = bool(ok)
        self.detail = detail
        self.looseness = looseness
        self.warnings = warnings


def _looseness(bound, err, scale):
    if err <= ROUNDING_LEVEL * max(scale, 1.0):
        return None
    return bound / err


def _clamp_slopes(tf, a, b):
    d1 = tf.evaluators[1]
    return float(d1(np.array(a))), float(d1(np.array(b)))


def draw_quad(cls, rng):
    """One frequency quadruple of the given class, shared by all intervals.

    symmetric (xi, -xi, xi, -xi) takes the closed-form certificate tier;
    generic (a, b, -a, -b) the T/S route; confluent (1, 1+e, -1, -1-e)
    nearly coincident frequencies, e log-uniform in [1e-9, 1e-7].
    """
    if cls == "symmetric":
        xi = rng.uniform(0.5, 4.0)
        return (xi, -xi, xi, -xi)
    if cls == "generic":
        a = rng.uniform(0.5, 2.0)
        b = a + rng.uniform(0.5, 2.0)
        return (a, b, -a, -b)
    if cls == "confluent":
        eps = 10.0 ** rng.uniform(-9.0, -7.0)
        return (1.0, 1.0 + eps, -1.0, -1.0 - eps)
    raise ValueError(f"unknown quadruple class {cls!r}")


def _item_keys(item):
    """The (lambda*h) pairs error_bound4 hands to the interval constants
    for a verify4 item, formed as the library forms them; empty on the
    closed-form tiers."""
    tf = get_test_function(item["func"])
    knots = np.linspace(*tf.default_domain, item["n"])
    p, canon = resolve_weight(quad_frequency_set(item["n"] - 1,
                                                 quads=item["quad"]))
    if p == 0.0 and all(q[0] == -q[1] and q[:2] == q[2:] for q in canon):
        return []
    keys = []
    for j, q in enumerate(canon):
        span = float(knots[j + 1]) - float(knots[j])
        keys.append((q[0] * span, q[1] * span))
        keys.append((q[2] * span, q[3] * span))
    return keys


def verify4_op(item, tr):
    """build_interpolant4 -> max_abs_L -> error_bound4 -> measure_error.

    Passes when every output is finite and the measured error is at or
    below the certificate.  Ill-conditioning warnings are caught and
    counted rather than printed.
    """
    tf = get_test_function(item["func"])
    a, b = tf.default_domain
    knots = np.linspace(a, b, item["n"])
    m = item["n"] - 1
    qset = tr.call("spline4.quad_frequency_set", quad_frequency_set, m,
                   quads=item["quad"])
    values = tf(knots)
    dl, dr = _clamp_slopes(tf, a, b)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        spline = tr.call("spline4.build_interpolant4", build_interpolant4,
                         knots, qset, values, dl, dr)
    ml = tr.call("harness.max_abs_L", max_abs_L, tf, knots, list(qset.quads))
    cert = tr.call("spline4.error_bound4", error_bound4, knots, qset, None, ml)
    err = tr.call("harness.measure_error", measure_error, tf, spline, knots)
    nwarn = sum("ill conditioned" in str(w.message) for w in caught)
    finite = math.isfinite(err) and math.isfinite(cert.bound) \
        and np.all(np.isfinite(spline.coeffs))
    ok = bool(finite and err <= cert.bound)
    detail = "" if ok else \
        f"measured {err:.3e} against certificate {cert.bound:.3e}"
    scale = float(np.max(np.abs(values)))
    return Outcome(ok, detail, _looseness(cert.bound, err, scale), nwarn), \
        (spline, cert, ml)


class Verify4:
    """One clamped order-4 verify row per operation on a uniform mesh."""

    name = "verify4"
    # The near-confluent class is left out at n >= 257: its certificate is
    # broken there by the evaluation defect, which known_defect_probe in
    # probes.py reports on every traced run instead.
    STRATA = {17: ("symmetric", "generic", "confluent"),
              65: ("symmetric", "generic", "confluent"),
              257: ("symmetric", "generic"),
              513: ("symmetric", "generic")}
    # Slots per size in a round: the small meshes come up more often, so a
    # run holds enough operations for its percentiles, and the two large
    # sizes still take most of the time.
    SLOTS = {17: 4, 65: 2, 257: 1, 513: 1}
    # About the wall time of one round on a 2-vCPU Xeon VM at this commit.
    ROUND_S = 6.0

    def __init__(self, smoke=False):
        self.strata = {17: self.STRATA[17]} if smoke else self.STRATA

    def prepare(self, rng):
        return None

    def _item(self, n, cls, func, rng):
        return {"n": n, "cls": cls, "func": func,
                "quad": draw_quad(cls, rng)}

    def warm_items(self, rng, fixture):
        n = min(self.strata)
        return [self._item(n, cls, FUNCS[i % len(FUNCS)], rng)
                for i, cls in enumerate(self.strata[n])]

    def round_items(self, r, rng, fixture):
        slots = [n for n in sorted(self.strata) for _ in range(self.SLOTS[n])]
        out = []
        for i, n in enumerate(slots):
            classes = self.strata[n]
            cls = classes[(r + i) % len(classes)]
            out.append(self._item(n, cls, FUNCS[(r + i) % len(FUNCS)], rng))
        return out

    def run(self, item, fixture, tr):
        outcome, _ = verify4_op(item, tr)
        return outcome

    def setup_keys(self, fixture):
        return []

    def keys(self, item):
        return _item_keys(item)

    def stratum(self, item):
        return (item["n"], item["cls"])

    def work(self, item):
        return 1

    def properties(self, item):
        return {"n": item["n"], "class": item["cls"], "func": item["func"]}


class Eval4:
    """Evaluate one spline of a prebuilt pool at a batch of random points.

    The pool comes from the verify4 generator: one spline per quadruple
    class, from the smallest to the largest verify4 size, each with its
    certificate and max|LF|.  Batch sizes are log-uniform in [1e2, 1e5],
    stratified over the nine (spline, order) slots of a round.
    """

    name = "eval4"
    POOL = ((17, "confluent"), (65, "generic"), (513, "symmetric"))
    ORDERS = (0, 1, 2)
    LOG_BATCH = (2.0, 5.0)
    ROUND_S = 0.12

    def __init__(self, smoke=False, pool_spec=None):
        if pool_spec is None:
            pool_spec = self.POOL[:1] if smoke else self.POOL
        self.pool_spec = pool_spec

    def prepare(self, rng):
        pool = []
        for i, (n, cls) in enumerate(self.pool_spec):
            item = {"n": n, "cls": cls, "func": FUNCS[i % len(FUNCS)],
                    "quad": draw_quad(cls, rng)}
            outcome, (spline, cert, ml) = verify4_op(item, NullTracer())
            if not outcome.ok:
                raise RuntimeError(f"pool spline {item} failed its check: "
                                   f"{outcome.detail}")
            tf = get_test_function(item["func"])
            pool.append({"item": item, "spline": spline, "tf": tf,
                         "bound": cert.bound, "max_lf": ml,
                         "delta": cert.delta,
                         "looseness": outcome.looseness})
        return pool

    def items(self, rng, fixture, log_sizes):
        slots = [(i, o) for i in range(len(fixture)) for o in self.ORDERS]
        out = []
        for (i, order), lg in zip(slots, log_sizes):
            a, b = fixture[i]["tf"].default_domain
            points = rng.uniform(a, b, int(round(10.0 ** lg)))
            out.append({"spline": i, "order": order, "points": points})
        return out

    def warm_items(self, rng, fixture):
        return self.items(rng, fixture,
                          [3.0] * (len(fixture) * len(self.ORDERS)))

    def round_items(self, r, rng, fixture):
        k = len(fixture) * len(self.ORDERS)
        lo, hi = self.LOG_BATCH
        slot = rng.permutation(k) + rng.uniform(size=k)
        return self.items(rng, fixture, lo + (hi - lo) * slot / k)

    def run(self, item, fixture, tr):
        """Order 0 must sit within the spline's certificate; orders 1 and 2
        within delta^(4-r) * max|LF| of the catalog derivative, plus a
        rounding allowance.  An order-0 operation carries the looseness of
        its spline's certificate, measured on the dense grid at set-up."""
        entry = fixture[item["spline"]]
        pts = item["points"]
        order = item["order"]
        vals = tr.call(f"spline4.eval.o{order}", spline4_eval,
                       entry["spline"], pts, order, work=pts.size)
        ref = entry["tf"].evaluators[order](pts)
        err = float(np.max(np.abs(vals - ref)))
        scale = float(np.max(np.abs(ref)))
        if order == 0:
            tol = entry["bound"]
        else:
            tol = entry["delta"] ** (4 - order) * entry["max_lf"] \
                + 1e-9 * max(scale, 1.0)
        ok = bool(np.all(np.isfinite(vals)) and err <= tol)
        detail = "" if ok else \
            f"order {order}: error {err:.3e} above tolerance {tol:.3e}"
        return Outcome(ok, detail,
                       entry["looseness"] if order == 0 else None)

    def setup_keys(self, fixture):
        """The pool's certificates are the only interval constants."""
        return [key for entry in fixture for key in _item_keys(entry["item"])]

    def keys(self, item):
        return []

    def stratum(self, item):
        return (self.pool_spec[item["spline"]][0], item["order"])


    def work(self, item):
        return int(item["points"].size)

    def properties(self, item):
        return {"n": self.pool_spec[item["spline"]][0],
                "order": item["order"], "batch": int(item["points"].size)}


class Certify2:
    """Order-2 certificate plus weighted projection on a non-uniform mesh.

    Interval lengths vary by up to a factor three; every interval draws its
    own pair l0 < l1 in [-3, 3] (redrawn until the hats stay monotone on
    it), and the weight p is drawn from [-1, 1] away from zero.  No two
    intervals share lambda*h, so every interval constant is computed cold.
    """

    name = "certify2"
    SIZES = (9, 17, 33)
    ROUND_S = 2.7

    def __init__(self, smoke=False):
        self.sizes = self.SIZES[:1] if smoke else self.SIZES

    def prepare(self, rng):
        return None

    def _item(self, n, func, rng):
        tf = get_test_function(func)
        a, b = tf.default_domain
        w = rng.uniform(1.0, 3.0, n - 1)
        knots = a + (b - a) * np.concatenate([[0.0], np.cumsum(w) / w.sum()])
        knots[-1] = b
        part = Partition(tuple(knots))
        pairs = []
        for h in part.lengths:
            while True:
                l0, l1 = np.sort(rng.uniform(-3.0, 3.0, 2))
                if l0 < l1 and h <= monotone_radius(float(l0), float(l1)):
                    break
            pairs.append((float(l0), float(l1)))
        p = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 1.0))
        return {"n": n, "func": func, "part": part, "pairs": pairs, "p": p}

    def warm_items(self, rng, fixture):
        return [self._item(self.sizes[0], FUNCS[0], rng)]

    def round_items(self, r, rng, fixture):
        return [self._item(n, FUNCS[(r + i) % len(FUNCS)], rng)
                for i, n in enumerate(self.sizes)]

    def run(self, item, fixture, tr):
        """build_hat_basis -> interpolate2 -> max_abs_L per interval ->
        interp2_error_bound -> measure_error -> project(F, p)."""
        tf = get_test_function(item["func"])
        part = item["part"]
        knots = part.knots
        basis = tr.call("hatbasis.build_hat_basis", build_hat_basis, part,
                        item["pairs"])
        values = tf(np.array(knots))
        spline = tr.call("hatbasis.interpolate2", interpolate2, basis, values)
        ml = np.array([
            tr.call("harness.max_abs_L", max_abs_L, tf,
                    Partition((knots[j], knots[j + 1])), [item["pairs"][j]])
            for j in range(part.n - 1)])
        bound = tr.call("errbound2.interp2_error_bound", interp2_error_bound,
                        basis, ml)
        err = tr.call("harness.measure_error", measure_error, tf, spline,
                      part)
        proj = tr.call("l2proj.project", project, basis, tf, item["p"])
        finite = math.isfinite(err) and math.isfinite(bound) \
            and bool(np.all(np.isfinite(proj.coeffs)))
        ok = bool(finite and err <= bound)
        detail = "" if ok else \
            f"measured {err:.3e} against certificate {bound:.3e}"
        scale = float(np.max(np.abs(values)))
        return Outcome(ok, detail, _looseness(bound, err, scale))

    def setup_keys(self, fixture):
        return []

    def keys(self, item):
        knots = item["part"].knots
        spans = [b - a for a, b in zip(knots[:-1], knots[1:])]
        return [(l0 * h, l1 * h) for (l0, l1), h in zip(item["pairs"], spans)]

    def stratum(self, item):
        return (item["n"],)


    def work(self, item):
        return 1

    def properties(self, item):
        return {"n": item["n"], "func": item["func"]}


WORKLOADS = {cls.name: cls for cls in (Verify4, Eval4, Certify2)}
