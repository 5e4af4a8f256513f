"""Probes for what the workloads do not time directly.

- ``import_seconds``: ``import expspline`` in a fresh interpreter, the
  start-up every command-line call pays; part of every set-up.
- ``reference_seconds``: fixed work that never calls the library, timed
  through the run to measure how fast the machine is at that moment.
- ``kernel_probes``: the fundamental-function kernel for k = 1..4 on the
  frequency sets verify4 draws, one scalar derivative call at a time and as
  a batch of points.
- ``quadrature_probe``: one adaptive integral of the kind ``project`` makes.
- ``known_defect_probe``: near-confluent verify4 rows at the sizes where
  their certificate is known to break.
- ``layer_probe_ops``: one small operation from each workload, so that a
  traced run reports every layer even when its own workload skips one.
"""

import math
import os
import statistics
import subprocess
import sys
import time

import numpy as np

from expspline import fundamental_derivative, fundamental_eval, integrate

from tracing import NullTracer
from workloads import FUNCS, Certify2, Eval4, draw_quad, verify4_op

CLASSES = ("symmetric", "generic", "confluent")


def _median_time(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def import_seconds(root):
    """Wall time of a fresh interpreter importing the package from
    ``root/src``."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import expspline"], env=env,
                   cwd=root, check=True, timeout=120)
    return time.perf_counter() - t0


_REF_X = np.linspace(0.0, 1.0, 512)


def reference_seconds():
    """Wall time of a fixed piece of work in the library's instruction mix
    (interpreter-level float arithmetic and small-array numpy calls) that
    calls neither expspline nor BLAS, so no change to the library or to
    its threading moves it; only the machine does."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(3000):
        a, b = i * 1e-3, i * 2e-3
        acc += a * b - math.exp(-a)
    for i in range(150):
        y = np.exp(-_REF_X * (i % 7)) * np.sin(_REF_X)
        idx = np.searchsorted(_REF_X, y).clip(0, _REF_X.size - 1)
        acc += float(y[idx].sum())
    if not math.isfinite(acc):
        raise ArithmeticError("reference work produced a non-finite sum")
    return time.perf_counter() - t0


def kernel_probes(rng, reps=3, batch=2000):
    """Scalar us per fundamental_derivative call (orders 0-2, as the build
    asks for them) and batch ns per point of fundamental_eval, per k."""
    quads = [draw_quad(cls, rng) for cls in CLASSES]
    taus = rng.uniform(0.0, 0.25, 8)
    ts = rng.uniform(0.0, 0.25, batch)
    out = {}
    for k in range(1, 5):
        sets = [q[:k] for q in quads]

        def scalar():
            for fr in sets:
                for tau in taus:
                    for order in (0, 1, 2):
                        fundamental_derivative(fr, float(tau), order)

        def batched():
            for fr in sets:
                fundamental_eval(fr, ts)

        calls = len(sets) * len(taus) * 3
        out[f"expcore.fundamental_derivative.k{k}.scalar_us"] = \
            1e6 * _median_time(scalar, reps) / calls
        out[f"expcore.fundamental_eval.k{k}.batch_ns_per_point"] = \
            1e9 * _median_time(batched, reps) / (len(sets) * batch)
    return out


def quadrature_probe(reps=20):
    """us per adaptive integral of an exponentially weighted smooth
    integrand over one interval."""
    def f(ts):
        return np.exp(0.5 * ts) * np.sin(3.0 * ts) * np.cosh(ts)
    return 1e6 * _median_time(lambda: integrate(f, 0.0, 0.4), reps)


def known_defect_probe(sizes, eps=3e-8):
    """Near-confluent verify4 rows (1, 1+eps, -1, -1-eps) on sin at the
    given sizes; returns the count whose measured error exceeds the
    certificate, with the details.  eps = 3e-8 is the documented failing
    case at n = 257 and 513."""
    violations = 0
    details = []
    for n in sizes:
        item = {"n": n, "cls": "confluent", "func": FUNCS[0],
                "quad": (1.0, 1.0 + eps, -1.0, -1.0 - eps)}
        outcome, _ = verify4_op(item, NullTracer())
        violations += not outcome.ok
        details.append({"n": n, "quad": item["quad"], "ok": outcome.ok,
                        "detail": outcome.detail})
    return violations, details


def layer_probe_ops(rng, tracer, smoke):
    """One small operation per workload under the tracer, op ids
    ``probe.<workload>``; returns the outcomes."""
    outcomes = []
    n = 17 if smoke else 65
    item = {"n": n, "cls": "generic", "func": FUNCS[0],
            "quad": draw_quad("generic", rng)}
    with tracer.op("probe.verify4", "probe"):
        outcomes.append(verify4_op(item, tracer)[0])
    c2 = Certify2(smoke)
    item = c2.round_items(0, rng, None)[0]
    with tracer.op("probe.certify2", "probe"):
        outcomes.append(c2.run(item, None, tracer))
    e4 = Eval4(pool_spec=((n, "generic"),))
    pool = e4.prepare(rng)
    for item in e4.items(rng, pool, [4.0] * len(e4.ORDERS)):
        with tracer.op("probe.eval4", "probe"):
            outcomes.append(e4.run(item, pool, tracer))
    return outcomes
