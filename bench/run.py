"""Closed-loop benchmark of the expspline library, one client, one process.

    python3 bench/run.py --workload verify4 --seed 1 --seconds 25 --trace 0

Run from the repository root; the library is imported from ``src``.  The
run imports the package, sets up (input generation and warm-up on seeds
disjoint from the timed one, three times, median reported), then runs a
fixed number of rounds, about ``--seconds`` of work.  Every operation's
output is checked, and timings are scaled by an in-run reference job (see
REF_NOMINAL_S below).  Human-readable lines go to standard output, a full
record (environment, input properties, per-operation results and, when
traced, every span) to ``bench/out/``, and the last line of standard output
is one JSON object: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.

With ``--trace 1`` half of each stratum's operations run under the tracer
(alternating), which gives both the per-layer figures and the tracing
overhead against the untraced half, and the probes in ``probes.py`` run
after the loop.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3

# The host's speed drifts by a third between minutes, and within a run it
# flips between a fast and a slow state.  After each set-up and every
# REF_EVERY_S of the loop a fixed reference job is timed, and the timings in
# the JSON line are scaled by REF_NOMINAL_S / mean(reference): they read as
# on a machine where the job takes REF_NOMINAL_S.  The mean, not the
# median, weighs the two states by the time the run spent in each.  Raw
# values are printed beside them and kept in the record.
REF_EVERY_S = 0.5
REF_NOMINAL_S = 0.004
# A run does round(--seconds / ROUND_S) rounds, about --seconds of work on
# the machine the round costs were measured on; the same number of
# operations in every run keeps the sample-count-dependent tail steady.  A
# run stops early only when its loop exceeds MAX_STRETCH times --seconds.
MAX_STRETCH = 2.0

# Stream identifiers under the run seed; each feeds a disjoint generator.
TIMED, PREPARE, WARM, PROBE = 0, 100, 200, 300

# Layers whose per-call time the traced run reports, by span name.
TIMED_LAYERS = (
    "spline4.build_interpolant4",
    "spline4.error_bound4",
    "harness.max_abs_L",
    "harness.measure_error",
    "errbound2.interp2_error_bound",
    "l2proj.project",
    "hatbasis.build_hat_basis",
    "hatbasis.interpolate2",
)
EVAL_ORDERS = (0, 1, 2)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest sizes only, one set-up; for tests")
    return parser.parse_args(argv)


def environment(np, scipy):
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "scipy": scipy.__version__, "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)),
           "machine": platform.machine(), "cpu": _cpu_model()}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env["blas"] = f'{blas.get("name")} {blas.get("version")}'
    env["openblas_config"], env["openblas_threads"] = _openblas_runtime(np)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = os.environ.get(var, "unset")
    return env


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_runtime(np):
    """Build string and thread count of the OpenBLAS numpy loaded, read
    from the library itself; unknown when it exposes neither."""
    import ctypes
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("lib*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"),
                               ("scipy_openblas", ""), ("openblas", "")):
            try:
                threads = getattr(handle, f"{prefix}_get_num_threads{suffix}")
                config = getattr(handle, f"{prefix}_get_config{suffix}")
            except AttributeError:
                continue
            threads.restype = ctypes.c_int
            config.restype = ctypes.c_char_p
            return config().decode(), int(threads())
    return "unknown", None


def quantiles(values):
    vals = sorted(values)
    if len(vals) < 2:
        return {"min": vals[0], "q1": vals[0], "median": vals[0],
                "q3": vals[0], "max": vals[0]}
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return {"min": vals[0], "q1": q1, "median": q2, "q3": q3, "max": vals[-1]}


def tail(latencies):
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, samples beyond); the maximum when there are ten
    samples or fewer."""
    vals = sorted(latencies)
    n = len(vals)
    if n <= 10:
        return vals[-1], 100.0, 0
    return vals[n - 11], 100.0 * (n - 10) / n, 10


def input_properties(records, keys):
    """Shares of each categorical input property, the batch-size
    distribution, and the reuse of interval-constant keys."""
    props = defaultdict(Counter)
    batches = []
    for rec in records:
        for key, value in rec["props"].items():
            if key == "batch":
                batches.append(value)
            else:
                props[key][value] += 1
    total = len(records)
    out = {key: {str(k): v / total for k, v in sorted(counter.items())}
           for key, counter in props.items()}
    out["m_key_requests"] = len(keys)
    out["m_key_reuse"] = 1.0 - len(set(keys)) / len(keys) if keys else 0.0
    if batches:
        out["batch"] = quantiles(batches)
    return out


def overhead_frac(records):
    """Traced against untraced time per unit of work, matched by stratum
    and averaged over the strata that have both kinds."""
    sums = defaultdict(lambda: [[0.0, 0], [0.0, 0]])
    for rec in records:
        acc = sums[rec["stratum"]][rec["traced"]]
        acc[0] += rec["latency_s"]
        acc[1] += rec["work"]
    ratios = [(t[0] / t[1]) / (u[0] / u[1])
              for u, t in sums.values() if u[1] and t[1]]
    return statistics.fmean(ratios) - 1.0 if ratios else 0.0


def layer_metrics(layers, probe_layers, records, probe_outcomes, props,
                  probe_values):
    """Per-layer figures from the workload's own spans, falling back to the
    probe operations for layers the workload does not call.  Returns the
    metrics and, per metric, where it came from."""
    out, source = {}, {}

    def put(metric, span_name, fn):
        if span_name in layers:
            out[metric] = fn(layers[span_name])
            source[metric] = "workload"
        else:
            out[metric] = fn(probe_layers[span_name])
            source[metric] = "probe"

    for name in TIMED_LAYERS:
        put(f"{name}.ms_per_call", name, lambda rec: rec["ms_per_call"])
    build = "spline4.build_interpolant4"
    put(f"{build}.cpu_over_wall", build, lambda rec: rec["cpu_over_wall"])
    warned = [r["warnings"] for r in records] if build in layers \
        else [o.warnings for o in probe_outcomes]
    out[f"{build}.resolve_warnings"] = sum(warned)
    source[f"{build}.resolve_warnings"] = source[f"{build}.cpu_over_wall"]
    for order in EVAL_ORDERS:
        put(f"spline4.eval.o{order}.ns_per_point", f"spline4.eval.o{order}",
            lambda rec: 1e6 * rec["wall_ms"] / rec["work"])
    out["errbound2.m_key_reuse"] = props["m_key_reuse"]
    ops = [rec for name, rec in layers.items() if name.startswith("op.")]
    out["op.self_ms_per_op"] = sum(r["self_ms"] for r in ops) \
        / sum(r["calls"] for r in ops)
    out["trace.overhead_frac"] = overhead_frac(records)
    for name in ("errbound2.m_key_reuse", "op.self_ms_per_op",
                 "trace.overhead_frac"):
        source[name] = "workload"
    out.update(probe_values)
    return out, source


def run(args):
    if not (ROOT / "src" / "expspline" / "__init__.py").is_file():
        print(f"error: no library source under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy as np
    import scipy

    import probes
    from tracing import NullTracer, Tracer, summary
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.smoke)
    seed = args.seed % 2 ** 63

    def rng(stream):
        return np.random.default_rng([seed, stream])

    # One set-up: a fresh interpreter importing the package (the start-up
    # every user pays), then input preparation and warm-up in this process.
    failures = []
    import_times, setup_times, ref_times = [], [], []
    fixture = None
    for rep in range(1 if args.smoke else SETUP_REPS):
        import_times.append(probes.import_seconds(ROOT))
        t0 = time.perf_counter()
        fix = workload.prepare(rng(PREPARE + rep))
        for item in workload.warm_items(rng(WARM + rep), fix):
            outcome = workload.run(item, fix, NullTracer())
            if not outcome.ok:
                failures.append(f"warm-up: {outcome.detail}")
        setup_times.append(import_times[-1] + time.perf_counter() - t0)
        ref_times.append(probes.reference_seconds())
        if fixture is None:
            fixture = fix
    setup_s = statistics.median(setup_times)

    tracer = Tracer() if args.trace else None
    null = NullTracer()
    timed_rng = rng(TIMED)
    seen = Counter()
    records = []
    keys = workload.setup_keys(fixture)
    rounds = max(2, round(args.seconds / workload.ROUND_S))
    start = last_ref = time.perf_counter()
    for r in range(rounds):
        if time.perf_counter() - start > MAX_STRETCH * args.seconds:
            break
        for item in workload.round_items(r, timed_rng, fixture):
            if time.perf_counter() - last_ref >= REF_EVERY_S:
                ref_times.append(probes.reference_seconds())
                last_ref = time.perf_counter()
            stratum = workload.stratum(item)
            traced = bool(args.trace and seen[stratum] % 2 == 0)
            seen[stratum] += 1
            tr = tracer if traced else null
            op_id = len(records)
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                with tr.op(op_id, workload.name):
                    outcome = workload.run(item, fixture, tr)
                ok, detail = outcome.ok, outcome.detail
            except Exception:  # an operation that raises counts as failed
                outcome = None
                ok, detail = False, traceback.format_exc(limit=3)
            latency = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
            records.append({
                "op": op_id, "round": r, "stratum": stratum,
                "props": workload.properties(item), "traced": traced,
                "work": workload.work(item), "latency_s": latency,
                "cpu_s": cpu, "ok": ok, "detail": detail,
                "looseness": outcome.looseness if outcome else None,
                "warnings": outcome.warnings if outcome else 0})
            keys.extend(workload.keys(item))
            if not ok:
                failures.append(f"op {op_id} {stratum}: {detail}")
    elapsed = time.perf_counter() - start

    attempted = len(records)
    failed = sum(not rec["ok"] for rec in records)
    lat_ms = [1e3 * rec["latency_s"] for rec in records]
    busy_s = sum(rec["latency_s"] for rec in records)
    tail_ms, tail_pct, tail_beyond = tail(lat_ms)
    loose = [rec["looseness"] for rec in records
             if rec["ok"] and rec["looseness"] is not None]
    props = input_properties(records, keys)
    e2e = {
        "ops_per_s": (attempted - failed) / busy_s,
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_tail_ms": tail_ms,
        "cpu_ms_per_op": 1e3 * sum(rec["cpu_s"] for rec in records)
        / attempted,
        "fail_frac": failed / attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "cert_looseness": statistics.median(loose) if loose else None,
    }
    ref_s = statistics.fmean(ref_times)
    scale = REF_NOMINAL_S / ref_s
    scaled = dict(e2e)
    for name in ("latency_p50_ms", "latency_tail_ms", "cpu_ms_per_op",
                 "setup_s"):
        scaled[name] = e2e[name] * scale
    scaled["ops_per_s"] = e2e["ops_per_s"] / scale
    units = {"ops_per_s": "1/s", "latency_p50_ms": "ms",
             "latency_tail_ms": "ms", "cpu_ms_per_op": "ms",
             "fail_frac": "share", "setup_s": "s", "peak_rss_mb": "MB",
             "cert_looseness": "ratio"}

    env = environment(np, scipy)
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "environment": env,
              "rounds": records[-1]["round"] + 1, "elapsed_s": elapsed,
              "setup": {"import_s": import_times, "reps_s": setup_times},
              "inputs": props,
              "latency_tail": {"percentile": tail_pct, "samples": attempted,
                               "beyond": tail_beyond},
              "reference": {"nominal_s": REF_NOMINAL_S, "mean_s": ref_s,
                            "samples_s": ref_times},
              "end_to_end": scaled, "end_to_end_raw": e2e,
              "failures": failures, "ops": records}

    print(f"workload {workload.name} seed {args.seed} trace {args.trace} "
          f"rounds {record['rounds']} ops {attempted} "
          f"elapsed {elapsed:.2f} s "
          "(closed loop, one client)")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("inputs " + json.dumps(props, sort_keys=True))
    print(f"reference job mean {1e3 * ref_s:.3f} ms over "
          f"{len(ref_times)} samples; timings scaled by {scale:.4f}")
    for name, value in scaled.items():
        note = ""
        if value is not None and value != e2e[name]:
            note = f"  (raw {e2e[name]:.6g})"
        if name == "latency_tail_ms":
            note += (f"  (p{tail_pct:.1f} of {attempted} samples, "
                     f"{tail_beyond} beyond)")
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"metric {name} {shown} {units[name]}{note}")
    if args.trace:
        layers = summary(tracer.spans)
        probe_tracer = Tracer()
        prng = rng(PROBE)
        probe_outcomes = probes.layer_probe_ops(prng, probe_tracer,
                                                args.smoke)
        for outcome in probe_outcomes:
            if not outcome.ok:
                failures.append(f"layer probe: {outcome.detail}")
        probe_layers = summary(probe_tracer.spans)
        defect_sizes = (17,) if args.smoke else (257, 513)
        violations, defect = probes.known_defect_probe(defect_sizes)
        probe_values = probes.kernel_probes(prng)
        probe_values["quadrature.integrate.us_per_call"] = \
            probes.quadrature_probe()
        probe_values["cli.import_ms"] = 1e3 * statistics.median(import_times)
        probe_values["spline4.confluent_cert_violations"] = violations
        metrics, source = layer_metrics(layers, probe_layers, records,
                                        probe_outcomes, props, probe_values)
        record.update({"layers": layers, "probe_layers": probe_layers,
                       "layer_source": source, "known_defect": defect,
                       "per_layer": metrics, "spans": tracer.spans,
                       "probe_spans": probe_tracer.spans})
        print(f"{'layer':<34}{'calls':>7}{'ms/call':>12}{'self ms':>12}"
              f"{'cpu/wall':>10}")
        for name, rec in sorted(layers.items()):
            print(f"{name:<34}{rec['calls']:>7}{rec['ms_per_call']:>12.4f}"
                  f"{rec['self_ms']:>12.2f}{rec['cpu_over_wall']:>10.2f}")
        for name, value in metrics.items():
            print(f"layer {name} {value:.6g}  [{source.get(name, 'probe')}]")
        for d in defect:
            print(f"known defect: near-confluent n={d['n']} "
                  + ("holds" if d["ok"] else "VIOLATED: " + d["detail"]))
        out_metrics = {name: {"value": value, "unit": LAYER_UNITS[name]}
                       for name, value in metrics.items()}
    else:
        out_metrics = {name: {"value": scaled[name], "unit": units[name]}
                       for name in END_TO_END}

    for line in failures:
        print("FAILED " + line.splitlines()[-1])
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, default=str, indent=1))
    print(f"record written to {path.relative_to(ROOT)}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": out_metrics}))
    return 0


# Metrics of the final JSON line; fail_frac stays in the human-readable
# report because it is zero whenever every operation passes.
END_TO_END = ("ops_per_s", "latency_p50_ms", "latency_tail_ms",
              "cpu_ms_per_op", "setup_s", "peak_rss_mb", "cert_looseness")

LAYER_UNITS = {
    **{f"{name}.ms_per_call": "ms" for name in TIMED_LAYERS},
    "spline4.build_interpolant4.cpu_over_wall": "ratio",
    "spline4.build_interpolant4.resolve_warnings": "count",
    **{f"spline4.eval.o{o}.ns_per_point": "ns" for o in EVAL_ORDERS},
    "errbound2.m_key_reuse": "share",
    "op.self_ms_per_op": "ms",
    "trace.overhead_frac": "share",
    **{f"expcore.fundamental_derivative.k{k}.scalar_us": "us"
       for k in range(1, 5)},
    **{f"expcore.fundamental_eval.k{k}.batch_ns_per_point": "ns"
       for k in range(1, 5)},
    "quadrature.integrate.us_per_call": "us",
    "cli.import_ms": "ms",
    "spline4.confluent_cert_violations": "count",
}


if __name__ == "__main__":
    sys.exit(run(parse_args(sys.argv[1:])))
