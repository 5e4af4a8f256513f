"""Regenerate the golden CLI corpus.

Each case is one configuration run through the CLI commands that print
what the library computes: ``verify`` (csv and json), ``bounds``,
``gram``, the ``interp2``/``interp4`` export of its order (csv on a
small grid and the json coefficient dump) and ``converge`` (csv and json;
a config of fewer than three levels records the refusal).  For every case this writes
``configs/<name>.json`` and ``expected/<name>.json``, the latter holding
each command's argv, exit code, stdout and stderr; ``versions.json``
records the interpreter, numpy, the SIMD targets this CPU runs and
OpenBLAS's core that produced them.  ``digest.json`` pins the library
below the CLI: per item of digest_items(), a replica of the verify4 bench
generator for a fixed seed plus one mesh of n = 32769, the sha256 of the
bytes of the spline's coeffs, starts and taylor, of every error_bound4
field and of max_abs_L.  ``promise.json`` is the promise ledger: the
outcome of run_verify on every case of promise_cases(), one single-level
config per catalog function, frequency family, size and mesh plus the
known cases, each certified, refused by type or failed with the item that
owns it.  The
files are only ever written by this script:

    PYTHONPATH=src python tests/golden/regen.py

``tests/golden/test_golden.py`` replays every command, every digest item
and every ledger case in process and asks for the same bytes and
outcomes.  After writing, the script prints one line per expected file,
digest field and ledger case that moved, and nothing when nothing did.
"""

import contextlib
import hashlib
import io
import json
import math
import platform
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

# a mesh graded by 1.15 on [0, pi]
_GRADED = np.cumsum(np.concatenate([[0.0], 1.15 ** np.arange(12)]))
_GRADED = (math.pi * _GRADED / _GRADED[-1]).tolist()

CASES = {
    # the README config: symmetric quadruples from the xi shorthand, three
    # levels (gram and interp refuse the multi-level config)
    "xi-sin": {"function": "sin", "domain": [0.0, math.pi],
               "frequencies": {"xi": 2.0}, "n": [5, 9, 17], "order": 4,
               "p": 0, "clamp": "exact"},
    # a weighted quadruple, p = 0.5 resolved from the frequencies
    "weighted-gauss": {"function": "gauss", "n": 17, "order": 4,
                       "frequencies": {"quads": [[0.5, 2.0, -2.5, -1.0]]}},
    # one quadruple per interval, in different orders
    "per-interval-runge": {"function": "runge", "n": 5, "order": 4,
                           "frequencies": {"quads": [
                               [1.0, -1.0, 1.0, -1.0], [2.0, -2.0, -2.0, 2.0],
                               [0.5, 1.5, -0.5, -1.5],
                               [-0.25, 0.75, 0.25, -0.75]]}},
    # order 2 in the weight exp(t)
    "order2-p1-exp": {"function": "exp", "n": 9, "order": 2, "p": 1.0,
                      "frequencies": {"pairs": [[-1.0, 2.0]]}},
    "order2-xi-runge": {"function": "runge", "n": [9, 17], "order": 2,
                        "frequencies": {"xi": 3.0}},
    "graded-sin": {"function": "sin", "knots": _GRADED, "order": 4,
                   "frequencies": {"quads": [[1.3, 2.1, -1.3, -2.1]]}},
    # the all-polynomial tier, clamped cubics
    "polynomial-t4": {"function": "t4", "domain": [-1.0, 1.0], "n": 9,
                      "order": 4, "frequencies": {"xi": 0.0}},
    "n513-cos": {"function": "cos", "n": 513, "order": 4,
                 "frequencies": {"xi": 1.0}},
    "samples4": {"function": {"samples": [0.0, 0.7, 0.9, 1.0, 0.4]},
                 "knots": [0.0, 0.3, 0.7, 1.0, 1.4], "order": 4,
                 "clamp": [1.0, -1.5],
                 "frequencies": {"quads": [[0.5, 2.0, -1.5, -3.0]]}},
    "samples2": {"function": {"samples": [0.0, 0.7, 0.9, 1.0]},
                 "knots": [0.0, 0.5, 1.0, 1.5], "order": 2,
                 "frequencies": {"pairs": [[-1.0, 1.0], [-0.5, 2.0],
                                           [0.0, 0.0]]}},
    # clamped at (0, 0), not sin's end slopes (1, -1): the error is
    # measured and no bound is printed
    "inexact-clamp-sin": {"function": "sin", "domain": [0.0, math.pi],
                          "n": [9, 17, 33], "order": 4, "clamp": [0.0, 0.0],
                          "frequencies": {"xi": 1.0}},
    # refused by the slope system's condition gate
    "refused-ill-conditioned": {"function": "sin", "n": 300,
                                "domain": [0.0, 59.8], "order": 4,
                                "frequencies": {"quads": [
                                    [0.0, 0.001, 50.0, 49.999]]}},
    # no weight exponent pairs these frequencies
    "refused-no-pairing": {"function": "sin", "n": 5, "order": 4,
                           "frequencies": {"quads": [[0.0, 0.0, 1.0, 2.0]]}},
    # same-sign hats on intervals past the monotone radius 0.288 of (3, 4)
    "order2-past-radius-sin": {"function": "sin", "n": [5, 9, 33],
                               "order": 2,
                               "frequencies": {"pairs": [[3.0, 4.0]]}},
}


def commands(config):
    """The argv lists (without -c) run on a config."""
    interp = f"interp{config['order']}"
    return [["verify"], ["verify", "--format", "json"], ["bounds"],
            ["gram"], [interp, "--eval-grid", "21"],
            [interp, "--format", "json"], ["converge"],
            ["converge", "--format", "json"]]


def run(argv):
    """cli.main(argv) in process: (exit code, stdout, stderr)."""
    from expspline import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# the verify4 bench generator: the quadruple classes per size and the
# catalog functions, each item on a uniform mesh of its function's domain
_DIGEST_STRATA = {17: ("symmetric", "generic", "confluent"),
                  65: ("symmetric", "generic", "confluent"),
                  257: ("symmetric", "generic"),
                  513: ("symmetric", "generic")}
_DIGEST_FUNCS = ("sin", "cos", "gauss", "runge")
_DIGEST_SEED = 91


def _draw_quad(cls, rng):
    """One quadruple of the class, drawn as the verify4 generator draws."""
    if cls == "symmetric":
        xi = rng.uniform(0.5, 4.0)
        return (xi, -xi, xi, -xi)
    if cls == "generic":
        a = rng.uniform(0.5, 2.0)
        b = a + rng.uniform(0.5, 2.0)
        return (a, b, -a, -b)
    eps = 10.0 ** rng.uniform(-9.0, -7.0)
    return (1.0, 1.0 + eps, -1.0, -1.0 - eps)


def digest_items():
    """(name, function, n, quadruple) of every digest item: per size, class
    and function one quadruple from a generator seeded with _DIGEST_SEED,
    then runge at n = 32769, which pins the large mesh, and two stiff items
    of 6 and 5 sub-pieces per interval, which pin the inner sub-pieces."""
    rng = np.random.default_rng(_DIGEST_SEED)
    items = [(f"n{n}-{cls}-{func}", func, n, _draw_quad(cls, rng))
             for n, classes in _DIGEST_STRATA.items() for cls in classes
             for func in _DIGEST_FUNCS]
    items.append(("n32769-generic-runge", "runge", 32769,
                  (1.3, 2.1, -1.3, -2.1)))
    items.append(("n9-stiff-sin", "sin", 9, (6.0, -7.0, -6.0, 7.0)))
    items.append(("n17-stiff-gauss", "gauss", 17, (9.0, -10.0, -9.0, 10.0)))
    return items


def _sha(value):
    """sha256 of the float64 bytes of an array or a float."""
    return hashlib.sha256(
        np.ascontiguousarray(value, dtype=float).tobytes()).hexdigest()


def digest_item(func, n, quad):
    """The sha256 of each output of one item, run as the verify4 bench
    runs it: build_interpolant4 with the function's end slopes, max_abs_L
    and error_bound4 with the weight resolved from the quadruple."""
    from expspline import (build_interpolant4, error_bound4,
                           get_test_function, max_abs_L, quad_frequency_set)

    tf = get_test_function(func)
    a, b = tf.default_domain
    knots = np.linspace(a, b, n)
    qset = quad_frequency_set(n - 1, quads=quad)
    slope = tf.evaluators[1]
    spline = build_interpolant4(knots, qset, tf(knots),
                                float(slope(np.array(a))),
                                float(slope(np.array(b))))
    ml = max_abs_L(tf, knots, list(qset.quads))
    cert = error_bound4(knots, qset, None, ml)
    out = {name: _sha(getattr(spline, name))
           for name in ("coeffs", "starts", "taylor")}
    out.update({f"cert.{f}": _sha(getattr(cert, f)) for f in (
        "delta", "constant", "norm_bound", "m2_max", "m0_max", "bound")})
    out["max_abs_L"] = _sha(ml)
    return out


def digest():
    """Every digest item's hashes, by item name."""
    return {name: {"function": func, "n": n, "quad": list(quad),
                   **digest_item(func, n, quad)}
            for name, func, n, quad in digest_items()}


# the promise ledger's strata: each catalog function on its own domain with
# exact clamps, each family of frequencies (order, frequencies), and each
# size, on a uniform mesh and on one graded by 1.15
_PROMISE_FUNCS = ("sin", "cos", "exp", "runge", "gauss", "t3")
_PROMISE_FAMILIES = {
    **{f"o4-xi{xi:g}": (4, {"xi": xi}) for xi in (0.5, 3.0, 20.0, 200.0)},
    **{f"o4-{'/'.join(f'{q:.9g}' for q in quad)}": (4, {"quads": [quad]})
       for quad in ([1.3, 2.1, -1.3, -2.1], [5.0, 11.0, -5.0, -11.0],
                    [1.0, 1.0 + 1e-8, -1.0, -1.0 - 1e-8], [1.0, 2.0, 5.0, 4.0],
                    [-1.0, -2.0, -5.0, -4.0], [1.0, -1.0, 3.0, 1.0],
                    [8.0, -8.0, 10.0, -6.0], [0.0, 0.0, 0.0, 0.0])},
    **{f"o2-{l0:g}/{l1:g}": (2, {"pairs": [[l0, l1]]})
       for l0, l1 in ((-1.0, 2.0), (3.0, 4.0), (0.0, 0.0), (-300.0, 250.0))},
    "o2-xi2": (2, {"xi": 2.0}),
}
_PROMISE_SIZES = (5, 9, 33, 129)

# known cases outside the strata, each at the smallest size that shows it,
# on [0, 1] unless the function's own domain is named
_UNIT = {"domain": [0.0, 1.0]}
_PROMISE_KNOWN = {
    # the stiff same-sign range (ROADMAP item 3)
    **{f"known o4-{lam:g}x4 sin n5 unit": {
        "function": "sin", "order": 4, "n": 5, **_UNIT,
        "frequencies": {"quads": [[lam] * 4]}}
       for lam in (-300.0, -1e3, -1e4)},
    # stiff symmetric quadruples
    "known o4-xi1000 sin n5 unit": {"function": "sin", "order": 4, "n": 5,
                                    **_UNIT, "frequencies": {"xi": 1000.0}},
    "known o4-xi100 sin n9 unit": {"function": "sin", "order": 4, "n": 9,
                                   **_UNIT, "frequencies": {"xi": 100.0}},
    # the order-2 rounding floor: exp is in the kernel of (D - 1)(D - 6)
    "known o2-1/6 exp n129 unit": {"function": "exp", "order": 2, "n": 129,
                                   **_UNIT,
                                   "frequencies": {"pairs": [[1.0, 6.0]]}},
    # order 2 in the weight exp(t)
    "known o2-p1-(-1)/2 sin n9 uniform": {
        "function": "sin", "order": 2, "n": 9, "p": 1.0,
        "frequencies": {"pairs": [[-1.0, 2.0]]}},
    # the confluent build's own conditioning (ROADMAP item 21)
    "known o4-48x4 sin n33 unit": {"function": "sin", "order": 4, "n": 33,
                                   **_UNIT,
                                   "frequencies": {"quads": [[48.0] * 4]}},
    # the order-4 rounding floor: t3 is in the kernel of D^4
    "known o4-xi0 t3 n9 uniform": {"function": "t3", "order": 4, "n": 9,
                                   "frequencies": {"xi": 0.0}},
    # weighted Gram entries past the double range: they read inf, with no
    # RuntimeWarning, and the dominance factor reads inf
    **{f"known o2-p{p}-xi1 sin n5 [0, 10]": {
        "function": "sin", "domain": [0.0, 10.0], "n": 5, "order": 2,
        "frequencies": {"xi": 1.0}, "p": float(p)}
       for p in (80, 120)},
    # a quadruple with no hat-and-operator pairing under any weight
    "known o4-0/1/2/4 sin n17 uniform": {
        "function": "sin", "order": 4, "n": 17,
        "frequencies": {"quads": [[0.0, 1.0, 2.0, 4.0]]}},
    # splines clamped at slopes that are not F's own: built, not bounded
    "known o4-xi1 samples n5 unit clamp [1, -1]": {
        "function": {"samples": [0.0, 0.5, 1.0, 0.5, 0.0]}, "order": 4,
        "n": 5, **_UNIT, "frequencies": {"xi": 1.0}, "clamp": [1.0, -1.0]},
    "known o4-xi1 sin n17 uniform clamp [0.9, -1.1]": {
        "function": "sin", "order": 4, "n": 17, "frequencies": {"xi": 1.0},
        "clamp": [0.9, -1.1]},
    # the plateau of wide straddling pairs, where omega's slopes beside its
    # critical point are rounding noise (ROADMAP item 3)
    "known o2-xi10000 sin n5 unit": {"function": "sin", "order": 2, "n": 5,
                                     **_UNIT, "frequencies": {"xi": 1e4}},
    "known o2-(-5753.04)/9010.24 sin n5 unit": {
        "function": "sin", "order": 2, "n": 5, **_UNIT,
        "frequencies": {"pairs": [[-5753.04, 9010.24]]}},
    # large meshes (ROADMAP item 13): the rounding floor, then the
    # read-back gate, which holds the clamp slopes to the values' scale
    **{f"known o4-xi1 cos n{n} uniform": {
        "function": "cos", "order": 4, "n": n, "frequencies": {"xi": 1.0}}
       for n in (32769, 65537)},
    "known o4-1.3/2.1/-1.3/-2.1 cos n32769 uniform": {
        "function": "cos", "order": 4, "n": 32769,
        "frequencies": {"quads": [[1.3, 2.1, -1.3, -2.1]]}},
}

# a failed row whose measured error is at most _FLOOR, rounding on the
# catalog's functions of size O(1), is owned by the rounding model: the
# bound of an F that L annihilates is 0, and no term covers the rounding
_FLOOR, _FLOOR_OWNER = 1e-14, "item 8"


def promise_cases():
    """(name, config) of every ledger case: one level each, so every case
    has one outcome.  The strata come first, then _PROMISE_KNOWN."""
    from expspline import get_test_function

    cases = []
    for func in _PROMISE_FUNCS:
        a, b = get_test_function(func).default_domain
        for family, (order, freqs) in _PROMISE_FAMILIES.items():
            for n in _PROMISE_SIZES:
                graded = np.cumsum(np.concatenate(
                    [[0.0], 1.15 ** np.arange(n - 1)]))
                graded = a + (b - a) * graded / graded[-1]
                graded[-1] = b
                for mesh, grid in (("uniform", {"n": n}),
                                   ("graded", {"knots": graded.tolist()})):
                    cases.append((f"{family} {func} n{n} {mesh}",
                                  {"function": func, "order": order,
                                   "frequencies": freqs, **grid}))
    return cases + list(_PROMISE_KNOWN.items())


def promise_outcome(config):
    """run_verify's outcome of one case: "pass", "no bound", "refused
    <exception type>" for the CLI's typed refusals, or "failed <owner>"
    when the measured error passes the bound.  Any other exception
    propagates."""
    from expspline import ConfigError, QuadratureError
    from expspline.harness import run_verify

    typed = (ConfigError, QuadratureError, ArithmeticError,
             np.linalg.LinAlgError, ValueError)
    try:
        (row,) = run_verify(config).rows
    except typed as exc:
        return f"refused {type(exc).__name__}"
    if row["bound"] is None:
        return "no bound"
    if row["passed"]:
        return "pass"
    floor = row["empirical_error"] <= _FLOOR
    return f"failed {_FLOOR_OWNER if floor else 'unowned'}"


def promise():
    """Every ledger case's outcome, by case name."""
    return {name: promise_outcome(config) for name, config in promise_cases()}


def _openblas_core():
    """The core OpenBLAS picked at run time for numpy's BLAS, read from
    the library itself; "unknown" when it exposes no such call.  A stacked
    @ runs through its dgemm, whose last bits follow that core."""
    import ctypes

    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("lib*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for name in ("scipy_openblas_get_corename64_",
                     "scipy_openblas_get_corename", "openblas_get_corename"):
            corename = getattr(handle, name, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return "unknown"


def versions():
    """The interpreter, numpy, numpy's SIMD baseline, the dispatch targets
    this CPU runs and OpenBLAS's core: which loop a ufunc such as pow takes,
    and so the last bits of some printed bounds, depends on the CPU."""
    from numpy._core import _multiarray_umath as umath

    return {"python": platform.python_version(), "numpy": np.__version__,
            "cpu_baseline": umath.__cpu_baseline__,
            "cpu_targets": [t for t in umath.__cpu_dispatch__
                            if umath.__cpu_features__.get(t)],
            "openblas_core": _openblas_core()}


def _dump(path, doc):
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


def _read(path):
    """The parsed file at path, or {} when there is none."""
    return json.loads(path.read_text()) if path.exists() else {}


def main():
    """Write every file, then print what moved: one line per expected file
    whose bytes changed, per digest item and field whose hash changed and
    per ledger case whose outcome changed; nothing when nothing moved."""
    (HERE / "configs").mkdir(exist_ok=True)
    (HERE / "expected").mkdir(exist_ok=True)
    moved = []
    for name, config in CASES.items():
        path = HERE / "configs" / f"{name}.json"
        _dump(path, config)
        runs = []
        for argv in commands(config):
            code, out, err = run(argv + ["-c", str(path)])
            runs.append({"argv": argv, "code": code, "stdout": out,
                         "stderr": err})
        path = HERE / "expected" / f"{name}.json"
        before = path.read_bytes() if path.exists() else None
        _dump(path, runs)
        if path.read_bytes() != before:
            moved.append(f"expected/{name}.json")
    old_digest, new_digest = _read(HERE / "digest.json"), digest()
    for name, item in new_digest.items():
        old = old_digest.get(name, {})
        moved += [f"digest {name}: {field}" for field in sorted(item)
                  if item[field] != old.get(field)]
    old_promise, new_promise = _read(HERE / "promise.json"), promise()
    moved += [f"promise {name}: {old_promise.get(name)} -> {outcome}"
              for name, outcome in new_promise.items()
              if outcome != old_promise.get(name)]
    _dump(HERE / "digest.json", new_digest)
    _dump(HERE / "promise.json", new_promise)
    _dump(HERE / "versions.json", versions())
    for line in moved:
        print(line)


if __name__ == "__main__":
    sys.exit(main())
