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
field and of max_abs_L.  The files are only ever written by this script:

    PYTHONPATH=src python tests/golden/regen.py

``tests/golden/test_golden.py`` replays every command and every digest
item in process and asks for the same bytes.
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


def main():
    (HERE / "configs").mkdir(exist_ok=True)
    (HERE / "expected").mkdir(exist_ok=True)
    for name, config in CASES.items():
        path = HERE / "configs" / f"{name}.json"
        _dump(path, config)
        runs = []
        for argv in commands(config):
            code, out, err = run(argv + ["-c", str(path)])
            runs.append({"argv": argv, "code": code, "stdout": out,
                         "stderr": err})
        _dump(HERE / "expected" / f"{name}.json", runs)
    _dump(HERE / "digest.json", digest())
    _dump(HERE / "versions.json", versions())


if __name__ == "__main__":
    sys.exit(main())
