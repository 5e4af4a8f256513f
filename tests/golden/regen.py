"""Regenerate the golden CLI corpus.

Each case is one configuration run through the CLI commands that print
what the library computes: ``verify`` (csv and json), ``bounds``,
``gram``, the ``interp2``/``interp4`` export of its order (csv on a
small grid and the json coefficient dump) and ``converge`` (csv and json;
a config of fewer than three levels records the refusal).  For every case this writes
``configs/<name>.json`` and ``expected/<name>.json``, the latter holding
each command's argv, exit code, stdout and stderr; ``versions.json``
records the interpreter, numpy and numpy's CPU dispatch that produced
them.  The files are only ever written by this script:

    PYTHONPATH=src python tests/golden/regen.py

``tests/golden/test_golden.py`` replays every command in process and
asks for the same bytes.
"""

import contextlib
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


def versions():
    """The interpreter, numpy, and numpy's SIMD baseline and dispatch
    targets: which loop a ufunc such as pow takes, and so the last bits of
    some printed bounds, depends on the CPU."""
    from numpy._core import _multiarray_umath as umath

    return {"python": platform.python_version(), "numpy": np.__version__,
            "cpu_baseline": umath.__cpu_baseline__,
            "cpu_dispatch": umath.__cpu_dispatch__}


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
    _dump(HERE / "versions.json", versions())


if __name__ == "__main__":
    sys.exit(main())
