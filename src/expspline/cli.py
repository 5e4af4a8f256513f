"""Command line front end.

Subcommands cover verification against certificates, interpolant
construction and evaluation exports, certificate-only bounds, Gram system
dumps, convergence studies, and the acceptance checklist.  Exit codes: 0 on
success, 1 for usage or configuration errors, 2 when a certified bound or
an expected property is violated, 3 on numerical failure.
"""

import argparse
import dataclasses
import json
import operator
import sys
from pathlib import Path

import numpy as np

from .harness import (
    ConfigError,
    acceptance_criteria,
    build_configured_spline,
    configured_gram,
    convergence_study,
    run_bounds,
    run_verify,
)
from .quadrature import QuadratureError

# the columns of a verify, bounds or converge row in csv
_COLUMNS = ("n", "delta", "empirical_error", "bound", "ratio", "norm_bound",
            "M0_max", "M2_max", "c_factor")
_CELLS = operator.itemgetter(*_COLUMNS)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    return "%.12g" % float(value)


def _csv(header, rows):
    """The header line, then one line of formatted cells per row; byte
    deterministic."""
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _json(doc):
    """doc as indented strict JSON with sorted keys: numpy arrays and
    scalars become lists and numbers, a non-finite float null."""
    plain = json.loads(json.dumps(doc, default=lambda obj: obj.tolist()),
                       parse_constant=lambda _: None)
    return json.dumps(plain, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _output(args, text, ext):
    """Print text, or write it as ASCII to DIR/<command>.<ext> under -o DIR
    and print that path."""
    if args.out is None:
        sys.stdout.write(text)
        return
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"{args.command}.{ext}"
    path.write_bytes(text.encode("ascii"))
    print(path)


def _cmd_report(args):
    report = args.run(_load_config(args.config))
    if args.format == "csv":
        text = _csv(_COLUMNS, map(_CELLS, report.rows))
    else:
        text = _json(dataclasses.asdict(report))
    _output(args, text, args.format)
    return 0 if report.passed else 2


def _interp(args):
    cfg = _load_config(args.config)
    if cfg.get("order") != args.order:
        raise ConfigError(
            f"config order {cfg.get('order')!r} does not match the "
            f"interp{args.order} subcommand")
    m = args.eval_grid
    if m < 2:
        raise ConfigError("--eval-grid must be at least 2")
    spline, part, p = build_configured_spline(cfg)
    if args.format == "csv":
        grid = np.linspace(part.knots[0], part.knots[-1], m)
        if args.order == 2:
            header, values = ("t", "s"), [spline(grid)]
        else:
            header = ("t", "s", "ds", "d2s")
            values = [spline(grid, order=r) for r in range(3)]
        text = _csv(header, zip(grid, *values))
    else:
        key, freqs = ("pairs", spline.basis.pairs) if args.order == 2 \
            else ("quads", spline.quads.quads)
        text = _json({"knots": part.knots, key: freqs, "p": p,
                      "coefficients": spline.coeffs})
    _output(args, text, args.format)
    return 0


def _cmd_gram(args):
    gram, rhs, p = configured_gram(_load_config(args.config))
    if args.format == "csv":
        n = gram.diag.size
        text = _csv(("i", "diag", "sub", "super", "rhs"), zip(
            range(n), gram.diag, [None, *gram.off], [*gram.off, None],
            [None] * n if rhs is None else rhs))
    else:
        text = _json({"p": p, "diag": gram.diag, "sub": gram.off,
                      "super": gram.off, "rhs": rhs})
    _output(args, text, args.format)
    return 0


def _cmd_converge(args):
    study = convergence_study(_load_config(args.config))
    if args.format == "csv":
        text = _csv(_COLUMNS, map(_CELLS, study.rows)) + (
            f"# slope = {_fmt(study.slope)}, expected "
            f"[{study.expected[0]:g}, {study.expected[1]:g}], "
            f"kernel = {str(study.kernel).lower()}\n")
    else:
        text = _json({"rows": [{k: v for k, v in row.items()
                                if k != "passed"} for row in study.rows],
                      "slope": study.slope, "kernel": study.kernel,
                      "order": study.order, "expected": study.expected,
                      "within_expected": study.within_expected})
    _output(args, text, args.format)
    return 0 if study.kernel or study.within_expected else 2


def _cmd_acceptance(args):
    results = acceptance_criteria()
    if args.format == "json":
        text, ext = _json([dataclasses.asdict(r) for r in results]), "json"
    else:
        text, ext = "\n".join(r.line() for r in results) + "\n", "txt"
    _output(args, text, ext)
    return 0 if all(r.passed for r in results) else 2


def _add_common(sub, with_eval_grid=False, config_required=True):
    if config_required:
        sub.add_argument("-c", "--config", required=True,
                         help="path to the JSON configuration")
    sub.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="output format (default csv)")
    sub.add_argument("-o", "--out", default=None, metavar="DIR",
                     help="write the output under DIR instead of stdout")
    if with_eval_grid:
        sub.add_argument("--eval-grid", type=int, default=201, metavar="M",
                         help="number of evaluation points (default 201)")


def build_parser():
    parser = _Parser(prog="expspline",
                     description="Exponential spline interpolation with "
                                 "certified error bounds.")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("verify", parents=[], help="build interpolants and "
                         "check measured errors against certificates")
    _add_common(sp)
    sp.set_defaults(func=_cmd_report, run=run_verify)

    sp = subs.add_parser("interp2", help="piecewise exponential interpolant "
                         "of order 2: evaluation grid or coefficient dump")
    _add_common(sp, with_eval_grid=True)
    sp.set_defaults(func=_interp, order=2)

    sp = subs.add_parser("interp4", help="clamped interpolant of order 4: "
                         "evaluation grid or coefficient dump")
    _add_common(sp, with_eval_grid=True)
    sp.set_defaults(func=_interp, order=4)

    sp = subs.add_parser("bounds", help="certificates only, no error "
                         "measurement")
    _add_common(sp)
    sp.set_defaults(func=_cmd_report, run=run_bounds)

    sp = subs.add_parser("gram", help="dump the weighted tridiagonal Gram "
                         "system of the hat basis")
    _add_common(sp)
    sp.set_defaults(func=_cmd_gram)

    sp = subs.add_parser("converge", help="empirical convergence rate over "
                         "the grid levels")
    _add_common(sp)
    sp.set_defaults(func=_cmd_converge)

    sp = subs.add_parser("acceptance", help="run the acceptance checklist")
    _add_common(sp, config_required=False)
    sp.set_defaults(func=_cmd_acceptance)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    # numpy's LinAlgError is a ValueError, so the numerical types go first
    except (QuadratureError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # ConfigError among them
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
