"""Command line front end.

Subcommands cover verification against certificates, interpolant
construction and evaluation exports, certificate-only bounds, Gram system
dumps, convergence studies, and the acceptance checklist.  Exit codes: 0 on
success, 1 for usage or configuration errors, 2 when a certified bound or
an expected property is violated, 3 on numerical failure.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .harness import (
    ConfigError,
    _fmt,
    acceptance_criteria,
    build_configured_spline,
    configured_gram,
    convergence_study,
    emit,
    render_csv,
    render_json,
    run_bounds,
    run_verify,
)
from .l2proj import DominanceError
from .quadrature import QuadratureError


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


def _write_or_print(text, outdir, stem, ext):
    if outdir is None:
        sys.stdout.write(text)
        return
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"{stem}.{ext}"
    path.write_bytes(text.encode("ascii"))
    print(path)


def _print_report(report, args, stem):
    if args.out is not None:
        print(emit(report, args.format, args.out, stem=stem))
    elif args.format == "csv":
        sys.stdout.write(render_csv(report.rows))
    else:
        sys.stdout.write(render_json(report))


def _cmd_verify(args):
    report = run_verify(_load_config(args.config))
    _print_report(report, args, "verify")
    return 0 if report.passed else 2


def _cmd_bounds(args):
    _print_report(run_bounds(_load_config(args.config)), args, "bounds")
    return 0


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
    grid = np.linspace(part.knots[0], part.knots[-1], m)
    if args.format == "csv":
        if args.order == 2:
            header = "t,s"
            cols = [grid, spline(grid)]
        else:
            header = "t,s,ds,d2s"
            cols = [grid, spline(grid), spline(grid, order=1),
                    spline(grid, order=2)]
        lines = [header]
        for i in range(m):
            lines.append(",".join(_fmt(c[i]) for c in cols))
        text = "\n".join(lines) + "\n"
    else:
        if args.order == 2:
            doc = {"knots": spline.basis.knots.tolist(),
                   "pairs": spline.basis.pairs.tolist(),
                   "p": cfg.get("p", 0.0),
                   "coefficients": spline.coeffs.tolist()}
        else:
            doc = {"knots": spline.knots.tolist(),
                   "quads": spline.quads.quads.tolist(),
                   "p": p,
                   "coefficients": spline.coeffs.tolist()}
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    _write_or_print(text, args.out, f"interp{args.order}",
                    "csv" if args.format == "csv" else "json")
    return 0


def _cmd_gram(args):
    gram, rhs, p = configured_gram(_load_config(args.config))
    if args.format == "csv":
        lines = ["i,diag,sub,super,rhs"]
        for i in range(gram.n):
            sub = gram.sub[i - 1] if i >= 1 else None
            sup = gram.sup[i] if i < gram.n - 1 else None
            r = None if rhs is None else rhs[i]
            lines.append(",".join([str(i), _fmt(gram.diag[i]), _fmt(sub),
                                   _fmt(sup), _fmt(r)]))
        text = "\n".join(lines) + "\n"
    else:
        doc = {"p": p, "diag": gram.diag.tolist(), "sub": gram.sub.tolist(),
               "super": gram.sup.tolist(),
               "rhs": None if rhs is None else rhs.tolist()}
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    _write_or_print(text, args.out, "gram",
                    "csv" if args.format == "csv" else "json")
    return 0


def _cmd_converge(args):
    study = convergence_study(_load_config(args.config))
    doc = {"rows": [{k: (None if v is None else (int(v) if k == "n"
                                                 else float(v)))
                     for k, v in row.items() if k != "passed"}
                    for row in study.rows],
           "slope": study.slope, "kernel": study.kernel,
           "order": study.order, "expected": list(study.expected),
           "within_expected": study.within_expected}
    if args.format == "csv":
        lines = [render_csv(study.rows).rstrip("\n")]
        lines.append(f"# slope = {_fmt(study.slope)}, expected "
                     f"[{study.expected[0]:g}, {study.expected[1]:g}], "
                     f"kernel = {str(study.kernel).lower()}")
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    _write_or_print(text, args.out, "converge",
                    "csv" if args.format == "csv" else "json")
    if study.kernel:
        return 0
    return 0 if study.within_expected else 2


def _cmd_acceptance(args):
    results = acceptance_criteria()
    if args.format == "json":
        doc = [{"index": r.index, "title": r.title, "passed": r.passed,
                "detail": r.detail} for r in results]
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        text = "\n".join(r.line() for r in results) + "\n"
    _write_or_print(text, args.out, "acceptance",
                    "json" if args.format == "json" else "txt")
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
    sp.set_defaults(func=_cmd_verify)

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
    sp.set_defaults(func=_cmd_bounds)

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
    except (DominanceError, QuadratureError, OverflowError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # ConfigError among them
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
