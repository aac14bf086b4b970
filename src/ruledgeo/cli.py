"""Command-line front end.

Verbs: gallery, invariants, classify, fit, trace, verify. Surfaces come
from SurfaceSpec JSON files (see `surface.load_spec`); all numeric output
is deterministic for identical inputs. Exit codes: 0 success, 1 usage or
validation error, 2 failing verification rows.
"""

import argparse
import functools
import sys

import numpy as np

from . import analysis, families, surface
from .errors import RuledGeoError
from .families import CurveFamily
from .invariants import point_invariants

JSON_FLOAT_FMT = "%.17g"
CSV_FLOAT_FMT = "%.12g"


def _json_dumps(obj, indent=0):
    """JSON writer with fixed float formatting (17 significant digits)."""
    pad = " " * indent
    if isinstance(obj, dict):
        items = ",\n".join(
            f'{pad}  {_json_dumps(str(k))}: {_json_dumps(v, indent + 2).lstrip()}'
            for k, v in obj.items()
        )
        return f"{pad}{{\n{items}\n{pad}}}" if obj else pad + "{}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        items = ", ".join(_json_dumps(v).strip() for v in seq)
        return f"{pad}[{items}]"
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'{pad}"{escaped}"'
    if isinstance(obj, (bool, np.bool_)) or obj is None:
        return pad + {True: "true", False: "false", None: "null"}[
            bool(obj) if obj is not None else None
        ]
    if isinstance(obj, (int, np.integer)):
        return pad + str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return pad + (JSON_FLOAT_FMT % float(obj))
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit(text, out):
    if out in (None, "-"):
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _load_surface(args):
    return surface.load_spec_file(
        args.spec, standardize_input=getattr(args, "standardize", False)
    )


def _parse_param(text):
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {text!r}")
    name, value = text.split("=", 1)
    try:
        return name, float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"parameter {name!r} needs a number")


def _family(tag):
    try:
        return CurveFamily(tag)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown family {tag!r}; choose from lc1 lc2 s1 s2 s3 s4"
        )


# subcommand handlers ---------------------------------------------------------


def _cmd_gallery(args):
    params = dict(args.param or [])
    if args.emit_spec:
        spec = surface.gallery_spec(args.name, params)
        _emit(_json_dumps(spec), args.out)
        return 0
    surf = surface.gallery(args.name, params)
    lo, hi = surf.domain
    _emit(
        f"{surf.label}\ndomain [{CSV_FLOAT_FMT % lo}, {CSV_FLOAT_FMT % hi}]",
        args.out,
    )
    return 0


def _cmd_invariants(args):
    surf = _load_surface(args)
    us = analysis.uniform_u_grid(surf, args.grid)
    p = point_invariants(surf, us)
    rows = list(zip(*(x.tolist() for x in (us, p.k, p.delta, p.sigma, p.lam))))
    if args.format == "json":
        payload = {
            "u": [r[0] for r in rows],
            "k": [r[1] for r in rows],
            "delta": [r[2] for r in rows],
            "sigma": [r[3] for r in rows],
            "lambda": [r[4] for r in rows],
        }
        _emit(_json_dumps(payload), args.out)
    else:
        lines = ["u,k,delta,sigma,lambda"]
        for r in rows:
            lines.append(",".join(CSV_FLOAT_FMT % x for x in r))
        _emit("\n".join(lines), args.out)
    return 0


def _cmd_classify(args):
    surf = _load_surface(args)
    report = analysis.classify(surf, tol_class=args.tol_class, n_grid=args.grid)
    if args.format == "json":
        _emit(_json_dumps(report.to_json_dict()), args.out)
    else:
        _emit(report.to_text(), args.out)
    return 0


def _cmd_fit(args):
    surf = _load_surface(args)
    fit = analysis.fit_power_law(
        surf,
        args.family,
        n_range=(args.n_min, args.n_max),
        tol_fit=args.tol_fit,
    )
    if isinstance(fit, analysis.NoFit):
        payload = {
            "status": "nofit",
            "best_n": fit.best_n,
            "best_residual": fit.best_residual,
            "candidates": {str(n): r for n, r in sorted(fit.candidates.items())},
        }
    elif fit.is_zero:
        payload = {"status": "zero", "max_abs_kn": fit.residual}
    else:
        payload = {
            "status": "fit",
            "n": fit.n,
            "residual": fit.residual,
            "ambiguous": fit.ambiguous,
            "f": [[u, f] for u, f in fit.f_samples],
        }
    _emit(_json_dumps(payload), args.out)
    return 0


def _cmd_trace(args):
    surf = _load_surface(args)
    curve = families.trace_curve(
        args.family, surf, args.u0, args.v0, args.steps, args.step_size
    )
    if args.format == "obj":
        if args.out in (None, "-"):
            curve.to_obj(sys.stdout)
        else:
            curve.to_obj(args.out)
    elif args.format == "json":
        payload = {
            "family": curve.family.tag,
            "arclength": curve.arclength,
            "stop_reason": curve.stop_reason,
            "stop_step": curve.stop_step,
            "points": [list(row) for row in curve.points],
        }
        _emit(_json_dumps(payload), args.out)
    else:
        if args.out in (None, "-"):
            curve.to_csv(sys.stdout)
        else:
            curve.to_csv(args.out)
    return 0


def _cmd_verify(args):
    if args.prop and not args.all:
        results = analysis.verify_proposition(args.prop, tol_fit=args.tol_fit)
        ok = all(r.passed for r in results)
        if args.format == "json":
            rows = [r.to_json_dict() for r in results]
            _emit(_json_dumps({"passed": ok, "rows": rows}), args.out)
        else:
            _emit("\n".join(r.to_text() for r in results), args.out)
        return 0 if ok else 2
    report = analysis.verify_all(tol_fit=args.tol_fit)
    if args.format == "json":
        _emit(_json_dumps(report.to_json_dict()), args.out)
    else:
        _emit(report.to_text(), args.out)
    return 0 if report.passed else 2


@functools.cache
def build_parser():
    """The argparse tree, built once per process: parsing leaves it unchanged."""
    top = argparse.ArgumentParser(
        prog="ruledgeo",
        description="Skew ruled surfaces: invariants, curve families, "
        "power-law normal curvature verification.",
    )
    sub = top.add_subparsers(dest="verb", required=True)

    def add_common(p, spec=True):
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if spec:
            p.add_argument("--spec", required=True, help="SurfaceSpec JSON file")
            p.add_argument(
                "--standardize",
                action="store_true",
                help="treat expression specs as a general (c, d) pair and "
                "standardize them instead of requiring standard form",
            )

    p = sub.add_parser("gallery", help="construct a canonical surface")
    p.add_argument("--name", required=True, choices=surface.gallery_names())
    p.add_argument(
        "--param", action="append", type=_parse_param, metavar="NAME=VALUE"
    )
    p.add_argument("--emit-spec", action="store_true",
                   help="print the SurfaceSpec JSON instead of a summary")
    add_common(p, spec=False)
    p.set_defaults(handler=_cmd_gallery)

    p = sub.add_parser("invariants", help="tabulate k, delta, sigma, lambda")
    add_common(p)
    p.add_argument("--grid", type=int, default=33)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=_cmd_invariants)

    p = sub.add_parser("classify", help="flag the named surface classes")
    add_common(p)
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--tol-class", type=float, default=analysis.TOL_CLASS)
    p.add_argument("--format", choices=("text", "json"), default="json")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("fit", help="fit k_N = f(u) w^n along a family")
    add_common(p)
    p.add_argument("--family", required=True, type=_family)
    p.add_argument("--n-min", type=int, default=analysis.N_RANGE[0])
    p.add_argument("--n-max", type=int, default=analysis.N_RANGE[1])
    p.add_argument("--tol-fit", type=float, default=analysis.TOL_FIT)
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("trace", help="trace a family curve (RK4)")
    add_common(p)
    p.add_argument("--family", required=True, type=_family)
    p.add_argument("--u0", type=float, required=True)
    p.add_argument("--v0", type=float, required=True)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--step-size", type=float, default=0.01)
    p.add_argument("--format", choices=("csv", "json", "obj"), default="csv")
    p.set_defaults(handler=_cmd_trace)

    p = sub.add_parser("verify", help="replay the classification table")
    p.add_argument("--all", action="store_true",
                   help="all rows plus corollary and negative controls")
    p.add_argument("--prop", default=None,
                   help="single proposition: 1..5 or 'corollary'")
    p.add_argument("--tol-fit", type=float, default=analysis.TOL_FIT)
    p.add_argument("--format", choices=("text", "json"), default="text")
    add_common(p, spec=False)
    p.set_defaults(handler=_cmd_verify)

    return top


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    if args.verb == "verify" and not args.all and not args.prop:
        args.all = True
    try:
        return args.handler(args)
    except RuledGeoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
