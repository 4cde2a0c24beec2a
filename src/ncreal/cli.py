"""Command-line front end: realize, evaluate, minimize, certify, translate,
compare, build Fock realizations, and sample invertibility domains.

All reports are machine-readable JSON with a top-level schema_version; the
domain sampler emits CSV.  Exit codes: 0 success, 2 user-input error
(parsing, file formats, expressions undefined at the centre), 3 numerical
failure (singular pencil or centre value).  An error is reported as one
line on standard error, ``error: <message>``; NCREAL_LOG=DEBUG adds its
traceback.  Arithmetic that overflows ends there too, in exit 2: no NaN or inf
reaches a verdict or a report.  A fixed --seed makes every sampling command
bit-reproducible.

``eval`` reports the margin of its domain decision: ``decided_by`` is
"certificate" when ``sigma_min`` and ``sigma_max`` are certified bounds on the
pencil's singular values and "svd" when they are exact, and the point lies in
the domain when sigma_min > ``allowed`` = INVERTIBILITY_RTOL * max(1,
sigma_max).  ``minimize`` checks its output against its input with the
subspace test of ``equiv`` (tol 1e-9) through words of length ``--depth``
and reports ``moment_match_residual`` and ``moment_match_allowed``.
``certify`` reports ``minimal`` when Kalman minimization keeps the whole
state space.
"""

import argparse
import functools
import json
import logging
import os
import sys

import numpy as np

from .core import (
    INVERTIBILITY_RTOL,
    MatrixTuple,
    SingularMatrixError,
    ampliate,
    column_norm,
    encode_complex,
    load_json,
    passes_invertibility,
    require_nonnegative,
    singular_value_range,
)
from .realization import (
    FMRealization,
    _pole_order,
    evaluate,
    load_realization,
    pencil,
    save_realization,
)
from .algebra import fm_to_desc
from .analysis import (
    compare_moments,
    kalman_minimize,
    llac_residual,
    translate,
)
from .fock import TruncatedFockVector, fock_realization
from .parser import parse, realize_expression

log = logging.getLogger("ncreal")

SCHEMA_VERSION = "4"


def _emit(report):
    report["schema_version"] = SCHEMA_VERSION
    # a NaN or inf is refused, not written: it is not JSON, and no verdict rests on one
    sys.stdout.write(json.dumps(report, sort_keys=True, allow_nan=False) + "\n")


def _matrix_json(m):
    m = np.asarray(m)
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "entries": encode_complex(m),
    }


def _load_centre(path):
    y = MatrixTuple.load(path)
    if y.level_m != 1:
        raise ValueError("centre file %s holds a level-%d tuple; centres live at level 1"
                         % (path, y.level_m))
    return y


def _constants_from_json(table):
    """The named matrices of a constants file: each a tuple with d = 1 and m = 1."""
    if not isinstance(table, dict):
        raise ValueError("constants must be a JSON object, got %s" % type(table).__name__)
    constants = {}
    for name, obj in table.items():
        t = MatrixTuple.from_json(obj, "constants." + name)
        if t.d != 1 or t.level_m != 1:
            raise ValueError("constants.%s must be one matrix (d = 1, m = 1), got d = %d, "
                             "m = %d" % (name, t.d, t.level_m))
        constants[name] = t.component(1)
    return constants


def _as_descriptor(r):
    if isinstance(r, FMRealization):
        return fm_to_desc(r)
    return r


def cmd_realize(args):
    with open(args.expr_file) as fh:
        text = fh.read()
    centre = _load_centre(args.centre_file)
    constants = load_json(args.constants, _constants_from_json) if args.constants else {}
    expr = parse(text, centre.d, constants)
    fm = realize_expression(expr, centre)
    save_realization(fm, args.out)
    bound = fm.A.cb_bound
    _emit({
        "state_dimension": fm.N,
        "cb_row_norm_bound": bound,
        "domain_radius_lower_bound": (1.0 / bound) if bound > 0 else None,
        "out": args.out,
    })
    return 0


def cmd_eval(args):
    r = load_realization(args.real_file)
    x = MatrixTuple.load(args.point_file)
    if x.base_n != r.n:
        x = x.rebased(r.n)
    e = evaluate(r, x)
    _emit({
        "in_domain": e.in_domain,
        "decided_by": e.decided_by,
        "sigma_min": e.sigma_min,
        "sigma_max": e.sigma_max,
        "allowed": INVERTIBILITY_RTOL * max(1.0, e.sigma_max),
        "value": _matrix_json(e.value) if e.in_domain else None,
    })
    return 0 if e.in_domain else 3


def cmd_minimize(args):
    r = _as_descriptor(load_realization(args.real_file))
    minimized = kalman_minimize(r)
    _, residual, allowed = compare_moments(r, minimized, args.depth, 1e-9)
    save_realization(minimized, args.out)
    _emit({
        "dimension_before": r.N,
        "dimension_after": minimized.N,
        "moment_match_depth": args.depth,
        "moment_match_residual": residual,
        "moment_match_allowed": allowed,
        "out": args.out,
    })
    return 0


def cmd_certify(args):
    require_nonnegative("tol", args.tol)
    r = _as_descriptor(load_realization(args.real_file))
    minimized = kalman_minimize(r)
    residual = llac_residual(minimized)
    _emit({
        "minimal": minimized.N == r.N,
        "lac_residual": residual,
        "is_nc_function": residual <= args.tol,
    })
    return 0


def cmd_translate(args):
    r = _as_descriptor(load_realization(args.real_file))
    x = MatrixTuple.load(args.point_file)
    if x.base_n != r.n:
        x = x.rebased(r.n)
    moved = translate(r, x)
    save_realization(moved, args.out)
    _emit({
        "centre_size": moved.n,
        "state_dimension": moved.N,
        "out": args.out,
    })
    return 0


def cmd_equiv(args):
    r1 = _as_descriptor(load_realization(args.real_file_1))
    r2 = _as_descriptor(load_realization(args.real_file_2))
    depth = args.depth if args.depth is not None else r1.N + r2.N
    equivalent, residual, allowed = compare_moments(r1, r2, depth, args.tol)
    _emit({
        "equivalent": bool(equivalent),
        "depth": depth,
        "residual": residual,
        "allowed": allowed,
    })
    return 0


def cmd_fock(args):
    h = TruncatedFockVector.load(args.fock_file)
    centre = _load_centre(args.centre_file)
    r = fock_realization(h, centre)
    save_realization(r, args.out)
    _emit({
        "state_dimension": r.N,
        "fock_dimension": r.N // max(1, r.n),
        "out": args.out,
    })
    return 0


def cmd_domain_sample(args):
    require_nonnegative("--samples", args.samples)
    require_nonnegative("--seed", args.seed)
    r = _as_descriptor(load_realization(args.real_file))
    rng = np.random.default_rng(args.seed)
    rows = ["index,scale,in_domain,pencil_sigma_min,pole_order"]
    y1 = ampliate(r.Y, 1)
    for idx in range(args.samples):
        if idx == 0:
            x, scale = y1, 0.0
        else:
            comps = [
                rng.standard_normal((r.n, r.n)) + 1j * rng.standard_normal((r.n, r.n))
                for _ in range(r.d)
            ]
            h = MatrixTuple(comps, r.n)
            h = h.scaled(1.0 / max(column_norm(h), 1e-300))
            scale = float(10.0 ** rng.uniform(-2.0, 1.0))
            x = y1 + h.scaled(scale)
        p = pencil(r, x)   # one pencil for the verdict and the pole order
        smin, smax = singular_value_range(p)
        inside = passes_invertibility(smin, smax)
        rows.append("%d,%.17g,%s,%.17g,%d" % (
            idx, scale, str(inside).lower(), smin, 0 if inside else _pole_order(p, smax)))
    text = "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


@functools.cache  # built once per process: one build costs about 50 parses
def _build_parser():
    top = argparse.ArgumentParser(
        prog="ncreal",
        description="Matrix-centre realization calculus for NC rational expressions.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("realize", help="build an FM realization from an expression")
    p.add_argument("expr_file")
    p.add_argument("centre_file")
    p.add_argument("--constants", default=None,
                   help="JSON file of named constant matrices (matrix-tuple format, m=1)")
    p.add_argument("--out", required=True, help="output file path")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("eval", help="evaluate a realization at a point, with the domain "
                       "decision's margin (decided_by, sigma_min, sigma_max, allowed)")
    p.add_argument("real_file")
    p.add_argument("point_file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("minimize", help="Kalman-minimize a realization")
    p.add_argument("real_file")
    p.add_argument("--out", required=True, help="output file path")
    p.add_argument("--depth", type=int, default=3,
                   help="moments of words up to this length are checked against the "
                        "input by the subspace test of equiv")
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("certify", help="minimality plus Lost-Abbey certificate")
    p.add_argument("real_file")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="largest Lost-Abbey residual of an NC function")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("translate", help="re-centre a realization at a domain point")
    p.add_argument("real_file")
    p.add_argument("point_file")
    p.add_argument("--out", required=True, help="output file path")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("equiv", help="test analytic equivalence of two realizations")
    p.add_argument("real_file_1")
    p.add_argument("real_file_2")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="relative tolerance: the residual ||b* V|| of the difference "
                        "realization's output vectors b on the span V of its words up "
                        "to --depth must stay below tol * max(1, ||b||)")
    p.add_argument("--depth", type=int, default=None,
                   help="compare the moments of words up to this length "
                        "(default N1 + N2, which covers every length)")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("fock", help="canonical realization of a truncated Fock vector")
    p.add_argument("fock_file")
    p.add_argument("centre_file")
    p.add_argument("--out", required=True, help="output file path")
    p.set_defaults(func=cmd_fock)

    p = sub.add_parser("domain-sample",
                       help="CSV of sampled points with domain flags and pole orders")
    p.add_argument("real_file")
    p.add_argument("--samples", type=int, default=50, help="sample count")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_domain_sample)
    return top


def main(argv=None):
    level = os.environ.get("NCREAL_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    top = _build_parser()
    args = top.parse_args(argv)
    try:
        with np.errstate(all="ignore"):   # each overflow meets a finiteness check instead
            return args.func(args)
    except (SingularMatrixError, OSError, ValueError, KeyError) as exc:
        # ParseError and UndefinedAtCentreError are ValueErrors
        log.debug("%s failed", args.command, exc_info=True)
        sys.stderr.write("error: %s\n" % exc)
        return 3 if isinstance(exc, SingularMatrixError) else 2


if __name__ == "__main__":
    sys.exit(main())
