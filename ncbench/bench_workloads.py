"""The four workloads: seeded set-up, one operation, its traced replay, its check.

A workload object is built from a seed (set-up: the program builds the
inputs), then ``run(i, tracer)`` performs operation i of the fixed round and
returns what the program produced.  ``check(i, result)`` compares that result
with a computation made apart from ncreal (see bench_gen) or with a property
the method must have, and returns a list of error strings.  In the traced run
``replay(i, tracer)`` repeats operation i's steps as direct public calls, so
that the layers the cli wraps get spans of their own.
"""

import contextlib
import io
import json
import os

import numpy as np

from ncreal import cli
from ncreal.algebra import fm_to_desc
from ncreal.analysis import (
    analytically_equivalent,
    is_minimal,
    kalman_minimize,
    llac_residual,
    max_moment_deviation,
)
from ncreal.core import CentrePoint, MatrixTuple, solve_refined
from ncreal.fock import coeffs_from_nc_function, fock_realization
from ncreal.linmap import ampliated_apply
from ncreal.parser import parse, realize_expression
from ncreal.realization import (
    FMRealization,
    in_domain,
    load_realization,
    pencil,
    pencil_sigma,
    save_realization,
    transfer,
    transfer_fm,
)

import bench_gen as gen
from bench_trace import NO_TRACE

D = 2                      # letters of every rational workload
EVAL_RTOL = 1e-8           # eval-serve and the compile-certify level-1 value
FOCK_RTOL = 1e-9
LAC_TOL = 1e-9
# Deviations H are drawn with column norm RADIUS / sum_jpq ||A_j(E_pq)||, so the
# pencil's ampliated part has norm at most RADIUS and the pencil is invertible.
# fock-roundtrip uses RADIUS itself: a truncated Fock pencil is unipotent.
RADIUS = 0.5


def shape_rng(workload, slot):
    """The structure generator of one slot of a workload; independent of the seed."""
    return np.random.default_rng([20250910, workload, slot])


class OperationFailed(RuntimeError):
    pass


def _radius(units):
    """Column norm of H for a point whose pencil stays invertible (see RADIUS)."""
    total = gen.unit_sum_norm(units)
    return RADIUS / total if total > 0 else RADIUS


def _run_cli(tracer, name, argv):
    """``ncreal <argv>`` in this process; the parsed JSON report."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = tracer.call(name, cli.main, argv)
    if code != 0:
        raise OperationFailed("ncreal %s exited with %d" % (" ".join(argv), code))
    return json.loads(out.getvalue())


def _replay_transfer(tracer, r, x):
    """The steps inside in_domain and transfer(_fm) as direct public calls."""
    h = MatrixTuple([xc - np.kron(np.eye(x.level_m), yc)
                     for xc, yc in zip(x.components, r.Y.components)], r.n)
    tracer.call("linmap.ampliated_apply", ampliated_apply, r.A, h)
    p = tracer.call("realization.pencil", pencil, r, x)
    tracer.call("realization.pencil_sigma", pencil_sigma, r, x)
    if isinstance(r, FMRealization):
        rhs = tracer.call("linmap.ampliated_apply", ampliated_apply, r.B, h)
        if hasattr(rhs, "toarray"):
            rhs = rhs.toarray()
    else:
        rhs = np.kron(np.eye(x.level_m), r.c)
    tracer.call("core.solve_refined", solve_refined, p, rhs)


class EvalServe:
    """Evaluation requests against a pool of realized expressions.

    Each expression is held as its FM realization and as the Kalman-minimized
    descriptor form.  An operation is in_domain then transfer(_fm) at a
    level-m point of its own.  Every expression gets five requests, at the
    levels and forms of REQUESTS.  The m = 8 requests, the slowest tenth of
    the mix, use the FM form, whose state dimension n * leaves does not
    depend on the seed, so that the 90th percentile does not either.
    """

    name = "eval-serve"
    # variable leaves per centre size n; the FM state dimension is n * leaves
    SIZES = {1: (5, 10, 20, 35, 55), 2: (3, 6, 10, 18, 28), 3: (2, 4, 7, 12, 19)}
    TINY_SIZES = {1: (3,), 2: (2,)}
    # (level m, form): 0 is the FM realization, 1 the minimized descriptor
    REQUESTS = ((1, 1), (2, 0), (4, 1), (8, 0), (8, 0))

    def __init__(self, seed, workdir, tiny=False):
        rng = np.random.default_rng([seed, 1])
        pool = [(n, leaves) for n, sizes in (self.TINY_SIZES if tiny else self.SIZES).items()
                for leaves in sizes]
        self.ops = []     # (realization, point, tree, n)
        for k, (n, leaves) in enumerate(pool):
            y = gen.centre(rng, n, D)
            text, tree = gen.expression(shape_rng(1, k), leaves, D, y, n)
            fm = realize_expression(parse(text, D), CentrePoint(y))
            forms = (fm, kalman_minimize(fm_to_desc(fm)))
            radii = [_radius(r.A.dense().reshape(-1, r.N, r.N)) for r in forms]
            for m, f in self.REQUESTS:
                x = MatrixTuple(gen.point_near(rng, y, m, radii[f]), n)
                self.ops.append((forms[f], x, tree, n))

    def warm(self):
        """The first expression's requests: both forms, every level, small N."""
        for i in range(len(self.REQUESTS)):
            self.run(i)

    def run(self, i, tracer=NO_TRACE):
        r, x, _, _ = self.ops[i]
        if not tracer.call("realization.in_domain", in_domain, r, x):
            return None
        if isinstance(r, FMRealization):
            return tracer.call("realization.transfer_fm", transfer_fm, r, x)
        return tracer.call("realization.transfer", transfer, r, x)

    def replay(self, i, tracer, result):
        r, x, _, _ = self.ops[i]
        _replay_transfer(tracer, r, x)

    def check(self, i, value):
        _, x, tree, n = self.ops[i]
        if value is None:
            return ["op %d: a point inside the guaranteed radius was reported "
                    "outside the domain" % i]
        err = gen.rel_err(value, gen.eval_tree(tree, list(x.components), n))
        if not err <= EVAL_RTOL:
            return ["op %d: transfer differs from the expression by %.3e" % (i, err)]
        return []


class CompileCertify:
    """``ncreal realize``, ``minimize`` and ``certify`` on one expression file."""

    name = "compile-certify"
    # (n, variable leaves)
    MIX = tuple((n, leaves) for n, sizes in ((1, (2, 4, 6, 8, 10)), (2, (2, 3, 4, 5, 6)),
                                             (3, (2, 3, 4, 5, 6)))
                for leaves in sizes)
    TINY_MIX = ((1, 2), (2, 2))

    def __init__(self, seed, workdir, tiny=False):
        rng = np.random.default_rng([seed, 2])
        self.ops = []     # (paths, tree, n, leaves, y)
        for k, (n, leaves) in enumerate(self.TINY_MIX if tiny else self.MIX):
            y = gen.centre(rng, n, D)
            text, tree = gen.expression(shape_rng(2, k), leaves, D, y, n)
            paths = {key: os.path.join(workdir, "%s%d.%s" % (key, k, ext))
                     for key, ext in (("expr", "txt"), ("centre", "json"),
                                      ("fm", "json"), ("min", "json"), ("replay", "json"))}
            with open(paths["expr"], "w") as fh:
                fh.write(text + "\n")
            CentrePoint(y).dump(paths["centre"])
            self.ops.append((paths, tree, n, leaves, y))
        self.check_rng_seed = [seed, 22]

    def warm(self):
        self.run(0)

    def run(self, i, tracer=NO_TRACE):
        paths = self.ops[i][0]
        realized = _run_cli(tracer, "cli.realize",
                            ["realize", paths["expr"], paths["centre"], "--out", paths["fm"]])
        minimized = _run_cli(tracer, "cli.minimize",
                             ["minimize", paths["fm"], "--out", paths["min"]])
        certified = _run_cli(tracer, "cli.certify", ["certify", paths["min"]])
        return realized, minimized, certified

    def replay(self, i, tracer, result):
        paths = self.ops[i][0]
        with open(paths["expr"]) as fh:
            text = fh.read()
        y = MatrixTuple.load(paths["centre"])
        expr = tracer.call("parser.parse", parse, text, y.d)
        fm = tracer.call("parser.realize_expression", realize_expression, expr, y)
        tracer.call("realization.save_realization", save_realization, fm, paths["replay"])
        loaded = tracer.call("realization.load_realization", load_realization, paths["replay"])
        desc = tracer.call("algebra.fm_to_desc", fm_to_desc, loaded)
        small = tracer.call("analysis.kalman_minimize", kalman_minimize, desc)
        tracer.call("realization.save_realization", save_realization, small, paths["replay"])
        depth = result[1]["moment_match_depth"]
        tracer.call("analysis.max_moment_deviation", max_moment_deviation, desc, small, depth)
        again = tracer.call("realization.load_realization", load_realization, paths["replay"])
        certified = tracer.call("analysis.kalman_minimize", kalman_minimize, again)
        tracer.call("analysis.llac_residual", llac_residual, certified)
        tracer.call("analysis.is_minimal", is_minimal, again)

    def check(self, i, result):
        paths, tree, n, leaves, y = self.ops[i]
        realized, minimized, certified = result
        errors = []
        if realized["state_dimension"] != n * leaves:
            errors.append("op %d: FM state dimension %d, expected n * leaves = %d"
                          % (i, realized["state_dimension"], n * leaves))
        if not minimized["dimension_after"] <= minimized["dimension_before"]:
            errors.append("op %d: minimization grew the state (%d -> %d)"
                          % (i, minimized["dimension_before"], minimized["dimension_after"]))
        if not (certified["is_nc_function"] and certified["lac_residual"] <= LAC_TOL):
            errors.append("op %d: not certified (is_nc_function=%s, lac_residual=%.3e)"
                          % (i, certified["is_nc_function"], certified["lac_residual"]))
        units, b, c, ycomps = gen.read_descriptor_json(paths["min"])
        rng = np.random.default_rng(self.check_rng_seed + [i])
        x = gen.point_near(rng, y, 1, _radius(units.reshape(-1, b.shape[0], b.shape[0])))
        err = gen.rel_err(gen.level1_value(units, b, c, ycomps, x), gen.eval_tree(tree, x, n))
        if not err <= EVAL_RTOL:
            errors.append("op %d: minimized file's level-1 value differs from the "
                          "expression by %.3e" % (i, err))
        return errors


class EquivSweep:
    """``ncreal equiv`` on pairs built from identities, broken or not."""

    name = "equiv-sweep"
    # (kind, n, depth): depth None takes ncreal's default N1 + N2, which puts
    # every pair here in subspace mode; the explicit depths take the unit
    # sweep at tens of milliseconds.
    SLOTS = (
        ("distributivity", 2, None), ("push-through", 2, None),
        ("double-inverse", 2, None), ("swapped-factors", 2, None),
        ("push-through-wrong-order", 2, None), ("perturbed-constant", 2, None),
        ("distributivity", 3, None), ("push-through", 3, None),
        ("swapped-factors", 3, None), ("perturbed-constant", 3, None),
        ("push-through", 2, 6), ("distributivity", 2, 6), ("perturbed-constant", 2, 6),
        ("double-inverse", 3, 4), ("push-through-wrong-order", 3, 4),
    )
    LEAVES = 2

    def __init__(self, seed, workdir, tiny=False):
        rng = np.random.default_rng([seed, 3])
        slots = (self.SLOTS[0], self.SLOTS[-1]) if tiny else self.SLOTS
        equivalent = dict(gen.PAIR_KINDS)
        self.ops = []     # (path 1, path 2, depth or None, expected verdict, kind)
        for k, (kind, n, depth) in enumerate(slots):
            y = gen.centre(rng, n, D)
            pair = gen.equivalence_pair(shape_rng(3, k), kind, self.LEAVES, D, y, n)
            paths = []
            for side, tree in enumerate(pair):
                fm = realize_expression(parse(gen.text(tree), D), CentrePoint(y))
                path = os.path.join(workdir, "pair%d_%d.json" % (k, side))
                save_realization(fm, path)
                paths.append(path)
            self.ops.append((paths[0], paths[1], depth, equivalent[kind], kind))

    def warm(self):
        for i, op in enumerate(self.ops):
            if op[2] is not None:
                self.run(i)
                return

    def run(self, i, tracer=NO_TRACE):
        p1, p2, depth, _, _ = self.ops[i]
        argv = ["equiv", p1, p2] + ([] if depth is None else ["--depth", str(depth)])
        return _run_cli(tracer, "cli.equiv", argv)

    def replay(self, i, tracer, result):
        p1, p2, _, _, _ = self.ops[i]
        r1 = tracer.call("realization.load_realization", load_realization, p1)
        r2 = tracer.call("realization.load_realization", load_realization, p2)
        d1 = tracer.call("algebra.fm_to_desc", fm_to_desc, r1)
        d2 = tracer.call("algebra.fm_to_desc", fm_to_desc, r2)
        depth = result["depth"]
        tracer.call("analysis.analytically_equivalent", analytically_equivalent,
                    d1, d2, depth=depth, tol=1e-9)
        if result.get("max_deviation") is not None:
            tracer.call("analysis.max_moment_deviation", max_moment_deviation, d1, d2, depth)

    def check(self, i, report):
        expected, kind = self.ops[i][3], self.ops[i][4]
        if report["equivalent"] is not expected:
            return ["op %d (%s): verdict %s, expected %s"
                    % (i, kind, report["equivalent"], expected)]
        return []


class FockRoundtrip:
    """Fock coefficients of a realized polynomial, its Fock realization, one value."""

    name = "fock-roundtrip"
    # (n, d, L, level of the evaluation point)
    KEYS = ((1, 2, 4, 2), (1, 3, 3, 2), (2, 2, 2, 1))
    TINY_KEYS = ((1, 2, 2, 1),)
    PER_KEY = 5
    TERMS = 5

    def __init__(self, seed, workdir, tiny=False):
        rng = np.random.default_rng([seed, 4])
        self.ops = []     # (fm, centre, L, point, polynomial)
        for n, d, big_l, m in (self.TINY_KEYS if tiny else self.KEYS):
            for _ in range(self.PER_KEY):
                y = gen.centre(rng, n, d)
                shape = shape_rng(4, len(self.ops))
                text, poly = gen.polynomial(shape, rng, d, big_l, self.TERMS)
                centre = CentrePoint(y)
                fm = realize_expression(parse(text, d), centre)
                x = MatrixTuple(gen.point_near(rng, y, m, RADIUS), n)
                self.ops.append((fm, centre, big_l, x, poly))
        self._last = None

    def warm(self):
        """One operation per (n, d, L): the Fock basis is cached from then on."""
        for i in range(0, len(self.ops), self.PER_KEY):
            self.run(i)

    def run(self, i, tracer=NO_TRACE):
        fm, centre, big_l, x, _ = self.ops[i]

        def blackbox(point):
            return tracer.call("fock.blackbox", tracer.call,
                               "realization.transfer_fm", transfer_fm, fm, point)

        h = tracer.call("fock.coeffs_from_nc_function", coeffs_from_nc_function,
                        blackbox, centre, big_l)
        rf = tracer.call("fock.fock_realization", fock_realization, h, centre)
        self._last = rf
        return tracer.call("realization.transfer", transfer, rf, x)

    def replay(self, i, tracer, result):
        _replay_transfer(tracer, self._last, self.ops[i][3])

    def check(self, i, value):
        x, poly = self.ops[i][3], self.ops[i][4]
        err = gen.rel_err(value, gen.eval_polynomial(poly, list(x.components)))
        if not err <= FOCK_RTOL:
            return ["op %d: Fock transfer differs from the polynomial by %.3e" % (i, err)]
        return []


WORKLOADS = {w.name: w for w in (EvalServe, CompileCertify, EquivSweep, FockRoundtrip)}
