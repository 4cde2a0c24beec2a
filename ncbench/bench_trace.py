"""In-memory spans around calls into ncreal's layers, and the per-layer metrics.

A span records its name, start, end, the span that caused it and the
operation it belongs to.  Spans stay in memory until :meth:`Tracer.write`.
The untraced path uses :data:`NO_TRACE`, whose ``call`` is a plain call.

A traced run, like an untraced one, repeats whole rounds of the workload's
fixed operations for a set time, so a faster program completes more rounds.
Calls and total times are therefore reported per completed round: they then
measure the same work in every run and compare across commits.
"""

import json
import statistics
import time

# The public calls the traced run times, as <module>.<function>.
LAYER_CALLS = (
    "cli.realize", "cli.minimize", "cli.certify", "cli.equiv",
    "realization.load_realization", "realization.save_realization",
    "realization.in_domain", "realization.pencil", "realization.pencil_sigma",
    "realization.transfer", "realization.transfer_fm",
    "linmap.ampliated_apply",
    "core.solve_refined",
    "parser.parse", "parser.realize_expression", "algebra.fm_to_desc",
    "analysis.kalman_minimize", "analysis.llac_residual", "analysis.is_minimal",
    "analysis.analytically_equivalent", "analysis.max_moment_deviation",
    "fock.coeffs_from_nc_function", "fock.fock_realization", "fock.blackbox",
)

# The self time of coeffs_from_nc_function: its total minus the time spent
# in the black box it calls.
SELF_TIME = ("fock.coeffs_from_nc_function", "fock.blackbox")


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for name in LAYER_CALLS:
        out += [(name + ".calls", "count/round"), (name + ".total_s", "s/round"),
                (name + ".p50_ms", "ms")]
    out.append((SELF_TIME[0] + ".self_s", "s/round"))
    return out


class _NoTrace:
    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def begin_op(self, op_id):
        pass


NO_TRACE = _NoTrace()


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or None, op id]
        self._stack = []
        self._op = None

    def begin_op(self, op_id):
        self._op = op_id

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = [name, time.perf_counter(), None, parent, self._op]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def durations(self, name):
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def metrics(self, rounds):
        """The per-layer values of ``rounds`` completed rounds, in metric_names order."""
        out = {}
        for name in LAYER_CALLS:
            times = self.durations(name)
            out[name + ".calls"] = len(times) / rounds
            out[name + ".total_s"] = sum(times) / rounds
            out[name + ".p50_ms"] = 1e3 * statistics.median(times) if times else 0.0
        outer, inner = SELF_TIME
        outer_ids = {k for k, s in enumerate(self.spans) if s[0] == outer}
        inner_s = sum(s[2] - s[1] for s in self.spans
                      if s[0] == inner and s[3] in outer_ids)
        out[outer + ".self_s"] = (sum(self.durations(outer)) - inner_s) / rounds
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for k, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": k, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
