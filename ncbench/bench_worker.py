"""One workload process: set-up, the closed-loop timed operations, the checks.

Started by run.py, once per set-up sample (``--mode setup``) and once for the
measured run (``--mode measure``).  ``--t0`` is the monotonic clock reading
taken by the parent just before it started this process, so set-up time
counts from the start of the process.  The last line of standard output is
one JSON object.
"""

import os

# BLAS gets one thread before numpy is first imported: the closed loop has a
# single client, and threads would only add scheduling noise on a small host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

from bench_trace import NO_TRACE, Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".ncbench_out")

# Stands in for the result of an operation that raised.
FAILED = object()


def run_rounds(workload, seconds, tracer):
    """Whole rounds of the fixed operation list until ``seconds`` have passed.

    Only ``workload.run`` is timed.  With a tracer each operation is a span
    "op" and its replay a span "replay", both outside the latency.  Returns
    (latencies in s, elapsed s, failures, first round, last round).
    """
    traced = tracer is not None
    tracer = tracer or NO_TRACE
    lat, failures, first, last = [], [], None, None
    rounds = 0
    start = time.perf_counter()
    while True:
        results = []
        for i in range(len(workload.ops)):
            tracer.begin_op((rounds, i))
            t = time.perf_counter()
            try:
                res = tracer.call("op", workload.run, i, tracer)
            except Exception as exc:  # an operation that fails is counted, not fatal
                res = FAILED
                failures.append("round %d op %d: %s: %s"
                                % (rounds, i, type(exc).__name__, exc))
            lat.append(time.perf_counter() - t)
            if traced and res is not FAILED:
                tracer.call("replay", workload.replay, i, tracer, res)
            results.append(res)
        rounds += 1
        if first is None:
            first = results
        last = results
        if time.perf_counter() - start >= seconds:
            break
    return lat, time.perf_counter() - start, failures, first, last


def check_rounds(workload, rounds):
    errors = []
    for results in rounds:
        for i, res in enumerate(results):
            if res is not FAILED:
                errors += workload.check(i, res)
    return errors


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "measure"), default="measure")
    ap.add_argument("--t0", type=float, required=True,
                    help="monotonic clock reading taken just before this process started")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from bench_workloads import WORKLOADS

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-" % args.workload, dir=OUT_DIR)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        try:
            workload.warm()
        except Exception as exc:  # the same operation fails again, and is counted, when timed
            sys.stderr.write("%s: warm-up: %s: %s\n" % (args.workload, type(exc).__name__, exc))
        setup_s = time.monotonic() - args.t0
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0

        tracer = Tracer() if args.trace else None
        lat, elapsed, failures, first, last = run_rounds(workload, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        errors = check_rounds(workload, [first] if last is first else [first, last])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in (failures + errors)[:20]:
        sys.stderr.write("%s: %s\n" % (args.workload, line))
    report = {
        "setup_s": setup_s,
        "attempted": len(lat),
        "failed": len(failures),
        "correct": not errors,
        "ops_per_s": len(lat) / elapsed,
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_p90_ms": 1e3 * statistics.quantiles(lat, n=10, method="inclusive")[8],
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        rounds = len(lat) // len(workload.ops)
        report["layers"] = tracer.metrics(rounds)
        tracer.write(os.path.join(OUT_DIR, "trace-%s-seed%d.jsonl"
                                  % (args.workload, args.seed)))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
