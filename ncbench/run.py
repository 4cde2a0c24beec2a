"""Benchmark of the ncreal realization calculus.

    python3 ncbench/run.py --workload eval-serve --seed 1 --seconds 15 --trace 0

Runs one workload from the checkout's own ``src/ncreal``.  Set-up is measured
in SETUP_SAMPLES fresh processes that stop at the first timed operation, plus
the measured process itself, and reported as their median.  The measured
process runs the workload's fixed list of operations in whole rounds, one at
a time (closed loop, one client), until ``--seconds`` have passed, then checks
every output of the first and the last round.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``, the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.  Any fault of the
benchmark itself (no ``src/ncreal`` in the checkout, a crashed worker) exits
non-zero without printing a result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import bench_trace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "bench_worker.py")
WORKLOADS = ("eval-serve", "compile-certify", "equiv-sweep", "fock-roundtrip")
SETUP_SAMPLES = 4
# Time allowed beyond --seconds for the set-up processes, the measured
# process's own set-up and the checks after its timed loop.
MARGIN_S = 145.0

END_TO_END = (("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


class WorkerFailed(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args, mode, deadline):
    """Start one workload process and return its JSON report."""
    t0 = time.monotonic()
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mode", mode, "--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed("%s worker ran past the deadline" % mode) from exc
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed("%s worker exited with %d" % (mode, proc.returncode))
    return json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "ncreal", "__init__.py")):
        sys.stderr.write("ncbench: no src/ncreal in %s; run from a checkout of the "
                         "repository\n" % ROOT)
        return 2
    deadline = time.monotonic() + args.seconds + MARGIN_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                setups.append(run_worker(args, "setup", deadline)["setup_s"])
        report = run_worker(args, "measure", deadline)
    except WorkerFailed as exc:
        sys.stderr.write("ncbench: %s\n" % exc)
        return 1
    setups.append(report["setup_s"])
    report["setup_s"] = statistics.median(setups)

    if args.trace:
        metrics = report["layers"]
        units = dict(bench_trace.metric_names())
        out = {k: {"value": metrics[k], "unit": units[k]} for k in units}
        sys.stderr.write("ncbench: %s traced op_p50_ms %.4f op_p90_ms %.4f\n"
                         % (args.workload, report["op_p50_ms"], report["op_p90_ms"]))
    else:
        out = {k: {"value": report[k], "unit": unit} for k, unit in END_TO_END}
    sys.stderr.write("ncbench: %s seed %d: %d operations, %d failed, correct=%s\n"
                     % (args.workload, args.seed, report["attempted"], report["failed"],
                        report["correct"]))
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
