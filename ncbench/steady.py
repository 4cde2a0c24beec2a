"""Steadiness check: run one workload k times and summarize every metric.

    python3 ncbench/steady.py --workload eval-serve --seed 101 -k 10

Each run is a separate ``run.py`` invocation with the run length from
BENCHMARK.json; run i uses seed + i.  For each end-to-end metric it prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread (Q3 - Q1) / median next to the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first run")
    ap.add_argument("-k", type=int, default=10, help="number of runs (at least 2)")
    args = ap.parse_args(argv)
    if args.k < 2:
        ap.error("-k must be at least 2")

    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for i in range(args.k):
        seed = args.seed + i
        cmd = list(spec["command"]) + ["--workload", args.workload, "--seed", str(seed),
                                       "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True)
        result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        runs.append(result)
        values = " ".join("%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())
        print("run %d seed %d: correct=%s attempted=%d failed=%d %s"
              % (i, seed, result["correct"], result["attempted"], result["failed"], values),
              flush=True)

    print("%-12s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    for name in runs[0]["metrics"]:
        s = summarize([r["metrics"][name]["value"] for r in runs])
        print("%-12s %12.5g %12.5g %12.5g %8.4f %6s"
              % (name, s["median"], s["q1"], s["q3"], s["spread"], bounds.get(name, "")))
    shares = {r["failed"] / r["attempted"] for r in runs}
    print("failed share per run: %s; all correct: %s"
          % (sorted(shares), all(r["correct"] for r in runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
