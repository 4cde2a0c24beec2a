"""Fast self-tests of the benchmark: every workload at a tiny size passes its
checks, and every check rejects a planted wrong output.

    PYTHONPATH=src python -m pytest -q ncbench
"""

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _path in (HERE, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import bench_gen as gen  # noqa: E402
import bench_trace  # noqa: E402
import bench_worker  # noqa: E402
import bench_workloads  # noqa: E402
from bench_workloads import WORKLOADS  # noqa: E402


def tiny(name, tmp_path):
    return WORKLOADS[name](7, str(tmp_path), tiny=True)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_passes_its_checks(name, tmp_path):
    w = tiny(name, tmp_path)
    w.warm()
    lat, elapsed, failures, first, last = bench_worker.run_rounds(w, 0.0, None)
    assert failures == []
    assert len(lat) == len(w.ops) and elapsed > 0
    assert bench_worker.check_rounds(w, [first, last]) == []


class AlwaysFails:
    """A workload whose operations raise every time, in warm-up too."""

    def __init__(self, seed, workdir):
        self.ops = [None, None]

    def warm(self):
        self.run(0)

    def run(self, i, tracer=None):
        raise RuntimeError("planted fault")

    def check(self, i, result):
        return []


def test_failing_operations_are_counted_not_fatal(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(bench_workloads.WORKLOADS, "always-fails", AlwaysFails)
    monkeypatch.setattr(bench_worker, "OUT_DIR", str(tmp_path))
    argv = ["--workload", "always-fails", "--seed", "1", "--seconds", "0",
            "--t0", repr(time.monotonic())]
    assert bench_worker.main(argv) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert (report["attempted"], report["failed"], report["correct"]) == (2, 2, True)


def test_same_seed_same_inputs(tmp_path):
    a = WORKLOADS["eval-serve"](3, str(tmp_path / "a"), tiny=True)
    b = WORKLOADS["eval-serve"](3, str(tmp_path / "b"), tiny=True)
    for (_, xa, ta, _), (_, xb, tb, _) in zip(a.ops, b.ops):
        assert ta == tb
        for ca, cb in zip(xa.components, xb.components):
            assert np.array_equal(ca, cb)


def test_eval_check_rejects_perturbed_transfer(tmp_path):
    w = tiny("eval-serve", tmp_path)
    value = w.run(0)
    assert w.check(0, value) == []
    assert w.check(0, value * (1 + 1e-6)) != []
    assert w.check(0, None) != []


def test_equiv_check_rejects_flipped_verdict(tmp_path):
    w = tiny("equiv-sweep", tmp_path)
    for i in range(len(w.ops)):
        report = w.run(i)
        assert w.check(i, report) == []
        flipped = dict(report, equivalent=not report["equivalent"])
        assert w.check(i, flipped) != []


def test_compile_check_rejects_large_lac_residual(tmp_path):
    w = tiny("compile-certify", tmp_path)
    realized, minimized, certified = w.run(0)
    assert w.check(0, (realized, minimized, certified)) == []
    bad = dict(certified, lac_residual=2e-9)
    assert w.check(0, (realized, minimized, bad)) != []
    grown = dict(minimized, dimension_after=minimized["dimension_before"] + 1)
    assert w.check(0, (realized, grown, certified)) != []


def test_fock_check_rejects_other_polynomial(tmp_path):
    w = tiny("fock-roundtrip", tmp_path)
    assert w.check(0, w.run(0)) == []
    other = w.ops[1]
    w.ops[0] = (other[0],) + w.ops[0][1:]      # realization of a different polynomial
    assert w.check(0, w.run(0)) != []


def test_level1_reader_matches_expression(tmp_path):
    w = tiny("compile-certify", tmp_path)
    w.run(1)
    paths, tree, n, _, y = w.ops[1]
    x = gen.point_near(np.random.default_rng(0), y, 1, 1e-2)
    value = gen.level1_value(*gen.read_descriptor_json(paths["min"]), x)
    assert gen.rel_err(value, gen.eval_tree(tree, x, n)) < 1e-10


def test_traced_run_reports_every_layer_metric(tmp_path):
    tracer = bench_trace.Tracer()
    for name in ("eval-serve", "fock-roundtrip"):
        w = tiny(name, tmp_path / name)
        bench_worker.run_rounds(w, 0.0, tracer)
    metrics = tracer.metrics(1)
    assert [k for k, _ in bench_trace.metric_names()] == list(metrics)
    assert tracer.metrics(2)["fock.blackbox.calls"] == metrics["fock.blackbox.calls"] / 2
    for call in ("realization.in_domain", "core.solve_refined", "linmap.ampliated_apply",
                 "fock.coeffs_from_nc_function", "fock.blackbox"):
        assert metrics[call + ".calls"] > 0
    assert 0.0 <= metrics["fock.coeffs_from_nc_function.self_s"] \
        <= metrics["fock.coeffs_from_nc_function.total_s"]
    out = tmp_path / "spans.jsonl"
    tracer.write(str(out))
    assert len(out.read_text().splitlines()) == len(tracer.spans)


def test_run_refuses_without_program(tmp_path):
    bench = tmp_path / "ncbench"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "eval-serve",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == b""



def test_benchmark_json_lists_the_traced_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert listed == bench_trace.metric_names()
