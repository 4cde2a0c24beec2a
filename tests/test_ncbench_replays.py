"""One traced round of every tiny ncbench workload runs with no failure.

A traced round also runs each workload's ``replay``, which reads report keys
and calls library functions directly, so a report field or a function the
benchmark relies on cannot change without failing here.
"""

import sys
from pathlib import Path

import pytest

NCBENCH = Path(__file__).resolve().parent.parent / "ncbench"
if str(NCBENCH) not in sys.path:
    sys.path.insert(0, str(NCBENCH))

import bench_trace  # noqa: E402
import bench_worker  # noqa: E402
from bench_workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_round_replays_every_operation(name, tmp_path):
    w = WORKLOADS[name](7, str(tmp_path), tiny=True)
    tracer = bench_trace.Tracer()
    _, _, failures, first, _ = bench_worker.run_rounds(w, 0.0, tracer)
    assert failures == []
    assert bench_worker.check_rounds(w, [first]) == []
    assert len(tracer.durations("replay")) == len(w.ops)
