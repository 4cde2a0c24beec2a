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


@pytest.mark.parametrize("name, probes", [("eval-serve", False), ("fock-roundtrip", True)])
def test_block_nilpotent_points_only_where_the_workload_probes(name, probes, tmp_path,
                                                               monkeypatch):
    """No eval-serve point has an acyclic graph of nonzero blocks; every black-box
    call of fock-roundtrip is at such a block point, and certified."""
    from conftest import block_graph_depth
    from ncreal import realization

    decide, verdicts = realization._decide, []
    monkeypatch.setattr(realization, "_decide",
                        lambda r, x: verdicts.append(decide(r, x)) or verdicts[-1])
    w = WORKLOADS[name](7, str(tmp_path), tiny=True)
    tracer = bench_trace.Tracer()
    bench_worker.run_rounds(w, 0.0, tracer)
    # _decide's tuple starts with H and ends with the verdict
    blocks = [v[-1].decided_by for v in verdicts if block_graph_depth(v[0]) is not None]
    calls = tracer.metrics(1)["fock.blackbox.calls"]
    assert blocks == ["certificate"] * int(calls) and (calls > 0) == probes
