import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import direct_sum_desc, random_centre, random_descriptor, scaled_by_degree

import ncreal
from ncreal import analysis
from ncreal.analysis import is_minimal
from ncreal.cli import SCHEMA_VERSION, _build_parser, main
from ncreal.algebra import coordinate_fm, fm_to_desc
from ncreal.core import ALLOCATION_CAP, INVERTIBILITY_RTOL, CentrePoint, MatrixTuple
from ncreal.linmap import MatrixLinearMap
from ncreal.realization import (DescriptorRealization, FMRealization, load_realization,
                                save_realization)
from ncreal.fock import TruncatedFockVector


@pytest.fixture
def workdir(tmp_path):
    rng = np.random.default_rng(42)
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    e21 = np.array([[0.0, 0.0], [1.0, 0.0]])
    centre = CentrePoint([e12, e21])
    centre.dump(tmp_path / "centre.json")
    (tmp_path / "comm.expr").write_text("inv(x1*x2 - x2*x1)\n")
    (tmp_path / "poly.expr").write_text("x1*x2 + x2\n")
    point = MatrixTuple(
        [centre.components[j]
         + 0.05 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
         for j in range(2)], 2)
    point.dump(tmp_path / "point.json")
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


class TestRealize:
    def test_commutator_end_to_end(self, workdir, capsys):
        out_file = workdir / "comm.real.json"
        code, out = run(capsys, "realize", workdir / "comm.expr",
                        workdir / "centre.json", "--out", out_file)
        assert code == 0
        report = json.loads(out)
        assert report["schema_version"] == SCHEMA_VERSION
        assert report["state_dimension"] > 0
        assert report["cb_row_norm_bound"] > 0
        assert report["domain_radius_lower_bound"] == \
            pytest.approx(1.0 / report["cb_row_norm_bound"])
        r = load_realization(out_file)
        assert r.n == 2

    def test_undefined_at_centre_exits_two(self, workdir, capsys, tmp_path):
        scalar = CentrePoint([np.array([[0.1]]), np.array([[0.2]])])
        scalar.dump(tmp_path / "scalar.json")
        code, _ = run(capsys, "realize", workdir / "comm.expr",
                      tmp_path / "scalar.json", "--out", tmp_path / "x.json")
        assert code == 2

    def test_empty_expression_exits_two(self, workdir, capsys):
        (workdir / "empty.expr").write_text("   \n")
        code, _ = run(capsys, "realize", workdir / "empty.expr",
                      workdir / "centre.json", "--out", workdir / "never.json")
        assert code == 2

    def test_syntax_error_exits_two(self, workdir, capsys):
        (workdir / "bad.expr").write_text("x1 + )")
        code, _ = run(capsys, "realize", workdir / "bad.expr",
                      workdir / "centre.json", "--out", workdir / "never.json")
        assert code == 2


class TestEval:
    def test_in_domain_point(self, workdir, capsys):
        run(capsys, "realize", workdir / "comm.expr", workdir / "centre.json",
            "--out", workdir / "r.json")
        code, out = run(capsys, "eval", workdir / "r.json", workdir / "point.json")
        assert code == 0
        report = json.loads(out)
        assert report["in_domain"] is True
        assert report["value"]["rows"] == 2

    def test_out_of_domain_exits_three(self, workdir, capsys, tmp_path):
        # 1/(1 - x) style singularity: evaluate inv(1 - x1) at x1 = 1
        y = CentrePoint([np.zeros((1, 1)), np.zeros((1, 1))])
        y.dump(tmp_path / "y.json")
        (tmp_path / "e.expr").write_text("inv(1 - x1)")
        run(capsys, "realize", tmp_path / "e.expr", tmp_path / "y.json",
            "--out", tmp_path / "r.json")
        MatrixTuple([np.array([[1.0]]), np.array([[0.0]])], 1).dump(tmp_path / "p.json")
        code, out = run(capsys, "eval", tmp_path / "r.json", tmp_path / "p.json")
        assert code == 3
        assert json.loads(out)["in_domain"] is False


class TestMinimizeCertifyTranslateEquiv:
    def test_minimize_reports_dimensions(self, workdir, capsys):
        run(capsys, "realize", workdir / "poly.expr", workdir / "centre.json",
            "--out", workdir / "p.json")
        code, out = run(capsys, "minimize", workdir / "p.json",
                        "--out", workdir / "pmin.json")
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"dimension_before", "dimension_after", "moment_match_depth",
                               "moment_match_residual", "moment_match_allowed", "out",
                               "schema_version"}
        assert report["dimension_after"] <= report["dimension_before"]
        assert report["moment_match_residual"] <= report["moment_match_allowed"]
        assert report["moment_match_residual"] < 1e-10

    def test_certify_polynomial(self, workdir, capsys):
        run(capsys, "realize", workdir / "poly.expr", workdir / "centre.json",
            "--out", workdir / "p.json")
        code, out = run(capsys, "certify", workdir / "p.json")
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"minimal", "lac_residual", "is_nc_function",
                               "schema_version"}
        assert report["is_nc_function"] is True
        assert report["lac_residual"] < 1e-9

    def test_certify_reads_minimality_off_the_kalman_pass(self, workdir, capsys):
        run(capsys, "realize", workdir / "poly.expr", workdir / "centre.json",
            "--out", workdir / "p.json")
        run(capsys, "minimize", workdir / "p.json", "--out", workdir / "pmin.json")
        small = load_realization(workdir / "pmin.json")
        padded = direct_sum_desc(small, small)
        save_realization(padded, workdir / "padded.json")
        for path, minimal in (("pmin.json", True), ("padded.json", False)):
            code, out = run(capsys, "certify", workdir / path)
            assert code == 0
            assert json.loads(out)["minimal"] is minimal
            assert is_minimal(load_realization(workdir / path)) is minimal

    def test_translate_and_equiv(self, workdir, capsys):
        run(capsys, "realize", workdir / "poly.expr", workdir / "centre.json",
            "--out", workdir / "p.json")
        code, out = run(capsys, "translate", workdir / "p.json",
                        workdir / "point.json", "--out", workdir / "pt.json")
        assert code == 0
        assert json.loads(out)["centre_size"] == 2
        run(capsys, "minimize", workdir / "p.json", "--out", workdir / "pmin.json")
        code, out = run(capsys, "equiv", workdir / "p.json", workdir / "pmin.json",
                        "--depth", "4")
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"equivalent", "depth", "residual", "allowed",
                               "schema_version"}
        assert report["equivalent"] is True and report["depth"] == 4
        assert report["residual"] <= report["allowed"]
        assert report["residual"] < 1e-10

    @pytest.mark.parametrize("text,after", [("x1 - x1", 0), ("x1*x2 - x1*x2", 0), ("3", 2)])
    def test_zero_and_constant_functions_minimize(self, workdir, capsys, text, after):
        # a zero function keeps no state; the constant 3 (an FM realization with no
        # state) keeps the n = 2 states that carry b* c in descriptor form
        (workdir / "f.expr").write_text(text + "\n")
        run(capsys, "realize", workdir / "f.expr", workdir / "centre.json",
            "--out", workdir / "f.json")
        code, out = run(capsys, "minimize", workdir / "f.json", "--out", workdir / "fmin.json")
        assert code == 0
        report = json.loads(out)
        assert report["dimension_after"] == after
        assert report["moment_match_residual"] <= report["moment_match_allowed"]
        assert load_realization(workdir / "fmin.json").N == after

    def test_translate_refused_above_the_cap_in_one_line(self, workdir, capsys):
        run(capsys, "realize", workdir / "poly.expr", workdir / "centre.json",
            "--out", workdir / "p.json")
        r = fm_to_desc(load_realization(workdir / "p.json"))
        centre = CentrePoint.load(workdir / "centre.json")
        # the translated map holds d (mn)^2 (mN)^2 entries: past the cap at this level
        m = next(m for m in range(1, 64) if r.d * (2 * m * m) ** 2 * r.N ** 2 > ALLOCATION_CAP)
        MatrixTuple([np.kron(np.eye(m), y) for y in centre.components], 2).dump(
            workdir / "far.json")
        code = main(["translate", str(workdir / "p.json"), str(workdir / "far.json"),
                     "--out", str(workdir / "never.json")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: the map translated to level %d " % m)
        assert captured.err.count("\n") == 1
        assert not (workdir / "never.json").exists()


class TestFockCommand:
    def test_build_realization(self, workdir, capsys):
        h = TruncatedFockVector(2, 2, 1, {
            ((1,), (1,), ()): 1.0,
            ((1, 2), (2, 1), (1,)): 0.5 - 0.25j,
        })
        h.dump(workdir / "h.json")
        code, out = run(capsys, "fock", workdir / "h.json", workdir / "centre.json",
                        "--out", workdir / "hreal.json")
        assert code == 0
        report = json.loads(out)
        assert report["state_dimension"] == 2 * 36
        r = load_realization(workdir / "hreal.json")
        assert r.N == 72

    @pytest.mark.parametrize("n,d,L", [(2, 2, 1), (1, 2, 3), (2, 1, 2), (1, 1, 0)])
    def test_file_bytes_equal_the_dilated_dense_path(self, tmp_path, capsys, n, d, L):
        # the file written with c read off the dict in one scatter is the file written
        # with c = scaled_by_degree(h, 1).to_dense(), byte for byte
        from ncreal.fock import fock_basis, fock_realization

        rng = np.random.default_rng([n, d, L, 3])
        random_centre(rng, n, d).dump(tmp_path / "centre.json")
        TruncatedFockVector(n, d, L, {
            idx: complex(*rng.standard_normal(2)) for idx in fock_basis(n, d, L)
            if rng.uniform() < 0.6}).dump(tmp_path / "h.json")
        code, _ = run(capsys, "fock", tmp_path / "h.json", tmp_path / "centre.json",
                      "--out", tmp_path / "got.json")
        h = TruncatedFockVector.load(tmp_path / "h.json")
        y = CentrePoint.load(tmp_path / "centre.json")
        r = fock_realization(h, y)
        c = np.kron(np.eye(n), scaled_by_degree(h, 1.0).to_dense()[:, None])
        save_realization(DescriptorRealization(r.A, r.b, c, y), tmp_path / "want.json")
        assert code == 0
        assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()

    @pytest.mark.parametrize("cap,refused", [(575, "the Fock realization"),
                                             (41471, "a dense copy of the 72 x 72 map")])
    def test_refused_above_the_cap_in_one_line(self, workdir, capsys, monkeypatch, cap,
                                               refused):
        from ncreal import core

        # (n, d, L) = (2, 2, 1): d n^3 fock_dim = 576, the dense map 2*2*2*72*72 = 41472
        TruncatedFockVector(2, 2, 1, {((1,), (1,), ()): 1.0}).dump(workdir / "h.json")
        monkeypatch.setattr(core, "ALLOCATION_CAP", cap)
        code = main(["fock", str(workdir / "h.json"), str(workdir / "centre.json"),
                     "--out", str(workdir / "never.json")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: %s" % refused)
        assert captured.err.count("\n") == 1
        assert "more than the cap of %d" % cap in captured.err
        assert not (workdir / "never.json").exists()

    def test_repeated_term_refused_in_one_line(self, workdir, capsys):
        TruncatedFockVector(2, 2, 1, {((1,), (1,), ()): 1.0}).dump(workdir / "h.json")
        obj = json.loads((workdir / "h.json").read_text())
        obj["terms"] = obj["terms"] * 2
        (workdir / "h.json").write_text(json.dumps(obj))
        code = main(["fock", str(workdir / "h.json"), str(workdir / "centre.json"),
                     "--out", str(workdir / "never.json")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: %s: fock vector.terms[0] and terms[1] repeat"
                                       % (workdir / "h.json"))
        assert captured.err.count("\n") == 1
        assert not (workdir / "never.json").exists()

    def test_huge_degree_refused_at_once(self, tmp_path, capsys):
        # n = d = 1: the dimension is L + 1, so the cap is passed at L = 10^12
        TruncatedFockVector(1, 1, 10 ** 12, {((1,), (1,), ()): 1.0}).dump(tmp_path / "h.json")
        CentrePoint([np.zeros((1, 1))]).dump(tmp_path / "y.json")
        start = time.perf_counter()
        code = main(["fock", str(tmp_path / "h.json"), str(tmp_path / "y.json"),
                     "--out", str(tmp_path / "never.json")])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(
            "error: the Fock realization at (n, d, L) = (1, 1, 1000000000000)")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "never.json").exists()
        assert elapsed < 0.5


class TestDomainSample:
    def test_csv_shape_and_centre_row(self, workdir, capsys):
        run(capsys, "realize", workdir / "poly.expr", workdir / "centre.json",
            "--out", workdir / "p.json")
        code, out = run(capsys, "domain-sample", workdir / "p.json",
                        "--samples", "8", "--seed", "5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "index,scale,in_domain,pencil_sigma_min,pole_order"
        assert len(lines) == 9
        first = lines[1].split(",")
        assert first[2] == "true" and first[4] == "0"  # centre is in the domain

    def test_scalar_singularity_flagged(self, tmp_path, capsys):
        y = CentrePoint([np.zeros((1, 1))])
        y.dump(tmp_path / "y.json")
        (tmp_path / "e.expr").write_text("inv(1 - x1)")
        run(capsys, "realize", tmp_path / "e.expr", tmp_path / "y.json",
            "--out", tmp_path / "r.json")
        MatrixTuple([np.array([[1.0]])], 1).dump(tmp_path / "p.json")
        code, out = run(capsys, "eval", tmp_path / "r.json", tmp_path / "p.json")
        assert code == 3

    @pytest.mark.parametrize("flag", ["--samples", "--seed"])
    def test_negative_count_refused_in_one_line(self, workdir, capsys, flag):
        run(capsys, "realize", workdir / "poly.expr", workdir / "centre.json",
            "--out", workdir / "p.json")
        code = main(["domain-sample", str(workdir / "p.json"), flag, "-3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: %s must be finite and non-negative, got -3\n" % flag

    def test_one_pencil_per_sampled_point(self, workdir, capsys, monkeypatch):
        from ncreal import cli, realization

        run(capsys, "realize", workdir / "poly.expr", workdir / "centre.json",
            "--out", workdir / "p.json")
        calls = []
        real_apply = realization.ampliated_apply

        def counted(*args):
            calls.append(1)
            return real_apply(*args)

        monkeypatch.setattr(realization, "ampliated_apply", counted)
        # every point counts as outside, so each one also takes a pole order
        monkeypatch.setattr(cli, "passes_invertibility", lambda smin, smax: False)
        code, out = run(capsys, "domain-sample", workdir / "p.json",
                        "--samples", "5", "--seed", "3")
        assert code == 0 and len(out.strip().split("\n")) == 6
        assert len(calls) == 5

    def test_pole_order_column_matches_direct_call(self, workdir, capsys):
        from ncreal.realization import pole_order
        from ncreal.algebra import fm_to_desc

        run(capsys, "realize", workdir / "poly.expr", workdir / "centre.json",
            "--out", workdir / "p.json")
        code, out = run(capsys, "domain-sample", workdir / "p.json",
                        "--samples", "6", "--seed", "11")
        lines = out.strip().split("\n")[1:]
        r = fm_to_desc(load_realization(workdir / "p.json"))
        rng = np.random.default_rng(11)
        # regenerate the same sampled points and compare the reported orders
        from ncreal.core import ampliate, column_norm

        y1 = ampliate(r.Y, 1)
        for idx, line in enumerate(lines):
            cells = line.split(",")
            if idx == 0:
                x = y1
            else:
                comps = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                         for _ in range(2)]
                hraw = MatrixTuple(comps, 2)
                hraw = hraw.scaled(1.0 / max(column_norm(hraw), 1e-300))
                scale = float(10.0 ** rng.uniform(-2.0, 1.0))
                x = y1 + hraw.scaled(scale)
            assert int(cells[4]) == pole_order(r, x)


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, workdir, capsys):
        for tag in ("a", "b"):
            code, _ = run(capsys, "realize", workdir / "comm.expr",
                          workdir / "centre.json", "--out", workdir / ("r_%s.json" % tag))
            assert code == 0
        assert (workdir / "r_a.json").read_bytes() == (workdir / "r_b.json").read_bytes()

        run(capsys, "realize", workdir / "poly.expr", workdir / "centre.json",
            "--out", workdir / "p.json")
        outs = []
        for tag in ("a", "b"):
            path = workdir / ("s_%s.csv" % tag)
            code, _ = run(capsys, "domain-sample", workdir / "p.json",
                          "--samples", "12", "--seed", "33", "--out", path)
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_minimize_outputs_identical(self, workdir, capsys):
        run(capsys, "realize", workdir / "poly.expr", workdir / "centre.json",
            "--out", workdir / "p.json")
        blobs = []
        for tag in ("a", "b"):
            path = workdir / ("m_%s.json" % tag)
            code, _ = run(capsys, "minimize", workdir / "p.json", "--out", path)
            assert code == 0
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


def test_each_command_declares_only_the_options_it_reads():
    sub = next(a for a in _build_parser()._actions if a.dest == "command")
    options = {name: sorted(o for a in p._actions if a.dest != "help"
                            for o in a.option_strings)
               for name, p in sub.choices.items()}
    assert options == {
        "realize": ["--constants", "--out"],
        "eval": [],
        "minimize": ["--depth", "--out"],
        "certify": ["--tol"],
        "translate": ["--out"],
        "equiv": ["--depth", "--tol"],
        "fock": ["--out"],
        "domain-sample": ["--out", "--samples", "--seed"],
    }


def test_parser_is_built_once_per_process(workdir, capsys):
    run(capsys, "realize", workdir / "poly.expr", workdir / "centre.json",
        "--out", workdir / "p.json")
    commands = (("eval", workdir / "p.json", workdir / "point.json"),
                ("certify", workdir / "p.json"),
                ("equiv", workdir / "p.json", workdir / "p.json"))
    fresh = []
    for argv in commands:
        _build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    _build_parser.cache_clear()
    assert [run(capsys, *argv) for argv in commands] == fresh
    assert _build_parser.cache_info().misses == 1


class TestSingleSweepAndSvd:
    def test_eval_takes_one_svd_for_flag_and_sigma(self, workdir, capsys, monkeypatch):
        run(capsys, "realize", workdir / "comm.expr", workdir / "centre.json",
            "--out", workdir / "r.json")
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda *a, **k: calls.append(1) or svd(*a, **k))
        code, out = run(capsys, "eval", workdir / "r.json", workdir / "point.json")
        report = json.loads(out)
        assert code == 0 and report["in_domain"] is True
        assert set(report) == {"in_domain", "decided_by", "sigma_min", "sigma_max",
                               "allowed", "value", "schema_version"}
        # the report gives the certificate's margin; no SVD is taken
        assert report["decided_by"] == "certificate"
        assert report["allowed"] == INVERTIBILITY_RTOL * max(1.0, report["sigma_max"])
        assert report["sigma_min"] > report["allowed"]
        assert len(calls) == 0

    def test_eval_reuses_the_kernels_svd(self, tmp_path, capsys, monkeypatch):
        CentrePoint([np.zeros((1, 1))]).dump(tmp_path / "y.json")
        (tmp_path / "e.expr").write_text("inv(1 - x1)")
        run(capsys, "realize", tmp_path / "e.expr", tmp_path / "y.json",
            "--out", tmp_path / "r.json")
        MatrixTuple([np.array([[1.0]])], 1).dump(tmp_path / "p.json")
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda a, *rest, **k: calls.append(np.ndim(a)) or svd(a, *rest, **k))
        code, out = run(capsys, "eval", tmp_path / "r.json", tmp_path / "p.json")
        report = json.loads(out)
        assert code == 3 and report["sigma_min"] < 1e-12
        assert report["decided_by"] == "svd" and report["sigma_min"] <= report["allowed"]
        # the certificate cannot fire; its SVD gives the sigma.  The other SVD is the
        # batched one of the map's units behind its cb bound, read once per map
        assert sorted(calls) == [2, 3]

    def test_minimize_past_the_sweep_budget_builds_no_ladder(self, workdir, capsys,
                                                             monkeypatch):
        run(capsys, "realize", workdir / "poly.expr", workdir / "centre.json",
            "--out", workdir / "p.json")

        def no_ladders(*args):
            raise AssertionError("moment ladders built")

        monkeypatch.setattr(analysis, "_ladders", no_ladders)
        # n = 2, d = 2: a unit sweep would need ladders of 2 * 8^8 columns; the
        # subspace test stays polynomial at any depth
        code, out = run(capsys, "minimize", workdir / "p.json", "--depth", "16",
                        "--out", workdir / "pmin.json")
        assert code == 0
        report = json.loads(out)
        assert report["moment_match_depth"] == 16
        assert report["moment_match_residual"] <= report["moment_match_allowed"]
        assert (workdir / "pmin.json").exists()


@pytest.mark.parametrize("argv,named", [
    (["equiv", "p.json", "p.json", "--depth", "-1"], "depth"),
    (["equiv", "p.json", "p.json", "--tol", "nan"], "tol"),
    (["equiv", "p.json", "p.json", "--tol", "-1"], "tol"),
    (["minimize", "p.json", "--depth", "-1", "--out", "never.json"], "depth"),
    (["certify", "p.json", "--tol", "nan"], "tol"),
    (["certify", "p.json", "--tol", "-0.5"], "tol"),
], ids=["equiv-depth", "equiv-tol-nan", "equiv-tol-negative", "minimize-depth",
        "certify-tol-nan", "certify-tol-negative"])
def test_bad_depth_or_tolerance_exits_two(workdir, capsys, argv, named):
    run(capsys, "realize", workdir / "poly.expr", workdir / "centre.json",
        "--out", workdir / "p.json")
    code = main([str(workdir / a) if a.endswith(".json") else a for a in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: %s must be finite and non-negative, got " % named)
    assert captured.err.count("\n") == 1
    assert not (workdir / "never.json").exists()


BAD_PAIRS = {"string entry": ["1.0", 2.0], "bare number": 1.0, "short pair": [1.0]}


@pytest.mark.parametrize("kind,how", [
    (kind, how) for kind in ("realization", "point", "fock")
    for how in list(BAD_PAIRS) + ["truncated list"]
    if not (kind == "fock" and how == "truncated list")  # a coefficient is one pair
])
def test_malformed_entries_exit_two(workdir, capsys, kind, how):
    run(capsys, "realize", workdir / "poly.expr", workdir / "centre.json",
        "--out", workdir / "p.json")
    TruncatedFockVector(2, 2, 1, {((1,), (1,), ()): 1.0}).dump(workdir / "h.json")
    target, argv = {
        "realization": ("p.json", ["certify", workdir / "p.json"]),
        "point": ("point.json", ["eval", workdir / "p.json", workdir / "point.json"]),
        "fock": ("h.json", ["fock", workdir / "h.json", workdir / "centre.json",
                            "--out", workdir / "never.json"]),
    }[kind]
    obj = json.loads((workdir / target).read_text())
    if kind == "fock":
        obj["terms"][0]["c"] = BAD_PAIRS[how]
    else:
        pairs = obj["A"]["coeffs"][0][0][0] if kind == "realization" else obj["components"][0]
        if how == "truncated list":
            del pairs[-1]
        else:
            pairs[0] = BAD_PAIRS[how]
    (workdir / target).write_text(json.dumps(obj))
    code, out = run(capsys, *argv)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("target,content,named", [
    ("realization", "[1, 2]", "realization must be a JSON object, got list"),
    ("realization", '{"kind": "fm", "A": 5}', "realization.A must be a JSON object, got 5"),
    ("realization", '{"kind": "descriptor"}', "realization.A is missing"),
    ("point", '{"n": 2, "m": 1, "d": "2", "components": []}', "tuple.d must be a non-negative"),
    # NaN is not a JSON number, so the reader refuses the file before any field is read
    ("realization", "nan", None),
], ids=["list", "int-map", "missing-map", "string-dim", "nan-entry"])
def test_malformed_structure_exits_two_naming_the_field(workdir, capsys, target, content,
                                                       named):
    run(capsys, "realize", workdir / "poly.expr", workdir / "centre.json",
        "--out", workdir / "p.json")
    bad = workdir / "bad.json"
    if content == "nan":  # the realization just made, with one NaN coefficient
        obj = json.loads((workdir / "p.json").read_text())
        obj["A"]["coeffs"][0][0][0][0] = [float("nan"), 0.0]
        content = json.dumps(obj)
    bad.write_text(content)
    argv = (["certify", bad] if target == "realization"
            else ["eval", workdir / "p.json", bad])
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: %s: " % bad)
    assert named is None or named in captured.err


@pytest.mark.parametrize("command", ["eval", "translate"])
@pytest.mark.parametrize("field", ["m", "n"])
def test_level_zero_point_exits_two_naming_the_field(workdir, capsys, command, field):
    run(capsys, "realize", workdir / "poly.expr", workdir / "centre.json",
        "--out", workdir / "p.json")
    point = {"n": 2, "m": 1, "d": 2, "components": [[], []]}
    point[field] = 0
    (workdir / "zero.json").write_text(json.dumps(point))
    argv = [command, workdir / "p.json", workdir / "zero.json"]
    if command == "translate":
        argv += ["--out", workdir / "never.json"]
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: %s: tuple.%s must be at least 1, got 0\n" % (
        workdir / "zero.json", field)
    assert not (workdir / "never.json").exists()


def ncreal_process(*argv):
    """``ncreal <argv>`` in a process of its own, where no test harness captures the
    logging module's output, numpy's warnings or what LAPACK prints."""
    env = {k: v for k, v in os.environ.items() if k != "NCREAL_LOG"}
    src = os.path.dirname(os.path.dirname(ncreal.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "ncreal.cli", *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=120)


def test_error_is_one_line_on_stderr_of_the_process(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "fm", "A": 5}')
    proc = ncreal_process("certify", bad)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: %s: realization.A must be a JSON object, got 5\n" % bad


def overflowing_files(root):
    """Files whose arithmetic overflows: a generic n = d = 2, N = 3 descriptor
    realization with A scaled by 1e150, whose Lost-Abbey products overflow; an
    n = d = 1 map with entry 1e300 or 1e308, whose pencil overflows at X = 1e10 or
    at sampled points; an FM coordinate with B scaled by 1e300, whose value
    overflows at X = 1e10 while the pencil, I, is certified."""
    r = random_descriptor(np.random.default_rng(5), 2, 3, 2)
    save_realization(DescriptorRealization(r.A.scaled(1e150), r.b, r.c, r.Y),
                     root / "lac.json")
    zero = CentrePoint([np.zeros((1, 1))])
    for name, entry in (("pencil.json", 1e300), ("sampled.json", 1e308)):
        a = MatrixLinearMap(np.full((1, 1, 1, 1, 1), entry, dtype=complex))
        save_realization(DescriptorRealization(a, np.ones((1, 1)), np.ones((1, 1)), zero),
                         root / name)
    fm = coordinate_fm(1, zero)
    save_realization(FMRealization(fm.A, fm.B.scaled(1e300), fm.C, fm.D, zero),
                     root / "value.json")
    CentrePoint([np.array([[1e10]])]).dump(root / "far.json")


@pytest.mark.parametrize("argv,message", [
    (["certify", "lac.json"], "the Lost-Abbey residual overflows to non-finite entries"),
    (["eval", "pencil.json", "far.json"],
     "the pencil I - A(X - I_m (x) Y) overflows to non-finite entries"),
    (["translate", "pencil.json", "far.json", "--out", "never.json"],
     "the pencil I - A(X - I_m (x) Y) overflows to non-finite entries"),
    (["domain-sample", "sampled.json", "--samples", "3", "--seed", "0"],
     "the pencil I - A(X - I_m (x) Y) overflows to non-finite entries"),
    (["eval", "value.json", "far.json"], "the value at X overflows to non-finite entries"),
], ids=["certify", "eval-pencil", "translate", "domain-sample", "eval-value"])
def test_overflow_exits_two_in_one_line(tmp_path, argv, message):
    # no NaN or inf becomes a verdict, a report or a warning on the way
    overflowing_files(tmp_path)
    proc = ncreal_process(*[tmp_path / a if a.endswith(".json") else a for a in argv])
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: %s\n" % message)
    assert not (tmp_path / "never.json").exists()


class TestFileFormat:
    """Handwritten files in the documented format load exactly and save back as the
    compact canonical text: the same keys, nesting and numbers, without spaces."""

    REALIZATION = (
        '{"A": {"M": 2, "N": 2, "coeffs": [[[[[0.5, -1.0], [0.0, 0.0], [0.1, 2.5], '
        '[-0.0, 1e-300]]]], [[[[3.0, 0.0], [0.0, -0.25], [1.0, 1.0], [7.0, 0.0]]]]], '
        '"d": 2, "n": 1}, "Y": {"components": [[[0.25, 0.0]], [[-1.5, 2.0]]], "d": 2, '
        '"m": 1, "n": 1}, "b": [[1.0, 0.0], [0.0, -0.5]], "c": [[2.0, 0.0], '
        '[0.125, 3.0]], "kind": "descriptor"}'
    )
    FOCK = (
        '{"L": 1, "d": 2, "n": 1, "terms": [{"alpha": [1], "beta": [1], "c": [1.0, 0.0], '
        '"omega": []}, {"alpha": [1, 1], "beta": [1, 1], "c": [0.5, -0.25], '
        '"omega": [2]}]}'
    )
    REALIZATION_SAVED = (
        '{"A":{"M":2,"N":2,"coeffs":[[[[[0.5,-1.0],[0.0,0.0],[0.1,2.5],[-0.0,1e-300]]]],'
        '[[[[3.0,0.0],[0.0,-0.25],[1.0,1.0],[7.0,0.0]]]]],"d":2,"n":1},"Y":{"components":'
        '[[[0.25,0.0]],[[-1.5,2.0]]],"d":2,"m":1,"n":1},"b":[[1.0,0.0],[0.0,-0.5]],"c":'
        '[[2.0,0.0],[0.125,3.0]],"kind":"descriptor"}'
    )
    FOCK_SAVED = (
        '{"L":1,"d":2,"n":1,"terms":[{"alpha":[1],"beta":[1],"c":[1.0,0.0],"omega":[]},'
        '{"alpha":[1,1],"beta":[1,1],"c":[0.5,-0.25],"omega":[2]}]}'
    )

    def test_realization_round_trip(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(self.REALIZATION)
        r = load_realization(path)
        a = r.A.dense()
        assert a.shape == (2, 1, 1, 2, 2)
        assert np.array_equal(a[0, 0, 0], [[0.5 - 1j, 0], [0.1 + 2.5j, complex(-0.0, 1e-300)]])
        assert np.signbit(a[0, 0, 0, 1, 1].real)
        assert np.array_equal(a[1, 0, 0], [[3, -0.25j], [1 + 1j, 7]])
        assert np.array_equal(r.b, [[1], [-0.5j]])
        assert np.array_equal(r.c, [[2], [0.125 + 3j]])
        assert np.array_equal(np.stack(r.Y.components), [[[0.25]], [[-1.5 + 2j]]])
        save_realization(r, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_text() == self.REALIZATION_SAVED

    def test_fock_vector_round_trip(self, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(self.FOCK)
        h = TruncatedFockVector.load(path)
        assert h.coeffs == {((1,), (1,), ()): 1.0, ((1, 1), (1, 1), (2,)): 0.5 - 0.25j}
        h.dump(tmp_path / "again.json")
        assert (tmp_path / "again.json").read_text() == self.FOCK_SAVED
