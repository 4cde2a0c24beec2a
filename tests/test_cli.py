import json
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_centre

import ncreal
from ncreal import analysis
from ncreal.cli import _build_parser, main
from ncreal.core import CentrePoint, MatrixTuple
from ncreal.realization import load_realization, save_realization
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
        assert report["schema_version"] == "1"
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
        assert report["dimension_after"] <= report["dimension_before"]
        assert report["moment_match_residual"] < 1e-10

    def test_certify_polynomial(self, workdir, capsys):
        run(capsys, "realize", workdir / "poly.expr", workdir / "centre.json",
            "--out", workdir / "p.json")
        code, out = run(capsys, "certify", workdir / "p.json")
        assert code == 0
        report = json.loads(out)
        assert set(report) >= {"minimal", "lac_residual", "is_nc_function",
                               "moment_depth"}
        assert report["is_nc_function"] is True
        assert report["lac_residual"] < 1e-9

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
        assert report["equivalent"] is True
        assert report["max_deviation"] < 1e-10


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
        "certify": ["--depth", "--tol"],
        "translate": ["--out"],
        "equiv": ["--depth", "--tol"],
        "fock": ["--out"],
        "domain-sample": ["--out", "--samples", "--seed"],
    }


class TestSingleSweepAndSvd:
    def test_equiv_sweeps_once(self, workdir, capsys, monkeypatch):
        run(capsys, "realize", workdir / "poly.expr", workdir / "centre.json",
            "--out", workdir / "p.json")
        run(capsys, "minimize", workdir / "p.json", "--out", workdir / "pmin.json")
        calls = []
        ladders = analysis._ladders
        monkeypatch.setattr(analysis, "_ladders",
                            lambda r, half: calls.append(r.N) or ladders(r, half))
        code, out = run(capsys, "equiv", workdir / "p.json", workdir / "pmin.json",
                        "--depth", "4")
        assert code == 0 and json.loads(out)["mode"] == "sweep"
        assert len(calls) == 2  # one ladder pair per realization, one sweep

    def test_eval_takes_one_svd_for_flag_and_sigma(self, workdir, capsys, monkeypatch):
        run(capsys, "realize", workdir / "comm.expr", workdir / "centre.json",
            "--out", workdir / "r.json")
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda *a, **k: calls.append(1) or svd(*a, **k))
        code, out = run(capsys, "eval", workdir / "r.json", workdir / "point.json")
        assert code == 0 and json.loads(out)["in_domain"] is True
        assert len(calls) == 1  # the reported sigma; the kernel certified the solve

    def test_eval_reuses_the_kernels_svd(self, tmp_path, capsys, monkeypatch):
        CentrePoint([np.zeros((1, 1))]).dump(tmp_path / "y.json")
        (tmp_path / "e.expr").write_text("inv(1 - x1)")
        run(capsys, "realize", tmp_path / "e.expr", tmp_path / "y.json",
            "--out", tmp_path / "r.json")
        MatrixTuple([np.array([[1.0]])], 1).dump(tmp_path / "p.json")
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda *a, **k: calls.append(1) or svd(*a, **k))
        code, out = run(capsys, "eval", tmp_path / "r.json", tmp_path / "p.json")
        assert code == 3 and json.loads(out)["pencil_sigma_min"] < 1e-12
        assert len(calls) == 1  # the certificate cannot fire; its SVD gives the sigma

    def test_minimize_refuses_a_depth_past_the_budget(self, workdir, capsys, monkeypatch):
        run(capsys, "realize", workdir / "poly.expr", workdir / "centre.json",
            "--out", workdir / "p.json")

        def no_ladders(*args):
            raise AssertionError("ladders built past the budget")

        monkeypatch.setattr(analysis, "_ladders", no_ladders)
        # n = 2, d = 2: ladders of 2 * 8^8 columns
        code, _ = run(capsys, "minimize", workdir / "p.json", "--depth", "16",
                      "--out", workdir / "never.json")
        assert code == 2
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
    ("realization", "nan", "realization.A.coeffs: entries must be finite"),
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
    assert captured.err.count("\n") == 1 and named in captured.err


def test_error_is_one_line_on_stderr_of_the_process(tmp_path):
    # in a real process, where no test harness captures the logging module's output
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "fm", "A": 5}')
    env = {k: v for k, v in os.environ.items() if k != "NCREAL_LOG"}
    src = os.path.dirname(os.path.dirname(ncreal.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "ncreal.cli", "certify", str(bad)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: realization.A must be a JSON object, got 5\n"


class TestFileFormat:
    """Handwritten files in the documented format load exactly and save back verbatim."""

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
        assert (tmp_path / "again.json").read_text() == self.REALIZATION

    def test_fock_vector_round_trip(self, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(self.FOCK)
        h = TruncatedFockVector.load(path)
        assert h.coeffs == {((1,), (1,), ()): 1.0, ((1, 1), (1, 1), (2,)): 0.5 - 0.25j}
        h.dump(tmp_path / "again.json")
        assert (tmp_path / "again.json").read_text() == self.FOCK
