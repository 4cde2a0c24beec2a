"""The file boundary: a mutated input file ends in exit 2.

Valid files from ``ncreal realize`` and ``ncreal minimize``, a point file, a
Fock file and a constants file are mutated one site at a time: a dropped
key, a value of the wrong JSON type, a list one entry too short or too long,
a NaN or infinite number, a huge dimension.  Each mutated realization goes
through ``eval``, ``equiv``, ``minimize`` and ``certify``, a mutated point
through ``eval``, a mutated Fock file through ``fock`` and a mutated
constants file through ``realize --constants``.  Valid JSON nested 200,000
deep (lists, objects, or both) goes in every JSON argument of every
command, and so does a file with one [re, im] pair set to [true, false].
Every run must exit 2 with one line on standard error and no traceback; a
message about a file names it.
"""

import contextlib
import copy
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncreal.cli import main
from ncreal.core import CentrePoint, MatrixTuple
from ncreal.fock import TruncatedFockVector

HUGE = [10 ** 9, 2 ** 40, 10 ** 18, 2 ** 63]
WRONG_TYPE = {
    int: ["2", None, [2], {"v": 2}, 2.5, True],
    float: ["1.0", None, [1.0], {"re": 1.0}],
    str: [1, None, ["fm"], {"kind": "fm"}],
    list: ["x", None, 3, {"a": 1}],
}


def cli(*argv):
    """Exit code, standard output and standard error of ``ncreal <argv>`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Valid FM and descriptor realization, point, Fock and constants files."""
    root = tmp_path_factory.mktemp("boundary")
    rng = np.random.default_rng(8)
    e12, e21 = np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]])
    CentrePoint([e12, e21]).dump(root / "centre.json")
    (root / "poly.expr").write_text("x1*x2 + x2\n")
    MatrixTuple([c + 0.05 * rng.standard_normal((4, 4)) for c in
                 (np.kron(np.eye(2), e12), np.kron(np.eye(2), e21))], 2).dump(root / "point.json")
    realized = cli("realize", root / "poly.expr", root / "centre.json", "--out", root / "fm.json")
    assert realized[0] == 0
    assert cli("minimize", root / "fm.json", "--out", root / "desc.json")[0] == 0
    TruncatedFockVector(2, 2, 1, {((1,), (2,), ()): 1.0, ((1, 2), (2, 1), (1,)): 0.5j}).dump(
        root / "fock.json")
    assert cli("fock", root / "fock.json", root / "centre.json", "--out", root / "h.json")[0] == 0
    (root / "const.expr").write_text("x1*J + x2\n")
    MatrixTuple([rng.standard_normal((2, 2))], 2).dump(root / "J.json")
    (root / "consts.json").write_text('{"J": %s}' % (root / "J.json").read_text())
    assert cli("realize", root / "const.expr", root / "centre.json", "--constants",
               root / "consts.json", "--out", root / "c.json")[0] == 0
    valid = {name: json.loads((root / (name + ".json")).read_text())
             for name in ("fm", "desc", "point", "fock", "consts")}
    return root, valid


def sites(obj, path=()):
    """Every (path, value) below the root of a JSON object."""
    if isinstance(obj, dict):
        items = obj.items()
    else:
        items = enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from sites(value, path + (key,))


@st.composite
def mutations(draw, obj):
    """A copy of ``obj`` with one site made invalid, and a description of the change."""
    kind = draw(st.sampled_from(["drop", "type", "shape", "nonfinite", "huge"]))
    every = list(sites(obj))
    candidates = {
        # M may be left out of a map whose values are square
        "drop": [p for p, _ in every if isinstance(p[-1], str) and p[-1] != "M"],
        "type": [p for p, v in every if type(v) in WRONG_TYPE],
        # a Fock file with one term fewer is a valid file
        "shape": [p for p, v in every if isinstance(v, list) and v and p != ("terms",)],
        "nonfinite": [p for p, v in every if type(v) in (int, float)],
        "huge": [p for p, v in every if type(v) is int],
    }[kind]
    path = draw(st.sampled_from(candidates))
    out = copy.deepcopy(obj)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    value = parent[path[-1]]
    if kind == "drop":
        del parent[path[-1]]
    elif kind == "type":
        parent[path[-1]] = draw(st.sampled_from(WRONG_TYPE[type(value)]))
    elif kind == "shape":
        if draw(st.booleans()):
            value.pop()
        else:
            value.append(copy.deepcopy(value[-1]))
    elif kind == "nonfinite":
        parent[path[-1]] = draw(st.sampled_from([float("nan"), float("inf"), float("-inf")]))
    else:
        parent[path[-1]] = draw(st.sampled_from(HUGE))
    return out, "%s at %s" % (kind, "/".join(map(str, path)))


def assert_refused(code, out, err, what):
    assert code == 2 and out == "", what
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), what
    assert "Traceback" not in err, what


@pytest.mark.parametrize("form", ["fm", "desc"])
@pytest.mark.parametrize("command", ["eval", "equiv", "minimize", "certify"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_mutated_realization_exits_two(files, form, command, data):
    root, valid = files
    bad, what = data.draw(mutations(valid[form]))
    (root / "bad.json").write_text(json.dumps(bad))
    argv = {
        "eval": ["eval", root / "bad.json", root / "point.json"],
        "equiv": ["equiv", root / "fm.json", root / "bad.json"],
        "minimize": ["minimize", root / "bad.json", "--out", root / "never.json"],
        "certify": ["certify", root / "bad.json"],
    }[command]
    assert_refused(*cli(*argv), what)
    assert not (root / "never.json").exists()


@pytest.mark.parametrize("form", ["fm", "desc"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_point_exits_two(files, form, data):
    root, valid = files
    bad, what = data.draw(mutations(valid["point"]))
    (root / "bad.json").write_text(json.dumps(bad))
    assert_refused(*cli("eval", root / (form + ".json"), root / "bad.json"), what)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_fock_file_exits_two(files, data):
    root, valid = files
    bad, what = data.draw(mutations(valid["fock"]))
    (root / "bad.json").write_text(json.dumps(bad))
    assert_refused(*cli("fock", root / "bad.json", root / "centre.json",
                        "--out", root / "never.json"), what)
    assert not (root / "never.json").exists()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_constants_file_exits_two(files, data):
    root, valid = files
    bad, what = data.draw(mutations(valid["consts"]))
    (root / "bad.json").write_text(json.dumps(bad))
    assert_refused(*cli("realize", root / "const.expr", root / "centre.json", "--constants",
                        root / "bad.json", "--out", root / "never.json"), what)
    assert not (root / "never.json").exists()


@pytest.mark.parametrize("table", [[], "J", 3, None])
def test_constants_file_that_is_not_an_object_exits_two(files, table):
    root, _ = files
    (root / "bad.json").write_text(json.dumps(table))
    assert_refused(*cli("realize", root / "const.expr", root / "centre.json", "--constants",
                        root / "bad.json", "--out", root / "never.json"), repr(table))


@pytest.fixture(scope="module")
def deep(tmp_path_factory):
    """Valid JSON nested 200,000 deep: lists, objects, and lists of objects."""
    root = tmp_path_factory.mktemp("deep")
    paths = []
    for name, (head, core, tail) in {"lists": ("[", "", "]"), "objects": ('{"a":', "1", "}"),
                                     "mixed": ('[{"a":', "1", "}]")}.items():
        paths.append(root / (name + ".json"))
        paths[-1].write_text(head * 200_000 + core + tail * 200_000)
    return paths


DEEP_ARGV = {
    "eval-realization": ["eval", "{deep}", "point.json"],
    "eval-point": ["eval", "fm.json", "{deep}"],
    "equiv": ["equiv", "fm.json", "{deep}"],
    "minimize": ["minimize", "{deep}", "--out", "never.json"],
    "certify": ["certify", "{deep}"],
    "translate-realization": ["translate", "{deep}", "point.json", "--out", "never.json"],
    "translate-point": ["translate", "desc.json", "{deep}", "--out", "never.json"],
    "fock-vector": ["fock", "{deep}", "centre.json", "--out", "never.json"],
    "fock-centre": ["fock", "fock.json", "{deep}", "--out", "never.json"],
    "domain-sample": ["domain-sample", "{deep}"],
    "realize-centre": ["realize", "poly.expr", "{deep}", "--out", "never.json"],
    "realize-constants": ["realize", "const.expr", "centre.json", "--constants", "{deep}",
                          "--out", "never.json"],
}


def with_file(argv, root, path, slot="{deep}"):
    """``argv`` with ``path`` in its slot and the fixture files under ``root``."""
    return [path if a == slot else root / a if a.endswith((".json", ".expr")) else a
            for a in argv]


@pytest.mark.parametrize("argv", list(DEEP_ARGV.values()), ids=list(DEEP_ARGV))
def test_deeply_nested_file_exits_two(files, deep, argv):
    root, _ = files
    for path in deep:
        code, out, err = cli(*with_file(argv, root, path))
        assert_refused(code, out, err, (argv, path.name))
        assert str(path) in err
        assert not (root / "never.json").exists()


def first_pair_to_booleans(obj):
    """``obj`` with its first [re, im] pair of floats, depth first, set to [true, false]
    in place; None when it has no such pair."""
    if isinstance(obj, list) and len(obj) == 2 and all(isinstance(v, float) for v in obj):
        return [True, False]
    if not isinstance(obj, (dict, list)):
        return None
    for key in sorted(obj) if isinstance(obj, dict) else range(len(obj)):
        value = first_pair_to_booleans(obj[key])
        if value is not None:
            obj[key] = value
            return obj
    return None


BOOLEAN_SOURCE = {"eval-realization": "fm", "eval-point": "point", "equiv": "desc",
                  "minimize": "fm", "certify": "desc", "translate-realization": "desc",
                  "translate-point": "point", "fock-vector": "fock", "fock-centre": "centre",
                  "domain-sample": "fm", "realize-centre": "centre",
                  "realize-constants": "consts"}


@pytest.mark.parametrize("argv,source", [(DEEP_ARGV[k], BOOLEAN_SOURCE[k]) for k in DEEP_ARGV],
                         ids=list(DEEP_ARGV))
def test_boolean_entry_exits_two_naming_the_file(files, argv, source):
    # a reader of real numbers would take true and false as 1.0 and 0.0
    root, _ = files
    obj = first_pair_to_booleans(json.loads((root / (source + ".json")).read_text()))
    bad = root / "boolean.json"
    bad.write_text(json.dumps(obj))
    code, out, err = cli(*with_file(argv, root, bad))
    assert_refused(code, out, err, argv)
    assert err == "error: %s: holds true or false; no file format has a boolean\n" % bad
    assert not (root / "never.json").exists()


MALFORMED = [b"", b"{not json", b"\xff\xfe[1]", b"[1, 2", b"\x00", b'{"a": NaN}',
             b'"' + b"[" * 200_000, b'{"a": "\\\\"' + b"[" * 1000 + b"}",
             json.dumps("[" * 200_000).encode()]


@pytest.mark.parametrize("argv", list(DEEP_ARGV.values()), ids=list(DEEP_ARGV))
def test_malformed_bytes_exit_two(files, argv):
    root, _ = files
    bad = root / "malformed.json"
    for content in MALFORMED:
        bad.write_bytes(content)
        code, out, err = cli(*with_file(argv, root, bad))
        assert_refused(code, out, err, (argv, content[:20]))
        assert err.startswith("error: %s: " % bad)
        assert not (root / "never.json").exists()


def test_brackets_inside_a_string_are_not_nesting(files):
    root, valid = files
    padded = dict(valid["fm"], note="[" * 200_000 + "{" * 1000)
    (root / "padded.json").write_text(json.dumps(padded))
    code, out, err = cli("certify", root / "padded.json")
    assert code == 0 and err == ""
    assert json.loads(out)["is_nc_function"] is True


@pytest.mark.parametrize("content,argv,message", [
    ("{not json", ["equiv", "fm.json", "{bad}"], ""),
    ("{not json", ["equiv", "{bad}", "fm.json"], ""),
    ("centre", ["certify", "{bad}"], "realization.kind is missing\n"),
    ("centre", ["fock", "{bad}", "centre.json", "--out", "never.json"],
     "fock vector.L is missing\n"),
    ("fm", ["eval", "fm.json", "{bad}"], "tuple.n is missing\n"),
], ids=["syntax-second", "syntax-first", "centre-as-realization", "centre-as-fock-vector",
        "realization-as-point"])
def test_file_error_names_its_file(files, content, argv, message):
    root, _ = files
    bad = root / "bad.json"
    bad.write_text((root / (content + ".json")).read_text() if content in ("centre", "fm")
                   else content)
    code, out, err = cli(*with_file(argv, root, bad, "{bad}"))
    assert_refused(code, out, err, argv)
    assert err.startswith("error: %s: " % bad) and err.endswith(message)
    assert str(root / "fm.json") not in err


def test_constant_that_is_not_one_matrix_exits_two(files):
    root, _ = files
    MatrixTuple([np.eye(2), 5 * np.eye(2)], 2).dump(root / "J2.json")
    (root / "bad.json").write_text('{"J": %s}' % (root / "J2.json").read_text())
    code, out, err = cli("realize", root / "const.expr", root / "centre.json", "--constants",
                         root / "bad.json", "--out", root / "never.json")
    assert_refused(code, out, err, "J = (I, 5 I)")
    assert err == "error: %s: constants.J must be one matrix (d = 1, m = 1), got d = 2, " \
                  "m = 1\n" % (root / "bad.json")
    assert not (root / "never.json").exists()
