"""The public surface of ncreal: every name in the ``__all__`` of a module resolves,
and every one of them has a caller outside the tests.

A stale entry would otherwise surface only when a caller runs
``from ncreal.<module> import *``.  A name called by the tests alone is either a
paper statement that a test checks, listed in PAPER_STATEMENTS, or belongs in
``tests/`` as an oracle.
"""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ncreal

MODULES = ["ncreal"] + ["ncreal." + info.name for info in pkgutil.iter_modules(ncreal.__path__)]

ROOT = Path(ncreal.__file__).resolve().parents[2]

# The callers of the public surface: the library's own modules, the benchmark
# and the acceptance criteria.
CALLERS = sorted(p for p in (ROOT / "src" / "ncreal").glob("*.py") if p.name != "__init__.py") \
    + sorted((ROOT / "ncbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]

# Public names that no caller uses, kept because each implements a statement of
# the paper: name -> (the statement, the test that checks it).  The docstring of
# each names that test.
PAPER_STATEMENTS = {
    "ncreal.analysis.recover_similarity": (
        "minimal realizations of one function are similar, by a unique S",
        "tests/test_analysis.py::TestRecoverSimilarity"),
    "ncreal.algebra.desc_to_fm": (
        "the descriptor and FM forms realize the same functions",
        "tests/test_algebra.py::TestConversions::test_desc_to_fm_preserves_transfer"),
}


def test_every_module_is_listed():
    assert {"ncreal.core", "ncreal.linmap", "ncreal.realization", "ncreal.fock"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert missing == [], "%s.__all__ names %s, which it does not define" % (module, missing)


def referenced_names(paths):
    """Every Name, Attribute and imported name in the Python files ``paths``."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_public_name_has_a_caller():
    called = referenced_names(CALLERS)
    uncalled = ["%s.%s" % (module, name) for module in MODULES
                for name in getattr(importlib.import_module(module), "__all__", [])
                if name not in called]
    assert sorted(set(uncalled) - set(PAPER_STATEMENTS)) == [], \
        "public names called only by tests: delete them or move them to tests/"


@pytest.mark.parametrize("name", sorted(PAPER_STATEMENTS))
def test_paper_statement_names_its_test(name):
    module, attr = name.rsplit(".", 1)
    mod = importlib.import_module(module)
    assert attr in mod.__all__
    test = PAPER_STATEMENTS[name][1]
    assert test in " ".join(inspect.getdoc(getattr(mod, attr)).split())
    path, *scope = test.split("::")
    body = ast.parse((ROOT / path).read_text()).body
    for part in scope:   # the test's class, then its function, must exist
        body = next(node for node in body if getattr(node, "name", None) == part).body


def test_import_loads_no_sparse_solver_or_graph_module():
    # both are imported where a sparse pencil or a component analysis needs them, and
    # orjson where a file is written, so that importing ncreal stays cheap
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ncreal.__file__)))
    out = subprocess.run([sys.executable, "-c", "import sys, ncreal; print(sorted(m for m in "
                          "sys.modules if m.startswith(('scipy.sparse.csgraph', "
                          "'scipy.sparse.linalg', 'orjson'))))"],
                         env=env, capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
