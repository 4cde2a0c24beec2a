"""The benchmark in ``ncbench/`` imports ncreal names; each of them must exist.

A removal that would break the benchmark then fails here first.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

NCBENCH = Path(__file__).resolve().parent.parent / "ncbench"


def ncreal_imports():
    """(file, module, name) for every ``from ncreal... import name`` in ncbench/*.py."""
    out = []
    for path in sorted(NCBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and \
                    (node.module or "").split(".")[0] == "ncreal":
                out += [(path.name, node.module, alias.name) for alias in node.names]
    return out


def test_ncbench_imports_some_ncreal_names():
    names = {name for _, _, name in ncreal_imports()}
    assert {"is_minimal", "kalman_minimize", "pencil_sigma", "transfer_fm",
            "max_moment_deviation"} <= names


@pytest.mark.parametrize("source,module,name", ncreal_imports())
def test_ncbench_import_resolves(source, module, name):
    mod = importlib.import_module(module)
    # a name is an attribute of the module or one of its submodules (ncreal.cli)
    assert hasattr(mod, name) or \
        importlib.util.find_spec("%s.%s" % (module, name)) is not None, \
        "%s imports %s from %s, which does not define it" % (source, name, module)
