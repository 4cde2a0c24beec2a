"""Every name in the ``__all__`` of an ncreal module resolves.

A stale entry would otherwise surface only when a caller runs
``from ncreal.<module> import *``.
"""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import ncreal

MODULES = ["ncreal"] + ["ncreal." + info.name for info in pkgutil.iter_modules(ncreal.__path__)]


def test_every_module_is_listed():
    assert {"ncreal.core", "ncreal.linmap", "ncreal.realization", "ncreal.fock"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert missing == [], "%s.__all__ names %s, which it does not define" % (module, missing)


def test_import_loads_no_sparse_solver_or_graph_module():
    # both are imported where a sparse pencil or a component analysis needs them, and
    # orjson where a file is written, so that importing ncreal stays cheap
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ncreal.__file__)))
    out = subprocess.run([sys.executable, "-c", "import sys, ncreal; print(sorted(m for m in "
                          "sys.modules if m.startswith(('scipy.sparse.csgraph', "
                          "'scipy.sparse.linalg', 'orjson'))))"],
                         env=env, capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
