"""The file reader: orjson behind a bound on the nesting depth.

orjson parses the whole input before it builds an object, and only the
build recurses, so only valid JSON can overflow the C stack.  read_json
refuses a file whose depth bound exceeds MAX_JSON_DEPTH; the bound must
never read below the true depth, and it may read one above it.  The two
facts about orjson that make this enough are pinned here in child
processes, so that an orjson upgrade that breaks either fails these tests
instead of crashing a command.  load_json pauses the cyclic collector while
it reads and decodes, and gives it back as it found it.
"""

import gc
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncreal
from ncreal.core import MAX_JSON_DEPTH, _json_depth_bound, _json_outline, read_json

TRICKY = st.text(alphabet='[]{}"\\ab\n', max_size=8)
VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 63, 2 ** 63 - 1)
    | st.floats(allow_nan=False, allow_infinity=False) | TRICKY,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TRICKY, inner, max_size=4),
    max_leaves=30,
)


def depth(value):
    """Nesting depth of a JSON value: 0 for a scalar, 1 + the deepest child for a
    list or an object."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return 1 + max(map(depth, value), default=0)
    return 0


def child(script, *args):
    """Run ``script`` in a fresh interpreter that imports this checkout's ncreal."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ncreal.__file__)))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(script), *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120)


@settings(max_examples=300, deadline=None)
@given(value=VALUES, nest=st.integers(0, 3))
def test_depth_bound_is_the_depth_or_one_more(value, nest):
    for _ in range(nest):
        value = [value, {"[": value}]
    true = depth(value)
    for data in (json.dumps(value).encode(), orjson.dumps(value)):
        assert true <= _json_depth_bound(_json_outline(data)) <= true + 1, data


@pytest.mark.parametrize("head,core,tail", [("[", "", "]"), ('{"a":', "1", "}"),
                                            ('[{"a":', "1", "}]")],
                         ids=["lists", "objects", "mixed"])
def test_refused_just_above_the_limit(tmp_path, head, core, tail):
    path = tmp_path / "deep.json"
    deeper = MAX_JSON_DEPTH + 1
    path.write_text(head * deeper + core + tail * deeper)
    with pytest.raises(ValueError, match="^%s: JSON nested too deeply to read$" % path):
        read_json(path)


def test_syntax_error_names_the_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"a": [1.0, NaN]}')
    with pytest.raises(ValueError, match="^%s: " % path):
        read_json(path)


def test_orjson_refuses_deep_invalid_input_without_a_signal():
    proc = child("""
        import orjson
        for data in (b"[" * 300_000, b"[" * 300_000 + b"x", b'{"a":' * 300_000,
                     b"[" * 300_000 + b"]" * 299_999):
            try:
                orjson.loads(data)
                print("loaded")
            except orjson.JSONDecodeError:
                print("refused")
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["refused"] * 4


def test_json_at_the_limit_loads_in_a_small_thread_stack(tmp_path):
    # lists of objects, with the innermost list holding a number: the bound reads
    # exactly the limit, which the true depth also reaches
    half = MAX_JSON_DEPTH // 2 - 1
    data = ('[{"a":' * half + '{"a":[1]}' + "}]" * half).encode()
    assert depth(json.loads(data)) == _json_depth_bound(_json_outline(data)) == MAX_JSON_DEPTH
    path = tmp_path / "limit.json"
    path.write_bytes(data)
    proc = child("""
        import sys, threading
        from ncreal.core import read_json
        threading.stack_size(256 * 1024)
        loaded = []
        thread = threading.Thread(target=lambda: loaded.append(read_json(sys.argv[1])))
        thread.start()
        thread.join(60)
        print(len(loaded))
    """, path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


@pytest.fixture
def large_realization_file(tmp_path):
    """A descriptor realization file of at least 100 KB: tens of thousands of lists."""
    from conftest import random_descriptor

    from ncreal.realization import save_realization

    path = tmp_path / "large.json"
    save_realization(random_descriptor(np.random.default_rng(0), 2, 20, 2), path)
    assert path.stat().st_size >= 100_000
    return path


@pytest.fixture
def collections():
    """The generations of the cyclic collector's passes, as gc.callbacks sees them."""
    seen = []

    def count(phase, info):
        if phase == "start":
            seen.append(info["generation"])

    gc.callbacks.append(count)
    yield seen
    gc.callbacks.remove(count)


def test_load_takes_no_collector_pass(large_realization_file, collections):
    from ncreal.realization import load_realization

    assert gc.isenabled()
    for _ in range(3):
        load_realization(large_realization_file)
    assert collections == []
    assert gc.isenabled()


def test_collector_is_enabled_again_after_a_failed_load(tmp_path, large_realization_file):
    from ncreal.realization import load_realization

    bad = tmp_path / "bad.json"
    bad.write_bytes(large_realization_file.read_bytes().replace(b'"kind":"descriptor"',
                                                                  b'"kind":"other"'))
    with pytest.raises(ValueError, match="^%s: " % bad):
        load_realization(bad)
    assert gc.isenabled()
    bad.write_bytes(b'{"kind": ')
    with pytest.raises(ValueError, match="^%s: " % bad):
        load_realization(bad)
    assert gc.isenabled()


def test_collector_stays_disabled_when_the_caller_disabled_it(large_realization_file):
    from ncreal.realization import load_realization

    gc.disable()
    try:
        load_realization(large_realization_file)
        assert not gc.isenabled()
    finally:
        gc.enable()
