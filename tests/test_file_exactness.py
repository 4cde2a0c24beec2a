"""Files are exact: every double a file writer writes reads back to the same bits.

Realization files (FM and descriptor, dense and CSR maps), point files at
level m > 1 and Fock files are filled with arbitrary finite doubles,
subnormals, -0.0 and +-max among them, and written by their writer.  The
file must read back bitwise-equal through the program's loader and through
the standard library's ``json.loads`` of the written bytes (the reader of
ncbench).  A file in the earlier spaced layout (``json.dumps`` with sorted
keys) must load bitwise-equal to its compact re-save.
"""

import json
import sys

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from ncreal.core import CentrePoint, MatrixTuple, write_json
from ncreal.fock import TruncatedFockVector, fock_basis
from ncreal.linmap import MatrixLinearMap
from ncreal.realization import (DescriptorRealization, FMRealization, load_realization,
                                save_realization)

BIG = sys.float_info.max
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
         BIG, -BIG, 1e-05, 0.1, 1 / 3]
DOUBLES = st.one_of(st.sampled_from(EDGES),
                    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True))


def complex_array(draw, shape):
    k = int(np.prod(shape))
    flat = draw(st.lists(DOUBLES, min_size=2 * k, max_size=2 * k))
    return np.array(flat, dtype=np.float64).view(np.complex128).reshape(shape)


def linear_map(draw, d, n, rows, cols, sparse):
    dense = complex_array(draw, (d, n, n, rows, cols))
    if not sparse:
        return MatrixLinearMap(dense)
    return MatrixLinearMap(scipy.sparse.csr_matrix(dense.reshape(-1, cols)), d, n)


def centre(draw, d, n):
    return CentrePoint(list(complex_array(draw, (d, n, n))))


@st.composite
def descriptors(draw, sparse):
    d, n, rows = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 3))
    return DescriptorRealization(linear_map(draw, d, n, rows, rows, sparse),
                                 complex_array(draw, (rows, n)),
                                 complex_array(draw, (rows, n)), centre(draw, d, n))


@st.composite
def fms(draw, sparse):
    d, n, rows = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 3))
    return FMRealization(linear_map(draw, d, n, rows, rows, sparse),
                         linear_map(draw, d, n, rows, n, sparse),
                         complex_array(draw, (n, rows)), complex_array(draw, (n, n)),
                         centre(draw, d, n))


@st.composite
def points(draw):
    d, n, m = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(2, 3))
    return MatrixTuple(list(complex_array(draw, (d, m * n, m * n))), n)


@st.composite
def fock_vectors(draw):
    n, d, big_l = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(0, 2))
    keys = draw(st.lists(st.sampled_from(fock_basis(n, d, big_l)), min_size=1, unique=True))
    values = complex_array(draw, (len(keys),))
    return TruncatedFockVector(n, d, big_l, dict(zip(keys, values)))


def arrays(obj):
    """The complex arrays a file of ``obj`` stores, in a fixed order."""
    if isinstance(obj, DescriptorRealization):
        return [obj.A.dense(), obj.b, obj.c, obj.Y.array]
    if isinstance(obj, FMRealization):
        return [obj.A.dense(), obj.B.dense(), obj.C, obj.D, obj.Y.array]
    if isinstance(obj, TruncatedFockVector):
        keys = sorted(obj.coeffs)
        return [np.array(keys, dtype=object), np.array([obj.coeffs[k] for k in keys])]
    return [obj.array]


def assert_bitwise_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        if a.dtype == object:
            assert a.tolist() == b.tolist()
        else:
            bits = [np.ascontiguousarray(x, dtype=np.complex128).view(np.uint64)
                    for x in (a, b)]
            assert np.array_equal(*bits)


def leaves(obj):
    """Every scalar below a JSON object, in key order, with its type; floats as bits."""
    if isinstance(obj, dict):
        return [(k, leaf) for k in sorted(obj) for leaf in leaves(obj[k])]
    if isinstance(obj, list):
        return [leaf for item in obj for leaf in leaves(item)]
    if isinstance(obj, float):
        return [(float, np.float64(obj).view(np.uint64))]
    return [(type(obj), obj)]


def save(obj, path):
    if isinstance(obj, (DescriptorRealization, FMRealization)):
        save_realization(obj, path)
    else:
        obj.dump(path)


def load(obj, path):
    if isinstance(obj, (DescriptorRealization, FMRealization)):
        return load_realization(path)
    return type(obj).load(path)


OBJECTS = {
    "descriptor-dense": descriptors(False),
    "descriptor-csr": descriptors(True),
    "fm-dense": fms(False),
    "fm-csr": fms(True),
    "point": points(),
    "fock": fock_vectors(),
}


@pytest.mark.parametrize("kind", sorted(OBJECTS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_file_reads_back_to_the_bit(tmp_path_factory, kind, data):
    obj = data.draw(OBJECTS[kind])
    root = tmp_path_factory.mktemp("exact")
    save(obj, root / "f.json")
    assert_bitwise_equal(arrays(load(obj, root / "f.json")), arrays(obj))
    # the standard library's reader sees every number the writer was given
    assert leaves(json.loads((root / "f.json").read_bytes())) == leaves(obj.to_json())


@pytest.mark.parametrize("kind", sorted(OBJECTS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_spaced_file_loads_equal_to_its_compact_resave(tmp_path_factory, kind, data):
    obj = data.draw(OBJECTS[kind])
    root = tmp_path_factory.mktemp("spaced")
    (root / "spaced.json").write_text(json.dumps(obj.to_json(), sort_keys=True))
    spaced = load(obj, root / "spaced.json")
    save(spaced, root / "compact.json")
    assert b", " not in (root / "compact.json").read_bytes()
    assert_bitwise_equal(arrays(load(obj, root / "compact.json")), arrays(spaced))
    assert_bitwise_equal(arrays(spaced), arrays(obj))


def test_failed_save_leaves_the_old_file_intact(tmp_path):
    r = DescriptorRealization(MatrixLinearMap(np.zeros((1, 1, 1, 2, 2))), np.ones((2, 1)),
                              np.ones((2, 1)), CentrePoint([np.eye(1)]))
    path = tmp_path / "r.json"
    save_realization(r, path)
    old = path.read_bytes()
    c = r.c.copy()
    c[1, 0] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        save_realization(DescriptorRealization(r.A, r.b, c, r.Y), path)
    assert path.read_bytes() == old


def test_failed_encode_leaves_the_old_file_intact(tmp_path):
    path = tmp_path / "f.json"
    path.write_bytes(b'{"kept": 1}')
    with pytest.raises(TypeError):
        write_json({"n": 2 ** 64}, path)
    assert path.read_bytes() == b'{"kept": 1}'
