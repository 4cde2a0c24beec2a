"""Dense complex matrices and points of the matrix universe.

Everything downstream manipulates column d-tuples X = (X_1, ..., X_d) of
square complex matrices.  A tuple at level m over centre size n consists of
d matrices of side m*n, read as an m x m grid of n x n blocks (block index
outer, centre index inner, flattened block-row-major).  Functions never
mutate their arguments; component arrays are marked read-only on
construction so tuples can be shared freely across threads.

This module owns the JSON file format of every command: a complex array is
the flat row-major list of its [re, im] pairs, and a file holds one object
with sorted keys (encode_complex, decode_complex, write_json, read_json).

write_json is the one file encoder.  It encodes with orjson, compactly (no
space after ``,`` or ``:``), and spells every double in its shortest form
that reads back to the same bits (``1e-05`` is written ``0.00001``); the
whole file is encoded before its target is opened, so a failed encode leaves
an existing file as it was.  encode_complex refuses non-finite entries,
which orjson would write as ``null``.  Command reports are not files and
keep the standard library's spaced encoding.

read_json is the one file reader, on orjson too.  orjson parses the whole
input before it builds a Python object, and only the build recurses: input
that is not JSON, however deep, raises JSONDecodeError, while valid JSON
nested about 130,000 lists deep overflows an 8 MB C stack and kills the
process.  So read_json first bounds the nesting depth from above, with bytes
operations and one cumsum (_json_depth_bound), and refuses a file whose
bound exceeds MAX_JSON_DEPTH = 64; the file formats nest at most 7 deep.
The same bytes pass keeps the t and f that begin true and false, and
read_json refuses them after the parse: no file format holds a boolean.
tests/test_json_reader.py pins both facts about orjson.  load_json reads a
file and decodes the object in it, with the cyclic garbage collector paused;
a ValueError from either step names the file.
"""

import array
import gc
import math
from itertools import chain

import numpy as np
import scipy.linalg.lapack
import scipy.sparse

__all__ = [
    "ALLOCATION_CAP",
    "MAX_JSON_DEPTH",
    "INVERTIBILITY_RTOL",
    "RANK_RTOL",
    "SingularMatrixError",
    "MatrixTuple",
    "CentrePoint",
    "matrix_units",
    "ampliate",
    "eye_kron",
    "column_norm",
    "apply_similarity",
    "deviation_from_centre",
    "singular_value_range",
    "passes_invertibility",
    "require_invertible",
    "require_nonnegative",
    "require_positive",
    "require_within_cap",
    "graph_depth",
    "invert_checked",
    "solve_refined",
    "encode_complex",
    "decode_complex",
    "json_field",
    "decode_field",
    "write_json",
    "read_json",
    "load_json",
]

# A matrix counts as invertible when sigma_min > INVERTIBILITY_RTOL * max(1, sigma_max).
INVERTIBILITY_RTOL = 1e-12

# Relative rank cutoff used by every orthonormalization / rank decision.
RANK_RTOL = 1e-10

# Most entries a construction whose size grows exponentially may allocate:
# 2^22 complex128 entries are 64 MB.  Checked before the allocation.
ALLOCATION_CAP = 2 ** 22

# Deepest nesting read_json accepts; no file format nests deeper than 7.
MAX_JSON_DEPTH = 64


class SingularMatrixError(np.linalg.LinAlgError):
    """A matrix that had to be inverted failed the invertibility threshold.

    The offending smallest singular value is stored on ``sigma_min``.
    """

    def __init__(self, message, sigma_min=None):
        super().__init__(message)
        self.sigma_min = sigma_min


def _as_complex(a, name="matrix"):
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError("%s must be two-dimensional, got shape %s" % (name, arr.shape))
    if not np.all(np.isfinite(arr)):
        raise ValueError("%s contains non-finite entries" % name)
    return arr


def _stacked(components):
    """The components of a matrix tuple as one new (d, side, side) complex array,
    each checked in turn, so that a fault names the first bad component."""
    comps = [_as_complex(c, "component %d" % (j + 1)) for j, c in enumerate(components)]
    if not comps:
        raise ValueError("a matrix tuple needs at least one component")
    side = comps[0].shape[0]
    for j, c in enumerate(comps):
        if c.shape != (side, side):
            raise ValueError("components disagree in shape: component 1 is %s, component %d "
                             "is %s" % (comps[0].shape, j + 1, c.shape))
    return np.array(comps)


def singular_value_range(m):
    """Smallest and largest singular value of ``m``; (inf, 0) when it is empty."""
    if m.shape[0] == 0 or m.shape[1] == 0:
        return np.inf, 0.0
    s = np.linalg.svd(m, compute_uv=False)
    return float(s[-1]), float(s[0])


def passes_invertibility(smin, smax):
    """The invertibility test: sigma_min > INVERTIBILITY_RTOL * max(1, sigma_max)."""
    return smin > INVERTIBILITY_RTOL * max(1.0, smax)


def require_invertible(m, message):
    """Raise SingularMatrixError(message % sigma_min) unless ``m`` passes the test."""
    smin, smax = singular_value_range(m)
    if not passes_invertibility(smin, smax):
        raise SingularMatrixError(message % smin, sigma_min=smin)


def require_nonnegative(name, value):
    """Raise ValueError unless ``value`` is finite and at least 0."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError("%s must be finite and non-negative, got %r" % (name, value))


def require_positive(name, value):
    """Raise ValueError unless ``value`` is finite and greater than 0."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError("%s must be finite and positive, got %r" % (name, value))


def require_within_cap(entries, what):
    """Raise ValueError when ``entries``, a lower bound on the size of ``what``, exceeds
    ALLOCATION_CAP."""
    if entries > ALLOCATION_CAP:
        raise ValueError("%s would hold at least %d entries, more than the cap of %d"
                         % (what, entries, ALLOCATION_CAP))


def invert_checked(m, what="matrix"):
    """Invert ``m``, raising :class:`SingularMatrixError` below the threshold."""
    m = _as_complex(m, what)
    if m.shape[0] != m.shape[1]:
        raise ValueError("cannot invert non-square %s of shape %s" % (what, m.shape))
    if m.shape[0] == 0:
        return m.copy()
    require_invertible(m, what + " is singular at the working threshold (sigma_min = %.3e)")
    return np.linalg.inv(m)


def solve_refined(m, rhs):
    """Solve m @ z = rhs by LU plus one refinement step.

    A dense ``m`` takes LAPACK's LU with partial pivoting through one
    ``zgetrf`` and a ``zgetrs`` per solve, with none of the wrapper checks of
    ``scipy.linalg.lu_factor``; an exactly zero pivot raises
    :class:`SingularMatrixError`.  A scipy sparse ``m`` (CSC) takes SuperLU
    and stays sparse.
    """
    if m.shape[0] == 0:
        return np.zeros((0, rhs.shape[1]), dtype=np.complex128)
    if scipy.sparse.issparse(m):
        from scipy.sparse.linalg import splu  # imported here: only sparse pencils need it

        solve = splu(m).solve
    else:
        lu, piv, info = scipy.linalg.lapack.zgetrf(m)
        if info > 0:
            raise SingularMatrixError("matrix is exactly singular (zero pivot %d)" % info,
                                      sigma_min=0.0)

        def solve(b):
            return scipy.linalg.lapack.zgetrs(lu, piv, b)[0]
    z = solve(rhs)
    resid = rhs - m @ z
    z += solve(resid)
    return z


def graph_depth(pattern):
    """The number of vertices on a longest path of the directed graph with an edge
    i -> j at every nonzero pattern[i, j], or None when the graph has a cycle.

    ``pattern`` is a square dense or sparse array with nonnegative entries.  The
    depth is the number of rounds in which the graph peels off its sinks; no
    tolerance enters.  At depth K, every product of K matrices whose nonzero
    entries lie on the graph's edges is zero.
    """
    pattern = pattern.astype(np.float64)   # once, not in every round's product
    alive = np.ones(pattern.shape[0])   # 1.0 on the vertices not yet peeled
    left, depth = pattern.shape[0], 0
    while left:
        # a vertex stays while it has an edge to one that stayed: the sinks drop out
        np.greater(pattern @ alive, 0.0, out=alive)
        kept = np.count_nonzero(alive)
        if kept == left:
            return None   # each vertex left has an out-edge among them: a cycle
        left, depth = kept, depth + 1
    return depth


def matrix_units(n):
    """units[p, q] is the matrix unit E_pq of C^{n x n} (0-based p, q)."""
    return np.eye(n * n, dtype=np.complex128).reshape(n, n, n, n)


# ---------------------------------------------------------------------------
# matrix tuples
# ---------------------------------------------------------------------------

class MatrixTuple:
    """A level-m point of the matrix universe over centre size n.

    The components are stored as one read-only (d, side, side) complex array,
    ``array``, checked once on construction; ``components`` is the tuple of its
    d views, so a kernel reads all of them without stacking them again.

    Parameters
    ----------
    components : sequence of array_like, or array_like of shape (d, side, side)
        d square complex matrices, all of side ``base_n * level_m``; copied.
    base_n : int
        Centre size n; the side of each component must be a multiple of it.
    """

    def __init__(self, components, base_n):
        self._store(_stacked(components), base_n)

    @classmethod
    def _of(cls, array, base_n):
        """The tuple stored in ``array``, a checked (d, side, side) complex array that
        the caller gives up: it is made read-only, not copied."""
        x = cls.__new__(cls)
        x._store(array, base_n)
        return x

    def _store(self, array, base_n):
        side = array.shape[1]
        if base_n < 1 or side < 1 or side % base_n != 0:
            raise ValueError("component side %d is not a positive multiple of centre size %d"
                             % (side, base_n))
        array.flags.writeable = False
        self.array = array
        self.components = tuple(array)
        self.base_n = int(base_n)
        self.level_m = side // base_n

    @property
    def d(self):
        return len(self.components)

    @property
    def side(self):
        return self.base_n * self.level_m

    def component(self, j):
        """Component X_j for a 1-based letter j."""
        return self.components[j - 1]

    def __sub__(self, other):
        return self._entrywise(np.subtract, other)

    def __add__(self, other):
        return self._entrywise(np.add, other)

    def _entrywise(self, op, other):
        if not isinstance(other, MatrixTuple):
            return NotImplemented
        if other.d != self.d or other.side != self.side:
            raise ValueError(
                "tuple shapes differ: %s vs %s" % (self._shape_str(), other._shape_str())
            )
        return MatrixTuple(op(self.array, other.array), self.base_n)

    def scaled(self, t):
        return MatrixTuple(t * self.array, self.base_n)

    def rebased(self, base_n):
        """The same matrices read over a different centre size, sharing their array."""
        return MatrixTuple._of(self.array, base_n)

    def _shape_str(self):
        return "(d=%d, n=%d, m=%d)" % (self.d, self.base_n, self.level_m)

    def __repr__(self):
        return "MatrixTuple%s" % self._shape_str()

    # serialization: {"n":…, "m":…, "d":…, "components":[flat row-major [re,im] lists]}
    def to_json(self):
        return {
            "n": self.base_n,
            "m": self.level_m,
            "d": self.d,
            "components": [encode_complex(c) for c in self.components],
        }

    @classmethod
    def from_json(cls, obj, where="tuple"):
        n, m, d = (json_field(obj, key, int, where) for key in ("n", "m", "d"))
        if not n * m:
            raise ValueError("%s.%s must be at least 1, got 0" % (where, "m" if n else "n"))
        flats = json_field(obj, "components", list, where)
        side = n * m
        if len(flats) != d or any(not isinstance(f, list) or len(f) != side * side
                                  for f in flats):
            raise ValueError("%s.components must be %d lists of %d x %d values"
                             % (where, d, side, side))
        comps = decode_complex(list(chain.from_iterable(flats)), (d, side, side),
                               where + ".components")
        if m == 1:
            return CentrePoint(comps)
        return cls(comps, n)

    def dump(self, path):
        write_json(self.to_json(), path)

    @classmethod
    def load(cls, path):
        return load_json(path, cls.from_json)


class CentrePoint(MatrixTuple):
    """A level-1 tuple: the matrix centre Y of a realization."""

    def __init__(self, components, base_n=None):
        side = np.asarray(components[0]).shape[0]
        if base_n is None:
            base_n = side
        if base_n != side:
            raise ValueError("a centre point lives at level 1; got side %d over n = %d"
                             % (side, base_n))
        super().__init__(components, base_n)


def ampliate(y, m):
    """The m-fold block-diagonal repetition I_m (x) Y of a centre point."""
    if m < 1:
        raise ValueError("ampliation order must be at least 1, got %d" % m)
    if y.level_m != 1:
        raise ValueError("ampliate expects a centre point (level 1), got level %d" % y.level_m)
    return MatrixTuple([eye_kron(m, c) for c in y.components], y.base_n)


def eye_kron(m, mat):
    """I_m (x) M: the block-diagonal matrix with m copies of M on its diagonal.

    Equal entry for entry to ``np.kron(np.eye(m), mat)`` (zeros may differ in
    sign), but it only copies M m times instead of multiplying m^2 blocks.
    """
    mat = np.asarray(mat)
    rows, cols = mat.shape
    out = np.zeros((m, rows, m, cols), dtype=np.result_type(mat, np.float64))
    diag = np.arange(m)
    out[diag, :, diag, :] = mat
    return out.reshape(m * rows, m * cols)


def deviation_from_centre(x, y):
    """X - I_m (x) Y as a matrix tuple at the level of X.

    X and Y are checked tuples, so the difference is not checked again, except
    for the one new way to fail: an overflow to a non-finite entry.
    """
    if x.base_n != y.base_n or x.d != y.d or y.level_m != 1:
        raise ValueError(
            "point and centre disagree: %s vs %s" % (x._shape_str(), y._shape_str())
        )
    m, n = x.level_m, x.base_n
    diff = x.array.copy()
    diag = np.arange(m)
    diff.reshape(x.d, m, n, m, n)[:, diag, :, diag, :] -= y.array
    if not np.isfinite(diff).all():
        raise ValueError("X - I_m (x) Y overflows to non-finite entries")
    return MatrixTuple._of(diff, n)


def column_norm(x):
    """Largest singular value of the vertical stack of the components."""
    return float(np.linalg.norm(x.array.reshape(-1, x.side), 2))


def apply_similarity(s, x):
    """Joint similarity S^{-1} X_j S on every component."""
    s = _as_complex(s, "similarity")
    if s.shape != (x.side, x.side):
        raise ValueError(
            "similarity of shape %s does not match tuple side %d" % (s.shape, x.side)
        )
    s_inv = invert_checked(s, "similarity")
    return MatrixTuple([s_inv @ c @ s for c in x.components], x.base_n)


# ---------------------------------------------------------------------------
# the JSON file format
# ---------------------------------------------------------------------------

def encode_complex(a):
    """The flat row-major list of [re, im] pairs of a complex array.

    Raises ValueError when an entry is not finite: no reader accepts it.
    """
    a = np.ascontiguousarray(a, dtype=np.complex128)
    if not np.isfinite(a).all():
        raise ValueError("cannot write an array with non-finite entries")
    return a.view(np.float64).reshape(-1, 2).tolist()


def decode_complex(pairs, shape, where="array"):
    """The complex array of ``shape`` stored as a flat list of [re, im] pairs.

    Raises ValueError, naming the field ``where``, unless ``pairs`` holds
    prod(shape) pairs of finite real numbers.
    """
    k = math.prod(shape)
    if not isinstance(pairs, list) or len(pairs) != k:
        raise ValueError("%s: expected a list of %d [re, im] pairs" % (where, k))
    try:
        lengths = set(map(len, pairs))
        flat = array.array("d", chain.from_iterable(pairs))
    except (TypeError, OverflowError):  # an entry without a length, or not a real number
        lengths = None
    if lengths is None or lengths - {2}:
        raise ValueError("%s: entries must be [re, im] pairs of real numbers" % where)
    if not np.isfinite(np.frombuffer(flat, np.float64)).all():
        raise ValueError("%s: entries must be finite" % where)
    return np.frombuffer(flat, np.complex128).reshape(shape)


_JSON_KINDS = {dict: "a JSON object", list: "a JSON list", str: "a string",
               int: "a non-negative integer"}


def json_field(obj, key, kind, where):
    """``obj[key]`` of the JSON object found at ``where`` in a file.

    ``kind`` is dict, list, str or int (a non-negative integer).  Raises
    ValueError naming the field when ``obj`` is not an object, lacks ``key``
    or holds a value of another kind there.
    """
    if not isinstance(obj, dict):
        raise ValueError("%s must be a JSON object, got %s" % (where, type(obj).__name__))
    if key not in obj:
        raise ValueError("%s.%s is missing" % (where, key))
    value = obj[key]
    if (not isinstance(value, kind) or isinstance(value, bool)
            or (kind is int and value < 0)):
        got = repr(value) if isinstance(value, (int, float)) else type(value).__name__
        raise ValueError("%s.%s must be %s, got %s" % (where, key, _JSON_KINDS[kind], got))
    return value


def decode_field(obj, key, shape, where):
    """:func:`decode_complex` of the field ``obj[key]`` found at ``where``."""
    return decode_complex(json_field(obj, key, list, where), shape, "%s.%s" % (where, key))


def write_json(obj, path):
    """Write ``obj`` to ``path`` as compact JSON with sorted keys."""
    import orjson  # imported here: only files need it, and it adds 0.4 MB of RSS

    data = orjson.dumps(obj, option=orjson.OPT_SORT_KEYS)
    with open(path, "wb") as fh:
        fh.write(data)


_NOT_OUTLINE = bytes(sorted(set(range(256)) - set(b'[]{}"tf')))
_DEPTH_STEP = np.zeros(256, dtype=np.int64)
_DEPTH_STEP[list(b"[{")] = 1
_DEPTH_STEP[list(b"]}")] = -1


def _json_outline(data):
    """The brackets, braces, ``t`` and ``f`` of the JSON text ``data`` (bytes) that lie
    outside its strings.  Outside strings, t and f only begin ``true`` and ``false``.

    Escaped backslashes and quotes go first, then everything but those bytes and
    quotes; the even pieces between quotes are what lies outside strings.
    """
    if b"\\" in data:
        data = data.replace(b"\\\\", b"").replace(b'\\"', b"")
    return b"".join(data.translate(None, _NOT_OUTLINE).split(b'"')[::2])


def _json_depth_bound(outline):
    """An upper bound, at most one too high, on the nesting depth of the JSON text
    whose :func:`_json_outline` is ``outline``; 0 stands for a scalar.

    Empty lists ``[]`` (the [re, im] pairs, once numbers are gone) drop out and
    count as one more level, so the cumsum runs over a few brackets per array.
    """
    steps = _DEPTH_STEP[np.frombuffer(outline.replace(b"[]", b""), dtype=np.uint8)]
    return int(np.cumsum(steps).max(initial=0)) + 1


def read_json(path):
    """The object stored in the JSON file at ``path``.

    Raises ValueError naming the file when it is not JSON, nests deeper than
    MAX_JSON_DEPTH or holds true or false: no file format has a boolean, and
    a reader of real numbers would take them as 1.0 and 0.0.
    """
    import orjson  # imported here: only files need it, and it adds 0.4 MB of RSS

    with open(path, "rb") as fh:
        data = fh.read()
    outline = _json_outline(data)
    if _json_depth_bound(outline) > MAX_JSON_DEPTH:
        raise ValueError("%s: JSON nested too deeply to read" % path)
    try:
        obj = orjson.loads(data)
    except orjson.JSONDecodeError as exc:
        raise ValueError("%s: %s" % (path, exc)) from None
    if b"t" in outline or b"f" in outline:   # valid JSON: they begin true and false
        raise ValueError("%s: holds true or false; no file format has a boolean" % path)
    return obj


def load_json(path, decode):
    """``decode(read_json(path))``; a ValueError from ``decode`` is raised again with
    the file's name in front of its message.

    The cyclic garbage collector is paused for the read and the decode, and
    re-enabled afterwards unless the caller had disabled it.  A file's tree of
    lists and floats would otherwise set off dozens of collections that find
    nothing: orjson's trees are acyclic, so reference counting frees them.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        obj = read_json(path)
        try:
            return decode(obj)
        except ValueError as exc:
            raise ValueError("%s: %s" % (path, exc)) from None
    finally:
        if enabled:
            gc.enable()
