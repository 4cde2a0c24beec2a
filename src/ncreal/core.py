"""Dense complex matrices, free-monoid words, and points of the matrix universe.

Everything downstream manipulates column d-tuples X = (X_1, ..., X_d) of
square complex matrices.  A tuple at level m over centre size n consists of
d matrices of side m*n, read as an m x m grid of n x n blocks (block index
outer, centre index inner, flattened block-row-major).  Functions never
mutate their arguments; component arrays are marked read-only on
construction so tuples can be shared freely across threads.

This module owns the JSON file format of every command: a complex array is
the flat row-major list of its [re, im] pairs, and a file holds one object
with sorted keys (encode_complex, decode_complex, write_json, read_json).
"""

import array
import json
import math
from itertools import chain

import numpy as np
import scipy.linalg
import scipy.sparse

__all__ = [
    "INVERTIBILITY_RTOL",
    "RANK_RTOL",
    "SingularMatrixError",
    "MatrixTuple",
    "CentrePoint",
    "all_words",
    "word_transpose",
    "matrix_units",
    "direct_sum",
    "ampliate",
    "eye_kron",
    "column_norm",
    "apply_similarity",
    "deviation_from_centre",
    "singular_value_range",
    "passes_invertibility",
    "require_invertible",
    "invert_checked",
    "solve_refined",
    "encode_complex",
    "decode_complex",
    "json_field",
    "decode_field",
    "write_json",
    "read_json",
]

# A matrix counts as invertible when sigma_min > INVERTIBILITY_RTOL * max(1, sigma_max).
INVERTIBILITY_RTOL = 1e-12

# Relative rank cutoff used by every orthonormalization / rank decision.
RANK_RTOL = 1e-10


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
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise ValueError("%s contains non-finite entries" % name)
    return arr


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

    A dense ``m`` takes LAPACK's LU with partial pivoting; a scipy sparse
    ``m`` (CSC) takes SuperLU and stays sparse.
    """
    if m.shape[0] == 0:
        return np.zeros((0, rhs.shape[1]), dtype=np.complex128)
    if scipy.sparse.issparse(m):
        from scipy.sparse.linalg import splu  # imported here: only sparse pencils need it

        solve = splu(m).solve
    else:
        lu_piv = scipy.linalg.lu_factor(m, check_finite=False)

        def solve(b):
            return scipy.linalg.lu_solve(lu_piv, b, check_finite=False)
    z = solve(rhs)
    resid = rhs - m @ z
    z += solve(resid)
    return z


def matrix_units(n):
    """All standard matrix units of C^{n x n} as triples (p, q, E_pq)."""
    units = []
    for p in range(n):
        for q in range(n):
            e = np.zeros((n, n), dtype=np.complex128)
            e[p, q] = 1.0
            units.append((p, q, e))
    return units


# ---------------------------------------------------------------------------
# words of the free monoid on d letters
# ---------------------------------------------------------------------------
# A word is a plain tuple of 1-based letters; the empty tuple is the unit.

def all_words(d, max_len):
    """All words of length 0..max_len, in length-then-lexicographic order."""
    if d < 1:
        raise ValueError("need at least one letter, got d = %d" % d)
    words = [()]
    level = [()]
    for _ in range(max_len):
        level = [w + (j,) for w in level for j in range(1, d + 1)]
        words.extend(level)
    return words


def word_transpose(word):
    return tuple(reversed(word))


# ---------------------------------------------------------------------------
# matrix tuples
# ---------------------------------------------------------------------------

class MatrixTuple:
    """A level-m point of the matrix universe over centre size n.

    Parameters
    ----------
    components : sequence of array_like
        d square complex matrices, all of side ``base_n * level_m``.
    base_n : int
        Centre size n; the side of each component must be a multiple of it.
    """

    def __init__(self, components, base_n):
        comps = [_as_complex(c, "component %d" % (j + 1)) for j, c in enumerate(components)]
        if not comps:
            raise ValueError("a matrix tuple needs at least one component")
        side = comps[0].shape[0]
        for j, c in enumerate(comps):
            if c.shape != (side, side):
                raise ValueError(
                    "components disagree in shape: component 1 is %s, component %d is %s"
                    % (comps[0].shape, j + 1, c.shape)
                )
        if base_n < 1 or side % base_n != 0:
            raise ValueError(
                "component side %d is not a multiple of centre size %d" % (side, base_n)
            )
        for c in comps:
            c.flags.writeable = False
        self.components = tuple(comps)
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

    def block(self, j, k, l):
        """The (k, l) centre-size block of component j (all indices 0-based except j)."""
        n = self.base_n
        return self.components[j - 1][k * n:(k + 1) * n, l * n:(l + 1) * n]

    def __sub__(self, other):
        if not isinstance(other, MatrixTuple):
            return NotImplemented
        if other.d != self.d or other.side != self.side:
            raise ValueError(
                "tuple shapes differ: %s vs %s" % (self._shape_str(), other._shape_str())
            )
        return MatrixTuple(
            [a - b for a, b in zip(self.components, other.components)], self.base_n
        )

    def __add__(self, other):
        if not isinstance(other, MatrixTuple):
            return NotImplemented
        if other.d != self.d or other.side != self.side:
            raise ValueError(
                "tuple shapes differ: %s vs %s" % (self._shape_str(), other._shape_str())
            )
        return MatrixTuple(
            [a + b for a, b in zip(self.components, other.components)], self.base_n
        )

    def scaled(self, t):
        return MatrixTuple([t * c for c in self.components], self.base_n)

    def rebased(self, base_n):
        """The same matrices read over a different centre size."""
        return MatrixTuple(self.components, base_n)

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
        return cls.from_json(read_json(path))


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


def direct_sum(x, z):
    """Componentwise block-diagonal direct sum; levels add."""
    if x.d != z.d or x.base_n != z.base_n:
        raise ValueError(
            "direct sum needs matching centre data: %s vs %s"
            % (x._shape_str(), z._shape_str())
        )
    comps = [scipy.linalg.block_diag(a, b) for a, b in zip(x.components, z.components)]
    return MatrixTuple(comps, x.base_n)


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
    """X - I_m (x) Y as a matrix tuple at the level of X."""
    if x.base_n != y.base_n or x.d != y.d:
        raise ValueError(
            "point and centre disagree: %s vs %s" % (x._shape_str(), y._shape_str())
        )
    return x - ampliate(y, x.level_m)


def column_norm(x):
    """Largest singular value of the vertical stack of the components."""
    return float(np.linalg.norm(np.vstack(x.components), 2))


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
    """The flat row-major list of [re, im] pairs of a complex array."""
    a = np.ascontiguousarray(a, dtype=np.complex128)
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
    """Write ``obj`` to ``path`` as JSON with sorted keys."""
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, sort_keys=True))


def read_json(path):
    """The object stored in the JSON file at ``path``."""
    with open(path) as fh:
        return json.load(fh)
