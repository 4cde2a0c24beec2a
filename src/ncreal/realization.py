"""Descriptor and Fornasini-Marchesini realization values and their calculus.

A descriptor realization about a matrix centre Y of size n is a triple
(A, b, c) with A a :class:`~ncreal.linmap.MatrixLinearMap` into N x N
matrices and b, c complex N x n matrices.  Its quantized transfer at a
level-m point X is

    f(X) = (I_m (x) b*) L_A(X - I_m (x) Y)^{-1} (I_m (x) c),

defined whenever the linear pencil L_A(X - I_m (x) Y) = I - A(X - I_m (x) Y)
passes the invertibility threshold.  FM realizations (A, B, C, D) carry an
affine input coupling instead and evaluate to

    f(X) = I_m (x) D + (I_m (x) C) L_A(...)^{-1} B(X - I_m (x) Y).

One kernel, :func:`evaluate`, evaluates both forms; :func:`in_domain`,
:func:`transfer` and :func:`transfer_fm` are views of it.  It builds
T = sum_j (id_m (x) A_j)(X_j - I_m (x) Y_j) once (sparse for a sparse map)
and decides the invertibility test sigma_min > INVERTIBILITY_RTOL *
max(1, sigma_max) on the pencil I - T in this order:

1. An upper bound q >= ||T||_2, padded for roundoff: the smaller of
   sqrt(||T||_1 ||T||_inf), which costs O(nnz), and, for a dense map only,
   cb_row_norm_bound(A) * column_norm(X - I_m (x) Y), the paper's domain
   radius (the cb bound is computed once per map).
2. Bounds on the singular values of I - T: sigma_max <= 1 + q always.  If T
   is sparse and its sparsity graph is acyclic, T^K = 0 for the K read off
   the graph and sigma_min >= 1 / sum_{k<K} q^k.  Otherwise, if q < 1,
   sigma_min >= 1 - q.
3. The certificate fires when lower > INVERTIBILITY_RTOL * max(1, upper).
   The exact test then passes, so the verdict is the same.
4. Otherwise one dense SVD gives the exact sigma_min and sigma_max, and
   the test is applied to them.

:func:`pencil`, :func:`pencil_sigma` and :func:`pole_order` stay exact; they
are the only paths that take an SVD on purpose.
"""

import math
from collections import namedtuple

import numpy as np
import scipy.sparse

from .core import (
    MatrixTuple,
    SingularMatrixError,
    decode_field,
    deviation_from_centre,
    encode_complex,
    eye_kron,
    json_field,
    passes_invertibility,
    read_json,
    singular_value_range,
    solve_refined,
    write_json,
)
from .linmap import MatrixLinearMap, ampliated_apply, word_apply

__all__ = [
    "DescriptorRealization",
    "FMRealization",
    "pencil",
    "pencil_sigma",
    "Evaluation",
    "evaluate",
    "in_domain",
    "transfer",
    "transfer_fm",
    "moment",
    "series_transfer",
    "pole_order",
    "load_realization",
    "save_realization",
    "check_same_centre",
]

# Singular values below POLE_RANK_RTOL * sigma_max count as zero in the
# rank sequences behind pole_order.
POLE_RANK_RTOL = 1e-10


def _as_state_matrix(m, rows, cols, name):
    arr = np.asarray(m, dtype=np.complex128)
    if arr.shape != (rows, cols):
        raise ValueError("%s must be %d x %d, got %s" % (name, rows, cols, arr.shape))
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


class DescriptorRealization:
    """(A, b, c) about the matrix centre Y."""

    def __init__(self, A, b, c, Y):
        if A.out_rows != A.out_cols:
            raise ValueError("descriptor state maps must be square-valued")
        if Y.base_n != A.n or Y.level_m != 1 or Y.d != A.d:
            raise ValueError("centre does not match the map: n=%d, d=%d vs centre %r"
                             % (A.n, A.d, Y))
        self.A = A
        self.b = _as_state_matrix(b, A.out_rows, A.n, "b")
        self.c = _as_state_matrix(c, A.out_rows, A.n, "c")
        self.Y = Y

    @property
    def N(self):
        return self.A.out_rows

    @property
    def n(self):
        return self.A.n

    @property
    def d(self):
        return self.A.d

    def __repr__(self):
        return "DescriptorRealization(N=%d, n=%d, d=%d)" % (self.N, self.n, self.d)

    def to_json(self):
        return {
            "kind": "descriptor",
            "A": self.A.to_json(),
            "b": encode_complex(self.b),
            "c": encode_complex(self.c),
            "Y": self.Y.to_json(),
        }

    @classmethod
    def from_json(cls, obj, where="realization"):
        a = MatrixLinearMap.from_json(json_field(obj, "A", dict, where), where + ".A")
        shape = (a.out_rows, a.n)
        b = decode_field(obj, "b", shape, where)
        c = decode_field(obj, "c", shape, where)
        return cls(a, b, c, _centre_field(obj, where))


class FMRealization:
    """(A, B, C, D) about the matrix centre Y (Fornasini-Marchesini data)."""

    def __init__(self, A, B, C, D, Y):
        if A.out_rows != A.out_cols:
            raise ValueError("FM state maps must be square-valued")
        if not isinstance(B, MatrixLinearMap):
            raise TypeError("B must be a MatrixLinearMap with n-column values")
        if B.n != A.n or B.d != A.d or B.out_rows != A.out_rows or B.out_cols != A.n:
            raise ValueError("input maps B must send n x n matrices to N x n values")
        if Y.base_n != A.n or Y.level_m != 1 or Y.d != A.d:
            raise ValueError("centre does not match the map")
        self.A = A
        self.B = B
        self.C = _as_state_matrix(C, A.n, A.out_rows, "C")
        self.D = _as_state_matrix(D, A.n, A.n, "D")
        self.Y = Y

    @property
    def N(self):
        return self.A.out_rows

    @property
    def n(self):
        return self.A.n

    @property
    def d(self):
        return self.A.d

    def __repr__(self):
        return "FMRealization(N=%d, n=%d, d=%d)" % (self.N, self.n, self.d)

    def to_json(self):
        return {
            "kind": "fm",
            "A": self.A.to_json(),
            "B": self.B.to_json(),
            "C": encode_complex(self.C),
            "D": encode_complex(self.D),
            "Y": self.Y.to_json(),
        }

    @classmethod
    def from_json(cls, obj, where="realization"):
        a = MatrixLinearMap.from_json(json_field(obj, "A", dict, where), where + ".A")
        bmap = MatrixLinearMap.from_json(json_field(obj, "B", dict, where), where + ".B")
        n, rows = a.n, a.out_rows
        c = decode_field(obj, "C", (n, rows), where)
        dmat = decode_field(obj, "D", (n, n), where)
        return cls(a, bmap, c, dmat, _centre_field(obj, where))


def _centre_field(obj, where):
    return MatrixTuple.from_json(json_field(obj, "Y", dict, where), where + ".Y")


def save_realization(r, path):
    write_json(r.to_json(), path)


def load_realization(path):
    """The descriptor or FM realization stored at ``path``.

    Raises ValueError naming the field when the file does not hold one.
    """
    obj = read_json(path)
    kind = json_field(obj, "kind", str, "realization")
    if kind == "descriptor":
        return DescriptorRealization.from_json(obj)
    if kind == "fm":
        return FMRealization.from_json(obj)
    raise ValueError("unknown realization kind %r" % kind)


def check_same_centre(r1, r2):
    """Raise ValueError unless two realizations share their centre exactly."""
    if r1.n != r2.n or r1.d != r2.d:
        raise ValueError("realizations live over different centre shapes")
    for a, b in zip(r1.Y.components, r2.Y.components):
        if not np.array_equal(a, b):
            raise ValueError("realizations have different centres")


def _ampliated_at(a, r, x):
    """sum_j (id_m (x) a_j)(X_j - I_m (x) Y_j) as a dense array."""
    return _dense(ampliated_apply(a, deviation_from_centre(x, r.Y)))


def _dense(t):
    return t.toarray() if scipy.sparse.issparse(t) else t


def _identity_minus(t):
    """I - t, sparse (CSC, ready for a sparse LU) when t is sparse."""
    if scipy.sparse.issparse(t):
        return (scipy.sparse.identity(t.shape[0], dtype=np.complex128) - t).tocsc()
    return np.eye(t.shape[0], dtype=np.complex128) - t


def pencil(r, x):
    """L_A(X - I_m (x) Y) = I_{mN} - sum_j (id_m (x) A_j)(X_j - I_m (x) Y_j), dense."""
    return _identity_minus(_ampliated_at(r.A, r, x))


def pencil_sigma(r, x):
    """Exact smallest and largest singular value of the pencil at X, by a dense SVD.

    These are the numbers the invertibility test sigma_min >
    INVERTIBILITY_RTOL * max(1, sigma_max) compares, for a sparse pencil
    too.  :func:`in_domain` reaches the same verdict, without this SVD
    whenever its certificate lower > INVERTIBILITY_RTOL * max(1, upper)
    fires (see the module docstring).
    """
    return singular_value_range(pencil(r, x))


# ---------------------------------------------------------------------------
# the evaluation kernel
# ---------------------------------------------------------------------------

Evaluation = namedtuple("Evaluation",
                        ["value", "in_domain", "sigma_min", "sigma_max", "decided_by"])

# Relative slack on every computed bound q >= ||T||_2.  It covers the roundoff
# in the bound itself (on a random 1 x 1 map the cb bound is attained, to
# 1 + 9e-16) and in the SVD whose verdict the certificate stands in for.
_BOUND_PAD = 1e-10

_OUTSIDE = "point lies outside the invertibility domain (pencil sigma_min = %.3e)"


def _one_inf_bound(t):
    """sqrt(||t||_1 ||t||_inf) >= ||t||_2, in O(nnz) for a sparse t."""
    if t.shape[0] == 0:
        return 0.0
    a = abs(t)
    return math.sqrt(float(a.sum(axis=0).max()) * float(a.sum(axis=1).max()))


def _cb_col_bound(a, h):
    """cb_row_norm_bound(A) * column_norm(H) >= ||sum_j (id_m (x) A_j)(H_j)||_2.

    column_norm(H)^2 is the top eigenvalue of sum_j H_j* H_j; no SVD is taken.
    """
    gram = sum(np.conj(c).T @ c for c in h.components)
    col = math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))
    return a.cb_bound * col


def _nilpotency_index(t):
    """The smallest K with T^K = 0 for every matrix of t's sparsity pattern.

    None when the pattern's graph has a cycle: a self-loop, or a strongly
    connected component of more than one vertex.  Otherwise K is one more
    than the longest path.  No tolerance enters.
    """
    from scipy.sparse.csgraph import connected_components  # only sparse maps need it

    pattern = (t != 0).astype(np.float64).tocsr()
    size = t.shape[0]
    if pattern.diagonal().any():
        return None
    components, _ = connected_components(pattern, directed=True, connection="strong")
    if components < size:
        return None
    starts = np.ones(size)   # vertices where a path of index - 1 edges starts
    index = 1
    while True:
        starts = (pattern @ starts != 0).astype(np.float64)
        if not starts.any():
            return index
        index += 1


def _singular_value_bounds(q, index):
    """(lower, upper) bounds on the singular values of I - T, given q >= ||T||_2.

    With T^K = 0, (I - T)^{-1} = sum_{k<K} T^k gives lower = 1 / sum q^k.
    """
    if index is None:
        return 1.0 - q, 1.0 + q
    total = 0.0
    for _ in range(index):
        total = total * q + 1.0
    return 1.0 / total, 1.0 + q


def _certify(a, h, t):
    """Certified (lower, upper) singular value bounds of I - t that pass the
    invertibility test, or None when the bounds at hand cannot prove it."""
    q = _one_inf_bound(t)
    index = _nilpotency_index(t) if a.is_sparse else None
    bounds = _singular_value_bounds(q * (1.0 + _BOUND_PAD), index)
    if not passes_invertibility(*bounds) and not a.is_sparse:
        q = min(q, _cb_col_bound(a, h))
        bounds = _singular_value_bounds(q * (1.0 + _BOUND_PAD), index)
    return bounds if passes_invertibility(*bounds) else None


def _decide(r, x):
    """Build T at X once and decide the invertibility test on I - T.

    Returns (H, T, None, verdict) when the certificate fires, and otherwise
    (H, None, the dense pencil, verdict) after its SVD; the verdict is an
    :class:`Evaluation` without a value.  T is dropped as soon as the
    pencil exists, so it never lives beside the copy an SVD or LU makes.
    """
    h = deviation_from_centre(x, r.Y)
    t = ampliated_apply(r.A, h)
    bounds = _certify(r.A, h, t)
    if bounds is not None:
        return h, t, None, Evaluation(None, True, bounds[0], bounds[1], "certificate")
    p = _identity_minus(_dense(t))
    del t
    smin, smax = singular_value_range(p)
    return h, None, p, Evaluation(None, passes_invertibility(smin, smax), smin, smax, "svd")


def evaluate(r, x):
    """The value of a descriptor or FM realization at X, as an :class:`Evaluation`.

    Builds T = sum_j (id_m (x) A_j)(X_j - I_m (x) Y_j) once, sparse for a
    sparse map, and decides the invertibility test on I - T as the module
    docstring describes.  decided_by is "certificate" when sigma_min and
    sigma_max are the certified bounds, "svd" when they are the exact
    singular values.  Inside the domain the pencil is solved by LU with one
    refinement step (a sparse LU when it is sparse); outside, value is None.
    """
    h, t, p, verdict = _decide(r, x)
    if not verdict.in_domain:
        return verdict
    if p is None:
        p = _identity_minus(t)
        del t
    m = x.level_m
    if isinstance(r, FMRealization):
        sol = solve_refined(p, _dense(ampliated_apply(r.B, h)))
        value = eye_kron(m, r.D) + eye_kron(m, r.C) @ sol
    else:
        sol = solve_refined(p, eye_kron(m, r.c))
        value = eye_kron(m, np.conj(r.b).T) @ sol
    return verdict._replace(value=value)


def in_domain(r, x):
    """Whether the pencil at X passes the invertibility test.

    The test is sigma_min > INVERTIBILITY_RTOL * max(1, sigma_max) on the
    pencil I - T.  First the certificate: with q >= ||T||_2, sigma_max <=
    upper = 1 + q and sigma_min >= lower = 1 / sum_{k<K} q^k (T sparse with
    T^K = 0) or 1 - q (q < 1), and lower > INVERTIBILITY_RTOL * max(1, upper)
    proves the test passes.  Otherwise one dense SVD decides (see the module
    docstring).  Both give the same verdict.  A sparse pencil is held to the same threshold.  A unipotent pencil, such
    as that of a truncated Fock realization, is always invertible, but it is
    not always well conditioned: [[1, t], [0, 1]] has sigma_min =
    1 / sigma_max, and at t = 1e13 it lies outside the domain.
    """
    return _decide(r, x)[3].in_domain


def transfer(r, x):
    """(I_m (x) b*) L_A(X - I_m (x) Y)^{-1} (I_m (x) c), an mn x mn matrix.

    Raises :class:`SingularMatrixError`, carrying the pencil's sigma_min,
    outside the domain.
    """
    e = evaluate(r, x)
    if not e.in_domain:
        raise SingularMatrixError(_OUTSIDE % e.sigma_min, sigma_min=e.sigma_min)
    return e.value


def transfer_fm(r, x):
    """I_m (x) D + (I_m (x) C) L_A(...)^{-1} B(X - I_m (x) Y); see :func:`transfer`."""
    return transfer(r, x)


def moment(r, word, args):
    """The Taylor-Taylor coefficient b* A^w(G_1, ..., G_l) c, an n x n matrix."""
    if len(word) != len(args):
        raise ValueError("word of length %d got %d arguments" % (len(word), len(args)))
    w = word_apply(r.A, word, args)
    return np.conj(r.b).T @ (w @ r.c)


def series_transfer(r, x, terms):
    """Truncated geometric expansion of the transfer through total degree ``terms``.

    Accumulates I + T + ... + T^terms Horner-style for
    T = sum_j (id_m (x) A_j)(X_j - I_m (x) Y_j) and sandwiches it between the
    ampliated b* and c.  No domain condition is required; convergence as
    ``terms`` grows holds when column_norm(X - I_m (x) Y) < 1/||A||_cb.
    """
    t = _ampliated_at(r.A, r, x)
    eye_state = np.eye(t.shape[0], dtype=np.complex128)
    acc = eye_state.copy()
    for _ in range(terms):
        acc = eye_state + t @ acc
    return eye_kron(x.level_m, np.conj(r.b).T) @ acc @ eye_kron(x.level_m, r.c)


def pole_order(r, x):
    """Order of z = 1 as a pole of the resolvent of A(X - I_m (x) Y).

    0 exactly when X lies in the invertibility domain (:func:`in_domain`).
    Otherwise the size of the largest Jordan block of the eigenvalue 1,
    computed as the first k with rank((I - T)^k) = rank((I - T)^{k+1}).
    """
    _, _, m, verdict = _decide(r, x)
    if verdict.in_domain:
        return 0
    size = m.shape[0]
    norm = np.linalg.norm(m, 2)
    if norm == 0.0:
        return 1  # I - T = 0 only when T = I, a diagonalizable pole
    m = m / norm

    def rank_of(mat):
        s = np.linalg.svd(mat, compute_uv=False)
        if s.size == 0 or s[0] == 0.0:
            return 0
        return int(np.count_nonzero(s > POLE_RANK_RTOL * s[0]))

    prev = size  # rank of (I - T)^0
    power = np.eye(size, dtype=np.complex128)
    for k in range(1, size + 2):
        power = power @ m
        nrm = np.linalg.norm(power, 2)
        if nrm > 0:
            power = power / nrm
        cur = rank_of(power)
        if cur == prev:
            return k - 1
        prev = cur
    return size
