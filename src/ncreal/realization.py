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
"""

import numpy as np
import scipy.sparse

from .core import (
    MatrixTuple,
    decode_complex,
    deviation_from_centre,
    encode_complex,
    passes_invertibility,
    read_json,
    require_invertible,
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
    def from_json(cls, obj):
        a = MatrixLinearMap.from_json(obj["A"])
        shape = (a.out_rows, a.n)
        b = decode_complex(obj["b"], shape)
        c = decode_complex(obj["c"], shape)
        return cls(a, b, c, MatrixTuple.from_json(obj["Y"]))


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
    def from_json(cls, obj):
        a = MatrixLinearMap.from_json(obj["A"])
        bmap = MatrixLinearMap.from_json(obj["B"])
        n, rows = a.n, a.out_rows
        c = decode_complex(obj["C"], (n, rows))
        dmat = decode_complex(obj["D"], (n, n))
        return cls(a, bmap, c, dmat, MatrixTuple.from_json(obj["Y"]))


def save_realization(r, path):
    write_json(r.to_json(), path)


def load_realization(path):
    obj = read_json(path)
    if obj.get("kind") == "descriptor":
        return DescriptorRealization.from_json(obj)
    if obj.get("kind") == "fm":
        return FMRealization.from_json(obj)
    raise ValueError("unknown realization kind %r" % obj.get("kind"))


def check_same_centre(r1, r2):
    """Raise ValueError unless two realizations share their centre exactly."""
    if r1.n != r2.n or r1.d != r2.d:
        raise ValueError("realizations live over different centre shapes")
    for a, b in zip(r1.Y.components, r2.Y.components):
        if not np.array_equal(a, b):
            raise ValueError("realizations have different centres")


def _ampliated_at(a, r, x):
    """sum_j (id_m (x) a_j)(X_j - I_m (x) Y_j) as a dense array."""
    t = ampliated_apply(a, deviation_from_centre(x, r.Y))
    return t.toarray() if scipy.sparse.issparse(t) else t


def pencil(r, x):
    """L_A(X - I_m (x) Y) = I_{mN} - sum_j (id_m (x) A_j)(X_j - I_m (x) Y_j)."""
    t = _ampliated_at(r.A, r, x)
    return np.eye(t.shape[0], dtype=np.complex128) - t


def pencil_sigma(r, x):
    """Smallest and largest singular value of the pencil at X."""
    return singular_value_range(pencil(r, x))


def in_domain(r, x):
    """Whether the pencil at X passes the invertibility threshold."""
    return passes_invertibility(*pencil_sigma(r, x))


def _solve_pencil(r, x, rhs):
    p = pencil(r, x)
    require_invertible(p, "point lies outside the invertibility domain "
                          "(pencil sigma_min = %.3e)")
    return solve_refined(p, rhs)


def transfer(r, x):
    """(I_m (x) b*) L_A(X - I_m (x) Y)^{-1} (I_m (x) c), an mn x mn matrix."""
    m = x.level_m
    eye = np.eye(m)
    amp_c = np.kron(eye, r.c)
    sol = _solve_pencil(r, x, amp_c)
    return np.kron(eye, np.conj(r.b).T) @ sol


def transfer_fm(r, x):
    """I_m (x) D + (I_m (x) C) L_A(...)^{-1} B(X - I_m (x) Y)."""
    sol = _solve_pencil(r, x, _ampliated_at(r.B, r, x))
    eye = np.eye(x.level_m)
    return np.kron(eye, r.D) + np.kron(eye, r.C) @ sol


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
    eye = np.eye(x.level_m)
    return np.kron(eye, np.conj(r.b).T) @ acc @ np.kron(eye, r.c)


def pole_order(r, x):
    """Order of z = 1 as a pole of the resolvent of A(X - I_m (x) Y).

    Equals the size of the largest Jordan block of the eigenvalue 1,
    computed as the first k with rank((I - T)^k) = rank((I - T)^{k+1});
    0 exactly when X lies in the invertibility domain.
    """
    m = pencil(r, x)
    size = m.shape[0]
    if size == 0:
        return 0
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
