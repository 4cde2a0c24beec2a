"""The coefficient tuple A = (A_1, ..., A_d) of linear maps on n x n matrices.

Each A_j maps C^{n x n} linearly into N x M complex matrices (M = N for the
pencil maps of descriptor realizations, M = n for the input maps of
Fornasini-Marchesini ones).  Storage is Choi-style: the value on every
standard matrix unit is kept, so that

    A_j(G) = sum_{p,q} G[p, q] * A_j(E_pq).

Desk-scale maps keep one dense tensor of shape (d, n, n, N, M).  The Fock
construction produces much larger state spaces and stores one sparse matrix
per (j, p, q) instead; the accessors hide the difference.

The level-m ampliation sum_j (id_m (x) A_j)(X_j), from which every pencil
and every FM input is built, is the contraction T^{(k,l)} = sum_{j,p,q}
X_j^{(k,l)}[p, q] A_j(E_pq): one matrix product for a dense map (see
:func:`ampliated_apply`), one Kronecker product per unit for a sparse one.
"""

from functools import cached_property
from itertools import chain

import numpy as np
import scipy.sparse

from .core import MatrixTuple, decode_complex, encode_complex, json_field

__all__ = [
    "MatrixLinearMap",
    "apply",
    "ampliated_apply",
    "word_apply",
    "adjoint_word_apply",
    "cb_row_norm_bound",
]


def _is_sparse(m):
    return scipy.sparse.issparse(m)


class MatrixLinearMap:
    """Row d-tuple of linear maps C^{n x n} -> C^{N x M}, stored coefficient-wise.

    Parameters
    ----------
    coeffs : ndarray or nested sequence
        Either a dense complex tensor of shape (d, n, n, N, M) with
        ``coeffs[j-1, p, q] = A_j(E_pq)``, or a nested list (d lists of n
        lists of n entries) whose entries are N x M scipy sparse matrices.
    """

    def __init__(self, coeffs):
        if isinstance(coeffs, np.ndarray):
            if coeffs.ndim != 5:
                raise ValueError("dense coefficient tensor must have 5 axes, got %d"
                                 % coeffs.ndim)
            if coeffs.shape[1] != coeffs.shape[2]:
                raise ValueError("argument axes must be square, got shape %s"
                                 % (coeffs.shape,))
            self._dense = np.ascontiguousarray(coeffs, dtype=np.complex128)
            self._dense.flags.writeable = False
            self._units = None
            d, n, _, rows, cols = coeffs.shape
        else:
            units = [[[scipy.sparse.csr_matrix(m) for m in row] for row in comp]
                     for comp in coeffs]
            d = len(units)
            n = len(units[0])
            rows, cols = units[0][0][0].shape
            for comp in units:
                if len(comp) != n or any(len(row) != n for row in comp):
                    raise ValueError("coefficient table must be d x n x n")
                for row in comp:
                    for m in row:
                        if m.shape != (rows, cols):
                            raise ValueError("all coefficient matrices must share shape %s"
                                             % ((rows, cols),))
            self._dense = None
            self._units = units
        self.d = d
        self.n = n
        self.out_rows = rows
        self.out_cols = cols

    @property
    def is_sparse(self):
        return self._units is not None

    @property
    def N(self):
        return self.out_rows

    @cached_property
    def cb_bound(self):
        """:func:`cb_row_norm_bound` of this map, computed on first use and kept."""
        return cb_row_norm_bound(self)

    @classmethod
    def zeros(cls, d, n, rows, cols=None):
        if cols is None:
            cols = rows
        return cls(np.zeros((d, n, n, rows, cols), dtype=np.complex128))

    def unit(self, j, p, q):
        """A_j(E_pq) for a 1-based letter j and 0-based entry indices p, q."""
        if self._dense is not None:
            return self._dense[j - 1, p, q]
        return self._units[j - 1][p][q]

    def iter_units(self):
        """Yield ((j, p, q), A_j(E_pq)) over all letters and matrix units."""
        for j in range(1, self.d + 1):
            for p in range(self.n):
                for q in range(self.n):
                    yield (j, p, q), self.unit(j, p, q)

    def apply(self, j, g):
        g = np.asarray(g, dtype=np.complex128)
        if g.shape != (self.n, self.n):
            raise ValueError("argument must be %d x %d, got %s" % (self.n, self.n, g.shape))
        if self._dense is not None:
            return np.einsum("pq,pqrs->rs", g, self._dense[j - 1])
        acc = scipy.sparse.csr_matrix((self.out_rows, self.out_cols), dtype=np.complex128)
        for p in range(self.n):
            for q in range(self.n):
                z = g[p, q]
                if z != 0:
                    acc = acc + z * self._units[j - 1][p][q]
        return acc

    def dense(self):
        """Materialize the coefficient tensor densely."""
        if self._dense is not None:
            return self._dense
        out = np.empty((self.d, self.n, self.n, self.out_rows, self.out_cols),
                       dtype=np.complex128)
        for (j, p, q), m in self.iter_units():
            out[j - 1, p, q] = m.toarray()
        return out

    def scaled(self, t):
        if self._dense is not None:
            return MatrixLinearMap(t * self._dense)
        return MatrixLinearMap(
            [[[t * m for m in row] for row in comp] for comp in self._units]
        )

    def __repr__(self):
        kind = "sparse" if self.is_sparse else "dense"
        return "MatrixLinearMap(d=%d, n=%d, out=%dx%d, %s)" % (
            self.d, self.n, self.out_rows, self.out_cols, kind)

    # serialization: {"n":…, "N":…, "d":…, "coeffs": j-major, then p,q row-major,
    # each value a flat row-major list of [re, im] pairs}
    def to_json(self):
        return {
            "n": self.n,
            "N": self.out_rows,
            "M": self.out_cols,
            "d": self.d,
            "coeffs": [[[encode_complex(u) for u in row] for row in comp]
                       for comp in self.dense()],
        }

    @classmethod
    def from_json(cls, obj, where="map"):
        d, n, rows = (json_field(obj, key, int, where) for key in ("d", "n", "N"))
        cols = json_field(obj, "M", int, where) if "M" in obj else rows
        table = json_field(obj, "coeffs", list, where)
        flats = [flat for comp in table if isinstance(comp, list) and len(comp) == n
                 for row in comp if isinstance(row, list) and len(row) == n
                 for flat in row]
        if len(table) != d or len(flats) != d * n * n or any(
                not isinstance(flat, list) or len(flat) != rows * cols for flat in flats):
            raise ValueError("%s.coeffs must be a d x n x n = %d x %d x %d table of "
                             "%d x %d values" % (where, d, n, n, rows, cols))
        # one decode for the whole table: the lengths above keep the entries aligned
        return cls(decode_complex(list(chain.from_iterable(flats)), (d, n, n, rows, cols),
                                  where + ".coeffs"))


def apply(a, j, g):
    """A_j(G) = sum_{p,q} G[p,q] A_j(E_pq); sparse maps return sparse results."""
    return a.apply(j, g)


def ampliated_apply(a, x):
    """The m-fold ampliation sum_j (id_m (x) A_j)(X_j) on C^m (x) C^N.

    ``x`` is a :class:`~ncreal.core.MatrixTuple` with base size equal to the
    map's n; the result is the m x m block matrix whose (k, l) block is
    sum_j A_j(X_j^{(k,l)}).  Dense maps return a dense array, sparse maps a
    sparse one.

    A dense map contracts over (j, p, q) in one BLAS product: the (m m) x
    (d n n) matrix of entries X_j^{(k,l)}[p, q] times the tensor viewed as a
    (d n n) x (N M) matrix, copied from (k, l) x (r, s) into (k, r) x (l, s)
    order.  An all-zero block X^{(k,l)} gives an exactly zero block; the last
    bits depend on the BLAS build.
    """
    if not isinstance(x, MatrixTuple):
        raise TypeError("expected a MatrixTuple")
    if x.base_n != a.n or x.d != a.d:
        raise ValueError(
            "tuple over centre size %d with %d components does not match map (n=%d, d=%d)"
            % (x.base_n, x.d, a.n, a.d)
        )
    m, n = x.level_m, a.n
    if a.is_sparse:
        acc = None
        for (j, p, q), u in a.iter_units():
            scal = x.components[j - 1][p::n, q::n]  # (k,l) -> X_j^{(k,l)}[p,q]
            piece = scipy.sparse.kron(scipy.sparse.csr_matrix(scal), u, format="csr")
            acc = piece if acc is None else acc + piece
        return acc
    units = a.d * n * n
    # rows (k, l), columns (j, p, q): entry X_j^{(k,l)}[p, q]
    blocks = np.stack(x.components).reshape(a.d, m, n, m, n).transpose(1, 3, 0, 2, 4)
    prod = blocks.reshape(m * m, units) @ a._dense.reshape(units, a.out_rows * a.out_cols)
    prod = prod.reshape(m, m, a.out_rows, a.out_cols).transpose(0, 2, 1, 3)
    return prod.reshape(m * a.out_rows, m * a.out_cols)


def word_apply(a, word, args):
    """The ordered product A_{i_1}(G_1) ... A_{i_l}(G_l); empty word gives I_N."""
    if a.out_rows != a.out_cols:
        raise ValueError("word products need square-valued maps")
    if len(word) != len(args):
        raise ValueError("word of length %d got %d arguments" % (len(word), len(args)))
    if not word:
        return np.eye(a.out_rows, dtype=np.complex128)
    prod = a.apply(word[0], args[0])
    for letter, g in zip(word[1:], args[1:]):
        prod = prod @ a.apply(letter, g)
    return prod


def adjoint_word_apply(a, word, args):
    """A_{i_l}(G_l^*)^* ... A_{i_1}(G_1^*)^*; empty word gives I_N."""
    if a.out_rows != a.out_cols:
        raise ValueError("word products need square-valued maps")
    if len(word) != len(args):
        raise ValueError("word of length %d got %d arguments" % (len(word), len(args)))
    prod = np.eye(a.out_rows, dtype=np.complex128)
    for letter, g in zip(word, args):
        factor = a.apply(letter, np.conj(np.asarray(g)).T)
        if _is_sparse(factor):
            factor = factor.toarray()
        prod = np.conj(factor).T @ prod
    return prod


def _psd_sqrt(h):
    w, v = np.linalg.eigh(h)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ np.conj(v).T


def cb_row_norm_bound(a):
    """A computable upper bound on the completely bounded row norm of A.

    Writing A_j(G) = sum_{p,q} V_jpq (G (x) I) W_jpq with balanced Kraus
    factors obtained from the polar decomposition of each coefficient, the
    bound is ||sum V V*||^{1/2} ||sum W* W||^{1/2}, i.e.

        r = || sum_jpq (B B*)^{1/2} ||^{1/2} * || sum_jpq (B* B)^{1/2} ||^{1/2}

    over the coefficients B = A_j(E_pq).  Whenever a level-m tuple H has
    column norm below 1/r, the ampliated image sum_j (id_m (x) A_j)(H_j) has
    operator norm (hence spectral radius) below 1.
    """
    left = np.zeros((a.out_rows, a.out_rows), dtype=np.complex128)
    right = np.zeros((a.out_cols, a.out_cols), dtype=np.complex128)
    for _, u in a.iter_units():
        if _is_sparse(u):
            u = u.toarray()
        left += _psd_sqrt(u @ np.conj(u).T)
        right += _psd_sqrt(np.conj(u).T @ u)
    lam_left = float(np.linalg.norm(left, 2)) if left.size else 0.0
    lam_right = float(np.linalg.norm(right, 2)) if right.size else 0.0
    return float(np.sqrt(lam_left * lam_right))
