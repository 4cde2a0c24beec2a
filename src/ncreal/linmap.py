"""The coefficient tuple A = (A_1, ..., A_d) of linear maps on n x n matrices.

Each A_j maps C^{n x n} linearly into N x M complex matrices (M = N for the
pencil maps of descriptor realizations, M = n for the input maps of
Fornasini-Marchesini ones).  Storage is Choi-style: the value on every
standard matrix unit is kept, so that

    A_j(G) = sum_{p,q} G[p, q] * A_j(E_pq).

Every map keeps its units in one (d n^2 N) x M stack, ``stack``: unit u =
((j-1) n + p) n + q, that is A_j(E_pq), fills rows [u N, (u+1) N).  It is a
read-only C-contiguous array, whose reshape to (d, n, n, N, M) is free, or,
for the large state spaces of the Fock construction, one CSR matrix whose
stored entries are the nonzero (j, p, q, row, col) triplets.

The stack is the one home of the unit-wise products: ``images(V)`` = [A(1) V |
A(2) V | ...] is one ``stack @ V``; ``adjoint()``, the units A(u)*, is a
transposed copy or a re-index of the CSR triplets; ``compressed(L, R)`` is one
``stack @ R`` and one batched ``L @``; :func:`cb_row_norm_bound` is one
batched SVD of the units.

The level-m ampliation sum_j (id_m (x) A_j)(X_j), from which every pencil
and every FM input is built, is T = sum_u X_u (x) A(u), where X_u is the
m x m matrix of entries X_j^{(k,l)}[p, q]: one matrix product for a dense
stack, one index computation on the stored triplets for a sparse one (see
:func:`ampliated_apply`).  :meth:`MatrixLinearMap.apply` is its level-1 case.
"""

from functools import cached_property
from itertools import chain

import numpy as np
import scipy.sparse

from .core import (MatrixTuple, decode_complex, encode_complex, graph_depth, json_field,
                   require_within_cap)

__all__ = [
    "MatrixLinearMap",
    "ampliated_apply",
    "word_apply",
    "cb_row_norm_bound",
]


class MatrixLinearMap:
    """Row d-tuple of linear maps C^{n x n} -> C^{N x M}, stored as one stack of units.

    Parameters
    ----------
    coeffs : ndarray or scipy sparse matrix
        Either a dense complex tensor of shape (d, n, n, N, M) with
        ``coeffs[j-1, p, q] = A_j(E_pq)``, or, with ``d`` and ``n`` given, the
        (d n^2 N) x M stack of the units, kept as one CSR matrix when sparse.
    """

    def __init__(self, coeffs, d=None, n=None):
        if scipy.sparse.issparse(coeffs):
            stack = scipy.sparse.csr_matrix(coeffs, dtype=np.complex128)
            stack.sum_duplicates()
        else:
            stack = np.ascontiguousarray(coeffs, dtype=np.complex128)
            stack.flags.writeable = False
        if d is None:
            if stack.ndim != 5:
                raise ValueError("dense coefficient tensor must have 5 axes, got %d"
                                 % stack.ndim)
            if stack.shape[1] != stack.shape[2]:
                raise ValueError("argument axes must be square, got shape %s"
                                 % (stack.shape,))
            d, n, _, rows, cols = stack.shape
            stack = stack.reshape(d * n * n * rows, cols)
        units = d * n * n
        if stack.ndim != 2 or units < 1 or stack.shape[0] % units:
            raise ValueError("a stack of d n^2 = %d units needs 2 axes and a multiple of "
                             "%d rows, got shape %s" % (units, units, stack.shape))
        self.stack = stack
        self.d = d
        self.n = n
        self.units = units
        self.out_rows = stack.shape[0] // units
        self.out_cols = stack.shape[1]

    @property
    def is_sparse(self):
        return scipy.sparse.issparse(self.stack)

    @cached_property
    def cb_bound(self):
        """:func:`cb_row_norm_bound` of this map, computed on first use and kept."""
        return cb_row_norm_bound(self)

    @cached_property
    def nilpotency_index(self):
        """The smallest K >= 1 with P^K = 0, or None when P has a cycle.

        P is the union of the sparsity patterns of all units A_j(E_pq).  Each
        (k, l) block of sum_j (id_m (x) A_j)(H_j) is a combination of units, so
        that matrix has K-th power zero at every level m and every H.  K is the
        number of rounds in which P's graph peels off its sinks; no tolerance
        enters (:func:`~ncreal.core.graph_depth`).  Computed on first use and kept;
        square-valued maps only.
        """
        index = graph_depth(self._union_pattern())
        return None if index is None else max(index, 1)

    @cached_property
    def strong_components(self):
        """The states of each strongly connected component of P, sinks first.

        P is the union pattern of :attr:`nilpotency_index`, with an edge r -> s
        at every nonzero P[r, s].  A list of sorted index arrays: every edge
        leaving a component ends in one listed before it, so in the states'
        order by component, every sum_j (id_m (x) A_j)(H_j) is block lower
        triangular at every level, one diagonal block per component.  Found in
        O(nnz) by scipy's strong components, whose labels come sinks first; a
        labelling that breaks that order gives one component of all states.
        Computed on first use and kept; square-valued maps only.
        """
        from scipy.sparse.csgraph import connected_components  # only dense pencils need it

        pattern = self._union_pattern()
        count, labels = connected_components(pattern, connection="strong")
        rows, cols = pattern.nonzero()
        if not np.all(labels[cols] <= labels[rows]):
            return [np.arange(self.out_rows)]
        order = np.argsort(labels, kind="stable")
        return np.split(order, np.cumsum(np.bincount(labels, minlength=count))[:-1])

    def _union_pattern(self):
        """P as a CSR matrix with a nonzero wherever some unit A_j(E_pq) has one."""
        rows, cols = self.stack.nonzero()
        return scipy.sparse.csr_matrix((np.ones(len(rows)), (rows % self.out_rows, cols)),
                                       shape=(self.out_rows, self.out_cols))

    @classmethod
    def zeros(cls, d, n, rows, cols=None):
        if cols is None:
            cols = rows
        return cls(np.zeros((d, n, n, rows, cols), dtype=np.complex128))

    def unit(self, j, p, q):
        """A_j(E_pq) for a 1-based letter j and 0-based entry indices p, q: rows of the stack."""
        u = ((j - 1) * self.n + p) * self.n + q
        return self.stack[u * self.out_rows:(u + 1) * self.out_rows]

    def apply(self, j, g):
        """A_j(G): the level-1 ampliation with G in letter j and zero elsewhere, sparse
        for a sparse map."""
        g = np.asarray(g, dtype=np.complex128)
        if g.shape != (self.n, self.n):
            raise ValueError("argument must be %d x %d, got %s" % (self.n, self.n, g.shape))
        size = self.n * self.n
        coeffs = np.zeros((1, self.d * size), dtype=np.complex128)
        coeffs[0, (j - 1) * size:j * size] = g.ravel()
        return _ampliate(self, coeffs, 1)

    def dense(self):
        """The (d, n, n, N, M) coefficient tensor: a read-only view of a dense stack, a
        copy of a sparse one (ValueError above ALLOCATION_CAP)."""
        shape = (self.d, self.n, self.n, self.out_rows, self.out_cols)
        if not self.is_sparse:
            return self.stack.reshape(shape)
        require_within_cap(self.stack.shape[0] * self.out_cols,
                           "a dense copy of the %d x %d map" % (self.out_rows, self.out_cols))
        return self.stack.toarray().reshape(shape)

    def images(self, v):
        """[A(1) V | A(2) V | ...]: the images of the M-row matrix V under every unit, in
        unit order, from one product ``stack @ V``."""
        prod = (self.stack @ v).reshape(self.units, self.out_rows, v.shape[1])
        return prod.transpose(1, 0, 2).reshape(self.out_rows, self.units * v.shape[1])

    def adjoint(self):
        """The map whose units are A(u)*, in the same order: a transposed copy of a dense
        stack, one re-index of a sparse stack's triplets, which stays sparse."""
        rows, cols = self.out_rows, self.out_cols
        if self.is_sparse:   # entry (u N + r, s) of unit u moves to (u M + s, r)
            entries = self.stack.tocoo()
            u, r = np.divmod(entries.row, rows)
            stack = scipy.sparse.csr_matrix((np.conj(entries.data), (u * cols + entries.col, r)),
                                            shape=(self.units * cols, rows))
        else:
            stack = np.conj(self.stack.reshape(self.units, rows, cols)).transpose(0, 2, 1)
        return MatrixLinearMap(stack.reshape(self.units * cols, rows), self.d, self.n)

    def compressed(self, left, right):
        """The dense map G -> left A_j(G) right: one product ``stack @ right``, then one
        batched ``left @``.  A sparse map is never densified."""
        prod = (self.stack @ right).reshape(self.units, self.out_rows, right.shape[1])
        return MatrixLinearMap((left @ prod).reshape(self.units * left.shape[0],
                                                     right.shape[1]), self.d, self.n)

    def scaled(self, t):
        return MatrixLinearMap(t * self.stack, self.d, self.n)

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


def ampliated_apply(a, x):
    """The m-fold ampliation sum_j (id_m (x) A_j)(X_j) on C^m (x) C^N.

    ``x`` is a :class:`~ncreal.core.MatrixTuple` over the map's n.  The
    result is sum_u X_u (x) A(u), the m x m block matrix whose (k, l) block is
    sum_j A_j(X_j^{(k,l)}): dense for a dense map, CSR for a sparse one.

    A dense map contracts over the units in one BLAS product: the (m m) x
    (d n n) matrix of entries X_u[k, l] times the stack viewed as a (d n n) x
    (N M) matrix, copied from (k, l) x (r, s) into (k, r) x (l, s) order.  An
    all-zero block X^{(k,l)} gives an exactly zero block; the last bits depend
    on the BLAS build.  A sparse map gives one triplet per stored entry of a
    unit u and nonzero X_u[k, l], summed where units overlap.
    """
    if not isinstance(x, MatrixTuple):
        raise TypeError("expected a MatrixTuple")
    if x.base_n != a.n or x.d != a.d:
        raise ValueError(
            "tuple over centre size %d with %d components does not match map (n=%d, d=%d)"
            % (x.base_n, x.d, a.n, a.d)
        )
    return _ampliate(a, _unit_coefficients(x), x.level_m)


def _unit_coefficients(x):
    """The (m m) x (d n n) matrix of entries X_u[k, l] of the tuple X: row (k, l),
    column u = (j, p, q) holds X_j^{(k,l)}[p, q]: one reordered copy of X's array,
    a read-only view of it at m = 1."""
    d, n, m = x.d, x.base_n, x.level_m
    blocks = x.array.reshape(d, m, n, m, n).transpose(1, 3, 0, 2, 4)
    return blocks.reshape(m * m, d * n * n)


def _ampliate(a, coeffs, m):
    """sum_u X_u (x) A(u) for the (m m) x (d n n) matrix ``coeffs`` of entries X_u[k, l]."""
    rows, cols, stack = a.out_rows, a.out_cols, a.stack
    if not a.is_sparse:
        prod = (coeffs @ stack.reshape(a.units, rows * cols)).reshape(m, m, rows, cols)
        return prod.transpose(0, 2, 1, 3).reshape(m * rows, m * cols)
    # X_u[k, l] A(u)[r, s] lands at (k N + r, l M + s); the stored entries of
    # unit u are the CSR range [indptr[u N], indptr[(u + 1) N])
    kl, u = np.nonzero(coeffs)
    first = stack.indptr[u * rows]
    counts = stack.indptr[(u + 1) * rows] - first
    pair = np.repeat(np.arange(len(u)), counts)
    entry = np.arange(len(pair)) + (first - np.cumsum(counts) + counts)[pair]
    k, l = np.divmod(kl, m)
    r = np.searchsorted(stack.indptr, entry, side="right") - 1 + ((k - u) * rows)[pair]
    s = stack.indices[entry] + (l * cols)[pair]
    data = coeffs[kl, u][pair] * stack.data[entry]
    return scipy.sparse.csr_matrix((data, (r, s)), shape=(m * rows, m * cols))


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


def _top_eigenvalue(psd):
    """The norm of a Hermitian positive semidefinite matrix: its top eigenvalue."""
    return max(float(np.linalg.eigvalsh(psd)[-1]), 0.0)


def cb_row_norm_bound(a):
    """A computable upper bound on the completely bounded row norm of A.

    Writing A_j(G) = sum_{p,q} V_jpq (G (x) I) W_jpq with balanced Kraus
    factors obtained from the polar decomposition of each coefficient, the
    bound is ||sum V V*||^{1/2} ||sum W* W||^{1/2}, i.e.

        r = || sum_jpq (B B*)^{1/2} ||^{1/2} * || sum_jpq (B* B)^{1/2} ||^{1/2}

    over the coefficients B = A_j(E_pq).  Whenever a level-m tuple H has
    column norm below 1/r, the ampliated image sum_j (id_m (x) A_j)(H_j) has
    operator norm (hence spectral radius) below 1.  Both roots come from one
    batched SVD of the units, B = U S V*: (B B*)^{1/2} = U S U* and
    (B* B)^{1/2} = V S V*, so each sum is one product of the side-by-side
    singular vectors, and no square root of a Gram matrix's roundoff enters.
    Needs ``dense()``, within the cap.
    """
    units = a.dense().reshape(a.units, a.out_rows, a.out_cols)
    if not units.size:
        return 0.0
    u, s, vh = np.linalg.svd(units, full_matrices=False)
    # column u k + i of each side is the i-th singular vector of unit u
    left = u.transpose(1, 0, 2).reshape(a.out_rows, -1)
    right = np.conj(vh).transpose(2, 0, 1).reshape(a.out_cols, -1)
    s = s.ravel()
    return float(np.sqrt(_top_eigenvalue((left * s) @ np.conj(left).T)
                         * _top_eigenvalue((right * s) @ np.conj(right).T)))
