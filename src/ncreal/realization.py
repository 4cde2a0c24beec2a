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
T = sum_j (id_m (x) A_j)(X_j - I_m (x) Y_j) once and decides the
invertibility test sigma_min > INVERTIBILITY_RTOL * max(1, sigma_max) on the
pencil I - T in this order:

1. The coefficient matrix of H = X - I_m (x) Y, whose row (k, l) holds the
   entries X_u[k, l] of H's (k, l) block, formed once per point; three things
   read it.  T = sum_u X_u (x) A(u), dense for a dense map and CSR for a
   sparse one; R = B(H) for an FM realization (see the value rule); and K
   with T^K = 0 or None.  A.nilpotency_index, read once per map off the union
   of its units' sparsity patterns, holds at every point.  Block (k, l) of T
   only combines row (k, l), so where the graph of nonzero rows (H's nonzero
   n x n blocks) is acyclic, T^{K_H} = 0 exactly too, with K_H the graph's
   depth (a longest path plus one, :func:`~ncreal.core.graph_depth`), and K
   is the smaller of the two.  A nonzero first row ends this scan in O(d n^2).
2. An upper bound q >= ||T||_2, padded for roundoff: the smaller of
   sqrt(||T||_1 ||T||_inf), which costs O(nnz), and, for a dense map only,
   cb_row_norm_bound(A) * column_norm(H), the paper's domain radius.
3. Bounds on the singular values of I - T: upper = 1 + q, and
   lower = 1 / sum_{k<K} q^k when T^K = 0, else 1 - q.
4. The certificate fires when lower > INVERTIBILITY_RTOL * max(1, upper):
   the exact test then passes too.  Otherwise one dense SVD gives the exact
   sigma_min and sigma_max, and the test is applied to them.

For a dense map, :func:`in_domain` first tries the certificate of steps 3
and 4 without T: q = cb_row_norm_bound(A) * column_norm(H), the paper's domain
radius (the series converges where column_norm(H) < 1/||A||_cb), and K from
H's block graph and A.nilpotency_index as in step 1.  That costs one mn x mn
eigvalsh.  Step 2 takes the smaller of this q and the one-inf bound, so the
kernel's certificate fires whenever this one does, and the verdicts agree;
only when it fails does :func:`in_domain` run the kernel.

The value rule: every value is C (or b*) applied to each block row of
S = (I - T)^{-1} R, with R = B(H) and I_m (x) D added for an FM realization,
and R = I_m (x) c for a descriptor one.  When the certificate fires and
T^K = 0, S = sum_{k<K} T^k R exactly, taken Horner-style with K - 1
products and no factorization.  Otherwise S is an LU solve of the pencil
M = I - T with one refinement step: SuperLU for a sparse T certified with
no K, and for a dense map one LU per diagonal block.  With the states ordered
by A.strong_components, sinks first, M is block lower triangular at every
level and every H, because each block of T combines units and every unit
lies on the union pattern.  Adjacent components merge into blocks of at
least _BLOCK_ROWS rows, and S_i = M_ii^{-1} (R_i - M_i,<i S_<i) block by
block; a map with one block takes one LU of the whole pencil.  This is safe
wherever the test passed, by certificate or by SVD: for block triangular M,
(M^{-1})_ii = M_ii^{-1}, so sigma_min(M_ii) >= sigma_min(M), while
sigma_max(M_ii) <= sigma_max(M), and every diagonal block passes the test
that the pencil passed.

:func:`pencil`, :func:`pencil_sigma` and :func:`pole_order` stay exact; they
are the only paths that take an SVD of the pencil.  The map's cb bound takes
one batched SVD of its units, once per map.  A dense copy of a sparse T
is refused with ValueError above ALLOCATION_CAP entries, and so is a dense
pencil with an entry that overflowed, before any SVD reads it.
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
    graph_depth,
    json_field,
    load_json,
    passes_invertibility,
    require_within_cap,
    singular_value_range,
    solve_refined,
    write_json,
)
from .linmap import (MatrixLinearMap, _ampliate, _top_eigenvalue, _unit_coefficients,
                     ampliated_apply, word_apply)

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

    @property
    def controllable_seed(self):
        """c: its A-words span the controllable subspace."""
        return self.c

    @property
    def observable_seed(self):
        """b: its adjoint A-words span the observable subspace."""
        return self.b

    def restricted(self, v):
        """(V*AV, V*b, V*c) on the span of the orthonormal columns of V."""
        vh = np.conj(v).T
        return DescriptorRealization(self.A.compressed(vh, v), vh @ self.b, vh @ self.c,
                                     self.Y)

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

    @property
    def controllable_seed(self):
        """The columns of every B_j(E_pq): their A-words span the controllable subspace."""
        return self.B.images(np.eye(self.n))

    @property
    def observable_seed(self):
        """C*: its adjoint A-words span the observable subspace."""
        return np.conj(self.C).T

    def restricted(self, v):
        """(V*AV, V*B, CV, D) on the span of the orthonormal columns of V."""
        vh = np.conj(v).T
        return FMRealization(self.A.compressed(vh, v), self.B.compressed(vh, np.eye(self.n)),
                             self.C @ v, self.D, self.Y)

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

    Raises ValueError naming the file and the field when the file does not hold
    one.
    """
    return load_json(path, _realization_from_json)


def _realization_from_json(obj):
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


def _dense(t):
    """t as a dense array: t itself, or a copy of a sparse t (ValueError when its
    entries exceed ALLOCATION_CAP)."""
    if isinstance(t, np.ndarray):
        return t
    require_within_cap(t.shape[0] * t.shape[1], "a dense copy of the %d x %d matrix" % t.shape)
    return t.toarray()


def _identity_minus(t):
    """I - t, sparse (CSC, ready for a sparse LU) when t is sparse; a dense t, which
    every caller owns, becomes I - t in its own buffer."""
    if scipy.sparse.issparse(t):
        return (scipy.sparse.identity(t.shape[0], dtype=np.complex128) - t).tocsc()
    real = t.view(np.float64)   # negated as reals: complex negation is not vectorized
    np.negative(real, out=real)
    t.reshape(-1)[::t.shape[0] + 1] += 1.0
    return t


def _dense_pencil(t):
    """I - t as a dense array, in t's own buffer when t is dense.  ValueError when an
    entry overflowed, before an SVD or LU reads it."""
    p = _identity_minus(_dense(t))
    if not np.isfinite(p).all():
        raise ValueError("the pencil I - A(X - I_m (x) Y) overflows to non-finite entries")
    return p


def pencil(r, x):
    """L_A(X - I_m (x) Y) = I_{mN} - sum_j (id_m (x) A_j)(X_j - I_m (x) Y_j), dense
    (ValueError when a sparse map's (mN)^2 entries exceed ALLOCATION_CAP, or when an
    entry overflows)."""
    return _dense_pencil(ampliated_apply(r.A, deviation_from_centre(x, r.Y)))


def pencil_sigma(r, x):
    """Exact smallest and largest singular value of the pencil at X, by a dense SVD.

    These are the numbers the invertibility test sigma_min >
    INVERTIBILITY_RTOL * max(1, sigma_max) compares, for a sparse pencil
    too (ValueError above ALLOCATION_CAP, as :func:`pencil`).  :func:`in_domain`
    reaches the same verdict, without this SVD whenever its certificate
    lower > INVERTIBILITY_RTOL * max(1, upper) fires (see the module docstring).
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
    a, ones = abs(t), np.ones(t.shape[0])   # column and row sums as two products
    return math.sqrt(float((ones @ a).max()) * float((a @ ones).max()))


def _cb_col_bound(a, h):
    """cb_row_norm_bound(A) * column_norm(H) >= ||sum_j (id_m (x) A_j)(H_j)||_2.

    column_norm(H)^2 is the top eigenvalue of sum_j H_j* H_j, one product of the
    stacked components; no SVD is taken.
    """
    stacked = h.array.reshape(-1, h.side)
    return a.cb_bound * math.sqrt(_top_eigenvalue(np.conj(stacked).T @ stacked))


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


def _index(a, coeffs, m):
    """K with T^K = 0 for T = sum_u X_u (x) A(u), or None, from the (m m) x (d n n)
    coefficient matrix ``coeffs`` of H (entries X_u[k, l], row (k, l)).

    Block (k, l) of T combines only row (k, l), so T^K = 0 with K the depth of
    the graph with an edge k -> l at every nonzero row (H's nonzero n x n
    blocks) when it is acyclic, for every storage of A.  K is the smaller of
    that depth and A.nilpotency_index.  A nonzero first row, a loop, ends the
    scan in O(d n^2).
    """
    index = a.nilpotency_index
    if coeffs[0].any():
        return index   # the common case
    depth = graph_depth(coeffs.any(axis=1).reshape(m, m))
    if depth is None:   # a cycle, a nonzero diagonal block included
        return index
    return depth if index is None else min(depth, index)


def _certify(a, h, t, index):
    """Certified (lower, upper) singular value bounds of I - t that pass the
    invertibility test, or None when the bounds at hand cannot prove it.  ``t``
    is T, dense or sparse, and T^index = 0 unless index is None."""
    q = _one_inf_bound(t)
    bounds = _singular_value_bounds(q * (1.0 + _BOUND_PAD), index)
    if not passes_invertibility(*bounds) and not a.is_sparse:
        q = min(q, _cb_col_bound(a, h))
        bounds = _singular_value_bounds(q * (1.0 + _BOUND_PAD), index)
    return bounds if passes_invertibility(*bounds) else None


def _decide(r, x):
    """Build T at X once and decide the invertibility test on I - T.

    Returns (H, X, T, K, None, verdict) when the certificate fires, with X the
    coefficient matrix of H and K from :func:`_index`, and otherwise (H, X,
    None, None, the dense pencil, verdict) after its SVD; the verdict is an
    :class:`Evaluation` without a value.  The pencil of a dense T is formed in
    T's own buffer, and a sparse T is dropped as soon as its dense pencil
    exists, so it never lives beside the copy an SVD or LU makes.
    """
    h = deviation_from_centre(x, r.Y)
    coeffs = _unit_coefficients(h)
    t = _ampliate(r.A, coeffs, h.level_m)
    index = _index(r.A, coeffs, h.level_m)
    bounds = _certify(r.A, h, t, index)
    if bounds is not None:
        verdict = Evaluation(None, True, bounds[0], bounds[1], "certificate")
        return h, coeffs, t, index, None, verdict
    p = _dense_pencil(t)
    del t
    smin, smax = singular_value_range(p)
    verdict = Evaluation(None, passes_invertibility(smin, smax), smin, smax, "svd")
    return h, coeffs, None, None, p, verdict


# Adjacent strong components of a dense map merge into diagonal blocks of at
# least this many pencil rows.  One LU of 32 rows costs about as much as one
# block step (its gathers, its product and a small LU): 36 to 51 us each with
# one BLAS thread.  Over eval-serve's pencils, minimums of 24 to 64 rows solved
# within 5 % of each other; 96 rows or more took half as long again at m = 8.
_BLOCK_ROWS = 32


def _pencil_blocks(a, m):
    """The rows of the diagonal blocks of the level-m pencil of the dense map ``a``,
    in the order of a.strong_components: index arrays, or one slice for one block."""
    groups, filled = [], _BLOCK_ROWS   # rows in the open block
    for states in a.strong_components:
        if filled >= _BLOCK_ROWS:   # the open block is full: start the next
            groups.append([])
            filled = 0
        groups[-1].append(states)
        filled += m * len(states)
    if filled < _BLOCK_ROWS and len(groups) > 1:   # a short last block joins the one before
        short = groups.pop()
        groups[-1] += short
    if len(groups) == 1:
        return [slice(None)]
    # row k N + r of the pencil is state r of diagonal block k
    return [(np.arange(m)[:, None] * a.out_rows + np.concatenate(g)).ravel() for g in groups]


def _block_solve(p, rhs, blocks):
    """S = p^{-1} rhs for the block lower triangular pencil p, one refined LU per
    diagonal block, from the first block on: S_i = p_ii^{-1} (R_i - p_i,<i S_<i)."""
    s = np.empty_like(rhs)
    for i, rows in enumerate(blocks):
        block_rows, b = p[rows], rhs[rows]
        if i:   # the rows of every block solved so far
            done = np.concatenate(blocks[:i])
            b = b - block_rows[:, done] @ s[done]
        s[rows] = solve_refined(block_rows[:, rows], b)
    return s


def _value(r, coeffs, m, op, index):
    """The value at the level-m point whose deviation H has the coefficient matrix
    ``coeffs``, from S = (I - T)^{-1} R by the module's value rule: ``op`` is T and
    S = sum_{k<index} T^k R when T^index = 0, else ``op`` is the pencil I - T and S
    its refined LU solve, block by block for a dense map."""
    n, fm = r.n, isinstance(r, FMRealization)
    rhs = _dense(_ampliate(r.B, coeffs, m)) if fm else eye_kron(m, r.c)
    if index is None and r.A.is_sparse:
        s = solve_refined(op, rhs)
    elif index is None:
        s = _block_solve(op, rhs, _pencil_blocks(r.A, m))
    else:
        s = rhs
        for _ in range(index - 1):
            s = rhs + op @ s
    value = ((r.C if fm else np.conj(r.b).T) @ s.reshape(m, r.N, m * n)).reshape(m * n, m * n)
    return value + eye_kron(m, r.D) if fm else value


def evaluate(r, x):
    """The value of a descriptor or FM realization at X, as an :class:`Evaluation`.

    The test and the value follow the module docstring; outside the domain,
    value is None.  decided_by is "certificate" when sigma_min and sigma_max
    are the certified bounds, "svd" when they are the exact singular values.
    Raises ValueError when the value overflows to non-finite entries inside
    the domain, as R = B(H) or the product with C can, however well the
    pencil is conditioned.
    """
    h, coeffs, t, index, p, verdict = _decide(r, x)
    if not verdict.in_domain:
        return verdict
    if index is None:   # the pencil I - T, in T's own buffer when T is dense
        t = _identity_minus(t) if p is None else p
    value = _value(r, coeffs, h.level_m, t, index)
    if not np.isfinite(value).all():
        raise ValueError("the value at X overflows to non-finite entries")
    return verdict._replace(value=value)


def in_domain(r, x):
    """Whether the pencil I - T at X passes the invertibility test, decided as the
    module docstring describes: for a dense map by the cb radius without T, else
    by the kernel's certificate or one SVD, to the verdict of :func:`evaluate`.

    A unipotent pencil, such as that of a truncated Fock realization, is
    always invertible, but it is not always well conditioned: [[1, t], [0, 1]]
    has sigma_min = 1 / sigma_max, and at t = 1e13 it lies outside the domain.
    """
    if not r.A.is_sparse:
        h = deviation_from_centre(x, r.Y)
        q = _cb_col_bound(r.A, h) * (1.0 + _BOUND_PAD)
        index = _index(r.A, _unit_coefficients(h), h.level_m)
        if passes_invertibility(*_singular_value_bounds(q, index)):
            return True
    return _decide(r, x)[-1].in_domain


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


def pole_order(r, x):
    """Order of z = 1 as a pole of the resolvent of A(X - I_m (x) Y).

    0 exactly when X lies in the invertibility domain (:func:`in_domain`).
    Otherwise the size of the largest Jordan block of the eigenvalue 1,
    computed as the first k with rank((I - T)^k) = rank((I - T)^{k+1}).
    """
    _, _, _, _, m, verdict = _decide(r, x)
    return 0 if verdict.in_domain else _pole_order(m, verdict.sigma_max)


def _pole_order(m, sigma_max):
    """The rank ladder of :func:`pole_order` on the dense pencil I - T outside the
    domain, given its largest singular value.  One SVD per power gives its rank
    and the normalizer for the next product."""
    size = m.shape[0]
    if sigma_max == 0.0:
        return 1  # I - T = 0 only when T = I, a diagonalizable pole
    m = m / sigma_max
    prev = size  # rank of (I - T)^0
    power = np.eye(size, dtype=np.complex128)
    for k in range(1, size + 2):
        power = power @ m
        s = np.linalg.svd(power, compute_uv=False)
        if s[0] == 0.0:
            cur = 0
        else:
            cur = int(np.count_nonzero(s > POLE_RANK_RTOL * s[0]))
            power = power / s[0]
        if cur == prev:
            return k - 1
        prev = cur
    return size
