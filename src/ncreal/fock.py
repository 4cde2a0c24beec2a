"""Truncated matricial Fock space F_n(C^d) and its canonical realizations.

The space C^{n x n} (x) F(C^d (x) C^{n x n}) is truncated at word length L.
Basis vectors are indexed by (alpha, beta, omega) with |alpha| = |beta| =
|omega| + 1: the vector E_{a0,b0} (x) e_{w1} (x) E_{a1,b1} (x) ... (x)
E_{al,bl}.  Creation operators that would exceed length L map to zero, which
makes the adjoint tuple jointly nilpotent and every truncated identity exact
rather than approximate.

The basis is laid out in degree blocks, l = 0..L.  Block l holds positions
offset_l + arange(d^l n^{2(l+1)}) as an array with one axis per letter, of
shape (d,)*l + (n,)*(l+1) + (n,)*(l+1): omega, then alpha, then beta.  Every
operator reads its targets off these arrays (``_positions``), and the letters
of the basis index at a position are its multi-index in its block
(``_basis_indices``), so a vector read off a dense array names only its
nonzero positions.

Operators are returned as scipy.sparse matrices: the dimension grows like
n^{2(l+1)} d^l and dense storage dies quickly.
"""

import itertools
import warnings
from collections import namedtuple
from functools import lru_cache

import numpy as np
import scipy.sparse

from . import core
from .core import (column_norm, decode_complex, deviation_from_centre, encode_complex,
                   eye_kron, json_field, load_json, matrix_units, require_nonnegative,
                   require_positive, require_within_cap, write_json)
from .linmap import MatrixLinearMap
from .realization import DescriptorRealization

__all__ = [
    "FockBasisIndex",
    "TruncatedFockVector",
    "fock_basis",
    "fock_dim",
    "left_creation",
    "right_creation",
    "flip_unitary",
    "eval_fock",
    "kernel_vector",
    "fock_inner",
    "fock_realization",
    "coeffs_from_nc_function",
]

FockBasisIndex = namedtuple("FockBasisIndex", ["alpha", "beta", "omega"])


def fock_dim(n, d, L):
    """sum_{l <= L} n^{2(l+1)} d^l, the dimension of the truncated space, in closed form."""
    ratio = d * n * n
    if ratio == 1:
        return L + 1
    return n * n * (ratio ** (L + 1) - 1) // (ratio - 1)


@lru_cache(maxsize=8)
def _positions(n, d, L):
    """The read-only position array of each degree block, indexed by 0-based letters."""
    pos = []
    for ell in range(L + 1):
        block = fock_dim(n, d, ell - 1) + np.arange(d ** ell * n ** (2 * ell + 2))
        block = block.reshape((d,) * ell + (n,) * (2 * ell + 2))
        block.flags.writeable = False
        pos.append(block)
    return tuple(pos)


def _basis_indices(ell, letters):
    """The degree-ell basis indices whose 0-based letters, omega then alpha then
    beta, are given as one array per letter."""
    letters = np.add(letters, 1).tolist()
    omega = zip(*letters[:ell]) if ell else itertools.repeat(())
    return list(map(FockBasisIndex, zip(*letters[ell:2 * ell + 1]),
                    zip(*letters[2 * ell + 1:]), omega))


def fock_basis(n, d, L):
    """All basis indices with |omega| <= L, ordered by degree then lexicographically."""
    return [idx for ell, block in enumerate(_positions(n, d, L))
            for idx in _basis_indices(ell, np.indices(block.shape).reshape(block.ndim, -1))]


def _creation_targets(n, d, L, a, b, w, last):
    """Targets of the basis vectors below degree L under the creation operator
    that adds the letters a, b, w to alpha, beta, omega: last in each word, or first."""
    pos = _positions(n, d, L)
    targets = [np.zeros(0, dtype=pos[0].dtype)]
    for ell in range(L):
        omega, word = (slice(None),) * ell, (slice(None),) * (ell + 1)
        if last:
            fixed = omega + (w - 1,) + word + (a - 1,) + word + (b - 1,)
        else:
            fixed = (w - 1,) + omega + (a - 1,) + word + (b - 1,) + word
        targets.append(pos[ell + 1][fixed].ravel())
    return np.concatenate(targets)


def _shift_matrix(dim, targets):
    """The sparse 0/1 matrix sending basis vector k to targets[k], and the rest to 0."""
    data = np.ones(len(targets), dtype=np.complex128)
    return scipy.sparse.csr_matrix((data, (targets, np.arange(len(targets)))),
                                   shape=(dim, dim))


def left_creation(n, d, L, i, j, k):
    """L_{i,j;k}: E_{alpha,beta} * e_omega -> E_{i alpha, j beta} * e_{k omega}."""
    return _shift_matrix(fock_dim(n, d, L), _creation_targets(n, d, L, i, j, k, last=False))


def right_creation(n, d, L, a, b, w):
    """R_{a,b;w}: E_{alpha,beta} * e_omega -> E_{alpha a, beta b} * e_{omega w}."""
    return _shift_matrix(fock_dim(n, d, L), _creation_targets(n, d, L, a, b, w, last=True))


def flip_unitary(n, d, L):
    """The word-transposing involution E_{a,b} * e_w -> E_{a^t,b^t} * e_{w^t}."""
    targets = []
    for ell, block in enumerate(_positions(n, d, L)):
        # reverse the axes inside each word: omega, alpha, then beta
        axes = [*range(ell - 1, -1, -1), *range(2 * ell, ell - 1, -1),
                *range(3 * ell + 1, 2 * ell, -1)]
        targets.append(block.transpose(axes).ravel())
    return _shift_matrix(fock_dim(n, d, L), np.concatenate(targets))


class TruncatedFockVector:
    """Finitely supported coefficients over the truncated basis.

    ``coeffs`` maps :class:`FockBasisIndex` (or plain (alpha, beta, omega)
    triples of tuples) to complex numbers; indices must satisfy
    |alpha| = |beta| = |omega| + 1 and |omega| <= L.
    """

    def __init__(self, n, d, L, coeffs=None):
        self.n, self.d, self.L = int(n), int(d), int(L)
        table = {}
        for key, val in (coeffs or {}).items():
            idx = FockBasisIndex(tuple(key[0]), tuple(key[1]), tuple(key[2]))
            if len(idx.alpha) != len(idx.beta) or len(idx.alpha) != len(idx.omega) + 1:
                raise ValueError("index %r violates |alpha| = |beta| = |omega| + 1" % (idx,))
            if len(idx.omega) > self.L:
                raise ValueError("index %r exceeds truncation length %d" % (idx, self.L))
            if any(not 1 <= a <= self.n for a in idx.alpha + idx.beta):
                raise ValueError("index letters out of range 1..%d in %r" % (self.n, idx))
            if any(not 1 <= w <= self.d for w in idx.omega):
                raise ValueError("word letters out of range 1..%d in %r" % (self.d, idx))
            if val != 0:
                table[idx] = complex(val)
        self.coeffs = table

    def to_dense(self):
        """The coefficients as one vector in the basis order: the keys of each degree
        are read off its ``_positions`` block, and one scatter per degree writes their
        values."""
        pos = _positions(self.n, self.d, self.L)
        letters, values = [[] for _ in pos], [[] for _ in pos]
        for (alpha, beta, omega), val in self.coeffs.items():
            letters[len(omega)].append(omega + alpha + beta)
            values[len(omega)].append(val)
        vec = np.zeros(fock_dim(self.n, self.d, self.L), dtype=np.complex128)
        for block, keys, vals in zip(pos, letters, values):
            if keys:
                vec[block[tuple(np.array(keys).T - 1)]] = vals
        return vec

    def __repr__(self):
        return "TruncatedFockVector(n=%d, d=%d, L=%d, terms=%d)" % (
            self.n, self.d, self.L, len(self.coeffs))

    def to_json(self):
        keys = sorted(self.coeffs)
        values = encode_complex(np.array([self.coeffs[k] for k in keys], dtype=np.complex128))
        terms = [{"alpha": list(idx.alpha), "beta": list(idx.beta),
                  "omega": list(idx.omega), "c": c} for idx, c in zip(keys, values)]
        return {"n": self.n, "d": self.d, "L": self.L, "terms": terms}

    @classmethod
    def from_json(cls, obj):
        where = "fock vector"
        n, d, big_l = (json_field(obj, key, int, where) for key in ("n", "d", "L"))
        terms = json_field(obj, "terms", list, where)
        keys, pairs = {}, []
        for i, term in enumerate(terms):
            at = "%s.terms[%d]" % (where, i)
            key = tuple(tuple(json_field(term, part, list, at))
                        for part in ("alpha", "beta", "omega"))
            if not all(isinstance(k, int) and not isinstance(k, bool)
                       for k in key[0] + key[1] + key[2]):
                raise ValueError("%s: alpha, beta and omega must hold integer letters" % at)
            if key in keys:
                raise ValueError("%s.terms[%d] and terms[%d] repeat the term %r"
                                 % (where, keys[key], i, key))
            keys[key] = i
            pairs.append(json_field(term, "c", list, at))
        values = decode_complex(pairs, (len(terms),), where + ".terms")
        return cls(n, d, big_l, dict(zip(keys, values)))

    def dump(self, path):
        write_json(self.to_json(), path)

    @classmethod
    def load(cls, path):
        return load_json(path, cls.from_json)


def _basis_evaluation(idx, h_components, n, m):
    """E_{alpha,beta} * e_omega evaluated on a deviation tuple H (level m)."""
    units = matrix_units(n)
    out = eye_kron(m, units[idx.alpha[0] - 1, idx.beta[0] - 1])
    for s, w in enumerate(idx.omega, start=1):
        out = out @ h_components[w - 1]
        out = out @ eye_kron(m, units[idx.alpha[s] - 1, idx.beta[s] - 1])
    return out


def eval_fock(h, x, y):
    """Evaluate h at X about the centre Y: interleave I_m (x) E_{a,b} with X - I_m (x) Y."""
    if x.base_n != h.n or x.d != h.d:
        raise ValueError("point does not match the Fock data (n=%d, d=%d)" % (h.n, h.d))
    dev = deviation_from_centre(x, y)
    m = x.level_m
    out = np.zeros((x.side, x.side), dtype=np.complex128)
    for idx, val in h.coeffs.items():
        out += val * _basis_evaluation(idx, dev.components, h.n, m)
    return out


def kernel_vector(n, d, L, x, y, v):
    """Truncated kernel vector: coefficients conj(y* E_{alpha,beta} * e_omega(X) v).

    Inner products against it reproduce evaluations about 0:
    <K, h> = y* ev_X(h) v for every h supported in |omega| <= L.  The
    underlying boundedness result asks for column_norm(X) < 1/sqrt(n); at
    finite truncation the construction works regardless, so violations only
    warn.
    """
    if column_norm(x) >= 1.0 / np.sqrt(n):
        warnings.warn(
            "kernel vector requested at column norm %.3f >= 1/sqrt(n); "
            "the untruncated kernel series need not converge there" % column_norm(x),
            stacklevel=2,
        )
    y = np.asarray(y, dtype=np.complex128).reshape(-1)
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    m = x.level_m
    coeffs = {}
    for idx in fock_basis(n, d, L):
        val = np.conj(y) @ _basis_evaluation(idx, x.components, n, m) @ v
        if val != 0:
            coeffs[idx] = np.conj(val)
    return TruncatedFockVector(n, d, L, coeffs)


def fock_inner(k, h):
    """Hilbert-Schmidt style inner product, conjugate-linear in the first slot."""
    acc = 0j
    for idx in k.coeffs.keys() & h.coeffs.keys():
        acc += np.conj(k.coeffs[idx]) * h.coeffs[idx]
    return acc


def _capped_degree(n, d, L):
    """L, or a smaller degree at which fock_dim(n, d, .) already exceeds ALLOCATION_CAP.

    With d n^2 >= 2, fock_dim passes 2^degree: a huge L is checked at the
    degree where the cap is surely passed, so (d n^2)^(L+1) is never formed.
    """
    return L if d * n * n < 2 else min(L, core.ALLOCATION_CAP.bit_length())


@lru_cache(maxsize=8)
def _fock_map(n, d, L, scale):
    """The Fock map A of :func:`fock_realization`, built once per key and shared: its
    CSR arrays are read-only, and its nilpotency index and cb bound are kept."""
    dim = fock_dim(n, d, L)
    # targets[k, q, j]: where R_{q+1, j+1; k+1} sends each basis vector below degree L
    targets = np.array([[[_creation_targets(n, d, L, q + 1, j + 1, k + 1, last=True)
                          for j in range(n)] for q in range(n)] for k in range(d)])
    # A_k(E_pq) = sum_j E_pj (x) R*_{qj;k}: row (p-1) dim + source of unit (k, p, q),
    # column (j-1) dim + the source's target
    k, p, q, j, source = np.ix_(range(d), range(n), range(n), range(n), range(targets.shape[3]))
    rows = ((k * n + p) * n + q) * (n * dim) + p * dim + source
    rows, cols = np.broadcast_arrays(rows, j * dim + targets[:, None, :, :, :])
    stack = scipy.sparse.csr_matrix(
        (np.full(rows.size, 1.0 / scale, dtype=np.complex128), (rows.ravel(), cols.ravel())),
        shape=(d * n * n * n * dim, n * dim))
    a = MatrixLinearMap(stack, d, n)
    for arr in (a.stack.data, a.stack.indices, a.stack.indptr):
        arr.flags.writeable = False
    return a


def fock_realization(h, y, scale=1.0):
    """The canonical descriptor realization of h about Y on C^n (x) F_n(C^d).

    A_k(Z) = (1/scale) sum_{i,j} Z E_{i,j} (x) R*_{i,j;k}, c v = v (x) h_scale
    and b* (u (x) f) = sum <E_{i,j} * e_0, f> E_{i,j} u, where h_scale dilates
    the degree-l coefficients by scale^l.  The truncated adjoint creation
    tuple is nilpotent of order L + 1, so the value is the finite sum of
    :mod:`ncreal.realization`: it equals :func:`eval_fock` at points of every norm.

    A is one CSR stack of units read off the right-creation targets, built once
    per (n, d, L, scale) and shared, read-only; only b and c depend on h.  When
    d n^3 fock_dim, a bound on A's nonzeros, exceeds ALLOCATION_CAP, or scale
    is not finite and positive: ValueError.
    """
    n, d, L = h.n, h.d, h.L
    if y.base_n != n or y.d != d:
        raise ValueError("centre does not match the Fock data")
    require_positive("scale", scale)
    require_within_cap(d * n ** 3 * fock_dim(n, d, _capped_degree(n, d, L)),
                       "the Fock realization at (n, d, L) = (%d, %d, %d)" % (n, d, L))
    a = _fock_map(n, d, L, float(scale))
    dim = fock_dim(n, d, L)
    vec = h.to_dense()
    for ell in range(L + 1):   # the dilation h_scale: degree l times scale^l
        vec[fock_dim(n, d, ell - 1):fock_dim(n, d, ell)] *= scale ** ell
    # np.kron, not eye_kron: the signs of its zeros reach the saved file's bytes
    c = np.kron(np.eye(n), vec[:, None])
    # b*(e_j (x) vacuum_{i,j}) = e_i, where vacuum[i - 1, j - 1] is E_ij * e_0
    vacuum = _positions(n, d, L)[0]
    i, j = np.indices((n, n))
    bstar = np.zeros((n, n * dim), dtype=np.complex128)
    bstar[i, j * dim + vacuum] = 1.0
    b = np.conj(bstar).T
    return DescriptorRealization(a, b, c, y)


def coeffs_from_nc_function(func, y, L, r=1.0):
    """Extract truncated Fock coefficients of a black-box NC function about Y.

    ``func`` maps a :class:`~ncreal.core.MatrixTuple` to a square array.  A
    word v of l letter-unit pairs (w_1, E_{b_0 a_1}), ..., (w_l, E_{b_{l-1} a_l})
    has the Taylor-Taylor coefficient block f_v = f_w(E_{b_0 a_1}, ...), and
    h_{alpha,beta;omega} is its (a_0, b_l) entry, with omega = w.

    Sibling probes: for each word u of L - 1 pairs, one call evaluates func
    at the :func:`~ncreal.analysis.tree_point` whose nodes 0, 1, ..., L - 1
    spell u along a path, and whose node L - 1 has d n^2 children, one per
    pair (letter k, unit E_pq), k-major then row-major.  Block (0, v) of the
    value over r^|v| is f_v for every node v: the children give the d n^2
    one-pair extensions of u, and node l < L gives the length-l prefix of u,
    read from the probe in which u continues with the first pair only.  That
    is (d n^2)^(L-1) calls for L >= 1 and one call, at the centre, for L = 0.

    ValueError when r is not finite and positive, when the fock_dim(n, d, L)
    coefficients exceed ALLOCATION_CAP (checked before any call), and when a
    call fails or returns a value of the wrong shape or with non-finite
    entries, naming the probe's word.
    """
    from .analysis import tree_point

    require_positive("r", r)
    require_nonnegative("L", L)
    n, d = y.base_n, y.d
    require_within_cap(fock_dim(n, d, _capped_degree(n, d, L)),
                       "the Fock coefficients at (n, d, L) = (%d, %d, %d)" % (n, d, L))
    # pair s = (k n + p) n + q is letter k + 1 with argument E_{p+1, q+1}
    letters, p, q = (axis.ravel() for axis in np.indices((d, n, n)))
    units = matrix_units(n)[p, q]
    children = np.arange(d * n * n if L else 0)
    parents = [*range(L - 1), *[L - 1] * len(children)]
    side = (len(parents) + 1) * n

    def refused(u, fault):
        word = " ".join("x%d:E_%d,%d" % (letters[s] + 1, p[s] + 1, q[s] + 1) for s in u)
        return ValueError("black-box function at the probe for word (%s): %s" % (word, fault))

    top = []   # the top block row of every probe's value
    for u in itertools.product(range(len(children)), repeat=max(L - 1, 0)):
        sel = np.concatenate([u, children]).astype(int)
        point = tree_point(y, parents, letters[sel] + 1, units[sel], r)
        try:
            value = np.asarray(func(point), dtype=np.complex128)
        except Exception as exc:   # a black box may raise anything
            raise refused(u, "failed: %s" % exc) from exc
        if value.shape != (side, side):
            raise refused(u, "returned shape %s, expected %s" % (value.shape, (side, side)))
        if not np.isfinite(value).all():
            raise refused(u, "returned non-finite entries")
        top.append(value[:n].reshape(n, -1, n))
    top = np.array(top)                                 # axes: probe, a_0, node, b_l
    blocks = [top[::len(children) ** (L - 1 - ell), :, ell] for ell in range(L)]
    blocks.append(top[:, :, L:].transpose(0, 2, 1, 3))  # the children, or the root at L = 0
    h = TruncatedFockVector(n, d, L)
    for ell, block in enumerate(blocks):
        # axes (k, b_{i-1}, a_i) for each pair i, then a_0, b_l; the Fock layout is
        # omega, alpha, beta
        block = block.reshape((d, n, n) * ell + (n, n)) / r ** ell
        block = block.transpose([*range(0, 3 * ell, 3), 3 * ell, *range(2, 3 * ell, 3),
                                 *range(1, 3 * ell, 3), 3 * ell + 1])
        # keys only at the nonzero coefficients, valid by construction: no per-key check
        letters = np.nonzero(block)
        h.coeffs.update(zip(_basis_indices(ell, letters), block[letters].tolist()))
    return h
