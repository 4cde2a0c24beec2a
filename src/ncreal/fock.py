"""Truncated matricial Fock space F_n(C^d) and its canonical realizations.

The space C^{n x n} (x) F(C^d (x) C^{n x n}) is truncated at word length L.
Basis vectors are indexed by (alpha, beta, omega) with |alpha| = |beta| =
|omega| + 1: the vector E_{a0,b0} (x) e_{w1} (x) E_{a1,b1} (x) ... (x)
E_{al,bl}.  Creation operators that would exceed length L map to zero, which
makes the adjoint tuple jointly nilpotent and every truncated identity exact
rather than approximate.

Operators are returned as scipy.sparse matrices: the dimension grows like
n^{2(l+1)} d^l and dense storage dies quickly.
"""

import warnings
from collections import namedtuple
from functools import lru_cache

import numpy as np
import scipy.sparse

from .core import (ampliate, column_norm, decode_complex, deviation_from_centre,
                   encode_complex, json_field, read_json, write_json)
from .linmap import MatrixLinearMap
from .realization import DescriptorRealization

__all__ = [
    "FockBasisIndex",
    "TruncatedFockVector",
    "fock_basis",
    "basis_position",
    "fock_dim",
    "left_creation",
    "right_creation",
    "flip_unitary",
    "eval_fock",
    "kernel_vector",
    "fock_inner",
    "fock_realization",
    "reshuffle",
    "unreshuffle",
    "coeffs_from_nc_function",
]

FockBasisIndex = namedtuple("FockBasisIndex", ["alpha", "beta", "omega"])


def _words(alphabet, length):
    if length == 0:
        return [()]
    shorter = _words(alphabet, length - 1)
    return [w + (a,) for w in shorter for a in range(1, alphabet + 1)]


@lru_cache(maxsize=None)
def _basis_cache(n, d, L):
    indices = []
    for ell in range(L + 1):
        for omega in _words(d, ell):
            for alpha in _words(n, ell + 1):
                for beta in _words(n, ell + 1):
                    indices.append(FockBasisIndex(alpha, beta, omega))
    position = {idx: k for k, idx in enumerate(indices)}
    return tuple(indices), position


def fock_basis(n, d, L):
    """All basis indices with |omega| <= L, ordered by degree then lexicographically."""
    return list(_basis_cache(n, d, L)[0])


def basis_position(n, d, L):
    """Mapping FockBasisIndex -> position in the canonical basis order."""
    return _basis_cache(n, d, L)[1]


def fock_dim(n, d, L):
    return len(_basis_cache(n, d, L)[0])


def _shift_matrix(n, d, L, image_of):
    """Sparse matrix of a basis map ``index -> index or None`` (None truncates)."""
    indices, position = _basis_cache(n, d, L)
    rows, cols = [], []
    for k, idx in enumerate(indices):
        target = image_of(idx)
        if target is None:
            continue
        pos = position.get(target)
        if pos is not None:
            rows.append(pos)
            cols.append(k)
    dim = len(indices)
    data = np.ones(len(rows), dtype=np.complex128)
    return scipy.sparse.csr_matrix((data, (rows, cols)), shape=(dim, dim))


def left_creation(n, d, L, i, j, k):
    """L_{i,j;k}: E_{alpha,beta} * e_omega -> E_{i alpha, j beta} * e_{k omega}."""

    def image(idx):
        if len(idx.omega) + 1 > L:
            return None
        return FockBasisIndex((i,) + idx.alpha, (j,) + idx.beta, (k,) + idx.omega)

    return _shift_matrix(n, d, L, image)


def right_creation(n, d, L, a, b, w):
    """R_{a,b;w}: E_{alpha,beta} * e_omega -> E_{alpha a, beta b} * e_{omega w}."""

    def image(idx):
        if len(idx.omega) + 1 > L:
            return None
        return FockBasisIndex(idx.alpha + (a,), idx.beta + (b,), idx.omega + (w,))

    return _shift_matrix(n, d, L, image)


def flip_unitary(n, d, L):
    """The word-transposing involution E_{a,b} * e_w -> E_{a^t,b^t} * e_{w^t}."""

    def image(idx):
        return FockBasisIndex(idx.alpha[::-1], idx.beta[::-1], idx.omega[::-1])

    return _shift_matrix(n, d, L, image)


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

    def coeff(self, alpha, beta, omega):
        return self.coeffs.get(FockBasisIndex(tuple(alpha), tuple(beta), tuple(omega)), 0j)

    def norm(self):
        return float(np.sqrt(sum(abs(v) ** 2 for v in self.coeffs.values())))

    def degree_mass(self, ell):
        """Sum of |coefficient|^2 over indices with |omega| = ell."""
        return float(sum(abs(v) ** 2 for k, v in self.coeffs.items()
                         if len(k.omega) == ell))

    def to_dense(self):
        position = basis_position(self.n, self.d, self.L)
        vec = np.zeros(fock_dim(self.n, self.d, self.L), dtype=np.complex128)
        for idx, val in self.coeffs.items():
            vec[position[idx]] = val
        return vec

    @classmethod
    def from_dense(cls, n, d, L, vec, tol=0.0):
        indices = fock_basis(n, d, L)
        coeffs = {idx: z for idx, z in zip(indices, vec) if abs(z) > tol}
        return cls(n, d, L, coeffs)

    def scaled_by_degree(self, r):
        """Dilation: multiply every degree-l coefficient by r^l."""
        return TruncatedFockVector(
            self.n, self.d, self.L,
            {k: v * (r ** len(k.omega)) for k, v in self.coeffs.items()},
        )

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
        keys, pairs = [], []
        for i, term in enumerate(terms):
            at = "%s.terms[%d]" % (where, i)
            key = tuple(tuple(json_field(term, part, list, at))
                        for part in ("alpha", "beta", "omega"))
            if not all(isinstance(k, int) and not isinstance(k, bool)
                       for k in key[0] + key[1] + key[2]):
                raise ValueError("%s: alpha, beta and omega must hold integer letters" % at)
            keys.append(key)
            pairs.append(json_field(term, "c", list, at))
        values = decode_complex(pairs, (len(terms),), where + ".terms")
        return cls(n, d, big_l, dict(zip(keys, values)))

    def dump(self, path):
        write_json(self.to_json(), path)

    @classmethod
    def load(cls, path):
        return cls.from_json(read_json(path))


def _unit(n, i, j):
    e = np.zeros((n, n), dtype=np.complex128)
    e[i - 1, j - 1] = 1.0
    return e


def _basis_evaluation(idx, h_components, n, m):
    """E_{alpha,beta} * e_omega evaluated on a deviation tuple H (level m)."""
    eye = np.eye(m)
    out = np.kron(eye, _unit(n, idx.alpha[0], idx.beta[0]))
    for s, w in enumerate(idx.omega, start=1):
        out = out @ h_components[w - 1]
        out = out @ np.kron(eye, _unit(n, idx.alpha[s], idx.beta[s]))
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


def fock_realization(h, y, scale=1.0):
    """The canonical descriptor realization of h about Y on C^n (x) F_n(C^d).

    A_k(Z) = (1/scale) sum_{i,j} Z E_{i,j} (x) R*_{i,j;k}, c v = v (x) h_scale
    and b* (u (x) f) = sum <E_{i,j} * e_0, f> E_{i,j} u, where h_scale dilates
    the degree-l coefficients by scale^l.  The truncated adjoint creation
    tuple is jointly nilpotent, so the pencil is unipotent: the transfer
    equals :func:`eval_fock` exactly, at points of every norm.
    """
    n, d, L = h.n, h.d, h.L
    if y.base_n != n or y.d != d:
        raise ValueError("centre does not match the Fock data")
    dim = fock_dim(n, d, L)
    rstar = {}
    for q in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, d + 1):
                rstar[(q, j, k)] = right_creation(n, d, L, q, j, k).conj().T.tocsr()

    units = []
    for k in range(1, d + 1):
        comp = []
        for p in range(1, n + 1):
            row = []
            for q in range(1, n + 1):
                # A_k(E_pq) = sum_j E_pj (x) R*_{qj;k}
                acc = None
                for j in range(1, n + 1):
                    block = scipy.sparse.kron(
                        scipy.sparse.csr_matrix(_unit(n, p, j)), rstar[(q, j, k)],
                        format="csr")
                    acc = block if acc is None else acc + block
                row.append(acc / scale)
            comp.append(row)
        units.append(comp)
    a = MatrixLinearMap(units)

    h_scaled = h.scaled_by_degree(scale)
    c = np.kron(np.eye(n), h_scaled.to_dense()[:, None])

    position = basis_position(n, d, L)
    bstar = np.zeros((n, n * dim), dtype=np.complex128)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            vac = position[FockBasisIndex((i,), (j,), ())]
            # b*(e_j (x) vacuum_{i,j}) = e_i
            bstar[i - 1, (j - 1) * dim + vac] = 1.0
    b = np.conj(bstar).T
    return DescriptorRealization(a, b, c, y)


def reshuffle(h):
    """Rewrite h as an n x n table of free power series in d n^2 variables.

    Entry (a, b) collects the coefficients h_{alpha a, beta b; omega} indexed
    by words of letter-triples ((a_0, b_0, w_1), ..., (a_{l-1}, b_{l-1}, w_l)).
    The map is a permutation of coefficients, hence isometric.
    """
    table = {(a, b): {} for a in range(1, h.n + 1) for b in range(1, h.n + 1)}
    for idx, val in h.coeffs.items():
        a, b = idx.alpha[-1], idx.beta[-1]
        key = tuple(zip(idx.alpha[:-1], idx.beta[:-1], idx.omega))
        table[(a, b)][key] = val
    return table


def unreshuffle(table, n, d, L):
    """Inverse of :func:`reshuffle`."""
    coeffs = {}
    for (a, b), series in table.items():
        for key, val in series.items():
            alpha = tuple(t[0] for t in key) + (a,)
            beta = tuple(t[1] for t in key) + (b,)
            omega = tuple(t[2] for t in key)
            coeffs[(alpha, beta, omega)] = val
    return TruncatedFockVector(n, d, L, coeffs)


def coeffs_from_nc_function(func, y, L, r=1.0):
    """Extract truncated Fock coefficients of a black-box NC function about Y.

    ``func`` maps a :class:`~ncreal.core.MatrixTuple` to a square array.  For
    each word w the multilinear Taylor-Taylor coefficient on matrix-unit
    arguments is read off the top-right block of func at a jointly nilpotent
    point, then converted to h_{alpha,beta;omega} coordinates through the
    matrix-unit expansion of the word coefficient maps.
    """
    from .analysis import nilpotent_point

    n, d = y.base_n, y.d
    coeffs = {}

    f0 = np.asarray(func(ampliate(y, 1)), dtype=np.complex128)
    if f0.shape != (n, n):
        raise ValueError("black-box function returned shape %s at the centre"
                         % (f0.shape,))
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            val = f0[a - 1, b - 1]
            if val != 0:
                coeffs[((a,), (b,), ())] = val

    words = [()]
    for ell in range(1, L + 1):
        words = [w + (k,) for w in words for k in range(1, d + 1)]
        for omega in words:
            # f_omega on units: h_{alpha,beta;omega} is the (a0, b_l) entry of
            # f_omega(E_{b0,a1}, E_{b1,a2}, ..., E_{b_{l-1},a_l}).
            for inner_beta in _words(n, ell):       # (b_0, ..., b_{l-1})
                for inner_alpha in _words(n, ell):  # (a_1, ..., a_l)
                    args = [_unit(n, inner_beta[s], inner_alpha[s]) for s in range(ell)]
                    point = nilpotent_point(y, omega, args, r)
                    try:
                        fval = np.asarray(func(point), dtype=np.complex128)
                    except Exception as exc:
                        raise ValueError(
                            "black-box function failed at the nilpotent point for "
                            "word %r: %s" % (omega, exc)) from exc
                    block = fval[0:n, ell * n:(ell + 1) * n] / (r ** ell)
                    for a0 in range(1, n + 1):
                        for bl in range(1, n + 1):
                            val = block[a0 - 1, bl - 1]
                            if val != 0:
                                alpha = (a0,) + inner_alpha
                                beta = inner_beta + (bl,)
                                coeffs[(alpha, beta, omega)] = val
    return TruncatedFockVector(n, d, L, coeffs)
