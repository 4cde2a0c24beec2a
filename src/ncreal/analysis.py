"""Structure theory of matrix-centre realizations.

Controllable and observable subspaces, Kalman minimization, translation of
the centre, the linearized Lost-Abbey certificate for NC-function-hood,
jointly nilpotent evaluation points (the moment-extraction oracle),
analytic equivalence, and recovery of the similarity between minimal
equivalent realizations.
"""

import numpy as np
import scipy.linalg
import scipy.sparse

from .core import RANK_RTOL, CentrePoint, MatrixTuple, eye_kron, require_invertible
from .linmap import MatrixLinearMap
from .realization import (
    DescriptorRealization,
    FMRealization,
    check_same_centre,
    pencil,
    transfer,
)

__all__ = [
    "SubspaceBasis",
    "invariant_subspace",
    "controllable_basis",
    "observable_basis",
    "is_minimal",
    "kalman_minimize",
    "fm_controllable_basis",
    "fm_observable_basis",
    "is_minimal_fm",
    "kalman_minimize_fm",
    "translate",
    "llac_residual",
    "is_nc_function",
    "nilpotent_point",
    "moment_via_nilpotent",
    "sweep_fits_budget",
    "max_moment_deviation",
    "compare_moments",
    "analytically_equivalent",
    "recover_similarity",
]

# Exact unit-moment sweeps are used while the split Hankel ladders stay below
# this many columns (see sweep_fits_budget); deeper equivalence questions fall
# back to the invariant subspace test, and max_moment_deviation refuses them.
SWEEP_COLUMN_BUDGET = 40000

# Entries per row chunk of a moment sweep (about 5 MB of complex128).  Chunks
# this small keep each product and its block norms in cache; 10^7-entry chunks
# ran about 1.5x slower.
SWEEP_CHUNK_ENTRIES = 300000


class SubspaceBasis:
    """An orthonormal basis of a subspace of the state space C^N."""

    def __init__(self, ambient_dim, basis):
        basis = np.asarray(basis, dtype=np.complex128)
        if basis.shape[0] != ambient_dim:
            raise ValueError("basis rows %d do not match ambient dimension %d"
                             % (basis.shape[0], ambient_dim))
        self.ambient_dim = ambient_dim
        self.basis = basis

    @property
    def dim(self):
        return self.basis.shape[1]

    def __repr__(self):
        return "SubspaceBasis(dim=%d, ambient=%d)" % (self.dim, self.ambient_dim)


def _orth(m, tol=RANK_RTOL):
    """Orthonormal basis of the column span, rank-truncated by pivoted QR."""
    m = np.asarray(m, dtype=np.complex128)
    if m.shape[1] == 0 or not np.any(m):
        return np.zeros((m.shape[0], 0), dtype=np.complex128)
    q, r, _ = scipy.linalg.qr(m, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] == 0.0:
        return np.zeros((m.shape[0], 0), dtype=np.complex128)
    rank = int(np.count_nonzero(diag > tol * diag[0]))
    return q[:, :rank]


def _adj(m):
    if scipy.sparse.issparse(m):
        return m.conj().T.tocsr()
    return np.conj(m).T


def invariant_subspace(generators, seed, tol=RANK_RTOL):
    """Smallest subspace containing Ran(seed) and invariant under the generators.

    Iterates S <- S + sum_g g S until the rank stabilizes; at most N steps.
    """
    seed = np.asarray(seed, dtype=np.complex128)
    ambient = seed.shape[0]
    basis = _orth(seed, tol)
    while 0 < basis.shape[1] < ambient:
        images = [g @ basis for g in generators]
        grown = _orth(np.hstack([basis] + images), tol)
        if grown.shape[1] == basis.shape[1]:
            return grown
        basis = grown
    return basis


def controllable_basis(r):
    """Orthonormal basis of C_{A,c}, the span of all Ran A^w(units) c."""
    gens = [u for _, u in r.A.iter_units()]
    return SubspaceBasis(r.N, invariant_subspace(gens, r.c))


def observable_basis(r):
    """Orthonormal basis of O_{A-adjoint, b}, built from adjoint generators."""
    gens = [_adj(u) for _, u in r.A.iter_units()]
    return SubspaceBasis(r.N, invariant_subspace(gens, r.b))


def is_minimal(r):
    """Controllable and observable: both subspaces fill the state space."""
    if r.N == 0:
        return True
    if controllable_basis(r).dim != r.N:
        return False
    return observable_basis(r).dim == r.N


def _minimal_subspace_basis(units, vc, b):
    """Minimal subspace C ominus (C cap O-perp) in ambient coordinates.

    Equals the observable subspace of the realization restricted to the
    A-invariant controllable subspace, so it is computed entirely inside the
    controllable coordinates (cheap even when the ambient space is huge).
    """
    restricted = [np.conj(vc).T @ (u @ vc) for u in units]
    vo = invariant_subspace([_adj(u) for u in restricted], np.conj(vc).T @ b)
    return vc @ vo


def kalman_minimize(r):
    """Compress (A, b, c) to the minimal subspace; all moments are preserved."""
    units = [u for _, u in r.A.iter_units()]
    vc = invariant_subspace(units, r.c)
    vm = _minimal_subspace_basis(units, vc, r.b)
    k = vm.shape[1]
    d, n = r.d, r.n
    vh = np.conj(vm).T
    a = np.empty((d, n, n, k, k), dtype=np.complex128)
    for (j, p, q), u in r.A.iter_units():
        a[j - 1, p, q] = vh @ (u @ vm)
    return DescriptorRealization(MatrixLinearMap(a), vh @ r.b, vh @ r.c, r.Y)


def fm_controllable_basis(r):
    """FM controllable subspace: span of all Ran A^w(units) B_j(units)."""
    gens = [u for _, u in r.A.iter_units()]
    seeds = [bu for _, bu in r.B.iter_units()]
    seed = np.hstack(seeds) if seeds else np.zeros((r.N, 0))
    return SubspaceBasis(r.N, invariant_subspace(gens, seed))


def fm_observable_basis(r):
    gens = [_adj(u) for _, u in r.A.iter_units()]
    return SubspaceBasis(r.N, invariant_subspace(gens, np.conj(r.C).T))


def is_minimal_fm(r):
    if r.N == 0:
        return True
    if fm_controllable_basis(r).dim != r.N:
        return False
    return fm_observable_basis(r).dim == r.N


def kalman_minimize_fm(r):
    """FM analogue of the Kalman compression (same semi-invariance argument)."""
    units = [u for _, u in r.A.iter_units()]
    vc = fm_controllable_basis(r).basis
    vm = _minimal_subspace_basis(units, vc, np.conj(r.C).T)
    k = vm.shape[1]
    d, n = r.d, r.n
    vh = np.conj(vm).T
    a = np.empty((d, n, n, k, k), dtype=np.complex128)
    b = np.empty((d, n, n, k, n), dtype=np.complex128)
    for (j, p, q), u in r.A.iter_units():
        a[j - 1, p, q] = vh @ (u @ vm)
    for (j, p, q), bu in r.B.iter_units():
        b[j - 1, p, q] = vh @ bu
    return FMRealization(MatrixLinearMap(a), MatrixLinearMap(b), r.C @ vm, r.D, r.Y)


def translate(r, x):
    """Re-centre the realization at a point X of its invertibility domain.

    Returns (A', b', c') about the centre X (size mn, state mN) with
    A'_j(G) = L_A(X - I_m (x) Y)^{-1} (id_m (x) A_j)(G), b' = I_m (x) b and
    c' = L_A(X - I_m (x) Y)^{-1} (I_m (x) c).
    """
    m, n, nstate = x.level_m, r.n, r.N
    p = pencil(r, x)
    require_invertible(p, "cannot translate: point outside the invertibility domain "
                          "(pencil sigma_min = %.3e)")
    lam = np.linalg.inv(p)
    units = r.A.dense()
    mn = m * n
    a = np.zeros((r.d, mn, mn, m * nstate, m * nstate), dtype=np.complex128)
    for j in range(r.d):
        for k in range(m):
            lam_block = lam[:, k * nstate:(k + 1) * nstate]
            for l in range(m):
                for pp in range(n):
                    for qq in range(n):
                        tgt = a[j, k * n + pp, l * n + qq]
                        tgt[:, l * nstate:(l + 1) * nstate] = lam_block @ units[j, pp, qq]
    b2 = eye_kron(m, r.b)
    c2 = lam @ eye_kron(m, r.c)
    centre = CentrePoint([comp.copy() for comp in x.components])
    return DescriptorRealization(MatrixLinearMap(a), b2, c2, centre)


# ---------------------------------------------------------------------------
# linearized Lost-Abbey conditions
# ---------------------------------------------------------------------------

def llac_residual(r):
    """Worst Frobenius residual of the four linearized Lost-Abbey identities.

    All of T, G, H range over the standard matrix units and the letters range
    over 1..d.  A minimal realization defines an NC function exactly when
    this vanishes.
    """
    n, d, nstate = r.n, r.d, r.N
    u = r.A.dense()                      # (d, n, n, N, N)
    y = np.stack(r.Y.components)         # (d, n, n)
    bstar = np.conj(r.b).T
    c = r.c
    m0 = bstar @ c                       # b*c

    # K[r, s] = sum_j A_j([E_rs, Y_j])
    comm = np.zeros((n, n, d, n, n), dtype=np.complex128)
    for rr in range(n):
        for ss in range(n):
            for j in range(d):
                comm[rr, ss, j, rr, :] += y[j][ss, :]
                comm[rr, ss, j, :, ss] -= y[j][:, rr]
    kmat = np.einsum("rsjpq,jpqNM->rsNM", comm, u)

    worst = 0.0

    # LAC1: [T, b*c] - b* A([T,Y]) c
    for rr in range(n):
        for ss in range(n):
            lhs = np.zeros((n, n), dtype=np.complex128)
            lhs[rr, :] += m0[ss, :]
            lhs[:, ss] -= m0[:, rr]
            res = lhs - bstar @ kmat[rr, ss] @ c
            worst = max(worst, float(np.linalg.norm(res)))

    bu = np.einsum("xy,ipqyz->ipqxz", bstar, u)      # b* A_i(E_pq), (d,n,n,n,N)
    uc = np.einsum("ipqxy,yz->ipqxz", u, c)          # A_i(E_pq) c,  (d,n,n,N,n)
    bk = np.einsum("xy,rsyz->rsxz", bstar, kmat)     # b* K_rs
    kc = np.einsum("rsxy,yz->rsxz", kmat, c)         # K_rs c

    # LAC2: T b*A_i(H) - b*A_i(TH) - b*A([T,Y]) A_i(H), T = E_rs, H = E_uv
    for i in range(d):
        for uu in range(n):
            for vv in range(n):
                m_i = bu[i, uu, vv]                  # n x N
                ai = u[i, uu, vv]
                for rr in range(n):
                    for ss in range(n):
                        res = np.zeros((n, nstate), dtype=np.complex128)
                        res[rr, :] = m_i[ss, :]
                        if ss == uu:
                            res -= bu[i, rr, vv]
                        res -= bk[rr, ss] @ ai
                        worst = max(worst, float(np.linalg.norm(res)))

    # LAC3: A_i(HT)c - A_i(H)cT - A_i(H) A([T,Y]) c, T = E_rs, H = E_uv
    for i in range(d):
        for uu in range(n):
            for vv in range(n):
                aic = uc[i, uu, vv]                  # N x n
                ai = u[i, uu, vv]
                for rr in range(n):
                    for ss in range(n):
                        res = -(ai @ kc[rr, ss])
                        res[:, ss] -= aic[:, rr]
                        if vv == rr:
                            res += uc[i, uu, ss]
                        worst = max(worst, float(np.linalg.norm(res)))

    # LAC4: A_i(GT)A_j(H) - A_i(G)A_j(TH) - A_i(G)A([T,Y])A_j(H)
    dn2 = d * n * n
    uf = u.reshape(dn2, nstate, nstate)
    for rr in range(n):
        for ss in range(n):
            t3 = (uf @ kmat[rr, ss])[:, None] @ uf[None]     # (dn2, dn2, N, N)
            res = -t3
            res_l = res.reshape(d, n, n, dn2, nstate, nstate)
            t1 = u[:, :, ss].reshape(d * n, nstate, nstate)[:, None] @ uf[None]
            res_l[:, :, rr] += t1.reshape(d, n, dn2, nstate, nstate)
            res_r = res.reshape(dn2, d, n, n, nstate, nstate)
            t2 = uf[:, None] @ u[:, rr].reshape(d * n, nstate, nstate)[None]
            res_r[:, :, ss] -= t2.reshape(dn2, d, n, nstate, nstate)
            if res.size:
                block = np.sqrt(np.sum(np.abs(res) ** 2, axis=(-2, -1)))
                worst = max(worst, float(block.max()))
    return worst


def is_nc_function(r, tol=1e-9):
    """Certificate: the Kalman-minimized realization satisfies the LAC at tol."""
    return llac_residual(kalman_minimize(r)) <= tol


# ---------------------------------------------------------------------------
# jointly nilpotent evaluation points
# ---------------------------------------------------------------------------

def nilpotent_point(y, word, args, r=1.0):
    """The level-(l+1) jointly nilpotent point X(w) about the centre.

    Component k carries the centre on the block diagonal and r * args[j-1]
    in superdiagonal block (j-1, j) for every position j of the word whose
    letter is k.  Every moment series at X(w) terminates, and the single
    surviving top-degree term isolates the word w.
    """
    if r <= 0:
        raise ValueError("scaling must be positive, got %r" % (r,))
    ell = len(word)
    if len(args) != ell:
        raise ValueError("word of length %d got %d arguments" % (ell, len(args)))
    n = y.base_n
    comps = []
    for k in range(1, y.d + 1):
        mk = eye_kron(ell + 1, y.component(k))
        for pos, letter in enumerate(word):
            if letter == k:
                g = np.asarray(args[pos], dtype=np.complex128)
                if g.shape != (n, n):
                    raise ValueError("argument %d must be %d x %d" % (pos + 1, n, n))
                mk[pos * n:(pos + 1) * n, (pos + 1) * n:(pos + 2) * n] = r * g
        comps.append(mk)
    return MatrixTuple(comps, n)


def moment_via_nilpotent(rz, word, args, r=1.0):
    """Extract the word moment from one transfer value at a nilpotent point.

    Agrees with :func:`ncreal.realization.moment` up to roundoff; the pencil
    at X(w) is unipotent, so no domain condition arises.
    """
    x = nilpotent_point(rz.Y, word, args, r)
    f = transfer(rz, x)
    ell, n = len(word), rz.n
    return f[0:n, ell * n:(ell + 1) * n] / (r ** ell)


# ---------------------------------------------------------------------------
# analytic equivalence and similarity recovery
# ---------------------------------------------------------------------------

def _ladders(r, half):
    """Split Hankel ladders: exact-length stacks of unit words applied to c and b."""
    gens = [u for _, u in r.A.iter_units()]
    cs = [np.asarray(r.c, dtype=np.complex128)]
    os_ = [np.asarray(r.b, dtype=np.complex128)]
    for _ in range(half):
        cs.append(np.hstack([g @ cs[-1] for g in gens]))
        os_.append(np.hstack([_adj(g) @ os_[-1] for g in gens]))
    return os_, cs


def _block_frobenius_max(m, n):
    """Largest Frobenius norm among the n x n blocks of a complex matrix."""
    rows, cols = m.shape
    if m.size == 0:
        return 0.0
    # real view: each block row holds n (re, im) pairs per block column
    v = np.ascontiguousarray(m).view(np.float64).reshape(rows // n, n, cols // n, 2 * n)
    return float(np.sqrt(np.einsum("ijkl,ijkl->ik", v, v).max()))


def sweep_fits_budget(r, depth):
    """Whether the split ladders of a unit sweep to ``depth``, n (d n^2)^ceil(depth/2)
    columns wide, fit SWEEP_COLUMN_BUDGET."""
    return r.n * (r.d * r.n * r.n) ** ((depth + 1) // 2) <= SWEEP_COLUMN_BUDGET


def _moment_chunks(r1, r2, depth):
    """Yield (ell, m1, m2): row chunks of the length-ell unit moments of
    both realizations, one n x n block per word and unit-argument tuple.
    """
    check_same_centre(r1, r2)
    half = (depth + 1) // 2
    o1, c1 = _ladders(r1, half)
    o2, c2 = _ladders(r2, half)
    n = r1.n
    for ell in range(depth + 1):
        a, b = ell // 2, ell - ell // 2
        ka = o1[a].shape[1]
        chunk = max(n, (SWEEP_CHUNK_ENTRIES // max(1, c1[b].shape[1])) // n * n)
        for start in range(0, ka, chunk):
            stop = min(ka, start + chunk)
            m1 = np.conj(o1[a][:, start:stop]).T @ c1[b]
            m2 = np.conj(o2[a][:, start:stop]).T @ c2[b]
            yield ell, m1, m2


def max_moment_deviation(r1, r2, depth):
    """Exact max Frobenius deviation of unit-argument moments up to ``depth``.

    Enumerates every word w with |w| <= depth and every tuple of matrix-unit
    arguments through split Hankel ladders.  The deviation is absolute.
    Raises ValueError when the ladders would not fit SWEEP_COLUMN_BUDGET.
    """
    if not sweep_fits_budget(r1, depth):
        raise ValueError("a moment sweep to depth %d does not fit the budget of %d "
                         "ladder columns" % (depth, SWEEP_COLUMN_BUDGET))
    worst = 0.0
    for _, m1, m2 in _moment_chunks(r1, r2, depth):
        m1 -= m2
        worst = max(worst, _block_frobenius_max(m1, r1.n))
    return worst


def _sweep_equivalent(r1, r2, depth, tol):
    """Unit sweep with the deviation at each word length ell bounded by
    ``tol * max(1, size_ell)``, size_ell the largest length-ell moment norm.

    Returns the verdict and the absolute maximum deviation.
    """
    n = r1.n
    dev = np.zeros(depth + 1)
    size = np.zeros(depth + 1)
    for ell, m1, m2 in _moment_chunks(r1, r2, depth):
        size[ell] = max(size[ell], _block_frobenius_max(m1, n),
                        _block_frobenius_max(m2, n))
        m1 -= m2
        dev[ell] = max(dev[ell], _block_frobenius_max(m1, n))
    return bool(np.all(dev <= tol * np.maximum(1.0, size))), float(dev.max())


def _difference_realization(r1, r2):
    d, n = r1.d, r1.n
    n1, n2 = r1.N, r2.N
    a = np.zeros((d, n, n, n1 + n2, n1 + n2), dtype=np.complex128)
    a[..., :n1, :n1] = r1.A.dense()
    a[..., n1:, n1:] = r2.A.dense()
    b = np.vstack([r1.b, -r2.b])
    c = np.vstack([r1.c, r2.c])
    return DescriptorRealization(MatrixLinearMap(a), b, c, r1.Y)


def compare_moments(r1, r2, depth, tol):
    """Analytic equivalence with its evidence: (equivalent, max_deviation).

    In sweep mode ``max_deviation`` is the absolute :func:`max_moment_deviation`
    of the same sweep; in subspace mode it is None.  See
    :func:`analytically_equivalent` for the two modes and for ``tol``.
    """
    check_same_centre(r1, r2)
    if r1.A.is_sparse:
        r1 = kalman_minimize(r1)
    if r2.A.is_sparse:
        r2 = kalman_minimize(r2)
    if sweep_fits_budget(r1, depth):
        return _sweep_equivalent(r1, r2, depth, tol)
    diff = _difference_realization(r1, r2)
    gens = [u for _, u in diff.A.iter_units()]
    v = invariant_subspace(gens, diff.c)
    if v.shape[1] == 0:
        return True, None
    resid = float(np.linalg.norm(np.conj(diff.b).T @ v, 2))
    scale = max(1.0, float(np.linalg.norm(diff.b, 2)))
    return resid <= tol * scale, None


def analytically_equivalent(r1, r2, depth=None, tol=1e-9):
    """Whether all moments agree: b* A^w(units) c matches up to |w| <= depth.

    ``depth`` defaults to N1 + N2 (a classical heuristic; the theory gives no
    finite determinacy bound for matrix centres).  The unit sweep is exact
    while the split ladders fit the column budget (:func:`sweep_fits_budget`);
    beyond that the test switches to an invariant-subspace criterion on the
    difference realization, which checks all depths at once: the observable
    vectors of the difference must annihilate its controllable subspace.

    ``tol`` is relative with a floor of 1 in both branches.  In the sweep
    the largest moment deviation at each word length must stay below
    ``tol * max(1, s)``, s the largest moment norm of that length in either
    realization, so roundoff in large deep moments is not mistaken for a
    difference and small short moments are still compared absolutely.  In
    the subspace branch the residual must stay below ``tol * max(1, ||b||)``
    for the output vectors b of the difference realization.
    """
    if depth is None:
        depth = r1.N + r2.N
    return compare_moments(r1, r2, depth, tol)[0]


def recover_similarity(r1, r2, tol=1e-8):
    """The invertible S intertwining two minimal equivalent realizations.

    Solves S A^w(units) c_1 = A'^w(units) c_2 in least squares over a
    spanning set of word products and certifies the residual; fails loudly
    on non-minimal inputs, mismatched dimensions or an inconsistent system.
    """
    check_same_centre(r1, r2)
    if r1.N != r2.N:
        raise ValueError("state dimensions differ: %d vs %d" % (r1.N, r2.N))
    if not (is_minimal(r1) and is_minimal(r2)):
        raise ValueError("both realizations must be minimal")
    if not analytically_equivalent(r1, r2):
        raise ValueError("realizations are not analytically equivalent")

    gens1 = [u for _, u in r1.A.iter_units()]
    gens2 = [u for _, u in r2.A.iter_units()]
    nstate = r1.N

    kept1, kept2 = [], []
    all1, all2 = [], []
    ortho = np.zeros((nstate, 0), dtype=np.complex128)

    def try_keep(v1, v2):
        nonlocal ortho
        all1.append(v1)
        all2.append(v2)
        resid = v1 - ortho @ (np.conj(ortho).T @ v1)
        nrm = np.linalg.norm(resid)
        if nrm > RANK_RTOL * max(1.0, np.linalg.norm(v1)):
            kept1.append(v1)
            kept2.append(v2)
            ortho = np.hstack([ortho, (resid / nrm)[:, None]])
            return True
        return False

    frontier = []
    for col in range(r1.c.shape[1]):
        v1, v2 = r1.c[:, col], r2.c[:, col]
        if try_keep(v1, v2):
            frontier.append((v1, v2))
    while frontier and len(kept1) < nstate:
        nxt = []
        for v1, v2 in frontier:
            for g1, g2 in zip(gens1, gens2):
                w1, w2 = g1 @ v1, g2 @ v2
                if try_keep(w1, w2):
                    nxt.append((w1, w2))
        frontier = nxt

    k1 = np.column_stack(kept1) if kept1 else np.zeros((nstate, 0))
    k2 = np.column_stack(kept2) if kept2 else np.zeros((nstate, 0))
    if np.linalg.matrix_rank(k1, tol=RANK_RTOL * max(1.0, np.linalg.norm(k1, 2))) < nstate:
        raise ValueError("spanning set does not fill the state space; "
                         "realization is not controllable")
    s = k2 @ np.linalg.pinv(k1)

    v1_all = np.column_stack(all1)
    v2_all = np.column_stack(all2)
    resid = np.linalg.norm(s @ v1_all - v2_all) / max(1.0, np.linalg.norm(v2_all))
    if resid > tol:
        raise ValueError(
            "intertwining system is inconsistent (relative residual %.3e); "
            "the realizations do not define the same transfer function" % resid
        )
    require_invertible(s, "recovered intertwiner is singular (sigma_min = %.3e)")
    return s
