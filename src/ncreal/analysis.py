"""Structure theory of matrix-centre realizations.

Controllable and observable subspaces, Kalman minimization, translation of
the centre, the linearized Lost-Abbey certificate for NC-function-hood,
jointly nilpotent evaluation points (the moment-extraction oracle),
analytic equivalence, and recovery of the similarity between minimal
equivalent realizations.

Controllability, observability, minimality and Kalman compression take one
path for descriptor and FM realizations alike: the invariant subspace of the
A-words grown from a seed.  Each realization names its seeds and how it
restricts to an orthonormal state basis V.  A descriptor realization (A, b, c)
has controllable seed c and observable seed b, and restricts to
(V*AV, V*b, V*c).  An FM realization (A, B, C, D) has the columns of every
B_j(E_pq) and C*, and restricts to (V*AV, V*B, CV, D).

The subspace grows from its frontier.  Each step images only the directions
the step before added, since span_k = span_{k-1} + A(new_{k-1}) gives the
span that imaging the whole basis would.  It cuts what is new against the
largest image column norm formed so far, with a floor of 1, and the step that
finds nothing new takes no QR.

The four linearized Lost-Abbey conditions of a descriptor realization are one
identity.  Take the left factors L in {b*, A_i(E_pq)} and the right factors R
in {c, A_j(E_uv)}.  A matrix unit T = E_rs acts on them as

    L_T in {T b*, A_i(E_pq T) = [q = r] A_i(E_ps)},
    R_T in {c T,  A_j(T E_uv) = [s = u] A_j(E_rv)},

and every condition reads L_T R - L R_T - L A([T, Y]) R = 0, where A([T, Y])
= sum_j A_j([T, Y_j]).  The pair (b*, c) gives the first condition, (b*,
A_j) the second, (A_i, c) the third and (A_i, A_j) the fourth.
"""

import numpy as np
import scipy.linalg.lapack

from .core import (
    RANK_RTOL,
    CentrePoint,
    MatrixTuple,
    SingularMatrixError,
    eye_kron,
    invert_checked,
    require_invertible,
    require_nonnegative,
    require_positive,
    require_within_cap,
)
from .linmap import MatrixLinearMap, ampliated_apply
from .realization import (
    DescriptorRealization,
    _decide,
    _dense_pencil,
    check_same_centre,
    transfer,
)

__all__ = [
    "invariant_subspace",
    "controllable_basis",
    "observable_basis",
    "is_minimal",
    "kalman_minimize",
    "translate",
    "llac_residual",
    "tree_point",
    "nilpotent_point",
    "nilpotent_moment",
    "moment_via_nilpotent",
    "max_moment_deviation",
    "compare_moments",
    "analytically_equivalent",
    "recover_similarity",
]

# max_moment_deviation, the exact unit-moment sweep, refuses depths whose split
# Hankel ladders would exceed this many columns.  Equivalence never sweeps.
SWEEP_COLUMN_BUDGET = 40000

# Entries per row chunk of a moment sweep (about 5 MB of complex128).  Chunks
# this small keep each product and its block norms in cache; 10^7-entry chunks
# ran about 1.5x slower.
SWEEP_CHUNK_ENTRIES = 300000


def _orth(m, scale=None):
    """Orthonormal basis of the column span: the pivoted-QR directions whose pivot
    exceeds RANK_RTOL * ``scale``, by default the largest column norm of m.

    LAPACK's zgeqp3 and zungqr are called directly, without the wrapper checks
    and workspace queries of ``scipy.linalg.qr``, and zungqr forms only the kept
    columns of Q.  ValueError when an entry of m is not finite.
    """
    m = np.asarray(m, dtype=np.complex128)
    rows, cols = m.shape
    if cols == 0 or not np.any(m):
        return np.zeros((rows, 0), dtype=np.complex128)
    if not np.isfinite(m).all():
        raise ValueError("the columns of a subspace hold non-finite entries")
    qr, _, tau, _, _ = scipy.linalg.lapack.zgeqp3(m, lwork=34 * (cols + 1))
    diag = np.abs(qr.diagonal())          # diag[0] > 0: the largest column norm
    rank = int(np.count_nonzero(diag > RANK_RTOL * (diag[0] if scale is None else scale)))
    if rank == 0:
        return np.zeros((rows, 0), dtype=np.complex128)
    return scipy.linalg.lapack.zungqr(qr[:, :rank], tau[:rank], lwork=32 * rank)[0]


def _largest_column_norm(m):
    """The largest 2-norm among the columns of m, taken on m over its largest entry
    where the squares overflow; callers silence numpy's overflow warning.
    ValueError when it is not finite."""
    top = float(np.linalg.norm(m, axis=0).max(initial=0.0))
    if not np.isfinite(top) and np.isfinite(m).all():   # the squares overflowed
        big = max(np.abs(m.real).max(), np.abs(m.imag).max())
        top = big * float(np.linalg.norm(m / big, axis=0).max())
    if not np.isfinite(top):
        raise ValueError("the images of a subspace overflow to non-finite entries")
    return top


def invariant_subspace(a, seed, steps=None):
    """Smallest subspace containing Ran(seed) and invariant under the units of the map a.

    Step k spans {A^w(units) seed : |w| <= k}.  It is grown from its frontier, as
    :func:`_grown` describes, until a step adds nothing (at most N steps) or
    after ``steps`` steps.
    """
    return _grown(a, _orth(seed), steps)


@np.errstate(over="ignore")   # an overflow meets _largest_column_norm
def _grown(a, basis, steps=None):
    """:func:`invariant_subspace` from the orthonormal basis of its seed.

    Grows from the frontier: step k images only the directions that step k - 1
    added (at step 1, the seed's basis), since span_k = span_{k-1} +
    A(new_{k-1}).  Those images are projected off the basis V twice (classical
    Gram-Schmidt, two passes).  When no projected column exceeds RANK_RTOL *
    scale, the span is invariant and the growth stops without a QR; otherwise
    the step appends :func:`_orth` of them at that scale, projected off V once
    more: the QR divides their roundoff along V by its pivots, and a pivot of
    1e-3 left 1e-13 of it.  The scale is max(1, the largest image column norm
    formed so far): the largest column norm among the orthonormal V and every
    image of it.  ValueError when an image overflows.
    """
    new, scale, taken = basis, 1.0, 0
    while new.shape[1] and basis.shape[1] < basis.shape[0] and (steps is None or taken < steps):
        w = a.images(new)
        scale = max(scale, _largest_column_norm(w))
        for _ in range(2):
            w -= basis @ (np.conj(basis).T @ w)
        if not _largest_column_norm(w) > RANK_RTOL * scale:
            break
        new = _orth(w, scale)
        new -= basis @ (np.conj(basis).T @ new)
        basis = np.hstack([basis, new])
        taken += 1
    return basis


def controllable_basis(r):
    """Orthonormal N x k basis of the controllable subspace: the span of all
    A^w(units) applied to the realization's controllable seed."""
    return invariant_subspace(r.A, r.controllable_seed)


def observable_basis(r):
    """Orthonormal N x k basis of the observable subspace: the span of all
    adjoint words applied to the realization's observable seed."""
    return invariant_subspace(r.A.adjoint(), r.observable_seed)


def is_minimal(r):
    """Controllable and observable: both subspaces fill the state space."""
    return controllable_basis(r).shape[1] == r.N and observable_basis(r).shape[1] == r.N


@np.errstate(over="ignore")   # an overflow meets _largest_column_norm
def kalman_minimize(r):
    """Compress the realization to its minimal subspace; all moments are preserved.

    The minimal subspace C ominus (C cap O-perp) is the observable subspace
    of the realization restricted to the A-invariant controllable subspace C,
    so it is computed inside the controllable coordinates (cheap even when
    the ambient space is huge).  The projected observable seed is rank-cut against
    the seed before projection, so a seed projected to roundoff spans nothing.
    """
    vc = controllable_basis(r)
    vch = np.conj(vc).T
    scale = _largest_column_norm(r.observable_seed)
    vo = _grown(r.A.compressed(vch, vc).adjoint(), _orth(vch @ r.observable_seed, scale))
    return r.restricted(vc @ vo)


def translate(r, x):
    """Re-centre the realization at a point X of its invertibility domain.

    Returns (A', b', c') about the centre X (size mn, state mN) with
    A'_j(G) = L_A(X - I_m (x) Y)^{-1} (id_m (x) A_j)(G), b' = I_m (x) b and
    c' = L_A(X - I_m (x) Y)^{-1} (I_m (x) c).  The evaluation kernel decides
    the domain; outside it, SingularMatrixError carries the pencil's sigma_min.
    A map of d (mn)^2 (mN)^2 entries above ALLOCATION_CAP raises ValueError first.
    """
    m, n, nstate = x.level_m, r.n, r.N
    require_within_cap(r.d * (m * m * n * nstate) ** 2, "the map translated to level %d" % m)
    _, _, t, _, p, verdict = _decide(r, x)   # T built once, for the verdict and Lambda
    if not verdict.in_domain:
        raise SingularMatrixError("cannot translate: point outside the invertibility "
                                  "domain (pencil sigma_min = %.3e)" % verdict.sigma_min,
                                  sigma_min=verdict.sigma_min)
    lam = np.linalg.inv(_dense_pencil(t) if p is None else p)
    # block (k, l) of A'_j(E_pq) is Lambda[:, k-th N columns] @ A_j(E_pq) in column block l
    lam_blocks = lam.reshape(m * nstate, m, nstate).transpose(1, 0, 2)
    prod = lam_blocks[:, None, None, None] @ r.A.dense()   # axes k, j, p, q
    a = np.zeros((r.d, m, n, m, n, m * nstate, m, nstate), dtype=np.complex128)
    diag = np.arange(m)
    a[:, :, :, diag, :, :, diag, :] = prod.transpose(1, 0, 2, 3, 4, 5)
    a = a.reshape(r.d, m * n, m * n, m * nstate, m * nstate)
    b2 = eye_kron(m, r.b)
    c2 = lam @ eye_kron(m, r.c)
    centre = CentrePoint([comp.copy() for comp in x.components])
    return DescriptorRealization(MatrixLinearMap(a), b2, c2, centre)


# ---------------------------------------------------------------------------
# linearized Lost-Abbey conditions
# ---------------------------------------------------------------------------

@np.errstate(over="ignore", invalid="ignore")   # overflow meets the checks below
def llac_residual(r):
    """Worst Frobenius residual of the linearized Lost-Abbey conditions.

    The four conditions are the one identity L_T R - L R_T - L A([T, Y]) R
    of the module docstring, over every matrix unit T = E_rs, every left
    factor L and every right factor R.  With the left factors stacked by
    rows and the right ones side by side, L_T R is T acting on the rows of
    the product L R and L R_T is T acting on its columns; past that shared
    product each T costs A([T, Y]) R and L (A([T, Y]) R).  The residual is
    the largest Frobenius norm among the (left, right) blocks.  A minimal
    realization defines an NC function exactly when it vanishes.  A residual
    whose squared entries overflow is recomputed on the residual over its
    largest entry and scaled back.  ValueError when an entry or the residual
    itself overflows, so that no NaN or inf stands in for a residual.
    """
    n, d, nstate = r.n, r.d, r.N
    if nstate == 0:
        return 0.0
    u = r.A.dense()                      # (d, n, n, N, N)
    bstar, units = np.conj(r.b).T, u.reshape(-1, nstate, nstate)
    right = np.hstack([r.c, u.transpose(3, 0, 1, 2, 4).reshape(nstate, -1)])
    width = right.shape[1]               # n + d n^2 N, the rows of L too

    def left_times(m):
        # L m, one product per block of L.  One (n + d n^2 N) x N x width
        # product goes to threaded BLAS; on a 2-core host that made this
        # function about 8x slower inside acceptance criterion 5.
        out = np.empty((width, m.shape[1]), dtype=np.complex128)
        np.matmul(bstar, m, out=out[:n])
        np.matmul(units, m, out=out[n:].reshape(-1, nstate, m.shape[1]))
        return out

    edges = np.concatenate([[0], np.arange(n, width, nstate)])

    def block_norm_max(res):
        sq = res.real ** 2 + res.imag ** 2
        blocks = np.add.reduceat(np.add.reduceat(sq, edges, axis=0), edges, axis=1)
        return float(np.sqrt(blocks.max()))

    lr = left_times(right)
    lr_rows = lr[n:].reshape(d, n, n, nstate, -1)       # A_i(E_pq) R
    lr_cols = lr[:, n:].reshape(-1, d, n, n, nstate)    # L A_j(E_uv)
    worst = 0.0
    for rr in range(n):
        for ss in range(n):
            t = np.zeros((n, n), dtype=np.complex128)
            t[rr, ss] = 1.0
            k = ampliated_apply(r.A, MatrixTuple([t @ y - y @ t for y in r.Y.components], n))
            res = -left_times(k @ right)
            # L_T R: E_rs b* R, and A_i(E_pq E_rs) R = [q = r] A_i(E_ps) R
            res[rr] += lr[ss]
            res[n:].reshape(lr_rows.shape)[:, :, rr] += lr_rows[:, :, ss]
            # L R_T: L c E_rs, and L A_j(E_rs E_uv) = [u = s] L A_j(E_rv)
            res[:, ss] -= lr[:, rr]
            res[:, n:].reshape(lr_cols.shape)[:, :, ss] -= lr_cols[:, :, rr]
            residual = block_norm_max(res)
            if not np.isfinite(residual) and np.isfinite(res).all():   # squares overflowed
                top = float(np.abs(res.view(np.float64)).max())
                residual = top * block_norm_max(res / top)
            if not np.isfinite(residual):   # max() would keep worst over a NaN
                raise ValueError("the Lost-Abbey residual overflows to non-finite entries")
            worst = max(worst, residual)
    return worst


# ---------------------------------------------------------------------------
# jointly nilpotent evaluation points
# ---------------------------------------------------------------------------

def tree_point(y, parents, word, args, r=1.0):
    """The jointly nilpotent point about the centre on a rooted tree of l + 1 nodes.

    Node 0 is the root, and node i = 1..l hangs below node parents[i-1] < i on
    an edge with letter word[i-1] and argument args[i-1].  Component k carries
    the centre on the block diagonal and r * args[i-1] in block
    (parents[i-1], i) for every edge with letter k, so X - I_{l+1} (x) Y is
    jointly nilpotent of order one more than the tree's height.  Block (0, v)
    of an NC function's value at X is r^|w| f_w(G_1, ..., G_|w|), where w and
    G are the letters and arguments on the path from the root to v: every
    moment series terminates, and the only term that reaches v is that path.

    A path is :func:`nilpotent_point`.  A path of L - 1 edges whose end node
    has one child per letter-unit pair (k, E_pq) is a sibling probe of
    :func:`ncreal.fock.coeffs_from_nc_function`, which takes (d n^2)^(L-1)
    of them for the coefficients through degree L.
    """
    require_positive("r", r)
    ell = len(word)
    if len(parents) != ell or len(args) != ell:
        raise ValueError("word of length %d got %d arguments and %d parents"
                         % (ell, len(args), len(parents)))
    n, d = y.base_n, y.d
    for pos, (parent, letter, g) in enumerate(zip(parents, word, args)):
        if not 0 <= parent <= pos:
            raise ValueError("node %d needs a parent among nodes 0..%d, got %r"
                             % (pos + 1, pos, parent))
        if not 1 <= letter <= d:
            raise ValueError("letter %r of node %d is not in 1..%d" % (letter, pos + 1, d))
        if np.shape(g) != (n, n):
            raise ValueError("argument %d must be %d x %d" % (pos + 1, n, n))
    comps = np.zeros((d, ell + 1, n, ell + 1, n), dtype=np.complex128)
    diag = np.arange(ell + 1)
    comps[:, diag, :, diag, :] = y.array
    if ell:
        comps[np.asarray(word) - 1, np.asarray(parents), :, diag[1:], :] = \
            r * np.asarray(args, dtype=np.complex128)
    return MatrixTuple(comps.reshape(d, (ell + 1) * n, (ell + 1) * n), n)


def nilpotent_point(y, word, args, r=1.0):
    """The level-(l+1) jointly nilpotent point X(w) about the centre: the
    :func:`tree_point` on the path 0 - 1 - ... - l.

    Component k carries the centre on the block diagonal and r * args[j-1]
    in superdiagonal block (j-1, j) for every position j of the word whose
    letter is k.  Every moment series at X(w) terminates, and the single
    surviving top-degree term isolates the word w.
    """
    return tree_point(y, range(len(word)), word, args, r)


def nilpotent_moment(f, n, ell, r):
    """The word moment in a value f at a length-ell :func:`nilpotent_point`: its
    top-right n x n block over r^ell."""
    return f[0:n, ell * n:(ell + 1) * n] / (r ** ell)


def moment_via_nilpotent(rz, word, args, r=1.0):
    """Extract the word moment from one transfer value at a nilpotent point.

    Agrees with :func:`ncreal.realization.moment` up to roundoff; the pencil
    at X(w) is unipotent, so no domain condition arises.
    """
    x = nilpotent_point(rz.Y, word, args, r)
    return nilpotent_moment(transfer(rz, x), rz.n, len(word), r)


# ---------------------------------------------------------------------------
# analytic equivalence and similarity recovery
# ---------------------------------------------------------------------------

def _ladders(r, half):
    """Split Hankel ladders of unit words applied to c and b, one product per ``unit()``:
    the exact oracle that tests hold the subspace test against shares no kernel with it."""
    units = [r.A.unit(j + 1, p, q) for j, p, q in np.ndindex(r.d, r.n, r.n)]
    cs = [np.asarray(r.c, dtype=np.complex128)]
    os_ = [np.asarray(r.b, dtype=np.complex128)]
    for _ in range(half):
        cs.append(np.hstack([u @ cs[-1] for u in units]))
        os_.append(np.hstack([u.conj().T @ os_[-1] for u in units]))
    return os_, cs


def _block_frobenius_max(m, n):
    """Largest Frobenius norm among the n x n blocks of a complex matrix."""
    rows, cols = m.shape
    if m.size == 0:
        return 0.0
    # real view: each block row holds n (re, im) pairs per block column
    v = np.ascontiguousarray(m).view(np.float64).reshape(rows // n, n, cols // n, 2 * n)
    return float(np.sqrt(np.einsum("ijkl,ijkl->ik", v, v).max()))


def max_moment_deviation(r1, r2, depth):
    """Exact max Frobenius deviation of unit-argument moments up to ``depth``.

    Enumerates every word w with |w| <= depth and every tuple of matrix-unit
    arguments through split Hankel ladders, n (d n^2)^ceil(depth/2) columns
    wide, in row chunks.  The deviation is absolute.  Raises ValueError on a
    negative depth and when the ladders would not fit SWEEP_COLUMN_BUDGET.
    Its callers are the exact oracle of the tests and the traced replay of
    ncbench's compile-certify workload.
    """
    require_nonnegative("depth", depth)
    half = (depth + 1) // 2
    n = r1.n
    if n * (r1.d * n * n) ** half > SWEEP_COLUMN_BUDGET:
        raise ValueError("a moment sweep to depth %d does not fit the budget of %d "
                         "ladder columns" % (depth, SWEEP_COLUMN_BUDGET))
    check_same_centre(r1, r2)
    o1, c1 = _ladders(r1, half)
    o2, c2 = _ladders(r2, half)
    worst = 0.0
    for ell in range(depth + 1):
        a, b = ell // 2, ell - ell // 2
        ka = o1[a].shape[1]
        chunk = max(n, (SWEEP_CHUNK_ENTRIES // max(1, c1[b].shape[1])) // n * n)
        for start in range(0, ka, chunk):
            stop = min(ka, start + chunk)
            m1 = np.conj(o1[a][:, start:stop]).T @ c1[b]
            m1 -= np.conj(o2[a][:, start:stop]).T @ c2[b]
            worst = max(worst, _block_frobenius_max(m1, n))
    return worst


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
    """Analytic equivalence with its margin: (equivalent, residual, allowed).

    The one criterion is the invariant-subspace test on the difference
    realization (A1 (+) A2, b1 (+) -b2, c1 (+) c2), whose moments are the
    differences of the two realizations' moments.  Its output vectors b must
    annihilate V, an orthonormal basis of the span of A^w(units) c over
    |w| <= ``depth``: ``residual`` = ||b* V||_2 must not exceed ``allowed`` =
    tol * max(1, ||b||_2).  So all moments through length ``depth`` agree,
    decided in polynomial time.  Any depth >= N1 + N2 saturates V to the
    controllable subspace of the difference, and the verdict then covers
    every depth.  A negative depth or a non-finite or negative tol raises
    ValueError.
    """
    require_nonnegative("depth", depth)
    require_nonnegative("tol", tol)
    check_same_centre(r1, r2)
    if r1.A.is_sparse:
        r1 = kalman_minimize(r1)
    if r2.A.is_sparse:
        r2 = kalman_minimize(r2)
    return _subspace_test(r1, r2, depth, tol)[:3]


def _subspace_test(r1, r2, depth, tol):
    """The test of :func:`compare_moments` on two checked realizations:
    (equivalent, residual, allowed, V), with V the tested orthonormal basis."""
    diff = _difference_realization(r1, r2)
    v = invariant_subspace(diff.A, diff.c, steps=depth)
    residual = float(np.linalg.norm(np.conj(diff.b).T @ v, 2)) if v.shape[1] else 0.0
    allowed = tol * max(1.0, float(np.linalg.norm(diff.b, 2)))
    return residual <= allowed, residual, allowed, v


def analytically_equivalent(r1, r2, depth=None, tol=1e-9):
    """Whether all moments b* A^w(units) c of the two realizations agree
    through |w| <= ``depth``, by the invariant-subspace test of
    :func:`compare_moments`.

    ``depth`` caps the words that span the tested subspace.  Its default,
    N1 + N2, saturates that subspace, so the default verdict covers every
    depth.  ``tol`` is relative with a floor of 1: the residual must stay
    below ``tol * max(1, ||b||)`` for the output vectors b of the difference
    realization.
    """
    if depth is None:
        depth = r1.N + r2.N
    return compare_moments(r1, r2, depth, tol)[0]


def recover_similarity(r1, r2):
    """The invertible S intertwining two minimal equivalent realizations:
    S c_1 = c_2, S A_1j(E_pq) = A_2j(E_pq) S and b_1* = b_2* S.

    S sends A_1^w(units) c_1 to A_2^w(units) c_2 for every word, so its graph
    {(v, S v)} is the controllable subspace of the difference realization
    (A_1 (+) A_2, c_1 (+) c_2).  That subspace has dimension N exactly when it
    is a graph; with an orthonormal basis V = [V_1; V_2] of it, S = V_2 V_1^{-1}.
    V is the one the equivalence test of :func:`compare_moments` builds at
    depth 2N, which saturates it, and tol 1e-9; the inputs are checked to be
    minimal, so the test skips its Kalman step.  Raises ValueError on
    mismatched dimensions, non-minimal or inequivalent inputs, or a subspace
    that is not N-dimensional, and SingularMatrixError when V_1 or S fails
    the invertibility test.  The paper's statement that minimal realizations of one
    function are similar, by a unique S: tests/test_analysis.py::TestRecoverSimilarity.
    """
    check_same_centre(r1, r2)
    nstate = r1.N
    if nstate != r2.N:
        raise ValueError("state dimensions differ: %d vs %d" % (nstate, r2.N))
    if not (is_minimal(r1) and is_minimal(r2)):
        raise ValueError("both realizations must be minimal")
    equivalent, _, _, v = _subspace_test(r1, r2, 2 * nstate, 1e-9)
    if not equivalent:
        raise ValueError("realizations are not analytically equivalent")
    if v.shape[1] != nstate:
        raise ValueError("the intertwining subspace has dimension %d, not %d; the "
                         "realizations do not define the same transfer function"
                         % (v.shape[1], nstate))
    s = v[nstate:] @ invert_checked(v[:nstate], "graph basis")
    require_invertible(s, "recovered intertwiner is singular (sigma_min = %.3e)")
    return s
