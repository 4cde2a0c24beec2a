"""Sum, product and inverse of FM realizations, generators, and conversions.

The Fornasini-Marchesini data composes under the pointwise arithmetic of the
transfer functions: block-diagonal states for sums, block-upper-triangular
coupling for products, and a D-inverse feedback for reciprocals.  Constants
and coordinates are the recursion base; their state spaces are allowed to be
zero-dimensional.
"""

import numpy as np

from .core import SingularMatrixError, invert_checked, matrix_units
from .linmap import MatrixLinearMap
from .realization import DescriptorRealization, FMRealization, check_same_centre

__all__ = [
    "fm_add",
    "fm_mul",
    "fm_neg",
    "fm_inv",
    "constant_fm",
    "coordinate_fm",
    "desc_to_fm",
    "fm_to_desc",
]


def fm_add(r, s):
    """FM realization of f + g: states direct-sum, outputs concatenate."""
    check_same_centre(r, s)
    d, n = r.d, r.n
    nr, ns = r.N, s.N
    ar, br = r.A.dense(), r.B.dense()
    as_, bs = s.A.dense(), s.B.dense()
    a = np.zeros((d, n, n, nr + ns, nr + ns), dtype=np.complex128)
    a[..., :nr, :nr] = ar
    a[..., nr:, nr:] = as_
    b = np.concatenate([br, bs], axis=3)
    c = np.hstack([r.C, s.C])
    return FMRealization(MatrixLinearMap(a), MatrixLinearMap(b), c, r.D + s.D, r.Y)


def fm_mul(r, s):
    """FM realization of f * g via the block-upper-triangular coupling."""
    check_same_centre(r, s)
    d, n = r.d, r.n
    nr, ns = r.N, s.N
    ar, br = r.A.dense(), r.B.dense()
    as_, bs = s.A.dense(), s.B.dense()
    a = np.zeros((d, n, n, nr + ns, nr + ns), dtype=np.complex128)
    a[..., :nr, :nr] = ar
    a[..., :nr, nr:] = br @ s.C          # G -> B_j(G) C'
    a[..., nr:, nr:] = as_
    b = np.concatenate([br @ s.D, bs], axis=3)
    c = np.hstack([r.C, r.D @ s.C])
    return FMRealization(MatrixLinearMap(a), MatrixLinearMap(b), c, r.D @ s.D, r.Y)


def fm_neg(r):
    """FM realization of -f (same state space)."""
    return FMRealization(r.A, r.B, -r.C, -r.D, r.Y)


def fm_inv(r):
    """FM realization of f^{-1}, defined when D = f(Y) is invertible."""
    try:
        d_inv = invert_checked(r.D, "centre value D")
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            "realization not invertible at centre (sigma_min(D) = %.3e)"
            % (exc.sigma_min if exc.sigma_min is not None else float("nan")),
            sigma_min=exc.sigma_min,
        ) from exc
    a = r.A.dense()
    b = r.B.dense()
    a_inv = a - b @ (d_inv @ r.C)
    b_inv = -(b @ d_inv)
    return FMRealization(
        MatrixLinearMap(a_inv), MatrixLinearMap(b_inv), d_inv @ r.C, d_inv, r.Y
    )


def constant_fm(value, y):
    """The constant function X -> I_m (x) value as an FM realization with no state."""
    n, d = y.base_n, y.d
    value = np.asarray(value, dtype=np.complex128)
    if value.shape != (n, n):
        raise ValueError("constant must be %d x %d, got %s" % (n, n, value.shape))
    a = MatrixLinearMap.zeros(d, n, 0)
    b = MatrixLinearMap.zeros(d, n, 0, n)
    c = np.zeros((n, 0), dtype=np.complex128)
    return FMRealization(a, b, c, value, y)


def coordinate_fm(k, y):
    """FM realization of the k-th coordinate, f(X) = X_k (1-based letter k)."""
    n, d = y.base_n, y.d
    if not 1 <= k <= d:
        raise ValueError("coordinate index %d out of range 1..%d" % (k, d))
    a = MatrixLinearMap.zeros(d, n, n)
    bcoef = np.zeros((d, n, n, n, n), dtype=np.complex128)
    bcoef[k - 1] = matrix_units(n)           # B_k(G) = G, other letters vanish
    return FMRealization(
        a, MatrixLinearMap(bcoef), np.eye(n, dtype=np.complex128),
        y.component(k).copy(), y,
    )


def desc_to_fm(r):
    """Convert a descriptor realization to FM form.

    The state restricts to the smallest A-invariant subspace containing all
    of Ran A_j(E_pq) c; with orthonormal basis V the data become
    A'_j = V* A_j(.) V, B_j(G) = V* A_j(G) c, C = b* V and D = b* c.
    The descriptor and FM forms realize the same functions, which
    tests/test_algebra.py::TestConversions::test_desc_to_fm_preserves_transfer checks.
    """
    from .analysis import invariant_subspace  # deferred: analysis imports us

    v = invariant_subspace(r.A, r.A.images(r.c))
    vh = np.conj(v).T
    bstar = np.conj(r.b).T
    return FMRealization(r.A.compressed(vh, v), r.A.compressed(vh, r.c), bstar @ v,
                         bstar @ r.c, r.Y)


def fm_to_desc(r):
    """Convert an FM realization to descriptor form on the state H (+) C^n."""
    d, n, nn = r.d, r.n, r.N
    a = np.zeros((d, n, n, nn + n, nn + n), dtype=np.complex128)
    a[..., :nn, :nn] = r.A.dense()
    a[..., :nn, nn:] = r.B.dense()
    b = np.vstack([np.conj(r.C).T, np.conj(r.D).T])
    c = np.vstack([np.zeros((nn, n)), np.eye(n)]).astype(np.complex128)
    return DescriptorRealization(MatrixLinearMap(a), b, c, r.Y)
