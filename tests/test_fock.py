import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import (all_words, cmat, point_near_centre, random_centre, scaled_by_degree,
                      series_transfer, unit_column_tuple, unit_keys)

from ncreal.core import CentrePoint, MatrixTuple, ampliate, column_norm
from ncreal.linmap import cb_row_norm_bound
from ncreal.realization import evaluate, pencil, transfer
from ncreal.algebra import fm_to_desc
from ncreal.analysis import analytically_equivalent, kalman_minimize
from ncreal.parser import eval_expression, parse, realize_expression
from ncreal import core, fock
from ncreal.fock import (
    FockBasisIndex,
    TruncatedFockVector,
    coeffs_from_nc_function,
    eval_fock,
    flip_unitary,
    fock_basis,
    fock_dim,
    fock_inner,
    fock_realization,
    kernel_vector,
    left_creation,
    right_creation,
)


def degree_mass(h, ell):
    """Sum of |coefficient|^2 over the indices of h with |omega| = ell."""
    return sum(abs(v) ** 2 for k, v in h.coeffs.items() if len(k.omega) == ell)


def per_word_coeffs(func, y, L, r=1.0):
    """The reference extraction: one black-box call per word and tuple of matrix-unit
    arguments, each at the word's path-shaped nilpotent point."""
    from ncreal.analysis import nilpotent_moment, nilpotent_point

    n, d = y.base_n, y.d
    units, letters = core.matrix_units(n), range(1, n + 1)
    f0 = np.asarray(func(ampliate(y, 1)), dtype=np.complex128)
    coeffs = {((a,), (b,), ()): f0[a - 1, b - 1] for a in letters for b in letters}
    for ell in range(1, L + 1):
        for omega in itertools.product(range(1, d + 1), repeat=ell):
            # h_{alpha,beta;omega} is the (a0, b_l) entry of
            # f_omega(E_{b0,a1}, E_{b1,a2}, ..., E_{b_{l-1},a_l})
            for inner_beta in itertools.product(letters, repeat=ell):
                for inner_alpha in itertools.product(letters, repeat=ell):
                    args = [units[b - 1, a - 1] for b, a in zip(inner_beta, inner_alpha)]
                    value = np.asarray(func(nilpotent_point(y, omega, args, r)))
                    block = nilpotent_moment(value, n, ell, r)
                    for a0 in letters:
                        for bl in letters:
                            coeffs[((a0,) + inner_alpha, inner_beta + (bl,), omega)] = \
                                block[a0 - 1, bl - 1]
    return TruncatedFockVector(n, d, L, coeffs)


# (polynomial, rational) expressions for each number of letters
BLACK_BOX_TEXTS = {
    1: ("x1*x1*x1 - 2*x1 + 0.5", "inv(x1*x1 + 3) - x1"),
    2: ("x1*x2*x1 - 2*x2*x1 + x2 + 0.5", "inv(x1*x2 + 3) - x2*x1"),
    3: ("x1*x3*x2 - x3 + 0.5", "inv(x1*x3 + 3) + x2*x1"),
}


def black_box(kind, rng, n, d):
    """A centre and an NC function about it: the transfer of an FM polynomial, of a
    Kalman-minimized rational descriptor, or a constant."""
    y = random_centre(rng, n, d)
    if kind == "constant":
        m = cmat(rng, n, n)
        return y, lambda x: np.kron(np.eye(x.level_m), m)
    poly, rational = BLACK_BOX_TEXTS[d]
    if kind == "polynomial":
        fm = realize_expression(parse(poly, d), y)
        return y, lambda x: transfer(fm, x)
    desc = kalman_minimize(fm_to_desc(realize_expression(parse(rational, d), y)))
    return y, lambda x: transfer(desc, x)


def random_fock_vector(rng, n, d, L, density=0.25):
    coeffs = {}
    for idx in fock_basis(n, d, L):
        if rng.uniform() < density:
            coeffs[idx] = rng.standard_normal() + 1j * rng.standard_normal()
    if not coeffs:
        coeffs[fock_basis(n, d, L)[0]] = 1.0
    return TruncatedFockVector(n, d, L, coeffs)


class TestBasis:
    def test_counts(self):
        assert fock_dim(1, 1, 0) == 1
        assert fock_dim(2, 1, 0) == 4
        assert fock_dim(2, 2, 1) == 4 + 16 * 2
        for n, d, L in itertools.product(range(1, 4), range(1, 4), range(-1, 7)):
            expected = sum(n ** (2 * (k + 1)) * d ** k for k in range(L + 1))
            assert fock_dim(n, d, L) == expected

    def test_index_constraint(self):
        for idx in fock_basis(2, 2, 2):
            assert len(idx.alpha) == len(idx.beta) == len(idx.omega) + 1

    def test_order_by_degree(self):
        degs = [len(idx.omega) for idx in fock_basis(2, 2, 2)]
        assert degs == sorted(degs)


class TestCreationOperators:
    def test_isometric_below_truncation(self):
        n, d, L = 2, 2, 2
        lc = left_creation(n, d, L, 1, 2, 1).toarray()
        keep = [k for k, idx in enumerate(fock_basis(n, d, L))
                if len(idx.omega) <= L - 1]
        restricted = lc[:, keep]
        assert_allclose(np.conj(restricted).T @ restricted, np.eye(len(keep)),
                        atol=1e-14)

    def test_pairwise_orthogonal_ranges(self):
        n, d, L = 2, 2, 1
        ops = [left_creation(n, d, L, i, j, k)
               for i, j, k in itertools.product((1, 2), (1, 2), (1, 2))]
        for a in range(len(ops)):
            for b in range(a + 1, len(ops)):
                prod = (ops[a].conj().T @ ops[b]).toarray()
                assert np.linalg.norm(prod) == 0.0

    def test_flip_conjugates_left_to_right(self):
        n, d, L = 2, 2, 2
        u = flip_unitary(n, d, L)
        for i, j, k in [(1, 1, 1), (1, 2, 1), (2, 1, 2), (2, 2, 2)]:
            lc = left_creation(n, d, L, i, j, k)
            rc = right_creation(n, d, L, i, j, k)
            assert (u @ lc @ u - rc).nnz == 0

    def test_flip_is_selfadjoint_involution(self):
        n, d, L = 2, 2, 2
        u = flip_unitary(n, d, L)
        eye = np.eye(fock_dim(n, d, L))
        assert np.array_equal((u @ u).toarray(), eye)
        assert (u - u.conj().T).nnz == 0


FOCK_GRID = [(1, 1, 0), (1, 2, 4), (1, 3, 3), (2, 1, 2), (2, 2, 2), (3, 2, 1), (2, 2, 0)]


def literal_basis(n, d, L):
    """The basis order written out: degree, then omega, alpha, beta lexicographically."""
    return [FockBasisIndex(alpha, beta, omega)
            for ell in range(L + 1)
            for omega in itertools.product(range(1, d + 1), repeat=ell)
            for alpha in itertools.product(range(1, n + 1), repeat=ell + 1)
            for beta in itertools.product(range(1, n + 1), repeat=ell + 1)]


def literal_shift(n, d, L, image):
    """The 0/1 matrix of a basis map, built by editing index tuples (over L truncates)."""
    basis = literal_basis(n, d, L)
    position = {idx: k for k, idx in enumerate(basis)}
    out = np.zeros((len(basis), len(basis)), dtype=np.complex128)
    for k, idx in enumerate(basis):
        target = image(idx)
        if len(target.omega) <= L:
            out[position[target], k] = 1.0
    return out


def literal_right(n, d, L, a, b, w):
    return literal_shift(n, d, L, lambda idx: FockBasisIndex(
        idx.alpha + (a,), idx.beta + (b,), idx.omega + (w,)))


def literal_left(n, d, L, i, j, k):
    return literal_shift(n, d, L, lambda idx: FockBasisIndex(
        (i,) + idx.alpha, (j,) + idx.beta, (k,) + idx.omega))


class TestLiteralLayout:
    """Every operator against an oracle that edits FockBasisIndex tuples."""

    @pytest.mark.parametrize("n,d,L", FOCK_GRID)
    def test_basis_and_positions(self, n, d, L):
        basis = literal_basis(n, d, L)
        assert fock_basis(n, d, L) == basis
        assert fock_dim(n, d, L) == len(basis)
        rng = np.random.default_rng(n * 100 + d * 10 + L)
        h = random_fock_vector(rng, n, d, L, density=0.5)
        expected = np.zeros(len(basis), dtype=np.complex128)
        for k, idx in enumerate(basis):
            expected[k] = h.coeffs.get(idx, 0j)
        assert np.array_equal(h.to_dense(), expected)

    @pytest.mark.parametrize("n,d,L", FOCK_GRID)
    def test_creation_operators_and_flip(self, n, d, L):
        for i, j, k in itertools.product(range(1, n + 1), range(1, n + 1), range(1, d + 1)):
            for op, oracle in ((left_creation, literal_left), (right_creation, literal_right)):
                got = op(n, d, L, i, j, k)
                expected = oracle(n, d, L, i, j, k)
                assert got.dtype == np.complex128
                assert got.nnz == np.count_nonzero(expected)
                assert np.array_equal(got.toarray(), expected)
                if L == 0:
                    assert got.nnz == 0
        flip = flip_unitary(n, d, L)
        expected = literal_shift(n, d, L, lambda idx: FockBasisIndex(
            idx.alpha[::-1], idx.beta[::-1], idx.omega[::-1]))
        assert flip.nnz == fock_dim(n, d, L)
        assert np.array_equal(flip.toarray(), expected)

    @pytest.mark.parametrize("n,d,L", FOCK_GRID)
    def test_realization_is_the_kronecker_sum(self, n, d, L):
        rng = np.random.default_rng(n * 100 + d * 10 + L + 1)
        y = random_centre(rng, n, d)
        h = random_fock_vector(rng, n, d, L, density=0.5)
        basis = literal_basis(n, d, L)
        dim = len(basis)
        position = {idx: k for k, idx in enumerate(basis)}
        eye = np.eye(n)
        rstar = {(q, j, k): np.conj(literal_right(n, d, L, q, j, k)).T
                 for q, j, k in itertools.product(range(1, n + 1), range(1, n + 1),
                                                  range(1, d + 1))}
        for scale in (1.0, 2.0, 0.3):
            r = fock_realization(h, y, scale)
            for k, p, q in itertools.product(range(1, d + 1), range(1, n + 1), range(1, n + 1)):
                # A_k(E_pq) = sum_j E_pj (x) R*_{qj;k}
                expected = sum(np.kron(np.outer(eye[p - 1], eye[j - 1]), rstar[(q, j, k)])
                               for j in range(1, n + 1)) / scale
                unit = r.A.unit(k, p - 1, q - 1)
                assert unit.nnz == np.count_nonzero(expected)
                assert np.array_equal(unit.toarray(), expected)
                if L == 0:
                    assert unit.nnz == 0
            bstar = np.zeros((n, n * dim), dtype=np.complex128)
            for i, j in itertools.product(range(1, n + 1), range(1, n + 1)):
                bstar[i - 1, (j - 1) * dim + position[FockBasisIndex((i,), (j,), ())]] = 1.0
            assert np.array_equal(r.b, np.conj(bstar).T)
            scaled = np.array([h.coeffs.get(idx, 0j) * scale ** len(idx.omega)
                               for idx in basis], dtype=np.complex128)
            assert np.array_equal(r.c, np.kron(np.eye(n), scaled[:, None]))

    @pytest.mark.parametrize("n,d,L", FOCK_GRID)
    def test_c_is_the_dilated_dense_vector_to_the_bit(self, n, d, L):
        # c equals the dilated vector's to_dense(), signed zeros
        # included, since they reach a saved file's bytes
        rng = np.random.default_rng(n * 100 + d * 10 + L + 2)
        y = random_centre(rng, n, d)
        h = random_fock_vector(rng, n, d, L, density=0.5)
        for idx, v in zip(fock_basis(n, d, L)[:3], (complex(-0.0, 1.5), complex(2.0, -0.0),
                                                    complex(-0.0, -0.5))):
            h.coeffs[idx] = v
        for scale in (1.0, 2.0, 0.3):
            r = fock_realization(h, y, scale)
            c = np.kron(np.eye(n), scaled_by_degree(h, scale).to_dense()[:, None])
            assert np.array_equal(r.c, c) and r.c.tobytes() == c.tobytes()
            bstar = np.zeros((n, n * fock_dim(n, d, L)))
            for i, j in itertools.product(range(n), range(n)):
                bstar[i, j * fock_dim(n, d, L) + i * n + j] = 1.0   # E_ij * e_0
            assert np.array_equal(r.b, bstar.T)

    def test_no_kronecker_product_or_tuple_enumeration(self, monkeypatch):
        import scipy.sparse

        def kron(*args, **kwargs):
            raise AssertionError("scipy.sparse.kron called")

        def refuse(*args, **kwargs):
            raise AssertionError("basis tuples enumerated")

        rng = np.random.default_rng(63)
        n, d, L = 2, 2, 2
        y = random_centre(rng, n, d)
        h = random_fock_vector(rng, n, d, L)
        x = ampliate(y, 2) + unit_column_tuple(rng, n, 2, d).scaled(0.8)
        expected = eval_fock(h, x, y)
        monkeypatch.setattr(scipy.sparse, "kron", kron)
        monkeypatch.setattr(fock, "fock_basis", refuse)
        r = fock_realization(h, y)
        value = transfer(r, x)
        monkeypatch.undo()
        assert np.linalg.norm(value - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_refused_above_the_cap_before_the_layout(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("layout built past the cap")

        y = CentrePoint([np.zeros((2, 2)), np.zeros((2, 2))])
        h = TruncatedFockVector(2, 2, 2, {((1,), (1,), ()): 1.0})
        # d n^3 fock_dim = 2 * 8 * 292 entries
        monkeypatch.setattr(core, "ALLOCATION_CAP", 2 * 8 * 292 - 1)
        monkeypatch.setattr(fock, "_positions", refuse)
        with pytest.raises(ValueError, match="4672 entries, more than the cap of 4671"):
            fock_realization(h, y)
        # a header with a huge L is refused before its dimension is summed
        huge = TruncatedFockVector(2, 2, 10 ** 9, {((1,), (1,), ()): 1.0})
        with pytest.raises(ValueError, match=r"\(2, 2, 1000000000\) would hold"):
            fock_realization(huge, y)
        for n, d in [(1, 1), (1, 2), (2, 1), (3, 3)]:
            huge = TruncatedFockVector(n, d, 10 ** 12, {((1,), (1,), ()): 1.0})
            refused = r"\(%d, %d, %d\) would hold" % (n, d, 10 ** 12)
            with pytest.raises(ValueError, match=refused):
                fock_realization(huge, CentrePoint([np.zeros((n, n))] * d))
        monkeypatch.undo()
        monkeypatch.setattr(core, "ALLOCATION_CAP", 2 * 8 * 292)
        assert fock_realization(h, y).N == 584


class TestEvalFock:
    def test_vacuum_block(self):
        rng = np.random.default_rng(1)
        n, d, L = 2, 2, 1
        y = random_centre(rng, n, d)
        h = TruncatedFockVector(n, d, L, {((1,), (2,), ()): 1.0})
        x = point_near_centre(rng, y, 2, 1.0)
        e12 = np.zeros((2, 2)); e12[0, 1] = 1.0
        assert_allclose(eval_fock(h, x, y), np.kron(np.eye(2), e12), atol=1e-14)

    def test_only_degree_zero_survives_at_centre(self):
        rng = np.random.default_rng(2)
        n, d, L = 2, 2, 2
        y = random_centre(rng, n, d)
        h = random_fock_vector(rng, n, d, L)
        at_centre = eval_fock(h, ampliate(y, 2), y)
        vacuum_only = TruncatedFockVector(
            n, d, L, {k: v for k, v in h.coeffs.items() if len(k.omega) == 0})
        assert_allclose(at_centre, eval_fock(vacuum_only, ampliate(y, 2), y),
                        atol=1e-14)

    def test_n_equals_one_reduces_to_free_series(self):
        # at n = 1 the evaluation is an ordinary free power series
        rng = np.random.default_rng(3)
        n, d, L = 1, 2, 3
        y = random_centre(rng, n, d)
        h = random_fock_vector(rng, n, d, L, density=0.6)
        x = point_near_centre(rng, y, 2, 0.5)
        dev = [x.components[j] - np.kron(np.eye(2), y.components[j]) for j in range(d)]
        expected = np.zeros((2, 2), dtype=complex)
        for word in all_words(d, L):
            ones = (1,) * (len(word) + 1)
            coef = h.coeffs.get(FockBasisIndex(ones, ones, word), 0j)
            if coef == 0:
                continue
            prod = np.eye(2, dtype=complex)
            for letter in word:
                prod = prod @ dev[letter - 1]
            expected += coef * prod
        assert_allclose(eval_fock(h, x, y), expected, atol=1e-12)
        # and the canonical realization agrees
        r = fock_realization(h, y)
        assert_allclose(transfer(r, x), expected, rtol=1e-10, atol=1e-12)


class TestKernelVector:
    def test_zero_point_keeps_single_vacuum_coefficient(self):
        n, d, L = 2, 2, 2
        x = MatrixTuple([np.zeros((2, 2)), np.zeros((2, 2))], 2)
        y_vec = np.array([1.0, 0.0])  # e_1 (x) e_1 at level 1: y = e_i block
        v_vec = np.array([0.0, 1.0])
        k = kernel_vector(n, d, L, x, y_vec, v_vec)
        assert set(k.coeffs) == {(( 1,), (2,), ())}
        assert k.coeffs[((1,), (2,), ())] == pytest.approx(1.0)

    def test_reproducing_identity(self):
        rng = np.random.default_rng(4)
        n, d, L = 2, 2, 3
        zero = CentrePoint([np.zeros((n, n)) for _ in range(d)])
        x = unit_column_tuple(rng, n, 2, d).scaled(0.3 / np.sqrt(n))
        y_vec = cmat(rng, 2 * n, 1)[:, 0]
        v_vec = cmat(rng, 2 * n, 1)[:, 0]
        k = kernel_vector(n, d, L, x, y_vec, v_vec)
        for _ in range(20):
            h = random_fock_vector(rng, n, d, L, density=0.15)
            lhs = fock_inner(k, h)
            rhs = np.conj(y_vec) @ eval_fock(h, x, zero) @ v_vec
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))

    def test_coefficient_growth_bound(self):
        # sum over degree-l coefficients <= n^l ||X||_col^{2l} |x|^2 |u|^2
        rng = np.random.default_rng(5)
        n, d, L = 2, 2, 3
        m = 2
        x = unit_column_tuple(rng, n, m, d).scaled(0.4)
        xv = cmat(rng, m, 1)[:, 0]
        uv = cmat(rng, m, 1)[:, 0]
        y_vec = np.kron(xv, np.eye(n)[:, 0])
        v_vec = np.kron(uv, np.eye(n)[:, 1])
        k = kernel_vector(n, d, L, x, y_vec, v_vec)
        nx = column_norm(x)
        for ell in range(L + 1):
            mass = degree_mass(k, ell)
            bound = (n ** ell) * nx ** (2 * ell) * \
                np.linalg.norm(xv) ** 2 * np.linalg.norm(uv) ** 2
            assert mass <= bound * (1 + 1e-12)

    def test_warns_outside_convergence_ball(self):
        n, d, L = 2, 2, 1
        x = MatrixTuple([np.eye(2), np.eye(2)], 2)  # column norm sqrt(2) > 1/sqrt(2)
        with pytest.warns(UserWarning, match="1/sqrt"):
            kernel_vector(n, d, L, x, np.ones(2), np.ones(2))


class TestFockRealization:
    def test_vacuum_scalar_constant(self):
        y = CentrePoint([np.zeros((1, 1))])
        h = TruncatedFockVector(1, 1, 1, {((1,), (1,), ()): 1.0})
        r = fock_realization(h, y)
        for val in (0.0, 0.5, 10.0):
            x = MatrixTuple([np.array([[val]])], 1)
            assert_allclose(transfer(r, x), np.array([[1.0]]), atol=1e-12)

    def test_transfer_equals_evaluation_everywhere(self):
        rng = np.random.default_rng(6)
        n, d, L = 2, 2, 2
        y = random_centre(rng, n, d)
        for _ in range(5):
            h = random_fock_vector(rng, n, d, L)
            r = fock_realization(h, y)
            for _ in range(4):
                m = int(rng.integers(1, 3))
                scale = float(10.0 ** rng.uniform(-1, 1))  # any norm: unipotent pencil
                x = ampliate(y, m) + unit_column_tuple(rng, n, m, d).scaled(scale)
                tv = transfer(r, x)
                ev = eval_fock(h, x, y)
                assert np.linalg.norm(tv - ev) <= 1e-10 * max(1.0, np.linalg.norm(ev))

    def test_transfer_keeps_the_pencil_sparse(self, monkeypatch):
        import scipy.linalg
        import scipy.sparse._base
        import scipy.sparse._compressed

        rng = np.random.default_rng(61)
        n, d, L = 2, 2, 2
        y = random_centre(rng, n, d)
        h = random_fock_vector(rng, n, d, L)
        r = fock_realization(h, y)
        assert r.N == 584
        x = ampliate(y, 1) + unit_column_tuple(rng, n, 1, d).scaled(2.0)
        ev = eval_fock(h, x, y)

        def refuse(*args, **kwargs):
            raise AssertionError("dense work on the Fock pencil")

        def guarded(method):
            def call(self, *args, **kwargs):
                if max(self.shape) >= r.N:
                    refuse()
                return method(self, *args, **kwargs)
            return call

        # no sparse matrix of the pencil's size is densified, and no dense
        # SVD or LU is taken
        for cls in (scipy.sparse._base._spbase, scipy.sparse._compressed._cs_matrix):
            for name in ("toarray", "todense"):
                if name in cls.__dict__:
                    monkeypatch.setattr(cls, name, guarded(cls.__dict__[name]))
        for module, name in ((np.linalg, "svd"), (np.linalg._linalg, "svd"),
                             (scipy.linalg.lapack, "zgetrf")):
            monkeypatch.setattr(module, name, refuse)
        tv = transfer(r, x)
        monkeypatch.undo()
        assert np.linalg.norm(tv - ev) <= 1e-12 * np.linalg.norm(ev)

    def test_certified_point_is_a_finite_sum_without_superlu(self, monkeypatch):
        import scipy.sparse.linalg

        def refuse(*args, **kwargs):
            raise AssertionError("SuperLU called on a nilpotent pencil")

        rng = np.random.default_rng(64)
        n, d, L = 2, 2, 2
        y = random_centre(rng, n, d)
        h = random_fock_vector(rng, n, d, L)
        r = fock_realization(h, y)
        for m, scale in ((1, 2.0), (2, 0.7)):
            x = ampliate(y, m) + unit_column_tuple(rng, n, m, d).scaled(scale)
            ev = eval_fock(h, x, y)
            monkeypatch.setattr(scipy.sparse.linalg, "splu", refuse)
            e = evaluate(r, x)
            monkeypatch.undo()
            assert e.decided_by == "certificate"
            assert np.linalg.norm(e.value - ev) <= 1e-12 * np.linalg.norm(ev)

    def test_series_keeps_the_map_sparse(self, monkeypatch):
        import scipy.sparse._compressed

        rng = np.random.default_rng(65)
        n, d, L = 2, 2, 2
        y = random_centre(rng, n, d)
        h = random_fock_vector(rng, n, d, L)
        r = fock_realization(h, y)
        x = ampliate(y, 2) + unit_column_tuple(rng, n, 2, d).scaled(1.5)
        ev = eval_fock(h, x, y)

        def refuse(*args, **kwargs):
            raise AssertionError("the sparse T was densified")

        monkeypatch.setattr(scipy.sparse._compressed._cs_matrix, "toarray", refuse)
        value = series_transfer(r, x, L)
        monkeypatch.undo()
        assert np.linalg.norm(value - ev) <= 1e-12 * np.linalg.norm(ev)

    @pytest.mark.parametrize("n,d,L", FOCK_GRID)
    def test_map_is_built_once_per_key_and_read_only(self, n, d, L):
        rng = np.random.default_rng(66)
        y = random_centre(rng, n, d)
        r1 = fock_realization(random_fock_vector(rng, n, d, L), y)
        r2 = fock_realization(random_fock_vector(rng, n, d, L), random_centre(rng, n, d))
        assert r1.A is r2.A and r1.A.nilpotency_index == L + 1
        assert fock_realization(random_fock_vector(rng, n, d, L), y, 2.0).A is not r1.A
        for arr in (r1.A.stack.data, r1.A.stack.indices, r1.A.stack.indptr):
            with pytest.raises(ValueError, match="read-only"):
                arr[:1] = arr[:1]

    def test_transfer_at_4680_states_equals_evaluation(self):
        rng = np.random.default_rng(62)
        n, d, L = 2, 2, 3
        y = random_centre(rng, n, d)
        h = random_fock_vector(rng, n, d, L, density=0.1)
        r = fock_realization(h, y)
        assert r.N == 4680
        for m, scale in ((1, 0.5), (1, 3.0), (2, 1.0)):
            x = ampliate(y, m) + unit_column_tuple(rng, n, m, d).scaled(scale)
            ev = eval_fock(h, x, y)
            assert np.linalg.norm(transfer(r, x) - ev) <= 1e-12 * np.linalg.norm(ev)

    def test_unipotent_pencil_determinant(self):
        rng = np.random.default_rng(7)
        n, d, L = 2, 2, 1
        y = random_centre(rng, n, d)
        h = random_fock_vector(rng, n, d, L, density=0.5)
        r = fock_realization(h, y)
        for scale in (0.1, 1.0, 25.0):
            x = ampliate(y, 1) + unit_column_tuple(rng, n, 1, d).scaled(scale)
            sign, logdet = np.linalg.slogdet(pencil(r, x))
            assert abs(sign - 1.0) < 1e-9
            assert abs(logdet) < 1e-9

    def test_dilation_rescales_map_and_keeps_transfer(self):
        rng = np.random.default_rng(8)
        n, d, L = 2, 2, 2
        y = random_centre(rng, n, d)
        h = random_fock_vector(rng, n, d, L)
        r1 = fock_realization(h, y, scale=1.0)
        r2 = fock_realization(h, y, scale=2.0)
        # A gets rescaled by 1/r ...
        for j, p, q in unit_keys(r1.A):
            u = r1.A.unit(j, p, q)
            assert np.linalg.norm((r2.A.unit(j, p, q) * 2.0 - u).toarray()) < 1e-14
        # ... while the transfer function is unchanged
        x = point_near_centre(rng, y, 1, 1.3)
        assert_allclose(transfer(r2, x), transfer(r1, x), rtol=1e-10, atol=1e-12)


class TestCoeffsFromNcFunction:
    @pytest.mark.parametrize("r", [1.0, 0.5])
    @pytest.mark.parametrize("n, d, L", [(1, 1, 3), (1, 2, 4), (1, 3, 3), (2, 1, 2),
                                         (2, 2, 2), (3, 1, 1)])
    @pytest.mark.parametrize("kind", ["polynomial", "rational", "constant"])
    def test_sibling_probes_match_the_per_word_oracle(self, kind, n, d, L, r):
        rng = np.random.default_rng([n, d, L])
        y, func = black_box(kind, rng, n, d)
        probes = []
        h = coeffs_from_nc_function(lambda x: probes.append(x) or func(x), y, L, r)
        assert len(probes) == (d * n * n) ** (L - 1)
        for x in probes:
            # every product of L + 1 deviation components vanishes
            walk = sum(abs(c) for c in (x - ampliate(y, x.level_m)).components)
            assert not np.linalg.matrix_power(walk, L + 1).any()
        want = per_word_coeffs(func, y, L, r).to_dense()
        assert np.abs(h.to_dense() - want).max() <= 1e-13 * np.abs(want).max()

    def test_degree_zero_is_one_call_at_the_centre(self):
        rng = np.random.default_rng(16)
        y, func = black_box("rational", rng, 2, 2)
        levels = []
        h = coeffs_from_nc_function(lambda x: levels.append(x.level_m) or func(x), y, 0)
        assert levels == [1]
        assert np.array_equal(h.to_dense(), func(ampliate(y, 1)).ravel())

    @pytest.mark.parametrize("n, d, L", FOCK_GRID)
    @pytest.mark.parametrize("kind", ["polynomial", "constant"])
    def test_dict_holds_exactly_the_nonzero_probe_entries(self, kind, n, d, L):
        # keys in basis order, each value the Python complex of its entry, zeros dropped
        rng = np.random.default_rng([n, d, L, 5])
        y, func = black_box(kind, rng, n, d)
        h = coeffs_from_nc_function(func, y, L)
        dense = h.to_dense()
        expected = {idx: complex(v) for idx, v in zip(literal_basis(n, d, L), dense) if v != 0}
        assert list(h.coeffs.items()) == list(expected.items())
        assert all(type(v) is complex for v in h.coeffs.values())
        if kind == "constant":   # every entry past degree 0 is an exact zero
            f0 = func(ampliate(y, 1))
            assert h.coeffs == {FockBasisIndex((a + 1,), (b + 1,), ()): f0[a, b]
                                for a, b in zip(*np.nonzero(f0))}
        else:
            assert np.count_nonzero(dense) == len(h.coeffs) > (n * n if L else 0)

    def test_transfer_at_a_sibling_probe_stacks_nothing(self, monkeypatch):
        # one black-box call: the probe's tuple and H are stored once, and H's
        # coefficient matrix is formed once for T, for B(H) and for the index
        from ncreal import realization
        from ncreal.analysis import tree_point

        rng = np.random.default_rng(83)
        n, d = 2, 2
        y = random_centre(rng, n, d)
        fm = realize_expression(parse(BLACK_BOX_TEXTS[d][0], d), y)
        letters, p, q = (axis.ravel() for axis in np.indices((d, n, n)))
        units = core.matrix_units(n)[p, q]
        stacks, coefficient_matrices = [], []
        stack, unit_coefficients = np.stack, realization._unit_coefficients
        monkeypatch.setattr(np, "stack", lambda *a, **k: stacks.append(1) or stack(*a, **k))
        monkeypatch.setattr(realization, "_unit_coefficients",
                            lambda h: coefficient_matrices.append(h) or unit_coefficients(h))
        x = tree_point(y, [0] + [1] * len(units), np.r_[1, letters + 1], [units[0], *units])
        e = evaluate(fm, x)
        monkeypatch.undo()
        assert stacks == [] and len(coefficient_matrices) == 1
        assert e.decided_by == "certificate"
        assert_allclose(e.value, transfer(fm, x), rtol=0, atol=0)

    def test_keys_built_only_for_nonzero_coefficients(self, monkeypatch):
        rng = np.random.default_rng(84)
        n, d, L = 2, 2, 2
        y, func = black_box("polynomial", rng, n, d)
        built = []
        monkeypatch.setattr(fock, "FockBasisIndex",
                            lambda *key: built.append(key) or FockBasisIndex(*key))
        zero = coeffs_from_nc_function(lambda x: np.zeros((x.side, x.side)), y, L)
        assert zero.coeffs == {} and built == []
        first = coeffs_from_nc_function(func, y, L)
        assert 0 < len(first.coeffs) < fock_dim(n, d, L)
        assert built == [tuple(key) for key in first.coeffs]

    def test_bad_black_box_values_name_the_probe_word(self):
        rng = np.random.default_rng(17)
        y = random_centre(rng, 2, 2)
        first = r"probe for word \(x1:E_1,1\)"
        with pytest.raises(ValueError, match=first + r": returned shape \(2, 2\), "
                                                    r"expected \(20, 20\)"):
            coeffs_from_nc_function(lambda x: np.zeros((2, 2)), y, 2)
        with pytest.raises(ValueError, match=first + ": returned non-finite entries"):
            coeffs_from_nc_function(lambda x: np.full((x.side, x.side), np.nan), y, 2)
        def boom(x):
            raise ArithmeticError("boom")

        with pytest.raises(ValueError, match=r"probe for word \(\): failed: boom"):
            coeffs_from_nc_function(boom, y, 1)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_dilation_must_be_finite_and_positive(self, bad):
        def refuse(x):
            raise AssertionError("black box called")

        y = CentrePoint([np.zeros((1, 1))])
        h = TruncatedFockVector(1, 1, 1, {((1,), (1,), ()): 1.0})
        with pytest.raises(ValueError, match="scale must be finite and positive"):
            fock_realization(h, y, scale=bad)
        with pytest.raises(ValueError, match="r must be finite and positive"):
            coeffs_from_nc_function(refuse, y, 1, r=bad)

    def test_coefficient_count_is_capped_before_any_call(self, monkeypatch):
        def refuse(x):
            raise AssertionError("black box called past the cap")

        for n, d in [(1, 1), (1, 2), (2, 1), (3, 3)]:
            refused = r"\(%d, %d, %d\) would hold" % (n, d, 10 ** 12)
            with pytest.raises(ValueError, match=refused):
                coeffs_from_nc_function(refuse, CentrePoint([np.zeros((n, n))] * d), 10 ** 12)
        y = CentrePoint([np.zeros((2, 2))] * 2)
        monkeypatch.setattr(core, "ALLOCATION_CAP", fock_dim(2, 2, 2) - 1)
        with pytest.raises(ValueError, match="292 entries, more than the cap of 291"):
            coeffs_from_nc_function(refuse, y, 2)
        monkeypatch.setattr(core, "ALLOCATION_CAP", fock_dim(2, 2, 2))
        h = coeffs_from_nc_function(lambda x: np.kron(np.eye(x.level_m), np.eye(2)), y, 2)
        assert h.L == 2 and h.coeffs[FockBasisIndex((1,), (1,), ())] == 1.0

    def test_constant_gives_vacuum_expansion(self):
        rng = np.random.default_rng(11)
        n, d = 2, 2
        y = random_centre(rng, n, d)
        m = cmat(rng, n, n)
        h = coeffs_from_nc_function(lambda x: np.kron(np.eye(x.level_m), m), y, 2)
        assert all(len(k.omega) == 0 for k in h.coeffs)
        dense = np.zeros((n, n), dtype=complex)
        for idx, val in h.coeffs.items():
            dense[idx.alpha[0] - 1, idx.beta[0] - 1] += val
        assert_allclose(dense, m, atol=1e-12)

    def test_black_box_transfer_recovers_equivalent_realization(self):
        rng = np.random.default_rng(12)
        y = random_centre(rng, 2, 2)
        fm = realize_expression(parse("x1 + (x2)*(x1) + 0.5", 2), y)
        desc = fm_to_desc(fm)
        h = coeffs_from_nc_function(lambda x: transfer(desc, x), y, 3)
        rebuilt = kalman_minimize(fock_realization(h, y))
        assert analytically_equivalent(rebuilt, desc, depth=3, tol=1e-8)

    def test_polynomial_degree_bound(self):
        rng = np.random.default_rng(13)
        y = random_centre(rng, 2, 2)
        e = parse("(x1)*(x2)", 2)
        h = coeffs_from_nc_function(lambda x: eval_expression(e, x), y, 3)
        assert degree_mass(h, 3) < 1e-24


class TestRadiusLemmaBound:
    def test_one_sided_coefficient_inequality(self):
        # (sum_{|w|=l} |h|^2)^(1/2l) <= (n^{l+1} d^l)^(1/2l) ||f_l||_CB^(1/l),
        # with ||f_l||_CB upper-estimated by |b| |c| r^l from the realization
        rng = np.random.default_rng(14)
        n, d = 2, 2
        for text in ["(x1)*(x2) + x1", "x1 + x2 + (x1)*(x1)*(x2)"]:
            y = random_centre(rng, n, d)
            desc = kalman_minimize(fm_to_desc(realize_expression(parse(text, 2), y)))
            h = coeffs_from_nc_function(lambda x: transfer(desc, x), y, 3)
            r = cb_row_norm_bound(desc.A)
            bc = np.linalg.norm(desc.b, 2) * np.linalg.norm(desc.c, 2)
            for ell in range(1, 4):
                mass = degree_mass(h, ell)
                if mass == 0:
                    continue
                lhs = mass ** (1.0 / (2 * ell))
                cb_est = bc * r ** ell
                rhs = (n ** (ell + 1) * d ** ell) ** (1.0 / (2 * ell)) * \
                    cb_est ** (1.0 / ell)
                assert lhs <= rhs * (1 + 1e-10)


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(15)
        h = random_fock_vector(rng, 2, 2, 2)
        path = tmp_path / "h.json"
        h.dump(path)
        back = TruncatedFockVector.load(path)
        assert back.n == h.n and back.d == h.d and back.L == h.L
        assert back.coeffs == h.coeffs

    def test_repeated_term_rejected(self):
        h = TruncatedFockVector(2, 2, 1, {((1,), (1,), ()): 1.0, ((1,), (2,), ()): 2.0})
        obj = h.to_json()
        obj["terms"].append(dict(obj["terms"][0], c=[3.0, 0.0]))
        with pytest.raises(ValueError, match=r"terms\[0\] and terms\[2\] repeat"):
            TruncatedFockVector.from_json(obj)

    def test_invalid_index_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            TruncatedFockVector(2, 2, 1, {((1, 1), (1,), ()): 1.0})
        with pytest.raises(ValueError, match="truncation"):
            TruncatedFockVector(2, 2, 0, {((1, 1), (1, 1), (1,)): 1.0})
