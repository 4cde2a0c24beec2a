import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from conftest import cmat, random_centre, random_linmap, random_tuple, unit_column_tuple

from ncreal.core import MatrixTuple, ampliate, column_norm, eye_kron, matrix_units
from ncreal.linmap import (
    MatrixLinearMap,
    adjoint_word_apply,
    ampliated_apply,
    apply,
    cb_row_norm_bound,
    word_apply,
)


def identity_map(n, d=1):
    # A_j(G) = G for every letter
    coeffs = np.zeros((d, n, n, n, n), dtype=np.complex128)
    for j in range(d):
        for p, q, e in matrix_units(n):
            coeffs[j, p, q] = e
    return MatrixLinearMap(coeffs)


class TestApply:
    def test_zero_argument(self):
        rng = np.random.default_rng(0)
        a = random_linmap(rng, 2, 2, 3)
        assert_allclose(apply(a, 1, np.zeros((2, 2))), np.zeros((3, 3)))

    def test_identity_map(self):
        rng = np.random.default_rng(1)
        a = identity_map(3)
        g = cmat(rng, 3, 3)
        assert_allclose(apply(a, 1, g), g)

    def test_matrix_unit_expansion_oracle(self):
        rng = np.random.default_rng(2)
        a = random_linmap(rng, 2, 2, 3)
        g = cmat(rng, 2, 2)
        expected = np.zeros((3, 3), dtype=np.complex128)
        for p, q, e in matrix_units(2):
            expected += g[p, q] * apply(a, 2, e)
        assert_allclose(apply(a, 2, g), expected, atol=1e-14)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(3)
        a = random_linmap(rng, 2, 2, 3)
        with pytest.raises(ValueError):
            apply(a, 1, np.zeros((3, 3)))


class TestAmpliatedApply:
    def test_zero_tuple(self):
        rng = np.random.default_rng(4)
        a = random_linmap(rng, 2, 2, 3)
        x = MatrixTuple([np.zeros((4, 4)), np.zeros((4, 4))], 2)
        assert_allclose(ampliated_apply(a, x), np.zeros((6, 6)))

    def test_level_one_reduction(self):
        rng = np.random.default_rng(5)
        a = random_linmap(rng, 2, 2, 3)
        x = random_tuple(rng, 2, 1, 2)
        expected = sum(apply(a, j, x.component(j)) for j in (1, 2))
        assert_allclose(ampliated_apply(a, x), expected, atol=1e-14)

    def test_blockwise_on_ampliation(self):
        rng = np.random.default_rng(6)
        a = random_linmap(rng, 2, 2, 3)
        y = random_centre(rng, 2, 2)
        x = ampliate(y, 2)
        inner = sum(apply(a, j, y.component(j)) for j in (1, 2))
        assert_allclose(ampliated_apply(a, x), np.kron(np.eye(2), inner), atol=1e-14)

    def test_base_mismatch(self):
        rng = np.random.default_rng(7)
        a = random_linmap(rng, 2, 2, 3)
        with pytest.raises(ValueError):
            ampliated_apply(a, random_tuple(rng, 3, 1, 2))

    @staticmethod
    def unit_oracle(a, x):
        # sum_j sum_pq X_j^{(k,l)}[p, q] A_j(E_pq), one block and one unit at a time
        m, n = x.level_m, a.n
        out = np.zeros((m * a.out_rows, m * a.out_cols), dtype=np.complex128)
        for k in range(m):
            for l in range(m):
                block = out[k * a.out_rows:(k + 1) * a.out_rows,
                            l * a.out_cols:(l + 1) * a.out_cols]
                for (j, p, q), u in a.iter_units():
                    block += x.components[j - 1][k * n + p, l * n + q] * u
        return out

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 3), n=st.integers(1, 3),
           m=st.integers(1, 4), rows=st.integers(1, 6), input_map=st.booleans())
    def test_matches_the_unit_oracle(self, seed, d, n, m, rows, input_map):
        # input_map: a rectangular N x n map, as the B map of an FM realization
        rng = np.random.default_rng(seed)
        cols = n if input_map else rows
        a = MatrixLinearMap(cmat(rng, d * n * n * rows, cols).reshape(d, n, n, rows, cols))
        x = random_tuple(rng, n, m, d)
        expected = self.unit_oracle(a, x)
        got = ampliated_apply(a, x)
        assert got.shape == expected.shape
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 3), m=st.integers(2, 4))
    def test_zero_block_gives_exactly_zero_block(self, seed, n, m):
        # the nilpotent points leave whole blocks of H at zero; T must keep them zero
        rng = np.random.default_rng(seed)
        a = random_linmap(rng, 2, n, 5)
        comps = [cmat(rng, m * n, m * n) for _ in range(2)]
        k, l = (int(i) for i in rng.integers(0, m, size=2))
        for comp in comps:
            comp[k * n:(k + 1) * n, l * n:(l + 1) * n] = 0.0
        t = ampliated_apply(a, MatrixTuple(comps, n))
        assert np.all(t[k * 5:(k + 1) * 5, l * 5:(l + 1) * 5] == 0)

    def test_dense_map_takes_no_einsum(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.einsum called")

        rng = np.random.default_rng(20)
        a = random_linmap(rng, 2, 3, 7)
        x = random_tuple(rng, 3, 4, 2)
        expected = self.unit_oracle(a, x)
        monkeypatch.setattr(np, "einsum", refuse)
        got = ampliated_apply(a, x)
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


class TestEyeKron:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 5), rows=st.integers(0, 4),
           cols=st.integers(0, 4), real=st.booleans())
    def test_equals_kron_with_identity(self, seed, m, rows, cols, real):
        rng = np.random.default_rng(seed)
        mat = rng.standard_normal((rows, cols)) if real else cmat(rng, rows, cols)
        expected = np.kron(np.eye(m), mat)
        got = eye_kron(m, mat)
        assert got.dtype == expected.dtype
        assert_array_equal(got, expected)


class TestWordApply:
    def test_empty_word(self):
        rng = np.random.default_rng(8)
        a = random_linmap(rng, 2, 2, 3)
        assert_allclose(word_apply(a, (), []), np.eye(3))

    def test_single_letter(self):
        rng = np.random.default_rng(9)
        a = random_linmap(rng, 2, 2, 3)
        g = cmat(rng, 2, 2)
        assert_allclose(word_apply(a, (2,), [g]), apply(a, 2, g))

    def test_two_factor_oracle(self):
        rng = np.random.default_rng(10)
        a = random_linmap(rng, 2, 2, 3)
        g1, g2 = cmat(rng, 2, 2), cmat(rng, 2, 2)
        assert_allclose(word_apply(a, (1, 2), [g1, g2]),
                        apply(a, 1, g1) @ apply(a, 2, g2), atol=1e-13)

    def test_concatenation_splits(self):
        rng = np.random.default_rng(11)
        a = random_linmap(rng, 2, 2, 3)
        word = (1, 2, 2, 1, 2)
        args = [cmat(rng, 2, 2) for _ in word]
        full = word_apply(a, word, args)
        for cut in range(len(word) + 1):
            left = word_apply(a, word[:cut], args[:cut])
            right = word_apply(a, word[cut:], args[cut:])
            assert_allclose(full, left @ right, rtol=1e-12, atol=1e-12)

    def test_arity_mismatch(self):
        rng = np.random.default_rng(12)
        a = random_linmap(rng, 2, 2, 3)
        with pytest.raises(ValueError):
            word_apply(a, (1, 2), [np.eye(2)])


class TestAdjointWordApply:
    def test_empty_word(self):
        rng = np.random.default_rng(13)
        a = random_linmap(rng, 2, 2, 3)
        assert_allclose(adjoint_word_apply(a, (), []), np.eye(3))

    def test_single_letter_definition(self):
        rng = np.random.default_rng(14)
        a = random_linmap(rng, 2, 2, 3)
        g = cmat(rng, 2, 2)
        expected = np.conj(apply(a, 1, np.conj(g).T)).T
        assert_allclose(adjoint_word_apply(a, (1,), [g]), expected, atol=1e-14)

    def test_definitional_oracle_length_three(self):
        # A^{w;+}(G) = (A^w(G*))* computed through the explicit reversed product
        rng = np.random.default_rng(15)
        a = random_linmap(rng, 2, 2, 3)
        word = (2, 1, 2)
        args = [cmat(rng, 2, 2) for _ in word]
        starred = [np.conj(g).T for g in args]
        expected = np.conj(word_apply(a, word, starred)).T
        assert_allclose(adjoint_word_apply(a, word, args), expected, atol=1e-14)


class TestCbRowNormBound:
    def test_zero_map(self):
        a = MatrixLinearMap.zeros(2, 2, 3)
        assert cb_row_norm_bound(a) == 0.0

    def test_scalar_case(self):
        coeffs = np.array(2.5 - 1.0j).reshape(1, 1, 1, 1, 1)
        a = MatrixLinearMap(coeffs)
        assert cb_row_norm_bound(a) == pytest.approx(abs(2.5 - 1.0j), rel=1e-12)

    def test_contraction_contract(self):
        # sampling oracle: below radius 1/r the ampliated image is a strict
        # contraction, hence has spectral radius < 1
        rng = np.random.default_rng(16)
        a = random_linmap(rng, 2, 2, 2, scale=0.8)
        r = cb_row_norm_bound(a)
        assert np.isfinite(r) and r > 0
        for _ in range(100):
            m = int(rng.integers(1, 3))
            h = unit_column_tuple(rng, 2, m, 2).scaled(0.99 / r)
            t = ampliated_apply(a, h)
            rho = np.max(np.abs(np.linalg.eigvals(t)))
            assert rho < 1.0

    def test_pencil_invertible_inside_radius(self):
        from ncreal.realization import DescriptorRealization, in_domain

        rng = np.random.default_rng(17)
        a = random_linmap(rng, 2, 2, 3, scale=0.7)
        y = random_centre(rng, 2, 2)
        r = DescriptorRealization(a, cmat(rng, 3, 2), cmat(rng, 3, 2), y)
        bound = cb_row_norm_bound(a)
        for _ in range(50):
            m = int(rng.integers(1, 3))
            x = ampliate(y, m) + unit_column_tuple(rng, 2, m, 2).scaled(0.95 / bound)
            assert in_domain(r, x)


class TestSerialization:
    def test_roundtrip(self):
        rng = np.random.default_rng(18)
        a = random_linmap(rng, 2, 3, 4)
        back = MatrixLinearMap.from_json(a.to_json())
        assert_allclose(back.dense(), a.dense())

    def test_sparse_dense_agree(self):
        import scipy.sparse

        rng = np.random.default_rng(19)
        dense = cmat(rng, 1 * 2 * 2 * 3, 3).reshape(1, 2, 2, 3, 3)
        a_dense = MatrixLinearMap(dense)
        a_sparse = MatrixLinearMap(
            [[[scipy.sparse.csr_matrix(dense[0, p, q]) for q in range(2)]
              for p in range(2)]]
        )
        g = cmat(rng, 2, 2)
        assert_allclose(a_sparse.apply(1, g).toarray(), a_dense.apply(1, g), atol=1e-14)
        x = random_tuple(rng, 2, 2, 1)
        assert_allclose(ampliated_apply(a_sparse, x).toarray(),
                        ampliated_apply(a_dense, x), atol=1e-14)
