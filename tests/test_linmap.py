import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from conftest import (cmat, random_centre, random_linmap, random_tuple, unit_column_tuple,
                      unit_keys)

from ncreal.core import MatrixTuple, ampliate, column_norm, eye_kron, matrix_units
from ncreal.linmap import MatrixLinearMap, ampliated_apply, cb_row_norm_bound, word_apply


def identity_map(n, d=1):
    # A_j(G) = G for every letter
    coeffs = np.zeros((d, n, n, n, n), dtype=np.complex128)
    coeffs[:] = matrix_units(n)
    return MatrixLinearMap(coeffs)


class TestApply:
    def test_zero_argument(self):
        rng = np.random.default_rng(0)
        a = random_linmap(rng, 2, 2, 3)
        assert_allclose(a.apply(1, np.zeros((2, 2))), np.zeros((3, 3)))

    def test_identity_map(self):
        rng = np.random.default_rng(1)
        a = identity_map(3)
        g = cmat(rng, 3, 3)
        assert_allclose(a.apply(1, g), g)

    def test_matrix_unit_expansion_oracle(self):
        rng = np.random.default_rng(2)
        a = random_linmap(rng, 2, 2, 3)
        g = cmat(rng, 2, 2)
        expected = np.zeros((3, 3), dtype=np.complex128)
        units = matrix_units(2)
        for p, q in np.ndindex(2, 2):
            expected += g[p, q] * a.apply(2, units[p, q])
        assert_allclose(a.apply(2, g), expected, atol=1e-14)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(3)
        a = random_linmap(rng, 2, 2, 3)
        with pytest.raises(ValueError):
            a.apply(1, np.zeros((3, 3)))


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
        expected = sum(a.apply(j, x.component(j)) for j in (1, 2))
        assert_allclose(ampliated_apply(a, x), expected, atol=1e-14)

    def test_blockwise_on_ampliation(self):
        rng = np.random.default_rng(6)
        a = random_linmap(rng, 2, 2, 3)
        y = random_centre(rng, 2, 2)
        x = ampliate(y, 2)
        inner = sum(a.apply(j, y.component(j)) for j in (1, 2))
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
                for j, p, q in unit_keys(a):
                    block += x.components[j - 1][k * n + p, l * n + q] * a.unit(j, p, q)
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
        assert_allclose(word_apply(a, (2,), [g]), a.apply(2, g))

    def test_two_factor_oracle(self):
        rng = np.random.default_rng(10)
        a = random_linmap(rng, 2, 2, 3)
        g1, g2 = cmat(rng, 2, 2), cmat(rng, 2, 2)
        assert_allclose(word_apply(a, (1, 2), [g1, g2]),
                        a.apply(1, g1) @ a.apply(2, g2), atol=1e-13)

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


class TestAdjointWords:
    """Words of the adjoint map: A_{i_l}(G_l^*)^* ... A_{i_1}(G_1^*)^*, that is
    (A^w(G^*))^*, is the reversed word of a.adjoint() at the transposed arguments,
    since A_j(G^*)^* = A^*_j(G^T)."""

    def test_empty_word(self):
        rng = np.random.default_rng(13)
        a = random_linmap(rng, 2, 2, 3)
        assert_allclose(word_apply(a.adjoint(), (), []), np.eye(3))

    def test_single_letter_definition(self):
        rng = np.random.default_rng(14)
        a = random_linmap(rng, 2, 2, 3)
        g = cmat(rng, 2, 2)
        expected = np.conj(a.apply(1, np.conj(g).T)).T
        assert_allclose(word_apply(a.adjoint(), (1,), [g.T]), expected, atol=1e-14)

    def test_definitional_oracle_length_three(self):
        rng = np.random.default_rng(15)
        a = random_linmap(rng, 2, 2, 3)
        word = (2, 1, 2)
        args = [cmat(rng, 2, 2) for _ in word]
        expected = np.conj(word_apply(a, word, [np.conj(g).T for g in args])).T
        assert_allclose(word_apply(a.adjoint(), word[::-1], [g.T for g in args[::-1]]),
                        expected, atol=1e-14)


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


    def test_matches_a_high_precision_oracle(self):
        # sparse units are rank deficient: square roots of the Gram matrices B B* and
        # B* B would take the roots of their roundoff, about 1e-8 of the bound
        rng = np.random.default_rng(19)
        for _ in range(16):
            d, n, rows = (int(k) for k in rng.integers(1, [3, 3, 4]))
            cols = int(rng.choice([rows, n]))
            coeffs = cmat(rng, d * n * n * rows, cols).reshape(d, n, n, rows, cols)
            a = MatrixLinearMap(coeffs * (rng.uniform(size=coeffs.shape) < 0.3))
            expected = mp_cb_bound(a)
            assert abs(cb_row_norm_bound(a) - expected) <= 1e-13 * expected


def mp_cb_bound(a):
    """The cb row-norm bound from mpmath SVDs of each unit, B = U S V, at 40 digits:
    (B B*)^{1/2} = U S U* and (B* B)^{1/2} = V* S V."""
    import mpmath

    with mpmath.workdps(40):
        left, right = mpmath.zeros(a.out_rows), mpmath.zeros(a.out_cols)
        for unit in a.dense().reshape(-1, a.out_rows, a.out_cols):
            u, s, v = mpmath.svd_c(mpmath.matrix(unit.tolist()))
            for i in range(len(s)):
                left += s[i] * (u[:, i] * u[:, i].H)
                right += s[i] * (v[i, :].H * v[i, :])
        top = [max(mpmath.svd_c(g, compute_uv=False)) for g in (left, right)]
        return float(mpmath.sqrt(top[0] * top[1]))


def union_pattern_index(coeffs):
    """Oracle: the smallest K >= 1 with P^K = 0, by boolean matrix powers of the union
    P of the units' patterns, or None when no power up to N + 1 vanishes."""
    size = coeffs.shape[-1]
    pattern = (coeffs != 0).any(axis=(0, 1, 2)).astype(np.int64)
    power = pattern
    for k in range(1, size + 2):
        if not power.any():
            return k
        power = ((power @ pattern) != 0).astype(np.int64)
    return None


def as_sparse_map(coeffs):
    """The map of a (d, n, n, N, M) tensor, stored as one CSR stack."""
    import scipy.sparse

    d, n, _, rows, cols = coeffs.shape
    return MatrixLinearMap(scipy.sparse.csr_matrix(coeffs.reshape(d * n * n * rows, cols)), d, n)


class TestNilpotencyIndex:
    @pytest.mark.parametrize("seed", range(40))
    def test_equals_the_pattern_power_oracle(self, seed):
        # a random DAG under a random vertex order, its edges spread over the
        # units, and for some seeds one edge back along a path
        rng = np.random.default_rng(seed)
        d, n, size = int(rng.integers(1, 3)), int(rng.integers(1, 3)), int(rng.integers(0, 7))
        upper = np.triu(rng.random((size, size)) < rng.uniform(0.1, 0.7), 1)
        if seed % 3 == 0 and size > 1:
            i, j = sorted(rng.choice(size, 2, replace=False))
            upper[j, i] = True
        order = rng.permutation(size)
        edges = upper[np.ix_(order, order)]
        owner = rng.integers(0, d * n * n, size=(size, size))
        coeffs = np.zeros((d * n * n, size, size), dtype=np.complex128)
        rows, cols = np.nonzero(edges)
        coeffs[owner[rows, cols], rows, cols] = cmat(rng, 1, len(rows))[0]
        coeffs = coeffs.reshape(d, n, n, size, size)
        expected = union_pattern_index(coeffs)
        assert MatrixLinearMap(coeffs).nilpotency_index == expected
        assert as_sparse_map(coeffs).nilpotency_index == expected

    def test_cycle_across_units_without_a_self_loop(self):
        # each unit is nilpotent on its own; their union is the cycle 0 -> 1 -> 2 -> 0
        coeffs = np.zeros((1, 2, 2, 3, 3), dtype=np.complex128)
        coeffs[0, 0, 0, 0, 1] = 1.0
        coeffs[0, 0, 1, 1, 2] = 2.0
        coeffs[0, 1, 1, 2, 0] = -1.0j
        path = coeffs.copy()
        path[0, 1, 1] = 0.0   # without the edge 2 -> 0: the path 0 -> 1 -> 2
        assert union_pattern_index(coeffs) is None
        assert union_pattern_index(path) == 3
        for a in (MatrixLinearMap(coeffs), as_sparse_map(coeffs)):
            assert a.nilpotency_index is None
        for a in (MatrixLinearMap(path), as_sparse_map(path)):
            assert a.nilpotency_index == 3

    @pytest.mark.parametrize("size", [0, 3])
    def test_empty_and_zero_maps(self, size):
        coeffs = np.zeros((2, 2, 2, size, size), dtype=np.complex128)
        assert union_pattern_index(coeffs) == 1
        assert MatrixLinearMap(coeffs).nilpotency_index == 1
        assert as_sparse_map(coeffs).nilpotency_index == 1

    def test_computed_once_per_map(self):
        a = identity_map(2)
        assert a.nilpotency_index is None   # A(G) = G: every diagonal entry is a self-loop
        assert a.__dict__["nilpotency_index"] is None


def reachability(pattern):
    """Oracle: R[i, j] is True when a path of length >= 0 leads from i to j in the
    graph with an edge i -> j at every True pattern[i, j], by Boolean squaring."""
    reach = pattern | np.eye(len(pattern), dtype=bool)
    for _ in range(len(pattern).bit_length()):
        reach = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
    return reach


def planted_pattern(rng, size):
    """A random graph with several cycles, some self-loops, some vertices on no
    cycle, and acyclic edges between all of them, under a random vertex order."""
    pattern = np.triu(rng.random((size, size)) < 0.3, 1)
    for _ in range(int(rng.integers(1, 4))):   # a cycle through a few vertices
        ring = rng.choice(size, int(rng.integers(2, max(3, size // 2))), replace=False)
        pattern[ring, np.roll(ring, 1)] = True
    loops = rng.random(size) < 0.3
    pattern[loops, loops] = True
    order = rng.permutation(size)
    return pattern[np.ix_(order, order)]


def coeffs_on(rng, pattern, d, n):
    """A (d, n, n, N, N) tensor whose units share out the edges of ``pattern``."""
    size = len(pattern)
    owner = rng.integers(0, d * n * n, size=(size, size))
    coeffs = np.zeros((d * n * n, size, size), dtype=np.complex128)
    rows, cols = np.nonzero(pattern)
    coeffs[owner[rows, cols], rows, cols] = cmat(rng, 1, len(rows))[0]
    return coeffs.reshape(d, n, n, size, size)


class TestStrongComponents:
    @pytest.mark.parametrize("seed", range(30))
    def test_matches_the_reachability_oracle(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, 16))
        pattern = planted_pattern(rng, size)
        coeffs = coeffs_on(rng, pattern, int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        reach = reachability(pattern)
        mutual = reach & reach.T
        for a in (MatrixLinearMap(coeffs), as_sparse_map(coeffs)):
            components = a.strong_components
            position = np.empty(size, dtype=int)
            for k, states in enumerate(components):
                assert np.array_equal(states, np.sort(states))
                position[states] = k
            assert sorted(np.concatenate(components).tolist()) == list(range(size))
            # the oracle's components: states reached both ways
            for states in components:
                assert np.array_equal(np.flatnonzero(mutual[states[0]]), states)
            # sinks first: whatever a state reaches is listed no later
            rows, cols = np.nonzero(reach)
            assert np.all(position[cols] <= position[rows])

    def test_one_cycle_is_one_component(self):
        size = 6
        pattern = np.roll(np.eye(size, dtype=bool), 1, axis=1)   # 0 -> 1 -> ... -> 5 -> 0
        a = MatrixLinearMap(coeffs_on(np.random.default_rng(1), pattern, 2, 1))
        assert len(a.strong_components) == 1
        assert np.array_equal(a.strong_components[0], np.arange(size))

    def test_acyclic_map_has_one_component_per_state(self):
        pattern = np.triu(np.ones((5, 5), dtype=bool), 1)   # every edge i -> j with i < j
        a = MatrixLinearMap(coeffs_on(np.random.default_rng(2), pattern, 1, 2))
        assert [states.tolist() for states in a.strong_components] == [[4], [3], [2], [1], [0]]
        assert a.__dict__["strong_components"] is a.strong_components


def overlapping_coeffs(rng, d, n, size, nilpotent):
    """Random units, each on most of one shared pattern, so that they overlap; the
    pattern is strictly upper triangular when ``nilpotent``."""
    shared = rng.random((size, size)) < 0.6
    if nilpotent:
        shared = np.triu(shared, 1)
    support = shared & (rng.random((d, n, n, size, size)) < 0.8)
    return cmat(rng, d * n * n * size, size).reshape(d, n, n, size, size) * support


def fock_map(n, d, L, scale=0.5):
    from ncreal.core import CentrePoint
    from ncreal.fock import TruncatedFockVector, fock_realization

    h = TruncatedFockVector(n, d, L, {((1,), (1,), ()): 1.0})
    return fock_realization(h, CentrePoint([np.zeros((n, n))] * d), scale).A


class TestStack:
    """A dense stack and a CSR stack of the same coefficients agree in every accessor."""

    @pytest.mark.parametrize("seed", range(8))
    def test_dense_and_sparse_storage_agree(self, seed):
        import scipy.sparse

        rng = np.random.default_rng(seed)
        d, n, size = 1 + seed % 3, 1 + seed % 2, 5
        coeffs = overlapping_coeffs(rng, d, n, size, nilpotent=seed % 2 == 0)
        dense, sparse = MatrixLinearMap(coeffs), as_sparse_map(coeffs)
        assert not dense.is_sparse and scipy.sparse.isspmatrix_csr(sparse.stack)
        assert dense.stack.shape == sparse.stack.shape == (d * n * n * size, size)
        assert np.array_equal(dense.dense(), coeffs) and np.array_equal(sparse.dense(), coeffs)
        for j, p, q in unit_keys(dense):
            u, v = dense.dense()[j - 1, p, q], sparse.unit(j, p, q)
            assert np.array_equal(u, coeffs[j - 1, p, q])
            assert np.array_equal(v.toarray(), u)
            assert np.array_equal(sparse.unit(j, p, q).toarray(), dense.unit(j, p, q))
        g = cmat(rng, n, n)
        for j in range(1, d + 1):
            assert scipy.sparse.issparse(sparse.apply(j, g))
            assert_allclose(sparse.apply(j, g).toarray(), dense.apply(j, g), atol=1e-14)
            assert_allclose(dense.apply(j, g), np.einsum("pq,pqrs->rs", g, coeffs[j - 1]),
                            atol=1e-14)
        for t in (0.5 - 2j, 0.0):
            assert np.array_equal(sparse.scaled(t).dense(), dense.scaled(t).dense())
        assert sparse.nilpotency_index == dense.nilpotency_index
        assert (dense.nilpotency_index is not None) == (seed % 2 == 0)
        for m in (1, 2, 3):
            x = random_tuple(rng, n, m, d)
            t = ampliated_apply(sparse, x)
            assert scipy.sparse.isspmatrix_csr(t) and t.dtype == np.complex128
            assert_allclose(t.toarray(), ampliated_apply(dense, x), atol=1e-13)
            assert_allclose(t.toarray(), TestAmpliatedApply.unit_oracle(dense, x), atol=1e-13)

    @pytest.mark.parametrize("n,d,L", [(1, 2, 3), (2, 1, 2), (2, 2, 1), (1, 3, 2)])
    def test_fock_ampliation_is_the_kronecker_sum(self, n, d, L):
        # the units of a Fock map do not overlap: every entry of T is one product
        import scipy.sparse

        rng = np.random.default_rng(n * 100 + d * 10 + L)
        a = fock_map(n, d, L)
        assert a.is_sparse and a.nilpotency_index is not None
        for m in (1, 2, 3):
            x = random_tuple(rng, n, m, d)
            expected = sum(np.kron(x.components[j - 1][p::n, q::n], a.unit(j, p, q).toarray())
                           for j, p, q in unit_keys(a))
            got = ampliated_apply(a, x)
            assert scipy.sparse.isspmatrix_csr(got) and got.dtype == np.complex128
            assert got.nnz == np.count_nonzero(expected)
            assert np.array_equal(got.toarray(), expected)

    def test_stack_constructor_checks_its_rows(self):
        import scipy.sparse

        with pytest.raises(ValueError, match="multiple of 8 rows"):
            MatrixLinearMap(scipy.sparse.csr_matrix((12, 3)), 2, 2)
        with pytest.raises(ValueError, match="5 axes"):
            MatrixLinearMap(np.zeros((4, 3)))


def literal_cb_bound(a):
    """The cb row-norm bound summed one unit at a time, each pair of square roots from the
    unit's own SVD B = U S V*: (B B*)^{1/2} = U S U* and (B* B)^{1/2} = V S V*.  (Roots
    of the Gram matrices B B* and B* B by eigh read up to 5e-10 high on these maps,
    against mp_cb_bound.)"""
    left = np.zeros((a.out_rows, a.out_rows), dtype=np.complex128)
    right = np.zeros((a.out_cols, a.out_cols), dtype=np.complex128)
    units = a.dense()
    for j, p, q in unit_keys(a):
        if not units.size:
            continue
        u, s, vh = np.linalg.svd(units[j - 1, p, q], full_matrices=False)
        left += (u * s) @ np.conj(u).T
        right += (np.conj(vh).T * s) @ vh
    norms = [np.linalg.norm(g, 2) if g.size else 0.0 for g in (left, right)]
    return float(np.sqrt(norms[0] * norms[1]))


class TestUnitwiseKernel:
    """images, adjoint, compressed and the cb bound against literal per-unit oracles, at
    dense and CSR storage, square and input (N x n) maps, no state and empty bases."""

    SHAPES = [(1, 1, 3, 3), (2, 2, 4, 4), (2, 2, 5, 2), (3, 1, 4, 1), (2, 2, 0, 0),
              (2, 2, 0, 2)]

    @staticmethod
    def maps(rng, d, n, rows, cols):
        coeffs = overlapping_coeffs(rng, d, n, max(rows, cols), nilpotent=False)
        coeffs = coeffs[..., :rows, :cols]
        return coeffs, (MatrixLinearMap(coeffs), as_sparse_map(coeffs))

    @pytest.mark.parametrize("d,n,rows,cols", SHAPES)
    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_images_are_the_unit_products_in_unit_order(self, d, n, rows, cols, k):
        rng = np.random.default_rng(d * 1000 + n * 100 + rows * 10 + cols + k)
        coeffs, maps = self.maps(rng, d, n, rows, cols)
        v = cmat(rng, cols, k)
        expected = np.hstack([coeffs[j - 1, p, q] @ v for j, p, q in unit_keys(maps[0])])
        for a in maps:
            got = a.images(v)
            assert isinstance(got, np.ndarray) and got.shape == (rows, d * n * n * k)
            assert_allclose(got, expected, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("d,n,rows,cols", SHAPES)
    def test_adjoint_holds_the_adjoint_units(self, d, n, rows, cols):
        import scipy.sparse

        rng = np.random.default_rng(d * 100 + n * 10 + rows + cols)
        coeffs, (dense, sparse) = self.maps(rng, d, n, rows, cols)
        expected = np.conj(coeffs).transpose(0, 1, 2, 4, 3)
        for a in (dense, sparse):
            star = a.adjoint()
            assert (star.d, star.n, star.out_rows, star.out_cols) == (d, n, cols, rows)
            assert star.is_sparse == a.is_sparse
            assert np.array_equal(star.dense(), expected)
            assert np.array_equal(star.adjoint().dense(), coeffs)
        assert scipy.sparse.isspmatrix_csr(sparse.adjoint().stack)
        assert sparse.adjoint().stack.nnz == sparse.stack.nnz

    def test_sparse_adjoint_is_never_densified(self, monkeypatch):
        from ncreal import core

        a = fock_map(2, 2, 2)
        monkeypatch.setattr(core, "ALLOCATION_CAP", 0)
        with pytest.raises(ValueError, match="cap"):
            a.dense()
        star = a.adjoint()
        assert star.is_sparse and star.stack.nnz == a.stack.nnz
        v = cmat(np.random.default_rng(3), a.out_rows, 2)
        expected = np.hstack([a.unit(j, p, q).conj().T @ v for j, p, q in unit_keys(a)])
        assert_allclose(star.images(v), expected, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("d,n,rows,cols", SHAPES)
    @pytest.mark.parametrize("k", [0, 2])
    def test_compressed_is_the_unit_compression(self, d, n, rows, cols, k):
        rng = np.random.default_rng(d * 1000 + n * 100 + rows * 10 + cols + k + 7)
        coeffs, maps = self.maps(rng, d, n, rows, cols)
        left, right = cmat(rng, k, rows), cmat(rng, cols, k + 1)
        expected = np.array([left @ (coeffs[j - 1, p, q] @ right)
                             for j, p, q in unit_keys(maps[0])])
        for a in maps:
            got = a.compressed(left, right)
            assert not got.is_sparse and (got.d, got.n) == (d, n)
            assert got.dense().shape == (d, n, n, k, k + 1)
            assert_allclose(got.dense().reshape(expected.shape), expected,
                            rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("d,n,rows,cols", SHAPES)
    def test_cb_bound_is_the_unit_sum(self, d, n, rows, cols):
        rng = np.random.default_rng(d * 100 + n * 10 + rows + cols + 11)
        _, maps = self.maps(rng, d, n, rows, cols)
        expected = literal_cb_bound(maps[0])
        for a in maps:
            assert cb_row_norm_bound(a) == pytest.approx(expected, rel=1e-12, abs=1e-300)

    def test_cb_bound_of_a_sparse_map_keeps_the_cap(self, monkeypatch):
        from ncreal import core

        a = fock_map(1, 2, 2)
        expected = literal_cb_bound(a)
        monkeypatch.setattr(core, "ALLOCATION_CAP", a.stack.shape[0] * a.out_cols - 1)
        with pytest.raises(ValueError, match="more than the cap"):
            cb_row_norm_bound(a)
        monkeypatch.undo()
        assert cb_row_norm_bound(a) == pytest.approx(expected, rel=1e-12)


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
        a_sparse = MatrixLinearMap(scipy.sparse.csr_matrix(dense.reshape(12, 3)), 1, 2)
        g = cmat(rng, 2, 2)
        assert_allclose(a_sparse.apply(1, g).toarray(), a_dense.apply(1, g), atol=1e-14)
        x = random_tuple(rng, 2, 2, 1)
        assert_allclose(ampliated_apply(a_sparse, x).toarray(),
                        ampliated_apply(a_dense, x), atol=1e-14)

    def test_sparse_map_refuses_a_dense_copy_above_the_cap(self, monkeypatch):
        import scipy.sparse

        from ncreal import core

        # four identity units: 1 x 2 x 2 x 3 x 3 = 36 entries
        a = MatrixLinearMap(scipy.sparse.csr_matrix(np.tile(np.eye(3), (4, 1))), 1, 2)
        monkeypatch.setattr(core, "ALLOCATION_CAP", 35)
        with pytest.raises(ValueError, match="36 entries, more than the cap of 35"):
            a.dense()
        monkeypatch.setattr(core, "ALLOCATION_CAP", 36)
        assert a.dense().shape == (1, 2, 2, 3, 3)
