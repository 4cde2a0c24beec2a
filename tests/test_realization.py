import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import conftest
from conftest import (
    block_graph_depth,
    cmat,
    point_near_centre,
    random_centre,
    random_descriptor,
    random_invertible,
    random_linmap,
    series_transfer,
    unit_column_tuple,
    word_sum_transfer,
)

from ncreal import realization
from ncreal.core import (
    CentrePoint,
    MatrixTuple,
    SingularMatrixError,
    ampliate,
    apply_similarity,
    passes_invertibility,
)
from ncreal.linmap import MatrixLinearMap, _unit_coefficients, ampliated_apply, cb_row_norm_bound
from ncreal.realization import (
    DescriptorRealization,
    FMRealization,
    evaluate,
    in_domain,
    load_realization,
    moment,
    pencil,
    pencil_sigma,
    pole_order,
    save_realization,
    transfer,
    transfer_fm,
)


def scalar_realization(a=1.0, b=1.0, c=1.0, y=0.0):
    """d = 1, n = N = 1 descriptor data: transfer(x) = b * c / (1 - a (x - y))."""
    amap = MatrixLinearMap(np.array([[[[[a]]]]], dtype=np.complex128))
    centre = CentrePoint([np.array([[y]], dtype=np.complex128)])
    return DescriptorRealization(amap, np.array([[b]]), np.array([[c]]), centre)


def scalar_point(x):
    return MatrixTuple([np.array([[x]], dtype=np.complex128)], 1)


class TestPencil:
    def test_identity_at_centre(self):
        rng = np.random.default_rng(0)
        r = random_descriptor(rng, 2, 3, 2)
        for m in (1, 2):
            assert_allclose(pencil(r, ampliate(r.Y, m)), np.eye(3 * m), atol=1e-15)

    def test_zero_map_gives_identity(self):
        rng = np.random.default_rng(1)
        y = random_centre(rng, 2, 2)
        r = DescriptorRealization(MatrixLinearMap.zeros(2, 2, 3),
                                  cmat(rng, 3, 2), cmat(rng, 3, 2), y)
        x = point_near_centre(rng, y, 2, 2.0)
        assert_allclose(pencil(r, x), np.eye(6), atol=1e-15)

    def test_scalar_pencil(self):
        r = scalar_realization()
        assert_allclose(pencil(r, scalar_point(0.25)), np.array([[0.75]]))


class TestInDomain:
    def test_centre_in_domain(self):
        rng = np.random.default_rng(2)
        r = random_descriptor(rng, 2, 3, 2)
        assert in_domain(r, ampliate(r.Y, 1))
        assert in_domain(r, ampliate(r.Y, 3))

    def test_scalar_boundary(self):
        r = scalar_realization()
        assert not in_domain(r, scalar_point(1.0))
        assert in_domain(r, scalar_point(0.5))

    def test_commutator_inverse_domain(self):
        # inv(x1 x2 - x2 x1) is regular at Y1 = E12, Y2 = E21:
        # the commutator there is diag(1, -1), invertible by direct arithmetic
        from ncreal.algebra import fm_to_desc
        from ncreal.parser import parse, realize_expression

        e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
        e21 = np.array([[0.0, 0.0], [1.0, 0.0]])
        y = CentrePoint([e12, e21])
        comm = e12 @ e21 - e21 @ e12
        assert_allclose(comm, np.diag([1.0, -1.0]))
        fm = realize_expression(parse("inv(x1*x2 - x2*x1)", 2), y)
        assert in_domain(fm_to_desc(fm), ampliate(y, 1))


def unipotent_realization(t, sparse):
    """n = d = 1, N = 2 data whose pencil at X = 1 about Y = 0 is [[1, t], [0, 1]]."""
    unit = np.array([[0.0, -t], [0.0, 0.0]], dtype=np.complex128)
    amap = (MatrixLinearMap(scipy.sparse.csr_matrix(unit), 1, 1) if sparse
            else MatrixLinearMap(unit.reshape(1, 1, 1, 2, 2)))
    centre = CentrePoint([np.zeros((1, 1))])
    return DescriptorRealization(amap, np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]),
                                 centre)


class TestEvaluationKernel:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 4), n=st.integers(1, 3),
           d=st.integers(1, 3), big_n=st.integers(1, 4))
    def test_cb_bound_holds_at_every_level(self, seed, m, n, d, big_n):
        rng = np.random.default_rng(seed)
        a = random_linmap(rng, d, n, big_n, scale=float(rng.uniform(0.1, 3.0)))
        h = unit_column_tuple(rng, n, m, d).scaled(float(rng.uniform(0.1, 3.0)))
        norm = np.linalg.norm(ampliated_apply(a, h), 2)
        assert norm <= realization._cb_col_bound(a, h) * (1.0 + realization._BOUND_PAD)

    @pytest.mark.parametrize("sparse", [True, False])
    @pytest.mark.parametrize("t", [10.0, 1e13])
    def test_unipotent_pencil(self, t, sparse):
        # sigma_min = 1 / sigma_max: unipotent, yet outside the domain at t = 1e13
        r = unipotent_realization(t, sparse)
        x = scalar_point(1.0)
        e = evaluate(r, x)
        assert e.in_domain == passes_invertibility(*pencil_sigma(r, x)) == (t == 10.0)
        assert e.decided_by == ("certificate" if t == 10.0 else "svd")
        if e.in_domain:
            assert_allclose(e.value, [[-t]], rtol=1e-14)
            assert e.sigma_min <= pencil_sigma(r, x)[0]
            assert e.sigma_max >= pencil_sigma(r, x)[1]
        else:
            assert e.value is None
            with pytest.raises(SingularMatrixError):
                transfer(r, x)

    def test_verdict_matches_svd_on_the_sampled_points(self, nc_corpus, monkeypatch):
        decided = []

        def checked(r, x):
            e = evaluate(r, x)
            assert e.in_domain == passes_invertibility(*pencil_sigma(r, x))
            decided.append(e.decided_by)
            return e.in_domain

        monkeypatch.setattr(conftest, "in_domain", checked)
        rng = np.random.default_rng(31)
        for item in nc_corpus:
            item.sample_points(rng, 2)
        r = scalar_realization()
        for value in (1.0, 0.5):
            checked(r, scalar_point(value))
        assert decided.count("certificate") > 100 and "svd" in decided

    def test_certified_point_takes_no_svd(self, monkeypatch):
        from ncreal.parser import parse, realize_expression

        rng = np.random.default_rng(32)
        y = random_centre(rng, 2, 2)
        fm = realize_expression(parse("inv(x1*x2 + 3) - x2*x1*x2", 2), y)
        x = point_near_centre(rng, y, 4, 0.9 / fm.A.cb_bound)
        expected = (np.kron(np.eye(4), fm.D) + np.kron(np.eye(4), fm.C)
                    @ np.linalg.solve(pencil(fm, x), ampliated_apply(
                        fm.B, x - ampliate(y, 4))))
        calls = []
        for module in (np.linalg, np.linalg._linalg):
            svd = module.svd
            monkeypatch.setattr(module, "svd",
                                lambda *a, svd=svd, **k: calls.append(1) or svd(*a, **k))
        assert in_domain(fm, x)
        value = transfer_fm(fm, x)
        assert calls == []
        assert_allclose(value, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("r_scale", [1.0, 40.0])
    def test_dense_polynomial_at_a_nilpotent_point_takes_no_svd(self, r_scale, monkeypatch):
        from ncreal.analysis import nilpotent_point
        from ncreal.parser import parse, realize_expression

        rng = np.random.default_rng(34)
        y = random_centre(rng, 2, 2)
        fm = realize_expression(parse("x1*x2*x1 - 2*x2*x1 + x2", 2), y)
        assert not fm.A.is_sparse and fm.A.nilpotency_index is not None
        x = nilpotent_point(y, (1, 2, 1), [cmat(rng, 2, 2) for _ in range(3)], r_scale)
        exact = pencil_sigma(fm, x)
        expected = (np.kron(np.eye(4), fm.D) + np.kron(np.eye(4), fm.C)
                    @ np.linalg.solve(pencil(fm, x), ampliated_apply(
                        fm.B, x - ampliate(y, 4))))

        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        for module in (np.linalg, np.linalg._linalg):
            monkeypatch.setattr(module, "svd", refuse)
        e = evaluate(fm, x)
        monkeypatch.undo()
        assert e.decided_by == "certificate" and e.in_domain
        assert e.sigma_min <= exact[0] and e.sigma_max >= exact[1]
        assert_allclose(e.value, expected, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("sparse", [True, False])
    def test_cyclic_union_pattern_falls_back_to_the_svd(self, sparse):
        # A_1(E_11) and A_2(E_11) are each nilpotent, their union pattern is the
        # cycle 0 -> 1 -> 0; at X = (3, 0.1) about 0, T = [[0, 3], [0.1, 0]]
        units = [np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]])]
        coeffs = np.array(units, dtype=np.complex128).reshape(2, 1, 1, 2, 2)
        amap = (MatrixLinearMap(scipy.sparse.csr_matrix(np.vstack(units)), 2, 1) if sparse
                else MatrixLinearMap(coeffs))
        r = DescriptorRealization(amap, np.eye(2, 1), np.eye(2, 1),
                                  CentrePoint([np.zeros((1, 1))] * 2))
        x = MatrixTuple([np.array([[3.0]]), np.array([[0.1]])], 1)
        assert amap.nilpotency_index is None
        e = evaluate(r, x)
        assert e.decided_by == "svd"
        assert e.in_domain == passes_invertibility(*pencil_sigma(r, x)) is True
        assert (e.sigma_min, e.sigma_max) == pencil_sigma(r, x)
        assert_allclose(e.value, [[1.0 / 0.7]], rtol=1e-14)

    @pytest.mark.parametrize("m", [1, 3])
    def test_decide_builds_the_deviation_once(self, m, monkeypatch):
        # H = X - I_m (x) Y is built once, entry for entry the tuple difference
        rng = np.random.default_rng(33)
        r = random_descriptor(rng, 2, 4, 2, scale=0.5)
        x = point_near_centre(rng, r.Y, m, 0.1)
        expected = x - ampliate(r.Y, m)
        built, calls = [], []
        init = MatrixTuple.__init__
        monkeypatch.setattr(MatrixTuple, "__init__",
                            lambda self, *a, **k: built.append(1) or init(self, *a, **k))
        deviation = realization.deviation_from_centre
        monkeypatch.setattr(realization, "deviation_from_centre",
                            lambda *a: calls.append(1) or deviation(*a))
        h = realization._decide(r, x)[0]
        # one difference, not checked again as a new tuple
        assert len(calls) == 1 and built == []
        for got, want in zip(h.components, expected.components):
            assert np.array_equal(got, want)


def index_at(a, h):
    """The kernel's K at the deviation H, read off H's coefficient matrix."""
    return realization._index(a, _unit_coefficients(h), h.level_m)


def tree_probe(rng, y, scale):
    """A block-nilpotent point: the path 0 - 1 - 2 with two children below node 2."""
    from ncreal.analysis import tree_point

    parents = [0, 1, 2, 2]
    return tree_point(y, parents, [1, 2, 1, 2], [cmat(rng, y.base_n, y.base_n)
                                                 for _ in parents], scale)


def planted(rng, x, k, l):
    """x with a random n x n block added at block (k, l) of its first component."""
    n = x.base_n
    comps = [c.copy() for c in x.components]
    comps[0][k * n:(k + 1) * n, l * n:(l + 1) * n] += cmat(rng, n, n)
    return MatrixTuple(comps, n)


def lu_value(r, x):
    """The value at X from a dense LU solve of the whole pencil."""
    m = x.level_m
    if isinstance(r, FMRealization):
        rhs = ampliated_apply(r.B, x - ampliate(r.Y, m))
        return np.kron(np.eye(m), r.D) + np.kron(np.eye(m), r.C) @ np.linalg.solve(
            pencil(r, x), rhs)
    return np.kron(np.eye(m), np.conj(r.b).T) @ np.linalg.solve(
        pencil(r, x), np.kron(np.eye(m), r.c))


def csr_copy(r):
    """r with every map stored as one CSR stack."""
    def sparse(a):
        return MatrixLinearMap(scipy.sparse.csr_matrix(a.stack), a.d, a.n)

    if isinstance(r, FMRealization):
        return FMRealization(sparse(r.A), sparse(r.B), r.C, r.D, r.Y)
    return DescriptorRealization(sparse(r.A), r.b, r.c, r.Y)


def record_factorizations(monkeypatch):
    """The names of the SVDs, dense LUs and sparse LUs taken from now on."""
    import scipy.sparse.linalg

    calls = []

    def recorded(module, name):
        inner = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, **k: calls.append(name) or inner(*a, **k))

    for module, name in ((np.linalg, "svd"), (np.linalg._linalg, "svd"),
                         (scipy.linalg.lapack, "zgetrf"), (scipy.sparse.linalg, "splu")):
        recorded(module, name)
    return calls


def rational_realization(rng, kind):
    """A dense map with a cycle in its pattern: no nilpotency index."""
    from ncreal.algebra import fm_to_desc
    from ncreal.analysis import kalman_minimize
    from ncreal.parser import parse, realize_expression

    fm = realize_expression(parse("inv(x1*x2 + 3) - x2*x1", 2), random_centre(rng, 2, 2))
    r = fm if kind == "fm" else kalman_minimize(fm_to_desc(fm))
    assert not r.A.is_sparse and r.A.nilpotency_index is None
    return r


class TestBlockNilpotentKernel:
    @pytest.mark.parametrize("kind", ["fm", "descriptor"])
    @pytest.mark.parametrize("scale", [1.0, 3.0])
    def test_certified_finite_sum_takes_no_factorization(self, kind, scale, monkeypatch):
        rng = np.random.default_rng(41)
        r = rational_realization(rng, kind)
        x = tree_probe(rng, r.Y, scale)
        h = x - ampliate(r.Y, x.level_m)
        # with the map's own index, None, the certificate cannot prove this point:
        # only the block graph's depth makes it a finite sum
        t = ampliated_apply(r.A, h)
        assert realization._certify(r.A, h, t, r.A.nilpotency_index) is None
        assert index_at(r.A, h) == block_graph_depth(h) == 4
        exact = pencil_sigma(r, x)
        expected = lu_value(r, x)

        def refuse(*args, **kwargs):
            raise AssertionError("a factorization was taken")

        for module in (np.linalg, np.linalg._linalg):
            monkeypatch.setattr(module, "svd", refuse)
        monkeypatch.setattr(scipy.linalg.lapack, "zgetrf", refuse)
        e = evaluate(r, x)
        monkeypatch.undo()
        assert e.decided_by == "certificate"
        assert e.in_domain == passes_invertibility(*exact) is True
        assert e.sigma_min <= exact[0] and e.sigma_max >= exact[1]
        assert np.linalg.norm(e.value - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("plant", [None, (0, 0), (3, 3), (2, 1)])
    def test_diagonal_block_cycle_or_sparse_map_builds_t_whole(self, plant, sparse,
                                                                monkeypatch):
        # (0, 0) and (3, 3) are nonzero diagonal blocks; (2, 1) closes the
        # 2-cycle with the path edge 1 -> 2.  T is built whole for either
        # storage, and only the unplanted block point is a finite sum.
        rng = np.random.default_rng(42)
        r = rational_realization(rng, "descriptor")
        if sparse:
            r = csr_copy(r)
        x = tree_probe(rng, r.Y, 3.0)
        if plant is not None:
            x = planted(rng, x, *plant)
        whole, ampliate = [], realization._ampliate
        monkeypatch.setattr(realization, "_ampliate",
                            lambda a, *rest: whole.append(a) or ampliate(a, *rest))
        factorizations = record_factorizations(monkeypatch)
        e = evaluate(r, x)
        monkeypatch.undo()
        finite_sum = plant is None
        assert whole == [r.A]
        assert (factorizations == []) == finite_sum
        assert e.decided_by == ("certificate" if finite_sum else "svd")
        assert e.in_domain == passes_invertibility(*pencil_sigma(r, x))
        if e.in_domain:
            assert_allclose(e.value, lu_value(r, x), rtol=1e-10, atol=1e-12)
        assert (pole_order(r, x) == 0) == e.in_domain

    def test_centre_is_a_one_term_sum(self):
        rng = np.random.default_rng(43)
        r = rational_realization(rng, "fm")
        e = evaluate(r, ampliate(r.Y, 2))
        assert e.decided_by == "certificate" and (e.sigma_min, e.sigma_max) == (1.0, 1.0)
        assert np.array_equal(e.value, np.kron(np.eye(2), r.D))


def polynomial_fm(rng):
    """A dense FM map of a polynomial: its union pattern is acyclic."""
    from ncreal.parser import parse, realize_expression

    fm = realize_expression(parse("x1*x2*x1 - 2*x2*x1 + x2", 2), random_centre(rng, 2, 2))
    assert not fm.A.is_sparse and fm.A.nilpotency_index is not None
    return fm


def cyclic_sparse_realization():
    """A sparse map whose union pattern is the cycle 0 -> 1 -> 0: no nilpotency index."""
    units = np.array([[0.0, 1.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    amap = MatrixLinearMap(scipy.sparse.csr_matrix(units), 2, 1)
    assert amap.nilpotency_index is None
    return DescriptorRealization(amap, np.eye(2, 1), np.eye(2, 1),
                                 CentrePoint([np.zeros((1, 1))] * 2))


class TestValueRule:
    @pytest.mark.parametrize("m", [1, 3])
    def test_nilpotent_map_at_a_generic_point_takes_no_lu(self, m, monkeypatch):
        rng = np.random.default_rng(44)
        fm = polynomial_fm(rng)
        x = point_near_centre(rng, fm.Y, m, 0.7)
        h = x - ampliate(fm.Y, m)
        assert block_graph_depth(h) is None   # not a block point
        assert index_at(fm.A, h) == fm.A.nilpotency_index
        expected = lu_value(fm, x)

        def refuse(*args, **kwargs):
            raise AssertionError("an LU factorization was taken")

        monkeypatch.setattr(scipy.linalg.lapack, "zgetrf", refuse)
        e = evaluate(fm, x)
        monkeypatch.undo()
        assert e.decided_by == "certificate" and e.in_domain
        assert np.linalg.norm(e.value - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_series_of_an_fm_polynomial_is_its_value(self):
        rng = np.random.default_rng(45)
        fm = polynomial_fm(rng)
        x = point_near_centre(rng, fm.Y, 2, 0.7)
        terms = fm.A.nilpotency_index - 1
        expected = transfer_fm(fm, x)
        for more in (0, 2):
            assert_allclose(series_transfer(fm, x, terms + more), expected,
                            rtol=1e-12, atol=1e-12)
        assert_allclose(series_transfer(fm, x, 0), np.kron(np.eye(2), fm.D)
                        + np.kron(np.eye(2), fm.C) @ ampliated_apply(fm.B, x - ampliate(fm.Y, 2)),
                        rtol=1e-12, atol=1e-12)

    def test_cyclic_sparse_map_still_takes_superlu(self, monkeypatch):
        import scipy.sparse.linalg

        # T = [[0, 0.3], [0.1, 0]]: q < 1 certifies, with no nilpotency index
        r = cyclic_sparse_realization()
        x = MatrixTuple([np.array([[0.3]]), np.array([[0.1]])], 1)
        calls, splu = [], scipy.sparse.linalg.splu
        monkeypatch.setattr(scipy.sparse.linalg, "splu",
                            lambda *a, **k: calls.append(1) or splu(*a, **k))
        e = evaluate(r, x)
        assert e.decided_by == "certificate" and len(calls) == 1
        assert_allclose(e.value, [[1.0 / 0.97]], rtol=1e-14)

    def test_dense_copies_of_a_sparse_t_are_capped(self, monkeypatch):
        from ncreal import core

        r = cyclic_sparse_realization()
        # at level 2 the pencil has 16 entries; T = [[0, 30], [10, 0]] per block
        # lies outside the certificate
        x = MatrixTuple([30.0 * np.eye(2), 10.0 * np.eye(2)], 1)
        assert realization._certify(r.A, x, ampliated_apply(r.A, x),
                                    index_at(r.A, x)) is None

        def refuse(*args, **kwargs):
            raise AssertionError("a dense SVD was taken past the cap")

        monkeypatch.setattr(core, "ALLOCATION_CAP", 15)
        for module in (np.linalg, np.linalg._linalg):
            monkeypatch.setattr(module, "svd", refuse)
        for call in (evaluate, in_domain, pole_order, pencil, pencil_sigma):
            with pytest.raises(ValueError, match="16 entries, more than the cap of 15"):
                call(r, x)


def multi_component_fm(rng, n):
    """A dense FM map whose union pattern has several strong components, one of
    them larger than a state."""
    from ncreal.parser import parse, realize_expression

    fm = realize_expression(parse("x1*inv(x2*x1 + 4)*x2 + inv(x1 + 3)*x2*x1 - x2*x2*x1*x1 "
                                  "+ inv(inv(x2 + 3)*x1 + 5)", 2), random_centre(rng, n, 2))
    sizes = [len(states) for states in fm.A.strong_components]
    assert not fm.A.is_sparse and len(sizes) > 3 and max(sizes) > 1
    return fm


def merged_block_states(a, m):
    """Oracle for the merge rule: adjacent components, in order, joined until a block
    holds at least _BLOCK_ROWS pencil rows, a short last block joined to the one
    before.  The state count of each block."""
    blocks = []
    for states in a.strong_components:
        if not blocks or m * blocks[-1] >= realization._BLOCK_ROWS:
            blocks.append(0)
        blocks[-1] += len(states)
    if len(blocks) > 1 and m * blocks[-1] < realization._BLOCK_ROWS:
        last = blocks.pop()
        blocks[-1] += last
    return blocks


def record_lu_sizes(monkeypatch):
    """The orders of the dense LUs taken from now on."""
    sizes, getrf = [], scipy.linalg.lapack.zgetrf
    monkeypatch.setattr(scipy.linalg.lapack, "zgetrf",
                        lambda a, *r, **k: sizes.append(len(a)) or getrf(a, *r, **k))
    return sizes


class TestBlockSolve:
    @pytest.mark.parametrize("n, m", [(1, 1), (1, 8), (2, 2), (2, 8)])
    def test_no_lu_exceeds_a_merged_block(self, n, m, monkeypatch):
        rng = np.random.default_rng(50)
        fm = multi_component_fm(rng, n)
        x = point_near_centre(rng, fm.Y, m, 0.5 / fm.A.cb_bound)
        expected = lu_value(fm, x)
        blocks = merged_block_states(fm.A, m)
        sizes = record_lu_sizes(monkeypatch)
        e = evaluate(fm, x)
        monkeypatch.undo()
        assert e.decided_by == "certificate"
        assert sizes == [m * b for b in blocks] and sum(sizes) == m * fm.N
        assert max(sizes) <= m * max(blocks)
        assert len(sizes) > 1 or m * fm.N < 2 * realization._BLOCK_ROWS
        assert np.linalg.norm(e.value - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("m", [1, 4])
    def test_one_component_takes_one_lu(self, m, monkeypatch):
        rng = np.random.default_rng(51)
        r = rational_realization(rng, "descriptor")
        assert len(r.A.strong_components) == 1
        x = point_near_centre(rng, r.Y, m, 0.5 / r.A.cb_bound)
        expected = lu_value(r, x)
        sizes = record_lu_sizes(monkeypatch)
        e = evaluate(r, x)
        monkeypatch.undo()
        assert sizes == [m * r.N]
        assert np.linalg.norm(e.value - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_svd_decided_point_is_solved_by_blocks(self, monkeypatch):
        # a point past the certificate but inside the domain: the SVD decides, and
        # every diagonal block is invertible since sigma_min(M_ii) >= sigma_min(M)
        rng = np.random.default_rng(52)
        fm = multi_component_fm(rng, 1)
        h = unit_column_tuple(rng, 1, 8, 2)
        for scale in np.geomspace(1.0, 50.0, 40) / fm.A.cb_bound:
            x = ampliate(fm.Y, 8) + h.scaled(scale)
            if evaluate(fm, x)[1:] == (True, *pencil_sigma(fm, x), "svd"):
                break
        else:
            raise AssertionError("no point between the certificate and the domain's edge")
        expected = lu_value(fm, x)
        sizes = record_lu_sizes(monkeypatch)
        e = evaluate(fm, x)
        monkeypatch.undo()
        assert e.decided_by == "svd" and e.in_domain and len(sizes) > 1
        assert np.linalg.norm(e.value - expected) <= 1e-10 * np.linalg.norm(expected)


class TestDomainFromTheCbRadius:
    @pytest.mark.parametrize("kind", ["fm", "descriptor"])
    def test_certified_in_domain_builds_no_t(self, kind, monkeypatch):
        rng = np.random.default_rng(53)
        r = rational_realization(rng, kind)
        x = point_near_centre(rng, r.Y, 4, 0.9 / r.A.cb_bound)

        def refuse(*args, **kwargs):
            raise AssertionError("T was built")

        monkeypatch.setattr(realization, "ampliated_apply", refuse)
        monkeypatch.setattr(realization, "_ampliate", refuse)
        monkeypatch.setattr(realization, "_decide", refuse)
        assert in_domain(r, x)
        monkeypatch.undo()
        assert evaluate(r, x).in_domain

    def test_verdict_equals_evaluate_inside_and_outside_the_ball(self, monkeypatch):
        # points from the centre to well past the cb ball, on dense and sparse
        # maps: the cb step decides some, the kernel the rest, to one verdict
        rng = np.random.default_rng(54)
        fm = multi_component_fm(rng, 2)
        maps = [fm, fm_to_desc_minimized(fm), csr_copy(fm), scalar_realization()]
        decide, fallbacks = realization._decide, []
        monkeypatch.setattr(realization, "_decide",
                            lambda r, x: fallbacks.append(1) or decide(r, x))
        verdicts = []
        for r in maps:
            for m in (1, 3):
                h = unit_column_tuple(rng, r.n, m, r.d)
                for radius in (0.0, 0.5, 0.99, 1.5, 4.0, 40.0, 4000.0):
                    x = ampliate(r.Y, m) + h.scaled(radius / r.A.cb_bound)
                    e = evaluate(r, x)
                    assert in_domain(r, x) == e.in_domain
                    assert e.in_domain == passes_invertibility(*pencil_sigma(r, x))
                    verdicts.append((e.decided_by, e.in_domain))
        assert {("certificate", True), ("svd", True), ("svd", False)} <= set(verdicts)
        assert 0 < len(fallbacks) - len(verdicts) < len(verdicts)


def fm_to_desc_minimized(fm):
    from ncreal.algebra import fm_to_desc
    from ncreal.analysis import kalman_minimize

    return kalman_minimize(fm_to_desc(fm))


def random_tree(rng, y, nodes, scale):
    """A tree_point on ``nodes`` random edges: random letters, arguments and parents,
    each among the two nodes before it, so that paths run deep."""
    from ncreal.analysis import tree_point

    parents = [int(rng.integers(max(i - 1, 0), i + 1)) for i in range(nodes)]
    letters = [int(rng.integers(1, y.d + 1)) for _ in range(nodes)]
    args = [cmat(rng, y.base_n, y.base_n) for _ in range(nodes)]
    return tree_point(y, parents, letters, args, scale)


def index_maps(kind):
    """A dense map (cyclic or nilpotent) and its CSR copy, with the realization's centre."""
    rng = np.random.default_rng(46)
    r = rational_realization(rng, "descriptor") if kind == "cyclic" else polynomial_fm(rng)
    return r.Y, [r.A, csr_copy(r).A]


class TestIndexRule:
    @pytest.mark.parametrize("kind", ["cyclic", "nilpotent"])
    def test_random_trees_give_a_zero_power(self, kind):
        y, maps = index_maps(kind)
        rng = np.random.default_rng(47)
        for _ in range(12):
            x = random_tree(rng, y, int(rng.integers(1, 8)), float(rng.uniform(0.1, 5.0)))
            h = x - ampliate(y, x.level_m)
            depth = block_graph_depth(h)
            for a in maps:
                index = index_at(a, h)
                assert index == min(depth, a.nilpotency_index or depth)
                t = ampliated_apply(a, h)
                t = t.toarray() if scipy.sparse.issparse(t) else t
                assert not np.linalg.matrix_power(t, index).any()

    @pytest.mark.parametrize("kind", ["cyclic", "nilpotent"])
    @pytest.mark.parametrize("plant", [(0, 0), (3, 3), (2, 1)])
    def test_diagonal_block_or_cycle_falls_back_to_the_map_index(self, kind, plant):
        # (0, 0) and (3, 3) are nonzero diagonal blocks; (2, 1) closes a 2-cycle
        y, maps = index_maps(kind)
        rng = np.random.default_rng(48)
        x = tree_probe(rng, y, 1.0)
        h = planted(rng, x, *plant) - ampliate(y, x.level_m)
        assert block_graph_depth(h) is None
        for a in maps:
            assert index_at(a, h) == a.nilpotency_index

    @pytest.mark.parametrize("kind", ["fm", "descriptor"])
    def test_sparse_map_at_a_tree_probe_is_a_finite_sum(self, kind, monkeypatch):
        rng = np.random.default_rng(49)
        r = rational_realization(rng, kind)
        sparse = csr_copy(r)
        x = tree_probe(rng, r.Y, 3.0)
        expected = evaluate(r, x)
        factorizations = record_factorizations(monkeypatch)
        e = evaluate(sparse, x)
        monkeypatch.undo()
        assert factorizations == []
        assert e.decided_by == expected.decided_by == "certificate"
        assert np.linalg.norm(e.value - expected.value) <= 1e-12 * np.linalg.norm(
            expected.value)


class TestTransfer:
    def test_zero_one_one_is_constant_one(self):
        # the one-dimensional realization (0, 1, 1) defines the constant 1
        r = scalar_realization(a=0.0)
        for x in (-3.0, 0.0, 0.7, 100.0):
            assert_allclose(transfer(r, scalar_point(x)), np.array([[1.0]]), atol=1e-15)

    def test_zero_map_constant(self):
        rng = np.random.default_rng(3)
        y = random_centre(rng, 2, 2)
        b, c = cmat(rng, 3, 2), cmat(rng, 3, 2)
        r = DescriptorRealization(MatrixLinearMap.zeros(2, 2, 3), b, c, y)
        x = point_near_centre(rng, y, 2, 1.5)
        assert_allclose(transfer(r, x), np.kron(np.eye(2), np.conj(b).T @ c), atol=1e-14)

    def test_geometric_series_value(self):
        # 1/(1 - 1/2) = 2; frozen from the partial-sum oracle sum (1/2)^k
        r = scalar_realization()
        partial = sum(0.5 ** k for k in range(64))
        assert partial == pytest.approx(2.0)
        assert_allclose(transfer(r, scalar_point(0.5)), np.array([[2.0]]), atol=1e-14)

    def test_outside_domain_reports_sigma(self):
        r = scalar_realization()
        with pytest.raises(SingularMatrixError) as info:
            transfer(r, scalar_point(1.0))
        assert info.value.sigma_min == pytest.approx(0.0, abs=1e-14)


class TestTransferFM:
    def test_centre_value_is_d(self):
        from ncreal.algebra import coordinate_fm, fm_add, fm_mul

        rng = np.random.default_rng(4)
        y = random_centre(rng, 2, 2)
        r = fm_mul(fm_add(coordinate_fm(1, y), coordinate_fm(2, y)), coordinate_fm(1, y))
        for m in (1, 2):
            assert_allclose(transfer_fm(r, ampliate(y, m)), np.kron(np.eye(m), r.D),
                            atol=1e-13)

    def test_coordinate_evaluates_to_component(self):
        from ncreal.algebra import coordinate_fm

        rng = np.random.default_rng(5)
        y = random_centre(rng, 2, 2)
        r = coordinate_fm(2, y)
        x = point_near_centre(rng, y, 2, 3.0)
        assert_allclose(transfer_fm(r, x), x.component(2), atol=1e-13)

    def test_agrees_with_descriptor_after_conversion(self):
        from ncreal.algebra import fm_to_desc
        from ncreal.parser import parse, realize_expression

        rng = np.random.default_rng(6)
        y = random_centre(rng, 1, 2)
        fm = realize_expression(parse("(x1)*(x2) + inv(2 + x1)", 2), y)
        desc = fm_to_desc(fm)
        for _ in range(5):
            x = point_near_centre(rng, y, 2, 0.2)
            if not in_domain(desc, x):
                continue
            a = transfer_fm(fm, x)
            b = transfer(desc, x)
            assert_allclose(a, b, rtol=1e-10, atol=1e-12)

    def test_value_that_overflows_is_refused(self):
        # the pencil is I and certified at X = 1e10, but B(H) = 1e310 overflows:
        # no caller gets an inf or a NaN inside the domain
        from ncreal.algebra import coordinate_fm

        zero = CentrePoint([np.zeros((1, 1))])
        fm = coordinate_fm(1, zero)
        r = FMRealization(fm.A, fm.B.scaled(1e300), fm.C, fm.D, zero)
        x = CentrePoint([np.array([[1e10]])])
        with np.errstate(all="ignore"):
            for call in (evaluate, transfer_fm):
                with pytest.raises(ValueError, match="^the value at X overflows to non-finite "
                                                     "entries$"):
                    call(r, x)
        big = FMRealization(fm.A, fm.B.scaled(1e290), fm.C, fm.D, zero)
        assert transfer_fm(big, x)[0, 0] == pytest.approx(1e300)


class TestMoment:
    def test_empty_word(self):
        rng = np.random.default_rng(7)
        r = random_descriptor(rng, 2, 3, 2)
        assert_allclose(moment(r, (), []), np.conj(r.b).T @ r.c)

    def test_zero_map_kills_positive_degree(self):
        rng = np.random.default_rng(8)
        y = random_centre(rng, 2, 2)
        r = DescriptorRealization(MatrixLinearMap.zeros(2, 2, 3),
                                  cmat(rng, 3, 2), cmat(rng, 3, 2), y)
        g = cmat(rng, 2, 2)
        assert_allclose(moment(r, (1, 2), [g, g]), np.zeros((2, 2)))

    def test_against_nilpotent_oracle(self):
        from ncreal.analysis import moment_via_nilpotent
        from ncreal.core import matrix_units

        rng = np.random.default_rng(9)
        r = random_descriptor(rng, 2, 3, 2, scale=0.4)
        units = list(matrix_units(2).reshape(-1, 2, 2))
        for args in [(units[0], units[3]), (units[1], units[2])]:
            direct = moment(r, (1, 2), list(args))
            via = moment_via_nilpotent(r, (1, 2), list(args))
            assert_allclose(direct, via, atol=1e-10)


class TestSeriesTransfer:
    def test_degree_zero(self):
        rng = np.random.default_rng(10)
        r = random_descriptor(rng, 2, 3, 2)
        x = point_near_centre(rng, r.Y, 2, 5.0)
        assert_allclose(series_transfer(r, x, 0),
                        np.kron(np.eye(2), np.conj(r.b).T @ r.c), atol=1e-13)

    def test_exact_on_nilpotent_points(self):
        from ncreal.analysis import nilpotent_point

        rng = np.random.default_rng(11)
        r = random_descriptor(rng, 2, 3, 2, scale=0.6)
        args = [cmat(rng, 2, 2) for _ in range(2)]
        x = nilpotent_point(r.Y, (1, 2), args)
        exact = transfer(r, x)
        assert_allclose(series_transfer(r, x, 3), exact, atol=1e-12)
        assert_allclose(series_transfer(r, x, 9), exact, atol=1e-12)

    def test_geometric_error_decay(self):
        # exact 2^-L rate on the scalar model, where the CB bound is tight:
        # tail of sum (1/2)^k after L terms is 2^-L, so the relative error
        # at x = 1/2 is exactly 2^-(L+1)
        r = scalar_realization()
        x = scalar_point(0.5)
        err10 = abs(series_transfer(r, x, 10)[0, 0] - 2.0) / 2.0
        err20 = abs(series_transfer(r, x, 20)[0, 0] - 2.0) / 2.0
        assert err10 == pytest.approx(2.0 ** -11, rel=1e-9)
        assert err20 == pytest.approx(2.0 ** -21, rel=1e-6)

        # random case: the bound still guarantees at-least-geometric decay
        rng = np.random.default_rng(12)
        r2 = random_descriptor(rng, 2, 4, 2, scale=0.5)
        bound = cb_row_norm_bound(r2.A)
        x2 = ampliate(r2.Y, 1) + unit_column_tuple(rng, 2, 1, 2).scaled(0.5 / bound)
        exact = transfer(r2, x2)
        scale = np.linalg.norm(exact)
        assert np.linalg.norm(series_transfer(r2, x2, 10) - exact) / scale < 2.0 ** -8
        assert np.linalg.norm(series_transfer(r2, x2, 20) - exact) / scale < 2.0 ** -16

    def test_converges_at_depth_forty(self):
        rng = np.random.default_rng(13)
        r = random_descriptor(rng, 2, 3, 2, scale=0.5)
        bound = cb_row_norm_bound(r.A)
        x = ampliate(r.Y, 2) + unit_column_tuple(rng, 2, 2, 2).scaled(0.9 / bound)
        exact = transfer(r, x)
        err = np.linalg.norm(series_transfer(r, x, 40) - exact) / np.linalg.norm(exact)
        assert err < 1e-8

    def test_matches_word_sum(self):
        # matrix-power accumulation equals the word-by-word sum through L <= 4
        rng = np.random.default_rng(14)
        r = random_descriptor(rng, 2, 3, 2, scale=0.4)
        x = point_near_centre(rng, r.Y, 2, 0.5)
        for terms in range(5):
            assert_allclose(series_transfer(r, x, terms),
                            word_sum_transfer(r, x, terms), rtol=1e-11, atol=1e-11)


class TestPoleOrder:
    def test_in_domain_gives_zero(self):
        rng = np.random.default_rng(15)
        r = random_descriptor(rng, 2, 3, 2, scale=0.4)
        assert pole_order(r, ampliate(r.Y, 1)) == 0

    def test_zero_wherever_the_domain_flag_passes(self):
        # pencil diag(1, 1e-11): inside the domain, below the rank ladder's cut
        amap = MatrixLinearMap(np.diag([0.0, 1.0 - 1e-11]).reshape(1, 1, 1, 2, 2)
                               .astype(complex))
        r = DescriptorRealization(amap, np.ones((2, 1)), np.ones((2, 1)),
                                  CentrePoint([np.zeros((1, 1))]))
        assert in_domain(r, scalar_point(1.0))
        assert pole_order(r, scalar_point(1.0)) == 0

    def test_jordan_block_order_two(self):
        # A(X - Y) is a single 2x2 Jordan block at 1: rank sequence gives 2
        jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
        amap = MatrixLinearMap(jordan.reshape(1, 1, 1, 2, 2).astype(complex))
        y = CentrePoint([np.zeros((1, 1))])
        r = DescriptorRealization(amap, np.ones((2, 1)), np.ones((2, 1)), y)
        assert pole_order(r, scalar_point(1.0)) == 2

    def test_one_svd_per_rung(self, monkeypatch):
        # a 3 x 3 Jordan block at 1: ranks 2, 1, 0, 0 on rungs 1..4 give order 3;
        # the verdict takes one SVD and each rung one more, norms included
        jordan = np.eye(3) + np.eye(3, k=1)
        amap = MatrixLinearMap(jordan.reshape(1, 1, 1, 3, 3).astype(complex))
        r = DescriptorRealization(amap, np.ones((3, 1)), np.ones((3, 1)),
                                  CentrePoint([np.zeros((1, 1))]))
        assert amap.cb_bound > 0   # kept per map; its two norms are not the ladder's
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        for module in (np.linalg, np.linalg._linalg):
            monkeypatch.setattr(module, "svd", counted)
        assert pole_order(r, scalar_point(1.0)) == 3
        assert len(calls) == 1 + 4

    def test_diagonalizable_pole_is_simple(self):
        amap = MatrixLinearMap(np.eye(3).reshape(1, 1, 1, 3, 3).astype(complex))
        y = CentrePoint([np.zeros((1, 1))])
        r = DescriptorRealization(amap, np.ones((3, 1)), np.ones((3, 1)), y)
        assert pole_order(r, scalar_point(1.0)) == 1

    def test_agrees_across_similarity(self):
        rng = np.random.default_rng(16)
        r1 = random_descriptor(rng, 2, 3, 2, scale=0.5)
        s = random_invertible(rng, 3)
        s_inv = np.linalg.inv(s)
        a2 = np.einsum("xu,jpquv,vy->jpqxy", s_inv, r1.A.dense(), s)
        r2 = DescriptorRealization(MatrixLinearMap(a2), np.conj(s).T @ r1.b,
                                   s_inv @ r1.c, r1.Y)
        h = unit_column_tuple(rng, 2, 1, 2)
        t = __import__("ncreal").linmap.ampliated_apply(r1.A, h)
        for lam in np.linalg.eigvals(t)[:3]:
            if abs(lam) < 1e-8:
                continue
            x = ampliate(r1.Y, 1) + h.scaled(1.0 / lam)
            assert pole_order(r1, x) == pole_order(r2, x) >= 1


class TestSimilarityNotAutomatic:
    def test_generic_realization_breaks_joint_similarity(self):
        # a random matrix-centre realization fails LAC and indeed fails a
        # direct joint-similarity spot check
        from ncreal.analysis import kalman_minimize, llac_residual

        rng = np.random.default_rng(17)
        r = kalman_minimize(random_descriptor(rng, 2, 3, 2, scale=0.5))
        assert llac_residual(r) > 1e-3
        found = 0.0
        for _ in range(50):
            x = point_near_centre(rng, r.Y, 1, 0.1)
            s = random_invertible(rng, 2, spread=0.2)
            xs = apply_similarity(s, x)
            if not (in_domain(r, x) and in_domain(r, xs)):
                continue
            dev = np.linalg.norm(transfer(r, xs) - np.linalg.inv(s) @ transfer(r, x) @ s)
            found = max(found, dev)
        assert found > 1e-3


class TestSerialization:
    def test_descriptor_roundtrip(self, tmp_path):
        rng = np.random.default_rng(18)
        r = random_descriptor(rng, 2, 3, 2)
        path = tmp_path / "r.json"
        save_realization(r, path)
        back = load_realization(path)
        assert isinstance(back, DescriptorRealization)
        assert_allclose(back.A.dense(), r.A.dense())
        assert_allclose(back.b, r.b)
        assert_allclose(back.c, r.c)
        x = point_near_centre(rng, r.Y, 1, 0.2)
        assert_allclose(transfer(back, x), transfer(r, x), atol=1e-13)

    def test_fm_roundtrip(self, tmp_path):
        from ncreal.algebra import coordinate_fm, fm_mul

        rng = np.random.default_rng(19)
        y = random_centre(rng, 2, 2)
        r = fm_mul(coordinate_fm(1, y), coordinate_fm(2, y))
        path = tmp_path / "fm.json"
        save_realization(r, path)
        back = load_realization(path)
        assert isinstance(back, FMRealization)
        x = point_near_centre(rng, y, 2, 0.7)
        assert_allclose(transfer_fm(back, x), transfer_fm(r, x), atol=1e-12)
