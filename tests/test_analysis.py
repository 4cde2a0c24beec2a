import itertools
import warnings

import numpy as np
import pytest
import scipy.linalg.lapack
import scipy.sparse
from numpy.testing import assert_allclose

from conftest import (
    all_words,
    cmat,
    direct_sum_desc,
    point_near_centre,
    random_centre,
    random_descriptor,
    random_invertible,
    unit_column_tuple,
    unit_keys,
)

from ncreal.core import (
    CentrePoint,
    MatrixTuple,
    ampliate,
    apply_similarity,
    matrix_units,
)
from ncreal.parser import parse, realize_expression
from ncreal.linmap import MatrixLinearMap, ampliated_apply, cb_row_norm_bound
from ncreal.realization import (
    DescriptorRealization,
    in_domain,
    moment,
    transfer,
)
from ncreal.algebra import constant_fm, coordinate_fm, desc_to_fm, fm_to_desc
from ncreal.fock import TruncatedFockVector, fock_realization
from ncreal import analysis
from ncreal.analysis import (
    SWEEP_COLUMN_BUDGET,
    _block_frobenius_max,
    analytically_equivalent,
    _difference_realization,
    compare_moments,
    controllable_basis,
    is_minimal,
    kalman_minimize,
    llac_residual,
    max_moment_deviation,
    moment_via_nilpotent,
    nilpotent_point,
    tree_point,
    observable_basis,
    recover_similarity,
    translate,
)


def scalar_zero_one_one():
    amap = MatrixLinearMap(np.zeros((1, 1, 1, 1, 1), dtype=complex))
    y = CentrePoint([np.zeros((1, 1))])
    return DescriptorRealization(amap, np.ones((1, 1)), np.ones((1, 1)), y)


def largest_unit_moment(r, depth):
    """Largest unit-argument moment norm through ``depth``: the deviation
    from a realization of the zero function."""
    zero = DescriptorRealization(
        MatrixLinearMap(np.zeros((r.d, r.n, r.n, 1, 1), dtype=complex)),
        np.zeros((1, r.n)), np.zeros((1, r.n)), r.Y)
    return max_moment_deviation(r, zero, depth)


def with_b_scaled(r, factor):
    """Every moment b* A^w c multiplied by ``factor`` (real)."""
    return DescriptorRealization(r.A, factor * r.b, r.c, r.Y)


def conjugated_realization(r, s):
    """Plant an explicit similarity: A -> S^-1 A S, b -> S* b, c -> S^-1 c."""
    s_inv = np.linalg.inv(s)
    a = np.einsum("xu,jpquv,vy->jpqxy", s_inv, r.A.dense(), s)
    return DescriptorRealization(MatrixLinearMap(a), np.conj(s).T @ r.b,
                                 s_inv @ r.c, r.Y)


class TestSubspaces:
    def test_zero_c_gives_zero_subspace(self):
        rng = np.random.default_rng(0)
        y = random_centre(rng, 2, 2)
        r = DescriptorRealization(
            MatrixLinearMap(cmat(rng, 2 * 2 * 2 * 3, 3, 0.5).reshape(2, 2, 2, 3, 3)),
            cmat(rng, 3, 2), np.zeros((3, 2)), y)
        assert controllable_basis(r).shape[1] == 0

    def test_zero_map_full_rank_c(self):
        rng = np.random.default_rng(1)
        y = random_centre(rng, 2, 2)
        c = random_invertible(rng, 2)
        r = DescriptorRealization(MatrixLinearMap.zeros(2, 2, 2), cmat(rng, 2, 2), c, y)
        assert controllable_basis(r).shape[1] == 2
        assert observable_basis(r).shape[1] == 2

    def test_direct_sum_block_structure(self):
        # doubling the SAME realization reaches only the diagonal copy of the
        # controllable subspace (identical words hit both blocks identically),
        # while independent summands add their dimensions; minimization of
        # R (+) R collapses back to R
        rng = np.random.default_rng(2)
        r = kalman_minimize(random_descriptor(rng, 2, 3, 2, scale=0.5))
        both = direct_sum_desc(r, r)
        assert controllable_basis(both).shape[1] == controllable_basis(r).shape[1]
        other = kalman_minimize(random_descriptor(rng, 2, 3, 2, scale=0.5, y=r.Y))
        mixed = direct_sum_desc(r, other)
        assert controllable_basis(mixed).shape[1] == \
            controllable_basis(r).shape[1] + controllable_basis(other).shape[1]
        again = kalman_minimize(both)
        assert again.N == r.N

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(3)
        r = random_descriptor(rng, 2, 4, 2, scale=0.5)
        v = controllable_basis(r)
        assert_allclose(np.conj(v).T @ v, np.eye(v.shape[1]), atol=1e-12)


def map_with_invariant_subspace(rng, d, n, size, inner, sparse=False):
    """A random map on C^size whose units Q [[X, W], [0, Z]] Q* all leave the span of
    the first ``inner`` columns of Q invariant, and that Q.  Q is a random unitary,
    or for a CSR map a random permutation, whose blocks keep about half their entries."""
    blocks = cmat(rng, d * n * n * size, size, 0.5).reshape(-1, size, size)
    blocks[:, inner:, :inner] = 0.0
    if sparse:
        blocks[rng.random(blocks.shape) < 0.5] = 0.0
        q = np.eye(size)[rng.permutation(size)]
    else:
        q = np.linalg.qr(cmat(rng, size, size))[0]
    units = (q @ blocks @ np.conj(q).T).reshape(-1, size)
    if sparse:
        return MatrixLinearMap(scipy.sparse.csr_matrix(units), d, n), q
    return MatrixLinearMap(units.reshape(d, n, n, size, size)), q


def word_span_projector(a, seed, steps):
    """The oracle: the orthogonal projector onto the span of A^w(units) seed over
    |w| <= steps, from one SVD of those columns, each word applied unit by unit."""
    units = [a.unit(j, p, q) for j, p, q in unit_keys(a)]
    units = [u.toarray() if scipy.sparse.issparse(u) else u for u in units]
    level, columns = [seed], [seed]
    for _ in range(steps):
        level = [u @ w for u in units for w in level]
        columns += level
    u, s, _ = np.linalg.svd(np.hstack(columns), full_matrices=False)
    rank = int(np.count_nonzero(s > 1e-9 * s[0])) if s.size and s[0] > 0 else 0
    assert rank == 0 or s[rank - 1] > 1e-6 * s[0]   # a clear gap: the span is well posed
    assert rank == s.size or s[rank] < 1e-13 * s[0]
    return u[:, :rank] @ np.conj(u[:, :rank]).T


class TestFrontierGrowth:
    """Each step images only the directions the step before added, and the step
    that finds nothing new takes no QR."""

    def test_each_direction_is_imaged_once_and_the_last_step_takes_no_qr(self, monkeypatch):
        rng = np.random.default_rng(60)
        a, q = map_with_invariant_subspace(rng, 2, 2, 12, 5)
        seed = q[:, :5] @ cmat(rng, 5, 1)
        events = []
        images, qr = MatrixLinearMap.images, scipy.linalg.lapack.zgeqp3   # the pivoted QR

        def counted_images(self, v):
            out = images(self, v)
            events.append(("images", out.shape[1]))
            return out

        def counted_qr(m, *args, **kwargs):
            events.append(("qr", m.shape[1]))
            return qr(m, *args, **kwargs)

        monkeypatch.setattr(MatrixLinearMap, "images", counted_images)
        monkeypatch.setattr(scipy.linalg.lapack, "zgeqp3", counted_qr)
        v = analysis.invariant_subspace(a, seed)
        assert v.shape[1] == 5
        assert sum(c for kind, c in events if kind == "images") == a.units * v.shape[1]
        assert events[-1][0] == "images"   # the stabilizing step: images, then no QR
        assert sum(1 for kind, _ in events if kind == "qr") == \
            sum(1 for kind, _ in events if kind == "images")   # the seed's QR and one per growth

    def test_nearly_dependent_images_stay_orthogonal_to_the_basis(self):
        # A_1(E) e_1 = u and A_2(E) e_1 = u + 1e-6 v in a random unitary frame: the
        # direction v comes from a difference of images, whose roundoff along e_1
        # the cut's QR would magnify a millionfold
        rng = np.random.default_rng(62)
        frame = np.linalg.qr(cmat(rng, 6, 6))[0]
        units = np.zeros((2, 6, 6), dtype=complex)
        units[0, 1, 0] = units[1, 1, 0] = 1.0
        units[1, 2, 0] = 1e-6
        units = frame @ units @ np.conj(frame).T
        a = MatrixLinearMap(units.reshape(2, 1, 1, 6, 6))
        v = analysis.invariant_subspace(a, frame[:, :1])
        assert v.shape[1] == 3
        assert_allclose(np.conj(v).T @ v, np.eye(3), atol=1e-14)

    @pytest.mark.parametrize("entry", [1e20, 1e200, 1e300])
    def test_large_images_keep_the_seed(self, entry):
        # the cut is relative to the images of the seed, never to its own
        # directions, and the column norms survive squares that overflow
        swap = np.array([[0, entry], [entry, 0]], dtype=complex)
        a = MatrixLinearMap(swap.reshape(1, 1, 1, 2, 2))
        v = analysis.invariant_subspace(a, np.array([[1.0], [0.0]]))
        assert_allclose(np.abs(v), np.eye(2), atol=1e-15)

    def test_images_that_overflow_raise(self):
        a = MatrixLinearMap(np.full((1, 1, 1, 2, 2), 1.7e308, dtype=complex))
        with pytest.raises(ValueError, match="^the images of a subspace overflow to "
                                             "non-finite entries$"):
            analysis.invariant_subspace(a, np.array([[1.0], [0.0]]))

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    @pytest.mark.parametrize("steps", [0, 1, 2, 3, 4, None])
    def test_span_is_the_word_span(self, sparse, steps):
        rng = np.random.default_rng(61 + (steps or 9) + 10 * sparse)
        size = 9
        for d, n, inner, seed_rank in ((2, 1, 6, 1), (1, 2, 7, 2), (2, 1, size, 2)):
            a, q = map_with_invariant_subspace(rng, d, n, size, inner, sparse)
            # three seed columns of rank seed_rank: rank-deficient seeds
            seed = q[:, :inner] @ cmat(rng, inner, seed_rank) @ cmat(rng, seed_rank, 3)
            v = analysis.invariant_subspace(a, seed, steps)
            assert_allclose(np.conj(v).T @ v, np.eye(v.shape[1]), atol=1e-12)
            # the span stops growing within ``inner`` steps: it lies in Ran Q[:, :inner]
            want = word_span_projector(a, seed, inner if steps is None else steps)
            assert_allclose(v @ np.conj(v).T, want, atol=1e-10)


class TestIsMinimal:
    def test_zero_one_one_minimal(self):
        assert is_minimal(scalar_zero_one_one())

    def test_doubled_not_minimal(self):
        rng = np.random.default_rng(4)
        r = kalman_minimize(random_descriptor(rng, 2, 3, 2, scale=0.5))
        assert r.N > 0
        assert not is_minimal(direct_sum_desc(r, r))

    def test_empty_state_vacuously_minimal(self):
        rng = np.random.default_rng(5)
        y = random_centre(rng, 2, 2)
        r = fm_to_desc(constant_fm(cmat(rng, 2, 2), y))
        assert is_minimal(kalman_minimize(r))
        assert kalman_minimize(r).N <= r.N


class TestKalman:
    def test_already_minimal_keeps_dimension(self):
        rng = np.random.default_rng(6)
        r = kalman_minimize(random_descriptor(rng, 2, 3, 2, scale=0.5))
        again = kalman_minimize(r)
        assert again.N == r.N
        assert is_minimal(again)

    def test_junk_padding_is_removed(self):
        # pad a minimal realization with an unreachable shift block
        rng = np.random.default_rng(7)
        r = kalman_minimize(random_descriptor(rng, 2, 2, 2, scale=0.5))
        k = 3
        d, n, n0 = r.d, r.n, r.N
        a = np.zeros((d, n, n, n0 + k, n0 + k), dtype=complex)
        a[..., :n0, :n0] = r.A.dense()
        shift = np.diag(np.ones(k - 1), 1)
        for j in range(d):
            a[j, 0, 0, n0:, n0:] = shift
        padded = DescriptorRealization(
            MatrixLinearMap(a),
            np.vstack([r.b, np.zeros((k, n))]),
            np.vstack([r.c, np.zeros((k, n))]), r.Y)
        minimized = kalman_minimize(padded)
        assert minimized.N == r.N
        assert is_minimal(minimized)
        assert max_moment_deviation(padded, minimized, 4) < 1e-10

    def test_doubled_moments_match(self):
        rng = np.random.default_rng(8)
        r = kalman_minimize(random_descriptor(rng, 2, 3, 2, scale=0.5))
        both = direct_sum_desc(r, r)
        minimized = kalman_minimize(both)
        assert minimized.N == r.N
        assert max_moment_deviation(both, minimized, 6) < 1e-10


class TestKalmanEdgeCases:
    @pytest.mark.parametrize("text", ["x1 - x1", "x1*x2 - x1*x2"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_zero_function_minimizes_to_no_state(self, text, n):
        # the projected observable seed is roundoff (about 1e-16 against ||b|| ~ 1):
        # it is cut against the seed before projection, not against itself
        y = random_centre(np.random.default_rng(50 + n), n, 2)
        fm = realize_expression(parse(text, 2, {}), y)
        desc = fm_to_desc(fm)
        assert fm.N > 0 and desc.N > 0
        assert kalman_minimize(fm).N == 0
        assert kalman_minimize(desc).N == 0
        assert compare_moments(desc, kalman_minimize(desc), 4, 1e-9)[0]

    @pytest.mark.parametrize("n", [1, 2])
    def test_constant_and_coordinate_realizations(self, n):
        # N = 0 (constant_fm) and N = n (coordinate_fm) through the stack kernels
        rng = np.random.default_rng(60 + n)
        y = random_centre(rng, n, 2)
        x = point_near_centre(rng, y, 2, 0.3)
        for fm, fm_dim, desc_dim in ((constant_fm(cmat(rng, n, n), y), 0, n),
                                     (constant_fm(np.zeros((n, n)), y), 0, 0),
                                     (coordinate_fm(1, y), n, 2 * n),
                                     (coordinate_fm(2, y), n, 2 * n)):
            desc = fm_to_desc(fm)
            assert kalman_minimize(fm).N == fm_dim and is_minimal(fm)
            assert kalman_minimize(desc).N == desc_dim
            assert is_minimal(desc) == (desc_dim == desc.N)
            back = desc_to_fm(desc)
            assert back.N == fm_dim
            assert_allclose(transfer(back, x), transfer(fm, x), atol=1e-12)

    def test_no_structure_path_walks_the_units_one_at_a_time(self, monkeypatch):
        rng = np.random.default_rng(70)
        dense = kalman_minimize(random_descriptor(rng, 2, 3, 2, scale=0.5))
        twin = conjugated_realization(dense, random_invertible(rng, dense.N, spread=0.4))
        fock = fock_realization(TruncatedFockVector(2, 2, 1, {
            ((1,), (1,), ()): 1.0, ((1, 2), (2, 1), (1,)): 0.5 - 0.25j}), dense.Y)
        assert fock.A.is_sparse

        def refuse(*args):
            raise AssertionError("a structure path read the map one unit at a time")

        monkeypatch.setattr(MatrixLinearMap, "unit", refuse)
        for r in (dense, fock):
            small = kalman_minimize(r)
            assert is_minimal(small) and is_minimal(r) == (small.N == r.N)
            assert compare_moments(r, small, 3, 1e-9)[0]
            fm = desc_to_fm(r)
            assert compare_moments(r, fm_to_desc(kalman_minimize(fm)), 3, 1e-9)[0]
            for real, k in ((r, 2), (fm, 1)):
                v = np.linalg.qr(cmat(rng, real.N, k))[0]
                vh = np.conj(v).T
                assert_allclose(real.restricted(v).A.dense(), vh @ real.A.dense() @ v,
                                atol=1e-12)
            assert cb_row_norm_bound(r.A) > 0 and cb_row_norm_bound(fm.B) > 0
        assert_allclose(recover_similarity(dense, twin) @ dense.c, twin.c, atol=1e-8)


class TestTranslate:
    def test_null_translation(self):
        rng = np.random.default_rng(9)
        r = random_descriptor(rng, 2, 3, 2, scale=0.5)
        moved = translate(r, ampliate(r.Y, 1))
        assert_allclose(moved.A.dense(), r.A.dense(), atol=1e-13)
        assert_allclose(moved.b, r.b, atol=1e-14)
        assert_allclose(moved.c, r.c, atol=1e-13)

    def test_transfer_preserved(self):
        rng = np.random.default_rng(10)
        r = random_descriptor(rng, 2, 3, 2, scale=0.5)
        x = point_near_centre(rng, r.Y, 2, 0.2)
        moved = translate(r, x)
        for _ in range(5):
            z = point_near_centre(rng, r.Y, 2, 0.15)
            if not (in_domain(r, z) and in_domain(moved, z.rebased(moved.n))):
                continue
            assert_allclose(transfer(moved, z.rebased(moved.n)), transfer(r, z),
                            rtol=1e-9, atol=1e-11)

    def test_translate_back_matches_ampliation(self):
        # re-centre at X, then back at I_m (x) Y: moments must match the
        # m-fold ampliation of the original realization
        rng = np.random.default_rng(11)
        r = random_descriptor(rng, 1, 2, 2, scale=0.5)
        m = 2
        x = point_near_centre(rng, r.Y, m, 0.2)
        there = translate(r, x)
        # I_m (x) Y read as a level-1 point over the enlarged centre size
        back = translate(there, ampliate(r.Y, m).rebased(m * r.n))
        # ampliation of r to centre I_m (x) Y
        mn, big_n = m * r.n, m * r.N
        a = np.zeros((r.d, mn, mn, big_n, big_n), dtype=complex)
        units = r.A.dense()
        for j in range(r.d):
            for k in range(m):
                for l in range(m):
                    for p in range(r.n):
                        for q in range(r.n):
                            a[j, k * r.n + p, l * r.n + q,
                              k * r.N:(k + 1) * r.N, l * r.N:(l + 1) * r.N] = \
                                units[j, p, q]
        amp = DescriptorRealization(
            MatrixLinearMap(a), np.kron(np.eye(m), r.b), np.kron(np.eye(m), r.c),
            CentrePoint(ampliate(r.Y, m).components))
        assert max_moment_deviation(back, amp, 5) < 1e-9

    def test_minimality_preserved(self):
        rng = np.random.default_rng(12)
        hits = 0
        while hits < 20:
            r = kalman_minimize(random_descriptor(rng, 2, 3, 2, scale=0.5))
            m = int(rng.integers(1, 3))
            x = point_near_centre(rng, r.Y, m, 0.2)
            if not in_domain(r, x):
                continue
            assert is_minimal(translate(r, x))
            hits += 1

    def test_outside_domain_rejected(self):
        from ncreal.core import SingularMatrixError

        r = scalar_zero_one_one()
        amap = MatrixLinearMap(np.ones((1, 1, 1, 1, 1), dtype=complex))
        r = DescriptorRealization(amap, np.ones((1, 1)), np.ones((1, 1)), r.Y)
        bad = MatrixTuple([np.array([[1.0]])], 1)
        with pytest.raises(SingularMatrixError, match="cannot translate: point outside "
                           r"the invertibility domain \(pencil sigma_min = 0.000e\+00\)"
                           ) as caught:
            translate(r, bad)
        assert caught.value.sigma_min == 0.0

    def test_domain_identity(self):
        # membership transport: Z in D^X(A') iff Z (read at level km) in D^Y(A)
        rng = np.random.default_rng(13)
        checks = 0
        while checks < 50:
            r = random_descriptor(rng, 2, 2, 2, scale=0.6)
            x = point_near_centre(rng, r.Y, 2, 0.15)
            if not in_domain(r, x):
                continue
            moved = translate(r, x)
            scale = float(10.0 ** rng.uniform(-1.5, 0.8))
            z = MatrixTuple(
                [x.components[j] + scale * cmat(rng, 4, 4) for j in range(2)], 4)
            assert in_domain(moved, z) == in_domain(r, z.rebased(2))
            checks += 1


def hypot_norm(x):
    """Frobenius norm by a hypot reduction, which never squares an entry."""
    return float(np.hypot.reduce(np.abs(x), axis=None))


def lac_oracle(r, norm=np.linalg.norm):
    """Largest Frobenius residual of the four Lost-Abbey conditions, each
    written out literally through MatrixLinearMap.apply on explicit units
    and measured by ``norm``."""
    bstar, c = np.conj(r.b).T, r.c
    letters = range(1, r.d + 1)
    units = list(matrix_units(r.n).reshape(-1, r.n, r.n))

    def a(j, g):
        return r.A.apply(j, g)

    worst = 0.0
    for t in units:
        k = sum(a(j, t @ y - y @ t) for j, y in zip(letters, r.Y.components))
        res = [t @ bstar @ c - bstar @ c @ t - bstar @ k @ c]
        for i in letters:
            for h in units:
                res.append(t @ bstar @ a(i, h) - bstar @ a(i, t @ h) - bstar @ k @ a(i, h))
                res.append(a(i, h @ t) @ c - a(i, h) @ c @ t - a(i, h) @ k @ c)
                for j in letters:
                    for g in units:
                        res.append(a(i, g @ t) @ a(j, h) - a(i, g) @ a(j, t @ h)
                                   - a(i, g) @ k @ a(j, h))
        worst = max(worst, max(float(norm(x)) for x in res))
    return worst


class TestLostAbbey:
    @pytest.mark.parametrize("n,d", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)])
    def test_agrees_with_the_literal_conditions(self, n, d):
        rng = np.random.default_rng(40 + 2 * n + d)
        for big_n in range(7):
            r = random_descriptor(rng, n, big_n, d, scale=0.5)
            want = lac_oracle(r)
            assert abs(llac_residual(r) - want) <= 1e-12 * max(1.0, want)

    def test_representable_residual_survives_squares_that_overflow(self):
        # entries past about 1.3e154 overflow when squared; the oracle's norm
        # there is hypot_norm
        r = random_descriptor(np.random.default_rng(5), 2, 3, 2)

        def residual(scale):
            with warnings.catch_warnings():
                warnings.simplefilter("error")   # no RuntimeWarning escapes
                return llac_residual(DescriptorRealization(r.A.scaled(scale), r.b, r.c, r.Y))

        assert residual(1e50) == pytest.approx(8.862172785049509e+150, rel=1e-12)
        for scale in (1e55, 1e100):
            got = residual(scale)
            assert np.isfinite(got)
            scaled = DescriptorRealization(r.A.scaled(scale), r.b, r.c, r.Y)
            assert got == pytest.approx(lac_oracle(scaled, hypot_norm), rel=1e-12)
        with pytest.raises(ValueError, match="residual overflows to non-finite entries"):
            residual(1e150)

    def test_empty_state_space_gives_zero(self):
        rng = np.random.default_rng(41)
        for n in (1, 2, 3):
            assert llac_residual(random_descriptor(rng, n, 0, 2)) == 0.0

    def test_scalar_centre_residual_vanishes(self):
        # at n = 1 every commutator [T, Y_j] = 0 and scalars commute
        rng = np.random.default_rng(14)
        r = random_descriptor(rng, 1, 4, 2, scale=0.7)
        assert llac_residual(r) < 1e-14

    def test_polynomial_realization_satisfies_lac(self):
        from ncreal.parser import parse, realize_expression

        rng = np.random.default_rng(15)
        y = random_centre(rng, 2, 2)
        r = kalman_minimize(fm_to_desc(realize_expression(parse("x1*x2", 2), y)))
        assert llac_residual(r) < 1e-10
        assert llac_residual(kalman_minimize(r)) <= 1e-9

    def test_random_realization_fails_lac_and_similarity(self):
        rng = np.random.default_rng(16)
        r = random_descriptor(rng, 2, 3, 2, scale=0.5)
        assert llac_residual(r) > 1e-3
        assert llac_residual(kalman_minimize(r)) > 1e-9
        worst = 0.0
        for _ in range(40):
            x = point_near_centre(rng, r.Y, 1, 0.1)
            s = random_invertible(rng, 2, spread=0.2)
            xs = apply_similarity(s, x)
            if not (in_domain(r, x) and in_domain(r, xs)):
                continue
            worst = max(worst, np.linalg.norm(
                transfer(r, xs) - np.linalg.inv(s) @ transfer(r, x) @ s))
        assert worst > 1e-3

    def test_lac_certificate_matches_similarity_behaviour(self):
        # LAC holds (numerically) exactly when random joint-similarity
        # checks pass: both directions on a small mixed corpus
        from ncreal.parser import parse, realize_expression

        rng = np.random.default_rng(17)
        corpus = []
        for text in ["x1*x2", "x1 + x2*x1", "inv(2 + x1)"]:
            y = random_centre(rng, 2, 2)
            corpus.append(kalman_minimize(fm_to_desc(
                realize_expression(parse(text, 2), y))))
        for _ in range(3):
            corpus.append(kalman_minimize(random_descriptor(rng, 2, 3, 2, scale=0.5)))
        for r in corpus:
            lac_ok = llac_residual(r) < 1e-9
            sim_ok = True
            for _ in range(30):
                x = point_near_centre(rng, r.Y, 1, 0.1)
                s = random_invertible(rng, 2, spread=0.15)
                xs = apply_similarity(s, x)
                if not (in_domain(r, x) and in_domain(r, xs)):
                    continue
                dev = np.linalg.norm(
                    transfer(r, xs) - np.linalg.inv(s) @ transfer(r, x) @ s)
                if dev > 1e-7:
                    sim_ok = False
                    break
            assert lac_ok == sim_ok


class TestNilpotentPoints:
    def test_structure_of_x12(self):
        # d = 2, w = 12, r = 1: G1 sits in block (1,2) of X_1 and G2 in
        # block (2,3) of X_2, centres on the diagonal
        rng = np.random.default_rng(18)
        y = random_centre(rng, 2, 2)
        g1, g2 = cmat(rng, 2, 2), cmat(rng, 2, 2)
        x = nilpotent_point(y, (1, 2), [g1, g2], r=1.0)
        n = 2
        x1, x2 = x.component(1), x.component(2)
        for blk in range(3):
            assert_allclose(x1[blk * n:(blk + 1) * n, blk * n:(blk + 1) * n],
                            y.component(1))
            assert_allclose(x2[blk * n:(blk + 1) * n, blk * n:(blk + 1) * n],
                            y.component(2))
        assert_allclose(x1[0:n, n:2 * n], g1)
        assert_allclose(x1[n:2 * n, 2 * n:3 * n], 0)
        assert_allclose(x2[0:n, n:2 * n], 0)
        assert_allclose(x2[n:2 * n, 2 * n:3 * n], g2)

    def test_siblings_share_their_parent_row(self):
        # nodes 1 and 2 both hang below the root: G1 in block (0, 1) of X_1,
        # G2 in block (0, 2) of X_2, and nothing joins the two children
        rng = np.random.default_rng(24)
        y = random_centre(rng, 2, 2)
        g1, g2 = cmat(rng, 2, 2), cmat(rng, 2, 2)
        x = tree_point(y, [0, 0], [1, 2], [g1, g2], r=0.5)
        assert x.level_m == 3

        def block(j, k, l):
            return x.component(j)[2 * k:2 * k + 2, 2 * l:2 * l + 2]

        assert_allclose(block(1, 0, 1), 0.5 * g1)
        assert_allclose(block(2, 0, 2), 0.5 * g2)
        for j in (1, 2):
            assert not block(j, 1, 2).any() and not block(j, 2, 1).any()
            for k in range(3):
                assert_allclose(block(j, k, k), y.component(j))

    def test_tree_point_checks_its_edges(self):
        y = random_centre(np.random.default_rng(25), 2, 2)
        g = np.eye(2)
        with pytest.raises(ValueError, match="node 1 needs a parent among nodes 0..0"):
            tree_point(y, [1], [1], [g])
        with pytest.raises(ValueError, match="letter 3 of node 1 is not in 1..2"):
            tree_point(y, [0], [3], [g])
        with pytest.raises(ValueError, match="argument 2 must be 2 x 2"):
            tree_point(y, [0, 1], [1, 1], [g, np.eye(3)])
        with pytest.raises(ValueError, match="r must be finite and positive"):
            tree_point(y, [0], [1], [g], r=float("nan"))

    @pytest.mark.parametrize("form", ["list", "array"])
    def test_edge_faults_name_the_first_bad_node(self, form):
        # the edges are checked at once; a fault is named as the per-node check would
        y = random_centre(np.random.default_rng(26), 2, 2)
        g = np.eye(2)
        wrap = list if form == "list" else np.array
        # a bad parent or letter is printed as its %r: 3, or np.int64(3) off an array
        with pytest.raises(ValueError, match=r"^node 3 needs a parent among nodes 0..2, got "
                                             r"(3|np\.int64\(3\))$"):
            tree_point(y, wrap([0, 1, 3, 0]), wrap([1, 2, 1, 9]), wrap([g] * 4))
        with pytest.raises(ValueError, match=r"^letter (0|np\.int64\(0\)) of node 2 is not "
                                             r"in 1..2$"):
            tree_point(y, wrap([0, 1, 1]), wrap([2, 0, 5]), wrap([g] * 3))
        with pytest.raises(ValueError, match="^argument 1 must be 2 x 2$"):
            tree_point(y, wrap([0, 0]), wrap([1, 2]), wrap([np.ones((2, 3))] * 2))
        # ragged arguments: no array can hold them
        with pytest.raises(ValueError, match="^argument 3 must be 2 x 2$"):
            tree_point(y, [0, 0, 1], [1, 2, 1], [g, g, np.eye(3)])
        with pytest.raises(ValueError, match="^node 2 needs a parent among nodes 0..1, got 5$"):
            tree_point(y, [0, 5, 1], [1, 2, 1], [g, np.eye(3), g])
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
            tree_point(y, [0], [1], [np.array([[np.inf, 0], [0, 1]])])

    def test_empty_word_is_centre(self):
        rng = np.random.default_rng(19)
        y = random_centre(rng, 2, 2)
        x = nilpotent_point(y, (), [])
        assert x.level_m == 1
        for a, b in zip(x.components, y.components):
            assert_allclose(a, b)

    def test_pencil_difference_nilpotent(self):
        rng = np.random.default_rng(20)
        r = random_descriptor(rng, 2, 3, 2, scale=0.8)
        word = (1, 2, 1)
        args = [cmat(rng, 2, 2) for _ in word]
        x = nilpotent_point(r.Y, word, args)
        t = ampliated_apply(r.A, x - ampliate(r.Y, len(word) + 1))
        power = np.linalg.matrix_power(t, len(word) + 2)
        assert np.linalg.norm(power) < 1e-13


class TestMomentViaNilpotent:
    def test_empty_word(self):
        rng = np.random.default_rng(21)
        r = random_descriptor(rng, 2, 3, 2, scale=0.5)
        assert_allclose(moment_via_nilpotent(r, (), []), np.conj(r.b).T @ r.c,
                        atol=1e-13)

    def test_matches_moment_up_to_length_three(self):
        rng = np.random.default_rng(22)
        r = random_descriptor(rng, 2, 2, 2, scale=0.5)
        units = list(matrix_units(2).reshape(-1, 2, 2))
        for word in all_words(2, 3):
            if not word:
                continue
            sel = [units[int(k)] for k in
                   np.random.default_rng(len(word)).integers(0, 4, len(word))]
            assert_allclose(moment(r, word, sel), moment_via_nilpotent(r, word, sel),
                            atol=1e-10)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(23)
        r = random_descriptor(rng, 2, 3, 2, scale=0.5)
        word = (2, 1)
        args = [cmat(rng, 2, 2) for _ in word]
        a = moment_via_nilpotent(r, word, args, r=1.0)
        b = moment_via_nilpotent(r, word, args, r=0.5)
        assert_allclose(a, b, atol=1e-10)


class TestAnalyticEquivalence:
    def test_minimization_is_equivalent(self):
        rng = np.random.default_rng(24)
        r = random_descriptor(rng, 2, 3, 2, scale=0.5)
        both = direct_sum_desc(r, r)
        assert analytically_equivalent(both, kalman_minimize(both), depth=5,
                                       tol=1e-9)

    def test_zero_one_one_equals_constant_one(self):
        y = CentrePoint([np.zeros((1, 1))])
        const = fm_to_desc(constant_fm(np.ones((1, 1)), y))
        assert analytically_equivalent(scalar_zero_one_one(), const)

    def test_different_constants_differ(self):
        y = CentrePoint([np.zeros((1, 1))])
        c1 = fm_to_desc(constant_fm(np.array([[1.0]]), y))
        c2 = fm_to_desc(constant_fm(np.array([[2.0]]), y))
        assert not analytically_equivalent(c1, c2)

    def test_subspace_fallback_on_deep_requests(self):
        # 24 states against 12 at the default depth N1 + N2, where the
        # invariant-subspace test saturates; one verdict each way
        rng = np.random.default_rng(25)
        r = random_descriptor(rng, 2, 12, 2, scale=0.4)
        both = direct_sum_desc(r, r)
        assert analytically_equivalent(both, kalman_minimize(both))
        other = random_descriptor(rng, 2, 12, 2, scale=0.4, y=r.Y)
        assert not analytically_equivalent(both, other)

    @staticmethod
    def _large_moment_pair():
        """A doubled realization whose depth-12 unit moments reach 1e4, with
        its Kalman minimization; n = 1 keeps depth 12 on the sweep branch."""
        rng = np.random.default_rng(31)
        r = kalman_minimize(random_descriptor(rng, 1, 3, 2, scale=0.5))
        both = direct_sum_desc(r, r)
        depth = 2 * both.N
        growth = (1e4 / largest_unit_moment(both, depth)) ** (1.0 / depth)
        big = DescriptorRealization(MatrixLinearMap(growth * both.A.dense()),
                                    both.b, both.c, both.Y)
        return big, kalman_minimize(big), depth

    def test_sweep_tolerance_scales_with_moment_size(self):
        big, minimized, depth = self._large_moment_pair()
        assert 5e3 <= largest_unit_moment(big, depth) <= 2e4
        assert analytically_equivalent(big, minimized, depth=depth, tol=1e-10)
        # a planted relative change of 5e-14 in every moment is roundoff:
        # 5e-10 absolute at the deep lengths, yet equivalent at tol 1e-10
        nudged = with_b_scaled(minimized, 1.0 + 5e-14)
        assert max_moment_deviation(big, nudged, depth) > 1e-10
        assert analytically_equivalent(big, nudged, depth=depth, tol=1e-10)

    def test_sweep_rejects_relative_differences(self):
        big, minimized, depth = self._large_moment_pair()
        off = with_b_scaled(minimized, 1.0 + 1e-6)
        assert not analytically_equivalent(big, off, depth=depth, tol=1e-10)

    def test_short_moment_difference_not_hidden_by_deep_ones(self):
        # an extra state with A = 0 shifts only the length-0 moment, by 1e-8;
        # a single scale of 1e4 for all lengths would let that through
        big, minimized, depth = self._large_moment_pair()
        extra = DescriptorRealization(
            MatrixLinearMap(np.zeros((big.d, 1, 1, 1, 1), dtype=complex)),
            np.array([[1e-8]]), np.ones((1, 1)), big.Y)
        shifted = direct_sum_desc(minimized, extra)
        assert max_moment_deviation(big, shifted, depth) == pytest.approx(1e-8)
        assert not analytically_equivalent(big, shifted, depth=depth, tol=1e-10)


def unit_moment_oracle(r1, r2, depth):
    """Exact per-length figures from realization.moment over every word and
    unit-argument tuple: the largest moment norm of either realization and
    the largest deviation, both Frobenius, for each length 0..depth."""
    units = list(matrix_units(r1.n).reshape(-1, r1.n, r1.n))
    size = np.zeros(depth + 1)
    dev = np.zeros(depth + 1)
    for ell in range(depth + 1):
        for word in itertools.product(range(1, r1.d + 1), repeat=ell):
            for args in itertools.product(units, repeat=ell):
                m1 = moment(r1, word, list(args))
                m2 = moment(r2, word, list(args))
                size[ell] = max(size[ell], np.linalg.norm(m1), np.linalg.norm(m2))
                dev[ell] = max(dev[ell], np.linalg.norm(m1 - m2))
    return size, dev


def single_length_realization(n, d, y, ell, b_row):
    """Every unit moment of length ``ell`` is conj(b_row)^T [1, 0, ..., 0];
    all other moments vanish (a chain of ell + 1 states shifted by every
    matrix unit of every letter)."""
    a = np.zeros((d, n, n, ell + 1, ell + 1), dtype=complex)
    a[..., np.arange(1, ell + 1), np.arange(ell)] = 1.0
    b = np.zeros((ell + 1, n), dtype=complex)
    b[ell] = b_row
    c = np.zeros((ell + 1, n), dtype=complex)
    c[0, 0] = 1.0
    return DescriptorRealization(MatrixLinearMap(a), b, c, y)


class TestEquivalenceCriterion:
    """The invariant-subspace test is the one equivalence decision."""

    ORACLE_DEPTH = 3

    @pytest.mark.parametrize("n", [1, 2])
    def test_agrees_with_the_exact_moment_oracle(self, n):
        rng = np.random.default_rng(40 + n)
        r = random_descriptor(rng, n, 3, 2, scale=0.5)
        junk = random_descriptor(rng, n, 2, 2, scale=0.5, y=r.Y)
        padded = direct_sum_desc(r, DescriptorRealization(junk.A, 0 * junk.b, junk.c, r.Y))
        size, _ = unit_moment_oracle(r, r, self.ORACLE_DEPTH)
        pairs = [(conjugated_realization(r, random_invertible(rng, r.N)), -1),
                 (padded, -1)]
        for ell in range(self.ORACLE_DEPTH + 1):
            # a relative 1e-6 change of every unit moment of length ell
            row = cmat(rng, 1, n)[0]
            row *= 1e-6 * max(1.0, size[ell]) / np.linalg.norm(row)
            extra = single_length_realization(n, 2, r.Y, ell, row)
            pairs.append((direct_sum_desc(padded, extra), ell))
        for r2, changed in pairs:
            size2, dev = unit_moment_oracle(r, r2, self.ORACLE_DEPTH)
            ok = dev <= 1e-9 * np.maximum(1.0, size2)
            oracle = [bool(np.all(ok[:depth + 1])) for depth in range(len(ok))]
            assert oracle == [changed < 0 or depth < changed for depth in range(len(ok))]
            for depth, expected in enumerate(oracle):
                verdict, residual, allowed = compare_moments(r, r2, depth, 1e-9)
                assert verdict is expected
                assert verdict == (residual <= allowed)

    def test_depth_caps_the_word_length(self):
        y = CentrePoint([np.zeros((1, 1)), np.zeros((1, 1))])
        r1, r2 = (fm_to_desc(realize_expression(parse(text, 2), y))
                  for text in ("x2 + x1*x2", "x2 + x1*x2 + x1*x2*x1"))
        assert analytically_equivalent(r1, r2, depth=2)
        assert not analytically_equivalent(r1, r2, depth=3)
        assert not analytically_equivalent(r1, r2)

    def test_deep_pair_decided_without_a_sweep(self, monkeypatch):
        def no_ladders(*args):
            raise AssertionError("equivalence built moment ladders")

        monkeypatch.setattr(analysis, "_ladders", no_ladders)
        e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
        y = CentrePoint([e12, e12.T])
        r1, r2 = (fm_to_desc(realize_expression(parse(text, 2), y))
                  for text in ("inv(x1 + 2.5)", "inv(x2 + 2.5)"))
        assert not analytically_equivalent(r1, r2)
        both = direct_sum_desc(r1, r1)
        assert analytically_equivalent(both, kalman_minimize(both))

    def test_compare_moments_reports_the_margin(self):
        rng = np.random.default_rng(33)
        r = random_descriptor(rng, 2, 3, 2, scale=0.5)
        both = direct_sum_desc(r, r)
        other = random_descriptor(rng, 2, 3, 2, scale=0.5, y=r.Y)
        n, depth = both.n, 4
        for r2, expected in ((kalman_minimize(both), True), (other, False)):
            verdict, residual, allowed = compare_moments(both, r2, depth, 1e-9)
            assert verdict is expected
            assert verdict == (residual <= allowed)
            assert verdict == analytically_equivalent(both, r2, depth=depth, tol=1e-9)
            diff = _difference_realization(both, r2)
            assert allowed == 1e-9 * max(1.0, np.linalg.norm(diff.b, 2))
            # residual = ||b* V||_2 bounds every unit moment deviation through
            # depth by residual * ||A^w(units) c||_F
            gens = [diff.A.unit(j, p, q) for j, p, q in unit_keys(diff.A)]
            ladder = [diff.c]
            for _ in range(depth):
                ladder.append(np.hstack([g @ ladder[-1] for g in gens]))
            reach = max(np.linalg.norm(rung[:, k:k + n])
                        for rung in ladder for k in range(0, rung.shape[1], n))
            dev = max_moment_deviation(both, r2, depth)
            assert dev <= residual * reach * (1 + 1e-9) + 1e-13
            if not expected:
                assert dev > 1e-3 and residual > 1e3 * allowed

    @pytest.mark.parametrize("depth,tol", [(-1, 1e-9), (2, float("nan")), (2, -1e-9),
                                           (2, float("inf"))])
    def test_rejects_negative_depth_and_bad_tolerance(self, depth, tol):
        rng = np.random.default_rng(35)
        r = random_descriptor(rng, 1, 2, 2, scale=0.5)
        with pytest.raises(ValueError, match="must be finite and non-negative"):
            compare_moments(r, r, depth, tol)


class TestRecoverSimilarity:
    def test_identity_recovery(self):
        rng = np.random.default_rng(26)
        r = kalman_minimize(random_descriptor(rng, 2, 3, 2, scale=0.5))
        s = recover_similarity(r, r)
        assert_allclose(s, np.eye(r.N), atol=1e-9)

    def test_planted_similarity_recovered(self):
        rng = np.random.default_rng(27)
        r1 = kalman_minimize(random_descriptor(rng, 2, 3, 2, scale=0.5))
        s0 = random_invertible(rng, r1.N, spread=0.4)
        r2 = conjugated_realization(r1, s0)
        s = recover_similarity(r1, r2)
        # the intertwiner sends A1-words on c1 to A2-words on c2: S = S0^{-1}
        assert_allclose(s, np.linalg.inv(s0), atol=1e-8)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_intertwines_every_coefficient(self, n):
        rng = np.random.default_rng(36 + n)
        r1 = kalman_minimize(random_descriptor(rng, n, 3, 2, scale=0.5))
        r2 = conjugated_realization(r1, random_invertible(rng, r1.N, spread=0.4))
        s = recover_similarity(r1, r2)
        assert_allclose(s @ r1.c, r2.c, atol=1e-8)
        assert_allclose(np.conj(r1.b).T, np.conj(r2.b).T @ s, atol=1e-8)
        for j, p, q in unit_keys(r1.A):
            assert_allclose(s @ r1.A.unit(j, p, q), r2.A.unit(j, p, q) @ s, atol=1e-8)

    def test_builds_the_graph_subspace_once(self, monkeypatch):
        rng = np.random.default_rng(38)
        r1 = kalman_minimize(random_descriptor(rng, 2, 3, 2, scale=0.5))
        r2 = conjugated_realization(r1, random_invertible(rng, r1.N, spread=0.4))
        # S from a graph subspace of its own: the controllable subspace of the
        # difference realization
        v = controllable_basis(analysis._difference_realization(r1, r2))
        expected = v[r1.N:] @ np.linalg.inv(v[:r1.N])
        seeds = []
        real_subspace = analysis.invariant_subspace

        def counted(generators, seed, steps=None):
            seeds.append(seed.shape[0])
            return real_subspace(generators, seed, steps)

        monkeypatch.setattr(analysis, "invariant_subspace", counted)
        s = recover_similarity(r1, r2)
        assert seeds.count(2 * r1.N) == 1 and seeds.count(r1.N) == 4
        assert np.array_equal(s, expected)

    def test_non_minimal_rejected(self):
        rng = np.random.default_rng(28)
        r = kalman_minimize(random_descriptor(rng, 2, 2, 2, scale=0.5))
        padded = direct_sum_desc(r, r)
        with pytest.raises(ValueError, match="minimal"):
            recover_similarity(padded, padded)

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(29)
        r1 = kalman_minimize(random_descriptor(rng, 2, 2, 2, scale=0.5))
        r2 = kalman_minimize(random_descriptor(rng, 2, 3, 2, scale=0.5, y=r1.Y))
        if r1.N != r2.N:
            with pytest.raises(ValueError, match="dimensions"):
                recover_similarity(r1, r2)


class TestMomentSweep:
    def test_block_frobenius_max_matches_blockwise_norms(self):
        rng = np.random.default_rng(32)
        n = 3
        m = cmat(rng, 4 * n, 5 * n)
        ref = max(np.linalg.norm(m[i:i + n, j:j + n])
                  for i in range(0, 4 * n, n) for j in range(0, 5 * n, n))
        assert _block_frobenius_max(m, n) == pytest.approx(ref, rel=1e-14)

    def test_deviation_refused_past_the_budget(self, monkeypatch):
        def no_ladders(*args):
            raise AssertionError("ladders built past the budget")

        monkeypatch.setattr(analysis, "_ladders", no_ladders)
        rng = np.random.default_rng(34)
        r = random_descriptor(rng, 2, 3, 2, scale=0.5)
        # n (d n^2)^8 = 2 * 8^8 ladder columns
        with pytest.raises(ValueError, match="depth 16 .* %d" % SWEEP_COLUMN_BUDGET):
            max_moment_deviation(r, r, 16)


class TestKalmanMomentPreservation:
    def test_random_high_depth_moments(self):
        # unit sweep through depth 3 plus random word/argument samples up to
        # depth 2N, relative scale; the classical depth-2N matching claim
        rng = np.random.default_rng(30)
        r = kalman_minimize(random_descriptor(rng, 2, 2, 2, scale=0.5))
        both = direct_sum_desc(r, r)
        minimized = kalman_minimize(both)
        assert max_moment_deviation(both, minimized, 3) < 1e-10
        depth = 2 * both.N
        for _ in range(100):
            ell = int(rng.integers(1, depth + 1))
            word = tuple(int(k) for k in rng.integers(1, 3, ell))
            args = [cmat(rng, 2, 2) for _ in range(ell)]
            m1 = moment(both, word, args)
            m2 = moment(minimized, word, args)
            assert np.linalg.norm(m1 - m2) <= 1e-10 * max(1.0, np.linalg.norm(m1))
