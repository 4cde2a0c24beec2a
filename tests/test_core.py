import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import (all_words, cmat, direct_sum, random_centre, random_tuple,
                      unit_column_tuple)

from ncreal.core import (
    CentrePoint,
    MatrixTuple,
    SingularMatrixError,
    ampliate,
    apply_similarity,
    column_norm,
    decode_complex,
    deviation_from_centre,
    encode_complex,
    solve_refined,
)


class TestWords:
    """The word enumeration that the tests' word-by-word oracles run on."""

    def test_small_enumerations(self):
        assert all_words(2, 1) == [(), (1,), (2,)]
        assert len(all_words(2, 2)) == 7
        assert len(all_words(3, 3)) == 40

    def test_order_is_length_then_lex(self):
        ws = all_words(2, 2)
        assert ws == [(), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=5))
    @settings(deadline=None)
    def test_count_formula(self, d, max_len):
        assert len(all_words(d, max_len)) == sum(d ** k for k in range(max_len + 1))


class TestDirectSum:
    def test_zero_case(self):
        x = MatrixTuple([np.zeros((1, 1))], 1)
        s = direct_sum(x, x)
        assert s.level_m == 2
        assert_allclose(s.components[0], np.zeros((2, 2)))

    def test_block_layout(self):
        rng = np.random.default_rng(0)
        x = random_tuple(rng, 1, 1, 2)
        z = random_tuple(rng, 1, 2, 2)
        s = direct_sum(x, z)
        assert s.level_m == 3
        for j in range(2):
            assert_allclose(s.components[j][:1, :1], x.components[j])
            assert_allclose(s.components[j][1:, 1:], z.components[j])
            assert_allclose(s.components[j][:1, 1:], 0)

    def test_transfer_respects_direct_sums(self):
        # f(X (+) Z) = f(X) (+) f(Z) with the transfer function as the oracle
        from conftest import random_descriptor
        from ncreal.realization import transfer

        rng = np.random.default_rng(1)
        r = random_descriptor(rng, 2, 3, 2, scale=0.25)
        x = ampliate(r.Y, 1) + unit_column_tuple(rng, 2, 1, 2).scaled(0.2)
        z = ampliate(r.Y, 2) + unit_column_tuple(rng, 2, 2, 2).scaled(0.15)
        both = transfer(r, direct_sum(x, z))
        fx = transfer(r, x)
        fz = transfer(r, z)
        expected = np.zeros_like(both)
        expected[:2, :2] = fx
        expected[2:, 2:] = fz
        assert_allclose(both, expected, atol=1e-12)

    def test_shape_mismatch_names_both(self):
        x = MatrixTuple([np.zeros((2, 2))], 2)
        z = MatrixTuple([np.zeros((3, 3))], 3)
        with pytest.raises(ValueError, match="n=2.*n=3"):
            direct_sum(x, z)


class TestAmpliate:
    def test_scalar_repetition(self):
        y = CentrePoint([np.array([[2.0]])])
        amp = ampliate(y, 3)
        assert_allclose(amp.components[0], np.diag([2.0, 2.0, 2.0]))

    def test_identity_case(self):
        rng = np.random.default_rng(2)
        y = random_centre(rng, 2, 2)
        amp = ampliate(y, 1)
        for a, b in zip(amp.components, y.components):
            assert_allclose(a, b)

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(3)
        y = random_centre(rng, 2, 2)
        amp = ampliate(y, 2)
        ds = direct_sum(y, y)
        for a, b in zip(amp.components, ds.components):
            assert_allclose(a, b)

    def test_rejects_zero(self):
        y = CentrePoint([np.eye(1)])
        with pytest.raises(ValueError):
            ampliate(y, 0)


class TestColumnNorm:
    def test_scalar(self):
        assert column_norm(MatrixTuple([np.array([[3.0]])], 1)) == pytest.approx(3.0)

    def test_euclidean_column(self):
        x = MatrixTuple([np.array([[3.0]]), np.array([[4.0]])], 1)
        assert column_norm(x) == pytest.approx(5.0)

    def test_gram_eigenvalue_oracle(self):
        rng = np.random.default_rng(4)
        x = random_tuple(rng, 2, 1, 2)
        gram = sum(np.conj(c).T @ c for c in x.components)
        expected = np.sqrt(np.max(np.linalg.eigvalsh(gram)))
        assert column_norm(x) == pytest.approx(expected, rel=1e-12)

    def test_direct_sum_is_max(self):
        # Ruan axiom: ||X (+) Z||_col = max of the two norms
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = random_tuple(rng, 2, 1, 3)
            z = random_tuple(rng, 2, 2, 3)
            lhs = column_norm(direct_sum(x, z))
            rhs = max(column_norm(x), column_norm(z))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_ampliation_preserves_norm(self):
        rng = np.random.default_rng(6)
        y = random_centre(rng, 2, 2, scale=1.3)
        base = column_norm(y)
        for m in range(1, 6):
            assert column_norm(ampliate(y, m)) == pytest.approx(base, rel=1e-12)


class TestApplySimilarity:
    def test_identity(self):
        rng = np.random.default_rng(8)
        x = random_tuple(rng, 2, 1, 2)
        out = apply_similarity(np.eye(2), x)
        for a, b in zip(out.components, x.components):
            assert_allclose(a, b)

    def test_diagonal_scaling(self):
        # S = diag(1, 2) conjugating E_12 scales the (1,2) entry by 2
        e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
        x = MatrixTuple([e12], 2)
        out = apply_similarity(np.diag([1.0, 2.0]), x)
        assert_allclose(out.components[0], np.array([[0.0, 2.0], [0.0, 0.0]]))

    def test_roundtrip(self):
        rng = np.random.default_rng(9)
        x = random_tuple(rng, 2, 2, 2)
        s = np.eye(4) + 0.4 * cmat(rng, 4, 4)
        back = apply_similarity(s, apply_similarity(np.linalg.inv(s), x))
        for a, b in zip(back.components, x.components):
            assert_allclose(a, b, rtol=0, atol=1e-12 * max(1, np.abs(b).max()))

    def test_singular_reports_sigma(self):
        x = MatrixTuple([np.eye(2)], 2)
        with pytest.raises(SingularMatrixError) as info:
            apply_similarity(np.array([[1.0, 0.0], [0.0, 0.0]]), x)
        assert info.value.sigma_min is not None
        assert info.value.sigma_min < 1e-12


class TestSerialization:
    def test_tuple_roundtrip(self, tmp_path):
        rng = np.random.default_rng(10)
        x = random_tuple(rng, 2, 2, 3)
        path = tmp_path / "tuple.json"
        x.dump(path)
        back = MatrixTuple.load(path)
        assert back.base_n == 2 and back.level_m == 2 and back.d == 3
        for a, b in zip(back.components, x.components):
            assert_allclose(a, b)

    def test_centre_loads_as_centre_point(self, tmp_path):
        y = CentrePoint([np.eye(2), np.zeros((2, 2))])
        path = tmp_path / "y.json"
        y.dump(path)
        assert isinstance(MatrixTuple.load(path), CentrePoint)


def test_centre_point_rejects_higher_level():
    with pytest.raises(ValueError):
        CentrePoint([np.eye(4)], base_n=2)


def test_side_zero_rejected():
    with pytest.raises(ValueError, match="component side 0 is not a positive multiple"):
        MatrixTuple([np.zeros((0, 0))], 1)
    with pytest.raises(ValueError, match="tuple.m must be at least 1, got 0"):
        MatrixTuple.from_json({"n": 2, "m": 0, "d": 1, "components": [[]]})


def test_nonfinite_entries_rejected():
    with pytest.raises(ValueError, match="finite"):
        MatrixTuple([np.array([[np.nan]])], 1)
    # no file holds one (NaN and Infinity are not JSON), but an object made in memory can
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match=r"^realization\.A\.coeffs: entries must be finite$"):
            decode_complex([[bad, 0.0]], (1,), "realization.A.coeffs")


def test_deviation_that_overflows_is_refused():
    # X and Y are finite, X - I_2 (x) Y is not
    y = CentrePoint([np.array([[-1e308]]), np.zeros((1, 1))])
    x = MatrixTuple([np.diag([1e308, 0.0]), np.zeros((2, 2))], 1)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        deviation_from_centre(x, y)
    h = deviation_from_centre(x.scaled(0.5), y)
    assert np.array_equal(h.components[0], np.diag([1.5e308, 1e308]))
    assert not h.components[0].flags.writeable


def test_exactly_singular_solve_raises():
    with pytest.raises(SingularMatrixError, match="exactly singular"):
        solve_refined(np.array([[1.0, 2.0], [2.0, 4.0]]), np.eye(2))


def test_transposed_components_accepted():
    # a transposed view is Fortran-ordered; the finiteness check must not need C order
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    y = CentrePoint([e12, e12.T])
    assert np.array_equal(y.component(2), [[0, 0], [1, 0]])
    with pytest.raises(ValueError, match="finite"):
        MatrixTuple([np.array([[1.0, np.inf], [0.0, 1.0]]).T], 1)


class TestOneArray:
    """A tuple keeps its components in one read-only array, checked once."""

    def test_list_and_stacked_inputs_give_equal_tuples(self):
        rng = np.random.default_rng(71)
        comps = [cmat(rng, 4, 4) for _ in range(3)]
        from_list, from_stack = MatrixTuple(comps, 2), MatrixTuple(np.stack(comps), 2)
        for x in (from_list, from_stack):
            assert (x.d, x.base_n, x.level_m) == (3, 2, 2)
            assert x.array.shape == (3, 4, 4) and x.array.dtype == np.complex128
            assert np.array_equal(x.array, np.stack(comps))
        for a, b, c in zip(from_list.components, from_stack.components, comps):
            assert np.array_equal(a, b) and np.array_equal(a, c)

    def test_components_are_read_only_views_of_one_array(self):
        rng = np.random.default_rng(72)
        stacked = np.stack([cmat(rng, 2, 2) for _ in range(2)])
        for x in (MatrixTuple(list(stacked), 1), MatrixTuple(stacked, 1), CentrePoint(stacked),
                  MatrixTuple(stacked, 1).rebased(2), MatrixTuple(stacked, 1).scaled(2.0)):
            assert not x.array.flags.writeable
            assert not np.shares_memory(x.array, stacked)   # the caller's array is copied
            for j, c in enumerate(x.components):
                assert np.shares_memory(c, x.array) and not c.flags.writeable
                assert np.array_equal(c, x.array[j])
        with pytest.raises(ValueError, match="read-only"):
            MatrixTuple(stacked, 1).components[0][0, 0] = 1.0

    def test_faults_keep_the_per_component_messages(self):
        good = np.eye(2)
        bad = np.eye(2)
        bad[1, 0] = np.nan
        with pytest.raises(ValueError, match="^component 2 contains non-finite entries$"):
            MatrixTuple([good, bad, good], 1)
        with pytest.raises(ValueError, match="^component 2 contains non-finite entries$"):
            MatrixTuple(np.stack([good, bad, good]), 1)
        with pytest.raises(ValueError, match=r"^components disagree in shape: component 1 is "
                                             r"\(2, 2\), component 2 is \(3, 3\)$"):
            MatrixTuple([good, np.eye(3)], 1)
        with pytest.raises(ValueError, match=r"^components disagree in shape: component 1 is "
                                             r"\(2, 3\), component 1 is \(2, 3\)$"):
            MatrixTuple([np.ones((2, 3)), np.ones((2, 3))], 1)
        with pytest.raises(ValueError, match=r"^component 2 must be two-dimensional, got "
                                             r"shape \(2,\)$"):
            MatrixTuple([good, np.ones(2)], 1)
        with pytest.raises(ValueError, match="^a matrix tuple needs at least one component$"):
            MatrixTuple([], 1)
        with pytest.raises(ValueError, match="^component side 2 is not a positive multiple "
                                             "of centre size 3$"):
            MatrixTuple([good], 3)


class TestComplexCodec:
    def test_round_trip_is_exact(self):
        a = np.array([[0.1 - 2j, complex(-0.0, 1e-300)], [3, 5e300j]])
        pairs = encode_complex(a)
        assert pairs == [[0.1, -2.0], [-0.0, 1e-300], [3.0, 0.0], [0.0, 5e300]]
        back = decode_complex(pairs, (2, 2))
        assert np.array_equal(back, a) and np.signbit(back[0, 1].real)

    @pytest.mark.parametrize("pairs", [
        [[1.0, 2.0, 3.0], [4.0]],        # lengths that add up to the right count
        [[None, 1.0], [1.0, 2.0]],
        [["1.0", 2.0], [1.0, 2.0]],
        [[[1.0], 2.0], [1.0, 2.0]],
        [{"re": 1.0, "im": 2.0}, [1.0, 2.0]],
        [[10 ** 400, 0.0], [1.0, 2.0]],
        [[1.0, 2.0]],
        [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]],
    ])
    def test_malformed_pairs_rejected(self, pairs):
        with pytest.raises(ValueError):
            decode_complex(pairs, (2,))
