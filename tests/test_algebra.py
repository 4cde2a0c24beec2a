import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import cmat, point_near_centre, random_centre, random_descriptor

from ncreal.core import CentrePoint, SingularMatrixError, ampliate, matrix_units
from ncreal.realization import in_domain, moment, transfer, transfer_fm
from ncreal.algebra import (
    constant_fm,
    coordinate_fm,
    desc_to_fm,
    fm_add,
    fm_inv,
    fm_mul,
    fm_neg,
    fm_to_desc,
)
from ncreal.analysis import (
    controllable_basis,
    is_minimal,
    kalman_minimize,
    max_moment_deviation,
)


def sample_fm(rng, y, depth=2):
    """A random small FM realization built from the generator algebra."""
    r = constant_fm(cmat(rng, y.base_n, y.base_n, 0.5)
                    + np.eye(y.base_n), y)
    for _ in range(depth):
        k = int(rng.integers(1, y.d + 1))
        roll = rng.uniform()
        if roll < 0.5:
            r = fm_add(r, coordinate_fm(k, y))
        else:
            r = fm_mul(r, fm_add(coordinate_fm(k, y),
                                 constant_fm(np.eye(y.base_n, dtype=complex), y)))
    return r


class TestFmAdd:
    def test_additive_identity(self):
        rng = np.random.default_rng(0)
        y = random_centre(rng, 2, 2)
        r = sample_fm(rng, y)
        zero = constant_fm(np.zeros((2, 2)), y)
        total = fm_add(r, zero)
        x = point_near_centre(rng, y, 2, 0.4)
        assert_allclose(transfer_fm(total, x), transfer_fm(r, x), atol=1e-12)

    def test_constants_add(self):
        y = CentrePoint([np.zeros((1, 1)), np.zeros((1, 1))])
        r = fm_add(constant_fm(np.array([[2.0]]), y), constant_fm(np.array([[3.0]]), y))
        x = point_near_centre(np.random.default_rng(1), y, 1, 1.0)
        assert_allclose(transfer_fm(r, x), np.array([[5.0]]), atol=1e-14)

    def test_coordinates_add(self):
        rng = np.random.default_rng(2)
        y = random_centre(rng, 2, 2)
        r = fm_add(coordinate_fm(1, y), coordinate_fm(2, y))
        x = point_near_centre(rng, y, 1, 2.0)
        assert_allclose(transfer_fm(r, x), x.component(1) + x.component(2), atol=1e-12)

    def test_centre_mismatch(self):
        rng = np.random.default_rng(3)
        y1 = random_centre(rng, 2, 2)
        y2 = random_centre(rng, 2, 2)
        with pytest.raises(ValueError, match="centre"):
            fm_add(coordinate_fm(1, y1), coordinate_fm(1, y2))


class TestFmMul:
    def test_unit(self):
        rng = np.random.default_rng(4)
        y = random_centre(rng, 2, 2)
        r = sample_fm(rng, y)
        one = constant_fm(np.eye(2, dtype=complex), y)
        prod = fm_mul(one, r)
        x = point_near_centre(rng, y, 2, 0.3)
        assert_allclose(transfer_fm(prod, x), transfer_fm(r, x), atol=1e-12)

    def test_coordinate_product(self):
        rng = np.random.default_rng(5)
        y = random_centre(rng, 3, 2)
        r = fm_mul(coordinate_fm(1, y), coordinate_fm(2, y))
        x = point_near_centre(rng, y, 1, 1.5)
        assert_allclose(transfer_fm(r, x), x.component(1) @ x.component(2), atol=1e-12)

    def test_centre_value_multiplies(self):
        rng = np.random.default_rng(6)
        y = random_centre(rng, 2, 2)
        r, s = sample_fm(rng, y), sample_fm(rng, y)
        prod = fm_mul(r, s)
        assert_allclose(transfer_fm(prod, ampliate(y, 1)), r.D @ s.D, atol=1e-13)


class TestFmInv:
    def test_constant_reciprocal(self):
        y = CentrePoint([np.zeros((1, 1))])
        r = fm_inv(constant_fm(np.array([[2.0]]), y))
        x = point_near_centre(np.random.default_rng(7), y, 1, 0.5)
        assert_allclose(transfer_fm(r, x), np.array([[0.5]]), atol=1e-14)

    def test_double_inverse_moments(self):
        rng = np.random.default_rng(8)
        y = random_centre(rng, 2, 2)
        r = sample_fm(rng, y, depth=2)
        rr = fm_inv(fm_inv(r))
        dev = max_moment_deviation(fm_to_desc(r), fm_to_desc(rr), 6)
        assert dev < 1e-10

    def test_commutator_inverse_at_matrix_units(self):
        from ncreal.parser import parse, realize_expression

        e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
        e21 = np.array([[0.0, 0.0], [1.0, 0.0]])
        y = CentrePoint([e12, e21])
        comm = realize_expression(parse("x1*x2 - x2*x1", 2), y)
        inv = fm_inv(comm)
        # (Y1 Y2 - Y2 Y1)^{-1} = diag(1,-1)^{-1} = diag(1,-1)
        assert_allclose(transfer_fm(inv, ampliate(y, 1)), np.diag([1.0, -1.0]),
                        atol=1e-13)

    def test_singular_centre_value(self):
        y = CentrePoint([np.zeros((2, 2))])
        r = constant_fm(np.diag([1.0, 0.0]), y)
        with pytest.raises(SingularMatrixError, match="not invertible at centre"):
            fm_inv(r)

    def test_inverse_contract(self):
        rng = np.random.default_rng(9)
        y = random_centre(rng, 2, 2)
        r = sample_fm(rng, y)
        rinv = fm_inv(r)
        for _ in range(5):
            x = point_near_centre(rng, y, 1, 0.15)
            if not (in_domain(fm_to_desc(r), x) and in_domain(fm_to_desc(rinv), x)):
                continue
            prod = transfer_fm(rinv, x) @ transfer_fm(r, x)
            assert_allclose(prod, np.eye(2), atol=1e-9)

    def test_preserves_minimality(self):
        rng = np.random.default_rng(10)
        y = random_centre(rng, 2, 2)
        for _ in range(5):
            r = kalman_minimize(sample_fm(rng, y, depth=2))
            assert is_minimal(r)
            if np.linalg.svd(r.D, compute_uv=False)[-1] < 0.1:
                continue
            assert is_minimal(fm_inv(r))


class TestStateDimensionBookkeeping:
    def test_exact_counts(self):
        rng = np.random.default_rng(11)
        y = random_centre(rng, 2, 2)
        r, s = sample_fm(rng, y), sample_fm(rng, y)
        assert fm_add(r, s).N == r.N + s.N
        assert fm_mul(r, s).N == r.N + s.N
        assert fm_inv(r).N == r.N
        assert fm_neg(r).N == r.N


class TestGenerators:
    def test_constant_examples(self):
        rng = np.random.default_rng(12)
        y = random_centre(rng, 2, 2)
        x = point_near_centre(rng, y, 2, 1.0)
        eye = constant_fm(np.eye(2, dtype=complex), y)
        assert eye.N == 0
        assert_allclose(transfer_fm(eye, x), np.eye(4), atol=1e-14)
        zero = constant_fm(np.zeros((2, 2)), y)
        assert_allclose(transfer_fm(zero, x), np.zeros((4, 4)), atol=1e-14)
        m = cmat(rng, 2, 2)
        assert_allclose(transfer_fm(constant_fm(m, y), x), np.kron(np.eye(2), m),
                        atol=1e-13)

    def test_coordinate_at_centre(self):
        rng = np.random.default_rng(13)
        y = random_centre(rng, 2, 2)
        r = coordinate_fm(1, y)
        assert_allclose(transfer_fm(r, ampliate(y, 2)),
                        np.kron(np.eye(2), y.component(1)), atol=1e-14)

    def test_coordinate_affine_identity(self):
        rng = np.random.default_rng(14)
        y = random_centre(rng, 2, 2)
        x = point_near_centre(rng, y, 2, 2.5)
        assert_allclose(transfer_fm(coordinate_fm(2, y), x), x.component(2), atol=1e-13)

    def test_coordinate_moment_support(self):
        # only the empty-word and the single-letter-k moments survive
        rng = np.random.default_rng(15)
        y = random_centre(rng, 2, 2)
        desc = fm_to_desc(coordinate_fm(2, y))
        units = list(matrix_units(2).reshape(-1, 2, 2))
        assert np.linalg.norm(moment(desc, (), []) - y.component(2)) < 1e-14
        for g in units:
            assert np.linalg.norm(moment(desc, (2,), [g]) - g) < 1e-14
            assert np.linalg.norm(moment(desc, (1,), [g])) < 1e-14
            for h in units:
                for w in [(1, 1), (1, 2), (2, 1), (2, 2)]:
                    assert np.linalg.norm(moment(desc, w, [g, h])) < 1e-14

    def test_coordinate_bad_index(self):
        y = CentrePoint([np.zeros((1, 1))])
        with pytest.raises(ValueError):
            coordinate_fm(2, y)


class TestConversions:
    def test_zero_map_desc_to_fm(self):
        from ncreal.linmap import MatrixLinearMap
        from ncreal.realization import DescriptorRealization

        rng = np.random.default_rng(16)
        y = random_centre(rng, 2, 2)
        b, c = cmat(rng, 3, 2), cmat(rng, 3, 2)
        r = DescriptorRealization(MatrixLinearMap.zeros(2, 2, 3), b, c, y)
        fm = desc_to_fm(r)
        assert fm.N == 0
        assert_allclose(fm.D, np.conj(b).T @ c)

    def test_desc_to_fm_preserves_transfer(self):
        rng = np.random.default_rng(17)
        r = random_descriptor(rng, 2, 3, 2, scale=0.4)
        fm = desc_to_fm(r)
        hits = 0
        while hits < 20:
            x = point_near_centre(rng, r.Y, int(rng.integers(1, 3)), 0.3)
            if not in_domain(r, x):
                continue
            a = transfer(r, x)
            assert_allclose(transfer_fm(fm, x), a, rtol=1e-10, atol=1e-12)
            hits += 1

    def test_desc_to_fm_preserves_moments(self):
        rng = np.random.default_rng(18)
        r = random_descriptor(rng, 2, 3, 2, scale=0.4)
        fm = desc_to_fm(r)
        assert max_moment_deviation(r, fm_to_desc(fm), 5) < 1e-10

    def test_constant_fm_to_desc(self):
        rng = np.random.default_rng(19)
        y = random_centre(rng, 2, 2)
        m = cmat(rng, 2, 2)
        desc = fm_to_desc(constant_fm(m, y))
        assert_allclose(np.conj(desc.b).T @ desc.c, m)

    def test_fm_to_desc_preserves_transfer(self):
        rng = np.random.default_rng(20)
        y = random_centre(rng, 2, 2)
        r = sample_fm(rng, y)
        desc = fm_to_desc(r)
        for _ in range(5):
            x = point_near_centre(rng, y, 2, 0.25)
            if not in_domain(desc, x):
                continue
            assert_allclose(transfer(desc, x), transfer_fm(r, x), rtol=1e-10,
                            atol=1e-12)

    def test_fm_to_desc_preserves_controllability(self):
        rng = np.random.default_rng(21)
        y = random_centre(rng, 2, 2)
        r = kalman_minimize(sample_fm(rng, y, depth=2))
        assert controllable_basis(r).shape[1] == r.N
        desc = fm_to_desc(r)
        # the computation C_{A-hat,c} = C_{A,B} (+) ran c gives N + n
        assert controllable_basis(desc).shape[1] == r.N + r.n


class TestHomomorphism:
    def test_add_mul_identities(self):
        rng = np.random.default_rng(22)
        y = random_centre(rng, 2, 2)
        for _ in range(5):
            r, s = sample_fm(rng, y), sample_fm(rng, y)
            add, mul = fm_add(r, s), fm_mul(r, s)
            x = point_near_centre(rng, y, int(rng.integers(1, 3)), 0.2)
            fr, fs = transfer_fm(r, x), transfer_fm(s, x)
            assert_allclose(transfer_fm(add, x), fr + fs, rtol=1e-10, atol=1e-11)
            assert_allclose(transfer_fm(mul, x), fr @ fs, rtol=1e-10, atol=1e-11)
