"""Tests for the modular arithmetic and SL(2, Z_d) layer."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phasespace import (
    PhasePoint,
    PrimeDim,
    SymplecticMatrix,
    half,
    sl2_apply,
    sl2_enumerate,
    symplectic_form,
)

DIMS = [PrimeDim(3), PrimeDim(5), PrimeDim(7)]


class TestPrimeDim:
    @pytest.mark.parametrize("d", [3, 5, 7, 11, 13])
    def test_accepts_odd_primes(self, d):
        assert PrimeDim(d).d == d

    @pytest.mark.parametrize("bad", [2, 4, 9, 15, 1, 0, -3, 21])
    def test_rejects_non_odd_primes(self, bad):
        with pytest.raises(ValueError):
            PrimeDim(bad)

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            PrimeDim("3")

    def test_all_points_covers_grid(self):
        dim = PrimeDim(3)
        pts = dim.all_points()
        assert len(pts) == 9
        assert len(set(pt.as_ints() for pt in pts)) == 9


class TestModInv:
    """The inverse in Z_d, as SymplecticMatrix.scaling(a) = [[a, 0], [0, a^-1]] computes it."""

    # Hand-checked table: x * inv(x) === 1 (mod d).
    @pytest.mark.parametrize(
        "x,d,expected",
        [(1, 3, 1), (2, 3, 2), (2, 5, 3), (3, 5, 2), (4, 5, 4), (3, 7, 5), (4, 7, 2)],
    )
    def test_known_inverses(self, x, d, expected):
        assert SymplecticMatrix.scaling(PrimeDim(d), x).as_ints() == (x, 0, 0, expected)

    def test_zero_not_invertible(self):
        with pytest.raises(ValueError):
            SymplecticMatrix.scaling(PrimeDim(5), 0)
        with pytest.raises(ValueError):
            SymplecticMatrix.scaling(PrimeDim(5), 10)

    @given(st.sampled_from([3, 5, 7, 11]), st.integers(min_value=-1000, max_value=1000))
    def test_inverse_property(self, d, raw):
        if raw % d == 0:
            raw += 1
        a, _, _, ai = SymplecticMatrix.scaling(PrimeDim(d), raw).as_ints()
        assert a == raw % d
        assert (a * ai) % d == 1

    def test_scalar_inv_method(self):
        # scaling is a homomorphism, so scaling(x) scaling(x^-1) is the identity
        dim = PrimeDim(7)
        for x in range(1, 7):
            scale = SymplecticMatrix.scaling(dim, x)
            assert (scale @ SymplecticMatrix.scaling(dim, scale.e)).as_ints() == (1, 0, 0, 1)


class TestHalf:
    @pytest.mark.parametrize("d,expected", [(3, 2), (5, 3), (7, 4)])
    def test_values(self, d, expected):
        assert half(PrimeDim(d)) == expected

    @pytest.mark.parametrize("dim", DIMS)
    def test_doubling_gives_one(self, dim):
        assert (half(dim) * 2) % dim.d == 1


class TestSymplecticForm:
    def test_examples(self):
        dim = PrimeDim(5)
        u = dim.point(1, 2)
        v = dim.point(3, 4)
        # p1*q2 - q1*p2 = 1*4 - 2*3 = -2 = 3 (mod 5)
        assert symplectic_form(u, v) == 3
        assert symplectic_form(v, u) == 2

    @pytest.mark.parametrize("dim", DIMS)
    def test_antisymmetric_and_zero_on_diagonal(self, dim):
        for u in dim.all_points():
            assert symplectic_form(u, u) == 0
        for u, v in itertools.product(dim.all_points(), repeat=2):
            assert (symplectic_form(u, v) + symplectic_form(v, u)) % dim.d == 0

    def test_mixed_dims_rejected(self):
        with pytest.raises(ValueError):
            symplectic_form(PrimeDim(3).point(1, 0), PrimeDim(5).point(0, 1))


class TestSymplecticMatrix:
    def test_determinant_validation(self):
        dim = PrimeDim(3)
        with pytest.raises(ValueError, match="determinant"):
            SymplecticMatrix(dim, 1, 1, 1, 1)
        SymplecticMatrix(dim, 1, 1, 1, 2)  # det = 2 - 1 = 1

    def test_canonical_residues(self):
        dim = PrimeDim(5)
        S = SymplecticMatrix(dim, -4, 12, 6, -2)
        assert S.as_ints() == (1, 2, 1, 3)
        assert S == SymplecticMatrix(dim, 1, 2, 1, 3)

    def test_as_ints_are_python_ints(self):
        S = SymplecticMatrix(PrimeDim(7), np.int64(2), np.int32(3), np.int64(-6), 2)
        assert S.as_ints() == (2, 3, 1, 2)
        assert all(type(x) is int for x in S.as_ints())
        assert all(type(x) is int for x in (S @ S.inverse()).as_ints())

    @pytest.mark.parametrize("bad", [2.0, 2.7, np.float64(1.0)])
    def test_float_entry_raises(self, bad):
        with pytest.raises(TypeError):
            SymplecticMatrix(PrimeDim(3), bad, 0, 0, 2)

    def test_mixed_dims_rejected(self):
        with pytest.raises(ValueError):
            _ = SymplecticMatrix.identity(PrimeDim(3)) @ SymplecticMatrix.identity(PrimeDim(5))
        with pytest.raises(ValueError):
            sl2_apply(SymplecticMatrix.identity(PrimeDim(3)), PrimeDim(5).point(1, 1))

    def test_constructors(self):
        dim = PrimeDim(5)
        assert SymplecticMatrix.identity(dim).as_ints() == (1, 0, 0, 1)
        assert SymplecticMatrix.fourier(dim).as_ints() == (0, 4, 1, 0)
        assert SymplecticMatrix.chirp(dim, 2).as_ints() == (1, 0, 2, 1)
        assert SymplecticMatrix.scaling(dim, 2).as_ints() == (2, 0, 0, 3)

    def test_flip_squared_is_minus_identity(self):
        dim = PrimeDim(3)
        flip = SymplecticMatrix.fourier(dim)
        assert (flip @ flip).as_ints() == (2, 0, 0, 2)

    def test_scaling_rejects_zero(self):
        with pytest.raises(ValueError):
            SymplecticMatrix.scaling(PrimeDim(5), 0)

    @pytest.mark.parametrize("dim", [PrimeDim(3), PrimeDim(5)])
    def test_inverse(self, dim):
        for mat in sl2_enumerate(dim):
            assert (mat @ mat.inverse()).as_ints() == (1, 0, 0, 1)
            assert (mat.inverse() @ mat).as_ints() == (1, 0, 0, 1)

    def test_matmul_matches_integer_matrices(self):
        dim = PrimeDim(7)
        s = SymplecticMatrix(dim, 2, 3, 1, 2)
        t = SymplecticMatrix(dim, 0, 6, 1, 0)
        a, b, c, e = s.as_ints()
        aa, bb, cc, ee = t.as_ints()
        expected = (
            (a * aa + b * cc) % 7,
            (a * bb + b * ee) % 7,
            (c * aa + e * cc) % 7,
            (c * bb + e * ee) % 7,
        )
        assert (s @ t).as_ints() == expected


class TestSl2Apply:
    def test_identity_fixes_everything(self):
        dim = PrimeDim(3)
        ident = SymplecticMatrix.identity(dim)
        for v in dim.all_points():
            assert sl2_apply(ident, v).as_ints() == v.as_ints()

    def test_row_convention(self):
        # (p, q) -> (a p + b q, c p + e q)
        dim = PrimeDim(3)
        s = SymplecticMatrix(dim, 0, 2, 1, 0)
        assert sl2_apply(s, dim.point(1, 1)).as_ints() == (2, 1)
        assert sl2_apply(s, dim.point(1, 0)).as_ints() == (0, 1)

    @pytest.mark.parametrize("dim", [PrimeDim(3), PrimeDim(5)])
    def test_linear(self, dim):
        for s in sl2_enumerate(dim)[:10]:
            for u, v in itertools.product(dim.all_points(), repeat=2):
                lhs = sl2_apply(s, u + v)
                rhs = sl2_apply(s, u) + sl2_apply(s, v)
                assert lhs.as_ints() == rhs.as_ints()

    @pytest.mark.parametrize("dim", DIMS)
    def test_preserves_symplectic_form(self, dim):
        mats = sl2_enumerate(dim)
        points = dim.all_points()
        for s in mats:
            for u, v in itertools.product(points[:4], repeat=2):
                before = symplectic_form(u, v)
                after = symplectic_form(sl2_apply(s, u), sl2_apply(s, v))
                assert before == after

    def test_inverse_round_trip(self):
        dim = PrimeDim(5)
        for s in sl2_enumerate(dim):
            sinv = s.inverse()
            for v in dim.all_points():
                assert sl2_apply(sinv, sl2_apply(s, v)).as_ints() == v.as_ints()


def _brute_force_sl2(dim):
    """Independent enumeration: filter all d^4 integer tuples by det == 1."""
    d = dim.d
    found = []
    for a, b, c, e in itertools.product(range(d), repeat=4):
        if (a * e - b * c) % d == 1:
            found.append((a, b, c, e))
    return sorted(found)


class TestSl2Enumerate:
    @pytest.mark.parametrize(
        "dim,count", [(PrimeDim(3), 24), (PrimeDim(5), 120), (PrimeDim(7), 336)]
    )
    def test_group_order(self, dim, count):
        mats = sl2_enumerate(dim)
        assert len(mats) == count
        assert count == dim.d * (dim.d**2 - 1)

    @pytest.mark.parametrize("dim", DIMS)
    def test_matches_brute_force(self, dim):
        assert sorted(m.as_ints() for m in sl2_enumerate(dim)) == _brute_force_sl2(dim)

    @pytest.mark.parametrize("dim", DIMS)
    def test_no_duplicates_and_closed(self, dim):
        mats = sl2_enumerate(dim)
        keys = set(m.as_ints() for m in mats)
        assert len(keys) == len(mats)
        sample = mats[:: max(1, len(mats) // 12)]
        for s, t in itertools.product(sample, repeat=2):
            assert (s @ t).as_ints() in keys


class TestPhasePoint:
    def test_canonical_residue(self):
        dim = PrimeDim(3)
        assert PhasePoint(dim, -1, 7).as_ints() == (2, 1)
        assert dim.point(3, -3).as_ints() == (0, 0)
        assert dim.point(10**30 + 2, -(10**30)).as_ints() == (0, 2)  # 10^30 = 1 mod 3

    def test_arithmetic(self):
        dim = PrimeDim(5)
        v = dim.point(3, 4)
        assert (v + v + v).as_ints() == (4, 2)
        assert (v + -v).as_ints() == (0, 0)
        assert (-(-v)) == v

    def test_int_coercion(self):
        dim = PrimeDim(5)
        v = dim.point(np.int64(8), np.int32(-1))
        assert v.as_ints() == (3, 4)
        assert all(type(x) is int for x in v.as_ints())
        assert all(type(x) is int for x in (v + v).as_ints())

    @pytest.mark.parametrize("bad", [(2.7, 0), (0, 1.0), (np.float64(2.0), 1)])
    def test_float_entry_raises(self, bad):
        with pytest.raises(TypeError):
            PrimeDim(3).point(*bad)

    def test_mixed_dims_rejected(self):
        with pytest.raises(ValueError):
            _ = PrimeDim(3).point(1, 0) + PrimeDim(5).point(1, 0)

    def test_add_neg(self):
        dim = PrimeDim(5)
        v = dim.point(3, 4)
        w = dim.point(4, 4)
        assert (v + w).as_ints() == (2, 3)
        assert (-v).as_ints() == (2, 1)

    def test_structural_equality(self):
        dim = PrimeDim(3)
        assert dim.point(4, -1) == dim.point(1, 2)
        assert dim.point(0, 1) != dim.point(1, 0)

    def test_point_is_hashable(self):
        dim = PrimeDim(3)
        assert len({dim.point(1, 2), dim.point(4, 5), dim.point(0, 0)}) == 2
