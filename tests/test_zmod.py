"""Tests for the modular arithmetic and SL(2, Z_d) layer."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phasespace import (
    PrimeDim,
    SymplecticMatrix,
    half,
    sl2_enumerate,
)

from oracles import DIMS, act, all_points, compose, inverse, symplectic_form


class TestPrimeDim:
    @pytest.mark.parametrize("d", [3, 5, 7, 11, 13, np.int64(5), np.uint8(7)])
    def test_accepts_odd_primes(self, d):
        # any integer type, stored as a Python int so that equality and hashing hold
        assert type(PrimeDim(d).d) is int and PrimeDim(d) == PrimeDim(int(d)) and PrimeDim(d).d == d

    @pytest.mark.parametrize("bad", [2, 4, 9, 15, 1, 0, -3, 21])
    def test_rejects_non_odd_primes(self, bad):
        with pytest.raises(ValueError):
            PrimeDim(bad)

    def test_rejects_non_integer(self):
        for bad, kind in [("3", "str"), (3.0, "float"), (True, "bool"), (np.float64(5), "float64")]:
            with pytest.raises(TypeError, match=f"d must be an integer, got {kind}$"):
                PrimeDim(bad)

    def test_all_points_covers_grid(self):
        dim = PrimeDim(3)
        pts = all_points(dim)
        assert len(pts) == 9
        assert len(set(pts)) == 9


class TestModInv:
    """The inverse in Z_d, as the determinant check of SymplecticMatrix sees it:
    the diagonal [[x, 0], [0, e]] is accepted exactly when e = x^-1."""

    @staticmethod
    def _accepted(d: int, x: int) -> list[int]:
        accepted = []
        for e in range(d):
            try:
                SymplecticMatrix(PrimeDim(d), x, 0, 0, e)
            except ValueError:
                continue
            accepted.append(e)
        return accepted

    # Hand-checked table: x * inv(x) === 1 (mod d).
    @pytest.mark.parametrize(
        "x,d,expected",
        [(1, 3, 1), (2, 3, 2), (2, 5, 3), (3, 5, 2), (4, 5, 4), (3, 7, 5), (4, 7, 2)],
    )
    def test_known_inverses(self, x, d, expected):
        assert self._accepted(d, x) == [expected]

    def test_zero_not_invertible(self):
        assert self._accepted(5, 0) == []
        assert self._accepted(5, 10) == []

    @given(st.sampled_from([3, 5, 7, 11]), st.integers(min_value=-1000, max_value=1000))
    def test_inverse_property(self, d, raw):
        if raw % d == 0:
            raw += 1
        (ai,) = self._accepted(d, raw)
        assert (raw * ai) % d == 1

    def test_scalar_inv_method(self):
        # the diagonal matrices form a group: diag(x) diag(x^-1) is the identity
        dim = PrimeDim(7)
        for x in range(1, 7):
            scale = SymplecticMatrix(dim, x, 0, 0, pow(x, -1, 7))
            assert compose(scale, SymplecticMatrix(dim, scale.e, 0, 0, x)).as_ints() == (1, 0, 0, 1)


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
        u, v = (1, 2), (3, 4)
        # p1*q2 - q1*p2 = 1*4 - 2*3 = -2 = 3 (mod 5)
        assert symplectic_form(dim, u, v) == 3
        assert symplectic_form(dim, v, u) == 2

    @pytest.mark.parametrize("dim", DIMS)
    def test_antisymmetric_and_zero_on_diagonal(self, dim):
        for u in all_points(dim):
            assert symplectic_form(dim, u, u) == 0
        for u, v in itertools.product(all_points(dim), repeat=2):
            assert (symplectic_form(dim, u, v) + symplectic_form(dim, v, u)) % dim.d == 0


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
        assert all(type(x) is int for x in compose(S, inverse(S)).as_ints())

    @pytest.mark.parametrize("bad", [2.0, 2.7, np.float64(1.0)])
    def test_float_entry_raises(self, bad):
        with pytest.raises(TypeError):
            SymplecticMatrix(PrimeDim(3), bad, 0, 0, 2)

    def test_flip_squared_is_minus_identity(self):
        dim = PrimeDim(3)
        flip = SymplecticMatrix(dim, 0, -1, 1, 0)
        assert compose(flip, flip).as_ints() == (2, 0, 0, 2)

    @pytest.mark.parametrize("dim", [PrimeDim(3), PrimeDim(5)])
    def test_inverse(self, dim):
        for mat in sl2_enumerate(dim):
            assert compose(mat, inverse(mat)).as_ints() == (1, 0, 0, 1)
            assert compose(inverse(mat), mat).as_ints() == (1, 0, 0, 1)

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
        assert compose(s, t).as_ints() == expected


class TestSl2Apply:
    """The action S v of the enumerated matrices on (p, q) pairs, as the
    covariance tests compute it with oracles.act."""

    def test_identity_fixes_everything(self):
        dim = PrimeDim(3)
        ident = SymplecticMatrix(dim, 1, 0, 0, 1)
        for v in all_points(dim):
            assert act(ident, v) == v

    def test_row_convention(self):
        # (p, q) -> (a p + b q, c p + e q)
        dim = PrimeDim(3)
        s = SymplecticMatrix(dim, 0, 2, 1, 0)
        assert act(s, (1, 1)) == (2, 1)
        assert act(s, (1, 0)) == (0, 1)

    @pytest.mark.parametrize("dim", [PrimeDim(3), PrimeDim(5)])
    def test_linear(self, dim):
        for s in sl2_enumerate(dim)[:10]:
            for u, v in itertools.product(all_points(dim), repeat=2):
                (p1, q1), (p2, q2) = act(s, u), act(s, v)
                assert act(s, (u[0] + v[0], u[1] + v[1])) == ((p1 + p2) % dim.d, (q1 + q2) % dim.d)

    @pytest.mark.parametrize("dim", DIMS)
    def test_preserves_symplectic_form(self, dim):
        mats = sl2_enumerate(dim)
        points = all_points(dim)
        for s in mats:
            for u, v in itertools.product(points[:4], repeat=2):
                assert symplectic_form(dim, u, v) == symplectic_form(dim, act(s, u), act(s, v))

    def test_inverse_round_trip(self):
        dim = PrimeDim(5)
        for s in sl2_enumerate(dim):
            sinv = inverse(s)
            for v in all_points(dim):
                assert act(sinv, act(s, v)) == v


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
        # the order too, not only the set: the benchmark's covariance-sweep
        # workload indexes this list through a fixed permutation
        assert [m.as_ints() for m in sl2_enumerate(dim)] == _brute_force_sl2(dim)

    @pytest.mark.parametrize("dim", DIMS)
    def test_no_duplicates_and_closed(self, dim):
        mats = sl2_enumerate(dim)
        keys = set(m.as_ints() for m in mats)
        assert len(keys) == len(mats)
        sample = mats[:: max(1, len(mats) // 12)]
        for s, t in itertools.product(sample, repeat=2):
            assert compose(s, t).as_ints() in keys
