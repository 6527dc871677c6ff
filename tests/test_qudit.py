"""Tests for states, dense operators and Weyl operators."""

import cmath
import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phasespace import (
    DenseOperator,
    PrimeDim,
    StateVector,
    haar_sample,
    half,
    omega_table,
    projector,
    weyl,
)

from oracles import DIMS, all_points, boost_op, shift_op, symplectic_form


class TestOmegaTable:
    @pytest.mark.parametrize("dim", DIMS)
    def test_powers_close(self, dim):
        d = dim.d
        table = omega_table(d)
        assert len(table) == d
        assert abs(table[0] - 1.0) == 0.0
        for k in range(d):
            assert abs(table[k] - cmath.exp(2j * cmath.pi * k / d)) < 1e-15

    @pytest.mark.parametrize("dim", DIMS)
    def test_conjugate_symmetry(self, dim):
        d = dim.d
        table = omega_table(d)
        for k in range(d):
            assert abs(table[k].conjugate() - table[(-k) % d]) < 1e-15

    def test_read_only(self):
        table = omega_table(3)
        with pytest.raises(ValueError):
            table[0] = 0.0

    @pytest.mark.parametrize("dim", DIMS)
    def test_root_of_unity_order(self, dim):
        table = omega_table(dim.d)
        w = table[1]
        assert abs(w**dim.d - 1.0) < 1e-14
        assert all(abs(w**k - 1.0) > 1e-3 for k in range(1, dim.d))
        assert abs(table[dim.d % dim.d] - 1.0) < 1e-15


class TestStateVector:
    def test_basis_states(self):
        dim = PrimeDim(5)
        psi = StateVector.basis(dim, 2)
        assert psi.amp[2] == 1.0
        assert np.count_nonzero(psi.amp) == 1
        assert StateVector.basis(dim, 7).amp[2] == 1.0

    def test_rejects_unnormalized(self):
        dim = PrimeDim(3)
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(dim, np.array([1.0, 1.0, 0.0]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            StateVector(PrimeDim(3), np.zeros(5, dtype=complex))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_rejects_non_finite_amplitudes(self, bad):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(PrimeDim(3), np.array([bad, 0.0, 0.0]))
        with pytest.raises(ValueError, match="not normalized"):
            StateVector.normalized(PrimeDim(3), np.array([1.0, bad, 0.0]))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_normalized_rejects_overflowing_norm(self):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector.normalized(PrimeDim(3), np.array([1e308 + 1e308j, 1e308, 0.0]))

    def test_normalized_constructor(self):
        dim = PrimeDim(3)
        psi = StateVector.normalized(dim, [3.0, 4.0, 0.0])
        assert abs(psi.amp[0] - 0.6) < 1e-15
        assert abs(psi.amp[1] - 0.8) < 1e-15

    def test_normalized_rejects_zero(self):
        with pytest.raises(ValueError, match="zero"):
            StateVector.normalized(PrimeDim(3), [0.0, 0.0, 0.0])

    def test_amplitudes_read_only(self):
        psi = StateVector.basis(PrimeDim(3), 0)
        with pytest.raises(ValueError):
            psi.amp[0] = 0.0


class TestShiftBoost:
    def test_shift_zero_is_identity(self):
        dim = PrimeDim(5)
        assert np.array_equal(shift_op(dim, 0), np.eye(5))

    def test_shift_matrix_d3(self):
        dim = PrimeDim(3)
        expected = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
        assert np.array_equal(shift_op(dim, 1), expected)

    def test_shift_action_on_basis(self):
        dim = PrimeDim(7)
        for q, k in itertools.product(range(7), repeat=2):
            out = shift_op(dim, q) @ StateVector.basis(dim, k).amp
            assert out[(k + q) % 7] == 1.0
            assert np.count_nonzero(out) == 1

    def test_boost_diagonal(self):
        dim = PrimeDim(3)
        table = omega_table(3)
        mat = boost_op(dim, 2)
        assert np.array_equal(np.diag(mat), table[[0, 2, 1]])
        assert np.count_nonzero(mat - np.diag(np.diag(mat))) == 0

    @pytest.mark.parametrize("dim", [PrimeDim(3), PrimeDim(5)])
    def test_shift_group_law(self, dim):
        for a, b in itertools.product(range(dim.d), repeat=2):
            lhs = shift_op(dim, a) @ shift_op(dim, b)
            rhs = shift_op(dim, a + b)
            assert np.allclose(lhs, rhs, atol=1e-15)

    @pytest.mark.parametrize("dim", [PrimeDim(3), PrimeDim(5)])
    def test_boost_group_law(self, dim):
        for a, b in itertools.product(range(dim.d), repeat=2):
            lhs = boost_op(dim, a) @ boost_op(dim, b)
            rhs = boost_op(dim, a + b)
            assert np.allclose(lhs, rhs, atol=1e-15)

    @pytest.mark.parametrize("dim", [PrimeDim(3), PrimeDim(5)])
    def test_commutation_phase(self, dim):
        # z(p) x(q) = omega^(p q) x(q) z(p)
        d = dim.d
        table = omega_table(d)
        for p, q in itertools.product(range(d), repeat=2):
            lhs = boost_op(dim, p) @ shift_op(dim, q)
            rhs = table[(p * q) % d] * shift_op(dim, q) @ boost_op(dim, p)
            assert np.allclose(lhs, rhs, atol=1e-14)


def _weyl_oracle(dim, p, q):
    """Independent route: explicit scalar phase times the z @ x product."""
    h = half(dim)
    phase = cmath.exp(2j * cmath.pi * ((-h * p * q) % dim.d) / dim.d)
    return phase * boost_op(dim, p) @ shift_op(dim, q)


class TestWeyl:
    def test_identity_at_origin(self):
        dim = PrimeDim(5)
        assert np.array_equal(weyl(dim, 0, 0).mat, np.eye(5))

    def test_pure_shift_and_pure_boost(self):
        dim = PrimeDim(7)
        for q in range(7):
            assert np.array_equal(weyl(dim, 0, q).mat, shift_op(dim, q))
        for p in range(7):
            assert np.allclose(weyl(dim, p, 0).mat, boost_op(dim, p), atol=1e-15)

    @pytest.mark.parametrize("dim", DIMS)
    def test_matches_phase_times_product_oracle(self, dim):
        for p, q in itertools.product(range(dim.d), repeat=2):
            assert np.allclose(
                weyl(dim, p, q).mat, _weyl_oracle(dim, p, q), atol=1e-14
            )

    def test_canonical_residue(self):
        # arguments are reduced mod d first; 10^30 = 1 mod 3
        dim = PrimeDim(3)
        for (p, q), reduced in [((-1, 7), (2, 1)), ((3, -3), (0, 0)), ((10**30 + 2, -(10**30)), (0, 2))]:
            assert np.array_equal(weyl(dim, p, q).mat, weyl(dim, *reduced).mat)
            assert np.abs(weyl(dim, p, q).mat - _weyl_oracle(dim, *reduced)).max() <= 1e-14

    def test_int_coercion(self):
        dim = PrimeDim(5)
        w = weyl(dim, np.int64(8), np.int32(-1))
        assert np.array_equal(w.mat, weyl(dim, 3, 4).mat)
        assert np.abs(w.mat - _weyl_oracle(dim, 3, 4)).max() <= 1e-14

    @given(st.sampled_from([3, 5, 7, 11, 101]), st.integers(), st.integers())
    def test_any_int_matches_the_oracle_on_its_residues(self, d, p, q):
        dim = PrimeDim(d)
        assert np.abs(weyl(dim, p, q).mat - _weyl_oracle(dim, p % d, q % d)).max() <= 1e-14

    @pytest.mark.parametrize("bad", [(2.7, 0), (0, 1.0), (np.float64(2.0), 1)])
    def test_float_entry_raises(self, bad):
        with pytest.raises(TypeError):
            weyl(PrimeDim(3), *bad)

    @pytest.mark.parametrize("dim", DIMS)
    def test_unitary(self, dim):
        d = dim.d
        for v in all_points(dim):
            w = weyl(dim, *v)
            assert np.allclose(w.mat.conj().T @ w.mat, np.eye(d), atol=1e-14)

    @pytest.mark.parametrize("dim", DIMS)
    def test_order_divides_d(self, dim):
        d = dim.d
        for v in all_points(dim):
            assert np.allclose(
                np.linalg.matrix_power(weyl(dim, *v).mat, d), np.eye(d), atol=1e-12
            )

    @pytest.mark.parametrize("dim", DIMS)
    def test_adjoint_is_negated_point(self, dim):
        for p, q in all_points(dim):
            assert np.allclose(weyl(dim, p, q).mat.conj().T, weyl(dim, -p, -q).mat, atol=1e-15)

    @pytest.mark.parametrize("dim", DIMS)
    def test_trace_orthogonality(self, dim):
        # tr(w(u)^dag w(v)) = d * delta_{u,v}
        d = dim.d
        mats = {v: weyl(dim, *v).mat for v in all_points(dim)}
        for u, v in itertools.product(all_points(dim), repeat=2):
            inner = np.trace(mats[u].conj().T @ mats[v])
            expected = d if u == v else 0.0
            assert abs(inner - expected) < 1e-12

    def test_composition_exponent_fit_d3(self):
        # Fit the integer exponent k in w(v1) w(v2) = omega^k w(v1 + v2) on
        # every pair at d = 3 and check it reproduces 2^-1 sigma(v1, v2).
        dim = PrimeDim(3)
        d, h = 3, half(dim)
        for v1, v2 in itertools.product(all_points(dim), repeat=2):
            prod = weyl(dim, *v1).mat @ weyl(dim, *v2).mat
            ratio = np.trace(weyl(dim, v1[0] + v2[0], v1[1] + v2[1]).mat.conj().T @ prod) / d
            assert abs(abs(ratio) - 1.0) < 1e-12
            k_emp = round(cmath.phase(ratio) / (2 * cmath.pi / d)) % d
            assert k_emp == (h * symplectic_form(dim, v1, v2)) % d

    @pytest.mark.parametrize("dim", [PrimeDim(5), PrimeDim(7)])
    def test_composition_law(self, dim):
        d = dim.d
        h = half(dim)
        table = omega_table(d)
        for v1, v2 in itertools.product(all_points(dim), repeat=2):
            lhs = weyl(dim, *v1).mat @ weyl(dim, *v2).mat
            phase = table[(h * symplectic_form(dim, v1, v2)) % d]
            assert np.allclose(lhs, phase * weyl(dim, v1[0] + v2[0], v1[1] + v2[1]).mat, atol=1e-12)


class TestDenseOperator:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            DenseOperator(PrimeDim(3), np.zeros((2, 2)))


class TestProjector:
    def test_basis_projector(self):
        dim = PrimeDim(3)
        proj = projector(StateVector.basis(dim, 1)).mat
        expected = np.zeros((3, 3), dtype=complex)
        expected[1, 1] = 1.0
        assert np.array_equal(proj, expected)

    @pytest.mark.parametrize("dim", DIMS)
    def test_idempotent_hermitian_unit_trace(self, dim):
        rho = projector(haar_sample(dim, 33, 0)).mat
        assert np.allclose(rho @ rho, rho, atol=1e-14)
        assert np.allclose(rho, rho.conj().T, atol=1e-15)
        assert abs(np.trace(rho) - 1.0) < 1e-14


class TestHaarRandomState:
    """Seeded Haar states as hudson.haar_sample draws them: haar_sample(dim, s, 0)."""

    def test_deterministic(self):
        dim = PrimeDim(7)
        a = haar_sample(dim, 42, 0)
        b = haar_sample(dim, 42, 0)
        assert np.array_equal(a.amp, b.amp)

    def test_seed_sensitivity(self):
        dim = PrimeDim(7)
        a = haar_sample(dim, 42, 0)
        b = haar_sample(dim, 43, 0)
        assert abs(np.vdot(a.amp, b.amp)) < 1.0 - 1e-6

    @pytest.mark.parametrize("dim", DIMS)
    def test_first_component_mean(self, dim):
        # E|amp_0|^2 = 1/d with Var = (d-1)/(d^2 (d+1)); check within 5 SE.
        d = dim.d
        n = 4000
        vals = [abs(haar_sample(dim, s, 0).amp[0]) ** 2 for s in range(n)]
        se = np.sqrt((d - 1) / (d * d * (d + 1)) / n)
        assert abs(np.mean(vals) - 1.0 / d) < 5 * se
