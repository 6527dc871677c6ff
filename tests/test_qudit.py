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
    boost_op,
    haar_random_state,
    half,
    omega_table,
    projector,
    shift_op,
    symplectic_form,
    weyl,
    weyl_adjoint,
)

DIMS = [PrimeDim(3), PrimeDim(5), PrimeDim(7)]


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

    def test_overlap(self):
        dim = PrimeDim(3)
        e0 = StateVector.basis(dim, 0)
        e1 = StateVector.basis(dim, 1)
        assert e0.overlap(e1) == 0.0
        assert e0.overlap(e0) == 1.0

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=10_000))
    def test_overlap_bounded(self, s1, s2):
        dim = PrimeDim(5)
        a = haar_random_state(dim, s1)
        b = haar_random_state(dim, s2)
        assert abs(a.overlap(b)) <= 1.0 + 1e-12


class TestShiftBoost:
    def test_shift_zero_is_identity(self):
        dim = PrimeDim(5)
        assert np.array_equal(shift_op(dim, 0).mat, np.eye(5))

    def test_shift_matrix_d3(self):
        dim = PrimeDim(3)
        expected = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
        assert np.array_equal(shift_op(dim, 1).mat, expected)

    def test_shift_action_on_basis(self):
        dim = PrimeDim(7)
        for q, k in itertools.product(range(7), repeat=2):
            out = shift_op(dim, q).apply(StateVector.basis(dim, k))
            assert out[(k + q) % 7] == 1.0
            assert np.count_nonzero(out) == 1

    def test_boost_diagonal(self):
        dim = PrimeDim(3)
        table = omega_table(3)
        mat = boost_op(dim, 2).mat
        assert np.array_equal(np.diag(mat), table[[0, 2, 1]])
        assert np.count_nonzero(mat - np.diag(np.diag(mat))) == 0

    @pytest.mark.parametrize("dim", [PrimeDim(3), PrimeDim(5)])
    def test_shift_group_law(self, dim):
        for a, b in itertools.product(range(dim.d), repeat=2):
            lhs = (shift_op(dim, a) @ shift_op(dim, b)).mat
            rhs = shift_op(dim, a + b).mat
            assert np.allclose(lhs, rhs, atol=1e-15)

    @pytest.mark.parametrize("dim", [PrimeDim(3), PrimeDim(5)])
    def test_boost_group_law(self, dim):
        for a, b in itertools.product(range(dim.d), repeat=2):
            lhs = (boost_op(dim, a) @ boost_op(dim, b)).mat
            rhs = boost_op(dim, a + b).mat
            assert np.allclose(lhs, rhs, atol=1e-15)

    @pytest.mark.parametrize("dim", [PrimeDim(3), PrimeDim(5)])
    def test_commutation_phase(self, dim):
        # z(p) x(q) = omega^(p q) x(q) z(p)
        d = dim.d
        table = omega_table(d)
        for p, q in itertools.product(range(d), repeat=2):
            lhs = (boost_op(dim, p) @ shift_op(dim, q)).mat
            rhs = table[(p * q) % d] * (shift_op(dim, q) @ boost_op(dim, p)).mat
            assert np.allclose(lhs, rhs, atol=1e-14)


def _weyl_oracle(dim, p, q):
    """Independent route: explicit scalar phase times the z @ x product."""
    h = half(dim)
    phase = cmath.exp(2j * cmath.pi * ((-h * p * q) % dim.d) / dim.d)
    return phase * (boost_op(dim, p) @ shift_op(dim, q)).mat


class TestWeyl:
    def test_identity_at_origin(self):
        dim = PrimeDim(5)
        assert np.array_equal(weyl(dim.point(0, 0)).mat, np.eye(5))

    def test_pure_shift_and_pure_boost(self):
        dim = PrimeDim(7)
        for q in range(7):
            assert np.array_equal(weyl(dim.point(0, q)).mat, shift_op(dim, q).mat)
        for p in range(7):
            assert np.allclose(weyl(dim.point(p, 0)).mat, boost_op(dim, p).mat, atol=1e-15)

    @pytest.mark.parametrize("dim", DIMS)
    def test_matches_phase_times_product_oracle(self, dim):
        for p, q in itertools.product(range(dim.d), repeat=2):
            assert np.allclose(
                weyl(dim.point(p, q)).mat, _weyl_oracle(dim, p, q), atol=1e-14
            )

    @pytest.mark.parametrize("dim", DIMS)
    def test_unitary(self, dim):
        d = dim.d
        for v in dim.all_points():
            w = weyl(v)
            assert np.allclose((w.adjoint @ w).mat, np.eye(d), atol=1e-14)

    @pytest.mark.parametrize("dim", DIMS)
    def test_order_divides_d(self, dim):
        d = dim.d
        for v in dim.all_points():
            assert np.allclose(
                np.linalg.matrix_power(weyl(v).mat, d), np.eye(d), atol=1e-12
            )

    @pytest.mark.parametrize("dim", DIMS)
    def test_adjoint_is_negated_point(self, dim):
        for v in dim.all_points():
            assert np.allclose(weyl_adjoint(v).mat, weyl(-v).mat, atol=1e-15)

    @pytest.mark.parametrize("dim", DIMS)
    def test_trace_orthogonality(self, dim):
        # tr(w(u)^dag w(v)) = d * delta_{u,v}
        d = dim.d
        mats = {v.as_ints(): weyl(v).mat for v in dim.all_points()}
        for u, v in itertools.product(dim.all_points(), repeat=2):
            inner = np.trace(mats[u.as_ints()].conj().T @ mats[v.as_ints()])
            expected = d if u == v else 0.0
            assert abs(inner - expected) < 1e-12

    def test_composition_exponent_fit_d3(self):
        # Fit the integer exponent k in w(v1) w(v2) = omega^k w(v1 + v2) on
        # every pair at d = 3 and check it reproduces 2^-1 sigma(v1, v2).
        dim = PrimeDim(3)
        d, h = 3, half(dim)
        for v1, v2 in itertools.product(dim.all_points(), repeat=2):
            prod = weyl(v1).mat @ weyl(v2).mat
            ratio = np.trace(weyl(v1 + v2).mat.conj().T @ prod) / d
            assert abs(abs(ratio) - 1.0) < 1e-12
            k_emp = round(cmath.phase(ratio) / (2 * cmath.pi / d)) % d
            assert k_emp == (h * symplectic_form(v1, v2)) % d

    @pytest.mark.parametrize("dim", [PrimeDim(5), PrimeDim(7)])
    def test_composition_law(self, dim):
        d = dim.d
        h = half(dim)
        table = omega_table(d)
        for v1, v2 in itertools.product(dim.all_points(), repeat=2):
            lhs = weyl(v1).mat @ weyl(v2).mat
            phase = table[(h * symplectic_form(v1, v2)) % d]
            assert np.allclose(lhs, phase * weyl(v1 + v2).mat, atol=1e-12)


class TestDenseOperator:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            DenseOperator(PrimeDim(3), np.zeros((2, 2)))

    def test_adjoint(self):
        dim = PrimeDim(3)
        op = DenseOperator(dim, np.array([[0, 1j, 0], [0, 0, 0], [0, 0, 0]]))
        assert op.adjoint.mat[1, 0] == -1j

    def test_dim_mismatch(self):
        a = DenseOperator(PrimeDim(3), np.eye(3))
        b = DenseOperator(PrimeDim(5), np.eye(5))
        with pytest.raises(ValueError):
            _ = a @ b


class TestProjector:
    def test_basis_projector(self):
        dim = PrimeDim(3)
        proj = projector(StateVector.basis(dim, 1)).mat
        expected = np.zeros((3, 3), dtype=complex)
        expected[1, 1] = 1.0
        assert np.array_equal(proj, expected)

    @pytest.mark.parametrize("dim", DIMS)
    def test_idempotent_hermitian_unit_trace(self, dim):
        rho = projector(haar_random_state(dim, 33)).mat
        assert np.allclose(rho @ rho, rho, atol=1e-14)
        assert np.allclose(rho, rho.conj().T, atol=1e-15)
        assert abs(np.trace(rho) - 1.0) < 1e-14


class TestHaarRandomState:
    def test_deterministic(self):
        dim = PrimeDim(7)
        a = haar_random_state(dim, 42)
        b = haar_random_state(dim, 42)
        assert np.array_equal(a.amp, b.amp)

    def test_seed_sensitivity(self):
        dim = PrimeDim(7)
        a = haar_random_state(dim, 42)
        b = haar_random_state(dim, 43)
        assert abs(a.overlap(b)) < 1.0 - 1e-6

    @pytest.mark.parametrize("dim", DIMS)
    def test_first_component_mean(self, dim):
        # E|amp_0|^2 = 1/d with Var = (d-1)/(d^2 (d+1)); check within 5 SE.
        d = dim.d
        n = 4000
        vals = [abs(haar_random_state(dim, s).amp[0]) ** 2 for s in range(n)]
        se = np.sqrt((d - 1) / (d * d * (d + 1)) / n)
        assert abs(np.mean(vals) - 1.0 / d) < 5 * se
