"""Tests for the metaplectic representation and stabilizer states."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phasespace import (
    DenseOperator,
    PrimeDim,
    StateVector,
    SymplecticMatrix,
    clifford_apply,
    clifford_element,
    compose,
    enumerate_stabilizers,
    haar_random_state,
    is_stabilizer,
    metaplectic,
    omega_table,
    projective_equal,
    sl2_apply,
    sl2_enumerate,
    stabilizer_descriptors,
    stabilizer_from_quadratic,
    weyl,
)
from phasespace.clifford import stabilizer_blocks, stabilizer_overlaps
from phasespace.qudit import dft_matrix

DIMS = [PrimeDim(3), PrimeDim(5), PrimeDim(7)]
LARGE_PRIMES = [p for p in range(11, 102) if all(p % f for f in range(2, p))]


class TestMetaplectic:
    def test_identity_maps_to_identity(self):
        dim = PrimeDim(5)
        assert np.array_equal(metaplectic(SymplecticMatrix.identity(dim)).mat, np.eye(5))

    @pytest.mark.parametrize("dim", [PrimeDim(3), PrimeDim(5)])
    def test_unitary(self, dim):
        for S in sl2_enumerate(dim):
            u = metaplectic(S).mat
            assert np.allclose(u.conj().T @ u, np.eye(dim.d), atol=1e-13)

    @pytest.mark.parametrize("dim", DIMS)
    def test_fourier_image_is_flat(self, dim):
        u = metaplectic(SymplecticMatrix.fourier(dim)).mat
        assert np.allclose(np.abs(u), 1.0 / np.sqrt(dim.d), atol=1e-14)
        # and it is the unitary DFT, entries d^(-1/2) omega^(-jk)
        assert np.max(np.abs(u - np.fft.fft(np.eye(dim.d)) / np.sqrt(dim.d))) <= 1e-14

    def test_phase_convention(self):
        # First nonzero entry (row-major) is real and positive.
        dim = PrimeDim(5)
        for S in sl2_enumerate(dim):
            flat = metaplectic(S).mat.ravel()
            pivot = flat[np.argmax(np.abs(flat) > 1e-9)]
            assert abs(pivot.imag) < 1e-12
            assert pivot.real > 0

    def test_deterministic(self):
        dim = PrimeDim(7)
        S = SymplecticMatrix(dim, 2, 3, 1, 2)
        assert np.array_equal(metaplectic(S).mat, metaplectic(S).mat)

    @pytest.mark.parametrize("dim", [PrimeDim(3), PrimeDim(5)])
    def test_conjugation_identity_exhaustive(self, dim):
        for S in sl2_enumerate(dim):
            u = metaplectic(S).mat
            for v in dim.all_points():
                lhs = u @ weyl(v).mat @ u.conj().T
                rhs = weyl(sl2_apply(S, v)).mat
                assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_conjugation_identity_sampled_d7(self):
        dim = PrimeDim(7)
        for S in sl2_enumerate(dim)[::8]:
            u = metaplectic(S).mat
            for v in dim.all_points():
                lhs = u @ weyl(v).mat @ u.conj().T
                rhs = weyl(sl2_apply(S, v)).mat
                assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_projective_homomorphism_all_pairs_d3(self):
        dim = PrimeDim(3)
        mats = sl2_enumerate(dim)
        for S, T in itertools.product(mats, repeat=2):
            assert projective_equal(metaplectic(S) @ metaplectic(T), metaplectic(S @ T))

    @pytest.mark.parametrize("dim", [PrimeDim(5), PrimeDim(7)])
    def test_projective_homomorphism_random_pairs(self, dim):
        mats = sl2_enumerate(dim)
        rng = np.random.default_rng(99)
        for _ in range(200):
            i, j = rng.integers(0, len(mats), size=2)
            S, T = mats[i], mats[j]
            assert projective_equal(metaplectic(S) @ metaplectic(T), metaplectic(S @ T))

    @given(st.data())
    def test_properties_at_large_primes(self, data):
        d = data.draw(st.sampled_from(LARGE_PRIMES))
        dim = PrimeDim(d)
        unit = st.integers(min_value=1, max_value=d - 1)
        residue = st.integers(min_value=0, max_value=d - 1)
        a, b, c = data.draw(unit), data.draw(residue), data.draw(unit)
        a2 = data.draw(residue)
        if a2:
            b2, e2 = b, pow(a2, -1, d) * (1 + b * c)
        else:
            b2, e2 = -pow(c, -1, d), data.draw(residue)
        # one element from each branch of the closed form: c = 0 and c != 0
        lower = SymplecticMatrix(dim, a, b, 0, pow(a, -1, d))
        dense = SymplecticMatrix(dim, a2, b2, c, e2)
        points = data.draw(st.lists(st.tuples(residue, residue), min_size=1, max_size=3))
        for S in (lower, dense):
            u = metaplectic(S).mat
            assert np.allclose(u.conj().T @ u, np.eye(d), atol=1e-12)
            flat = u.ravel()
            pivot = flat[np.argmax(np.abs(flat) > 1e-9)]
            assert pivot.imag == 0.0 and pivot.real > 0
            for p, q in points:
                v = dim.point(p, q)
                lhs = u @ weyl(v).mat @ u.conj().T
                assert np.max(np.abs(lhs - weyl(sl2_apply(S, v)).mat)) <= 1e-10


class TestProjectiveEqual:
    def test_exact_equality(self):
        dim = PrimeDim(3)
        u = metaplectic(SymplecticMatrix.fourier(dim))
        assert projective_equal(u, u)

    def test_phase_multiple(self):
        dim = PrimeDim(3)
        u = metaplectic(SymplecticMatrix.fourier(dim))
        v = DenseOperator(dim, omega_table(3)[1] * u.mat)
        assert projective_equal(u, v)

    def test_distinct_unitaries(self):
        dim = PrimeDim(3)
        ident = DenseOperator(dim, np.eye(3))
        assert not projective_equal(ident, weyl(dim.point(0, 1)))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            projective_equal(
                DenseOperator(PrimeDim(3), np.eye(3)), DenseOperator(PrimeDim(5), np.eye(5))
            )


class TestCliffordElement:
    def test_identity_element(self):
        dim = PrimeDim(3)
        g = clifford_element(dim.point(0, 0), SymplecticMatrix.identity(dim))
        assert np.array_equal(g.unitary.mat, np.eye(3))

    def test_pure_shift_action(self):
        dim = PrimeDim(5)
        g = clifford_element(dim.point(0, 1), SymplecticMatrix.identity(dim))
        out = clifford_apply(g, StateVector.basis(dim, 0))
        assert abs(out.overlap(StateVector.basis(dim, 1))) > 1 - 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            clifford_element(PrimeDim(3).point(0, 0), SymplecticMatrix.identity(PrimeDim(5)))
        g = clifford_element(PrimeDim(3).point(0, 0), SymplecticMatrix.identity(PrimeDim(3)))
        with pytest.raises(ValueError):
            clifford_apply(g, StateVector.basis(PrimeDim(5), 0))

    @pytest.mark.parametrize("dim", [PrimeDim(3), PrimeDim(5)])
    def test_compose_matches_unitary_product(self, dim):
        rng = np.random.default_rng(17)
        mats = sl2_enumerate(dim)
        for _ in range(20):
            i, j = rng.integers(0, len(mats), size=2)
            u = dim.point(int(rng.integers(dim.d)), int(rng.integers(dim.d)))
            v = dim.point(int(rng.integers(dim.d)), int(rng.integers(dim.d)))
            g = clifford_element(u, mats[i])
            h = clifford_element(v, mats[j])
            assert projective_equal(g.unitary @ h.unitary, compose(g, h).unitary)

    def test_conjugation_up_to_phase(self):
        dim = PrimeDim(5)
        rng = np.random.default_rng(18)
        mats = sl2_enumerate(dim)
        for _ in range(10):
            g = clifford_element(
                dim.point(int(rng.integers(5)), int(rng.integers(5))),
                mats[int(rng.integers(len(mats)))],
            )
            for v in [dim.point(1, 0), dim.point(0, 1), dim.point(2, 3)]:
                lhs = g.unitary @ weyl(v) @ g.unitary.adjoint
                rhs = weyl(sl2_apply(g.symp, v))
                assert projective_equal(lhs, rhs)


class TestStabilizerStates:
    def test_uniform_state(self):
        dim = PrimeDim(5)
        s = stabilizer_from_quadratic(dim, 0, 0)
        assert np.allclose(s.amp, np.full(5, 1 / np.sqrt(5)), atol=1e-15)

    def test_quadratic_example_d3(self):
        # theta = 1, x = 0: amplitudes (1, omega, omega) / sqrt(3).
        dim = PrimeDim(3)
        w = omega_table(3)
        s = stabilizer_from_quadratic(dim, 1, 0)
        expected = np.array([1.0, w[1], w[1]]) / np.sqrt(3)
        assert np.allclose(s.amp, expected, atol=1e-15)

    def test_linear_example_d3(self):
        # theta = 0, x = 1: amplitudes (1, omega, omega^2) / sqrt(3).
        dim = PrimeDim(3)
        w = omega_table(3)
        s = stabilizer_from_quadratic(dim, 0, 1)
        expected = np.array([1.0, w[1], w[2]]) / np.sqrt(3)
        assert np.allclose(s.amp, expected, atol=1e-15)

    @pytest.mark.parametrize(
        "dim,count", [(PrimeDim(3), 12), (PrimeDim(5), 30), (PrimeDim(7), 56)]
    )
    def test_counts(self, dim, count):
        states = enumerate_stabilizers(dim)
        assert len(states) == count
        assert count == dim.d * (dim.d + 1)

    @pytest.mark.parametrize("dim", DIMS)
    def test_descriptors_align(self, dim):
        states = enumerate_stabilizers(dim)
        descs = stabilizer_descriptors(dim)
        assert len(states) == len(descs)
        for state, desc in zip(states, descs):
            if desc["kind"] == "basis":
                assert state.amp[desc["k"]] == 1.0
            else:
                rebuilt = stabilizer_from_quadratic(dim, desc["theta"], desc["x"])
                assert np.array_equal(state.amp, rebuilt.amp)

    @pytest.mark.parametrize("dim", DIMS)
    def test_pairwise_projectively_distinct(self, dim):
        states = enumerate_stabilizers(dim)
        stack = np.stack([s.amp for s in states])
        gram = np.abs(stack.conj() @ stack.T)
        np.fill_diagonal(gram, 0.0)
        assert gram.max() < 0.8

    @pytest.mark.parametrize("dim", DIMS)
    def test_quadratic_states_have_flat_modulus(self, dim):
        for state in enumerate_stabilizers(dim)[dim.d :]:
            assert np.allclose(np.abs(state.amp), 1 / np.sqrt(dim.d), atol=1e-15)


def _orbit_of_basis0(dim):
    """Closure of |0> under two Weyl shifts and two metaplectic generators."""
    gens = [
        metaplectic(SymplecticMatrix.fourier(dim)).mat,
        metaplectic(SymplecticMatrix.chirp(dim, 1)).mat,
        weyl(dim.point(1, 0)).mat,
        weyl(dim.point(0, 1)).mat,
    ]
    orbit = [StateVector.basis(dim, 0).amp]
    frontier = list(orbit)
    while frontier:
        fresh = []
        for amp in frontier:
            for g in gens:
                cand = g @ amp
                if all(abs(np.vdot(o, cand)) < 1 - 1e-9 for o in orbit):
                    orbit.append(cand)
                    fresh.append(cand)
        frontier = fresh
    return orbit


class TestStabilizerOrbit:
    @pytest.mark.parametrize("dim", DIMS)
    def test_orbit_equals_enumeration(self, dim):
        orbit = _orbit_of_basis0(dim)
        states = enumerate_stabilizers(dim)
        assert len(orbit) == len(states)
        for state in states:
            assert any(abs(np.vdot(amp, state.amp)) >= 1 - 1e-9 for amp in orbit)
        for amp in orbit:
            assert is_stabilizer(StateVector.normalized(dim, amp))

    @pytest.mark.parametrize("dim", [PrimeDim(3), PrimeDim(5)])
    def test_closure_under_generators(self, dim):
        gens = [
            metaplectic(SymplecticMatrix.fourier(dim)).mat,
            metaplectic(SymplecticMatrix.chirp(dim, 1)).mat,
            metaplectic(SymplecticMatrix.scaling(dim, 2)).mat,
            weyl(dim.point(1, 0)).mat,
            weyl(dim.point(0, 1)).mat,
        ]
        for state in enumerate_stabilizers(dim):
            for g in gens:
                image = StateVector.normalized(dim, g @ state.amp)
                assert is_stabilizer(image)


class TestIsStabilizer:
    @pytest.mark.parametrize("dim", DIMS)
    def test_true_on_enumerated_states(self, dim):
        w = omega_table(dim.d)
        for state in enumerate_stabilizers(dim):
            assert is_stabilizer(state)
            rotated = StateVector(dim, w[1] * state.amp)
            assert is_stabilizer(rotated)

    @pytest.mark.parametrize("dim", DIMS)
    def test_false_on_random_states(self, dim):
        for seed in range(5):
            assert not is_stabilizer(haar_random_state(dim, 1000 + seed))

    def test_tolerance_semantics(self):
        dim = PrimeDim(5)
        base = enumerate_stabilizers(dim)[7]
        rng = np.random.default_rng(3)
        noise = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        perturbed = StateVector.normalized(dim, base.amp + 1e-3 * noise)
        assert not is_stabilizer(perturbed, tol=1e-9)
        assert is_stabilizer(perturbed, tol=1e-4)


def _stabilizer_stack(d):
    """All d(d+1) stabilizer states as explicit rows: basis states, then
    d^(-1/2) exp(2 pi i (theta q^2 + x q) / d) in (theta, x) order."""
    q = np.arange(d)
    rows = [np.eye(d)[k] for k in range(d)]
    for theta in range(d):
        for x in range(d):
            rows.append(np.exp(2j * np.pi * (theta * q * q + x * q) / d) / np.sqrt(d))
    return np.array(rows)


def _stack_overlap(stack, amp):
    return float(np.abs(stack.conj() @ amp).max())


class TestStabilizerMatchAgainstStack:
    """is_stabilizer (chirp + DFT) against the explicit d(d+1)-row stack."""

    @staticmethod
    def _cases(dim):
        """Every stabilizer with its Weyl and Clifford images, Haar states,
        and last a stabilizer perturbed by 1e-3."""
        d = dim.d
        states = [s.amp for s in enumerate_stabilizers(dim)]
        gens = [metaplectic(SymplecticMatrix.fourier(dim)).mat,
                metaplectic(SymplecticMatrix.chirp(dim, 1)).mat,
                metaplectic(SymplecticMatrix.scaling(dim, 2)).mat]
        cases = list(states)
        for amp in states:
            cases += [weyl(v).mat @ amp for v in dim.all_points()]
            cases += [g @ amp for g in gens]
        cases += [haar_random_state(dim, 5000 + s).amp for s in range(20)]
        rng = np.random.default_rng(3)
        noise = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        cases.append(states[-1] + 1e-3 * noise)
        return [amp / np.linalg.norm(amp) for amp in cases]

    @pytest.mark.parametrize("dim", DIMS)
    def test_overlaps_and_predicate_match_stack(self, dim):
        stack = _stabilizer_stack(dim.d)
        cases = self._cases(dim)
        overlaps = stabilizer_overlaps(np.array(cases), dft_matrix(dim.d))
        for amp, got in zip(cases, overlaps):
            want = _stack_overlap(stack, amp)
            assert abs(got - want) <= 1e-12
            psi = StateVector(dim, amp)
            for tol in (1e-9, 1e-4):
                assert is_stabilizer(psi, tol) == (want >= 1.0 - tol)

    @pytest.mark.parametrize("dim", DIMS)
    def test_perturbed_state_separates_the_tolerances(self, dim):
        amp = self._cases(dim)[-1]
        want = _stack_overlap(_stabilizer_stack(dim.d), amp)
        assert 1.0 - 1e-4 <= want < 1.0 - 1e-9
        psi = StateVector(dim, amp)
        assert not is_stabilizer(psi, tol=1e-9)
        assert is_stabilizer(psi, tol=1e-4)

    @pytest.mark.parametrize("dim", DIMS)
    def test_blocks_follow_the_enumeration(self, dim):
        rows = np.concatenate(list(stabilizer_blocks(dim.d)))
        assert np.array_equal(rows, np.array([s.amp for s in enumerate_stabilizers(dim)]))
        assert np.max(np.abs(rows - _stabilizer_stack(dim.d))) < 1e-12
