"""Tests for the metaplectic representation and stabilizer states."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasespace import (
    PrimeDim,
    StateVector,
    SymplecticMatrix,
    cli,
    haar_sample,
    half,
    metaplectic,
    omega_table,
    sl2_enumerate,
    stabilizer_overlaps,
    stabilizer_rows,
    weyl,
)
from phasespace.hudson import STABILIZER_MATCH_TOL

from oracles import (DIMS, PRIMES_TO_101, act, all_points, compose, projective_equal, stabilizer_blocks,
                     stabilizer_stack)

LARGE_PRIMES = [p for p in range(11, 102) if all(p % f for f in range(2, p))]


class TestMetaplectic:
    def test_identity_maps_to_identity(self):
        dim = PrimeDim(5)
        assert np.array_equal(metaplectic(SymplecticMatrix(dim, 1, 0, 0, 1)).mat, np.eye(5))

    @pytest.mark.parametrize("dim", [PrimeDim(3), PrimeDim(5)])
    def test_unitary(self, dim):
        for S in sl2_enumerate(dim):
            u = metaplectic(S).mat
            assert np.allclose(u.conj().T @ u, np.eye(dim.d), atol=1e-13)

    @pytest.mark.parametrize("dim", DIMS)
    def test_fourier_image_is_flat(self, dim):
        u = metaplectic(SymplecticMatrix(dim, 0, -1, 1, 0)).mat
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
            for v in all_points(dim):
                lhs = u @ weyl(dim, *v).mat @ u.conj().T
                rhs = weyl(dim, *act(S, v)).mat
                assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_conjugation_identity_sampled_d7(self):
        dim = PrimeDim(7)
        for S in sl2_enumerate(dim)[::8]:
            u = metaplectic(S).mat
            for v in all_points(dim):
                lhs = u @ weyl(dim, *v).mat @ u.conj().T
                rhs = weyl(dim, *act(S, v)).mat
                assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_projective_homomorphism_all_pairs_d3(self):
        dim = PrimeDim(3)
        mats = sl2_enumerate(dim)
        for S, T in itertools.product(mats, repeat=2):
            assert projective_equal(metaplectic(S).mat @ metaplectic(T).mat, metaplectic(compose(S, T)).mat)

    @pytest.mark.parametrize("dim", [PrimeDim(5), PrimeDim(7)])
    def test_projective_homomorphism_random_pairs(self, dim):
        mats = sl2_enumerate(dim)
        rng = np.random.default_rng(99)
        for _ in range(200):
            i, j = rng.integers(0, len(mats), size=2)
            S, T = mats[i], mats[j]
            assert projective_equal(metaplectic(S).mat @ metaplectic(T).mat, metaplectic(compose(S, T)).mat)

    @given(st.data())
    @settings(deadline=None)
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
            for v in points:
                lhs = u @ weyl(dim, *v).mat @ u.conj().T
                assert np.max(np.abs(lhs - weyl(dim, *act(S, v)).mat)) <= 1e-10


class TestProjectiveEqual:
    def test_exact_equality(self):
        u = metaplectic(SymplecticMatrix(PrimeDim(3), 0, -1, 1, 0)).mat
        assert projective_equal(u, u)

    def test_phase_multiple(self):
        u = metaplectic(SymplecticMatrix(PrimeDim(3), 0, -1, 1, 0)).mat
        assert projective_equal(u, omega_table(3)[1] * u)

    def test_distinct_unitaries(self):
        assert not projective_equal(np.eye(3), weyl(PrimeDim(3), 0, 1).mat)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            projective_equal(np.eye(3), np.eye(5))


class TestCliffordElement:
    """Clifford group elements as products w(u) mu(S) of the two unitaries."""

    def test_identity_element(self):
        dim = PrimeDim(3)
        g = weyl(dim, 0, 0).mat @ metaplectic(SymplecticMatrix(dim, 1, 0, 0, 1)).mat
        assert np.array_equal(g, np.eye(3))

    def test_pure_shift_action(self):
        dim = PrimeDim(5)
        g = weyl(dim, 0, 1).mat @ metaplectic(SymplecticMatrix(dim, 1, 0, 0, 1)).mat
        out = StateVector.normalized(dim, g @ StateVector.basis(dim, 0).amp)
        assert abs(np.vdot(out.amp, StateVector.basis(dim, 1).amp)) > 1 - 1e-12

    @pytest.mark.parametrize("dim", [PrimeDim(3), PrimeDim(5)])
    def test_compose_matches_unitary_product(self, dim):
        # group law: (u, S) (v, T) = (u + S v, S T), up to global phase
        rng = np.random.default_rng(17)
        mats = sl2_enumerate(dim)
        for _ in range(20):
            i, j = rng.integers(0, len(mats), size=2)
            u = (int(rng.integers(dim.d)), int(rng.integers(dim.d)))
            v = (int(rng.integers(dim.d)), int(rng.integers(dim.d)))
            g = weyl(dim, *u).mat @ metaplectic(mats[i]).mat
            h = weyl(dim, *v).mat @ metaplectic(mats[j]).mat
            sv = act(mats[i], v)
            gh = weyl(dim, u[0] + sv[0], u[1] + sv[1]).mat @ metaplectic(compose(mats[i], mats[j])).mat
            assert projective_equal(g @ h, gh)

    def test_conjugation_up_to_phase(self):
        dim = PrimeDim(5)
        rng = np.random.default_rng(18)
        mats = sl2_enumerate(dim)
        for _ in range(10):
            S = mats[int(rng.integers(len(mats)))]
            g = weyl(dim, int(rng.integers(5)), int(rng.integers(5))).mat @ metaplectic(S).mat
            for v in [(1, 0), (0, 1), (2, 3)]:
                lhs = g @ weyl(dim, *v).mat @ g.conj().T
                assert projective_equal(lhs, weyl(dim, *act(S, v)).mat)


def _family(dim):
    """The d(d+1) stabilizer states as one stack of amplitude rows."""
    return stabilizer_rows(dim.d, range(dim.d * (dim.d + 1)))


def _matches(amps, tol=STABILIZER_MATCH_TOL):
    """Per row of an (n, d) block: its largest stabilizer overlap is >= 1 - tol."""
    amps = np.asarray(amps)
    return stabilizer_overlaps(amps) >= 1.0 - tol


class TestStabilizerStates:
    def test_uniform_state(self):
        dim = PrimeDim(5)
        s = _family(dim)[dim.d]  # (theta, x) = (0, 0)
        assert np.allclose(s, np.full(5, 1 / np.sqrt(5)), atol=1e-15)

    def test_quadratic_example_d3(self):
        # theta = 1, x = 0: amplitudes (1, omega, omega) / sqrt(3).
        dim = PrimeDim(3)
        w = omega_table(3)
        s = _family(dim)[dim.d + 1 * dim.d + 0]
        expected = np.array([1.0, w[1], w[1]]) / np.sqrt(3)
        assert np.allclose(s, expected, atol=1e-15)

    def test_linear_example_d3(self):
        # theta = 0, x = 1: amplitudes (1, omega, omega^2) / sqrt(3).
        dim = PrimeDim(3)
        w = omega_table(3)
        s = _family(dim)[dim.d + 0 * dim.d + 1]
        expected = np.array([1.0, w[1], w[2]]) / np.sqrt(3)
        assert np.allclose(s, expected, atol=1e-15)

    @pytest.mark.parametrize(
        "dim,count", [(PrimeDim(3), 12), (PrimeDim(5), 30), (PrimeDim(7), 56)]
    )
    def test_counts(self, dim, count):
        assert len(_family(dim)) == count
        assert count == dim.d * (dim.d + 1)

    @pytest.mark.parametrize("dim", [PrimeDim(p) for p in PRIMES_TO_101])
    def test_descriptors_align(self, dim):
        # every index of stabilizer_rows against the closed form of the
        # descriptor the stabilizers command lists for it, the exponent
        # reduced mod d: |i> for i < d, else (theta, x) = divmod(i - d, d)
        d = dim.d
        states = _family(dim)
        doc, _ = cli.run_stabilizers(cli.build_parser().parse_args(["stabilizers", "--d", str(d)]))
        descs = doc["states"]
        assert len(states) == len(descs) == d * (d + 1)
        q = np.arange(d)
        for i, (amp, desc) in enumerate(zip(states, descs)):
            theta, x = divmod(i - d, d)
            if i < d:
                assert desc == {"kind": "basis", "k": i}
                expected = np.eye(d)[i]
            else:
                assert desc == {"kind": "quadratic", "theta": theta, "x": x}
                expected = np.exp(2j * np.pi * ((theta * q * q + x * q) % d) / d) / np.sqrt(d)
            assert np.abs(amp - expected).max() <= 1e-15

    @pytest.mark.parametrize("dim", DIMS)
    def test_pairwise_projectively_distinct(self, dim):
        stack = _family(dim)
        gram = np.abs(stack.conj() @ stack.T)
        np.fill_diagonal(gram, 0.0)
        assert gram.max() < 0.8

    @pytest.mark.parametrize("dim", DIMS)
    def test_quadratic_states_have_flat_modulus(self, dim):
        assert np.allclose(np.abs(_family(dim)[dim.d :]), 1 / np.sqrt(dim.d), atol=1e-15)


def _orbit_of_basis0(dim):
    """Closure of |0> under two Weyl shifts and two metaplectic generators."""
    gens = [
        metaplectic(SymplecticMatrix(dim, 0, -1, 1, 0)).mat,
        metaplectic(SymplecticMatrix(dim, 1, 0, 1, 1)).mat,
        weyl(dim, 1, 0).mat,
        weyl(dim, 0, 1).mat,
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
        states = _family(dim)
        assert len(orbit) == len(states)
        for amp in states:
            assert any(abs(np.vdot(o, amp)) >= 1 - 1e-9 for o in orbit)
        assert _matches(orbit).all()

    @pytest.mark.parametrize("dim", [PrimeDim(3), PrimeDim(5)])
    def test_closure_under_generators(self, dim):
        gens = [
            metaplectic(SymplecticMatrix(dim, 0, -1, 1, 0)).mat,
            metaplectic(SymplecticMatrix(dim, 1, 0, 1, 1)).mat,
            metaplectic(SymplecticMatrix(dim, 2, 0, 0, half(dim))).mat,
            weyl(dim, 1, 0).mat,
            weyl(dim, 0, 1).mat,
        ]
        for g in gens:
            images = _family(dim) @ g.T  # row i is g applied to state i
            assert np.allclose(np.linalg.norm(images, axis=1), 1.0, atol=1e-14)
            assert _matches(images).all()


class TestIsStabilizer:
    """The stabilizer match: a stabilizer_overlaps value of at least 1 - tol."""

    @pytest.mark.parametrize("dim", DIMS)
    def test_true_on_enumerated_states(self, dim):
        states = _family(dim)
        assert _matches(states).all()
        assert _matches(omega_table(dim.d)[1] * states).all()

    @pytest.mark.parametrize("dim", DIMS)
    def test_false_on_random_states(self, dim):
        amps = [haar_sample(dim, 1000 + seed, 0).amp for seed in range(5)]
        assert not _matches(amps).any()

    def test_tolerance_semantics(self):
        dim = PrimeDim(5)
        base = _family(dim)[7]
        rng = np.random.default_rng(3)
        noise = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        perturbed = StateVector.normalized(dim, base + 1e-3 * noise).amp[None]
        assert not _matches(perturbed, tol=1e-9)[0]
        assert _matches(perturbed, tol=1e-4)[0]


def _stack_overlap(stack, amp):
    return float(np.abs(stack.conj() @ amp).max())


class TestStabilizerMatchAgainstStack:
    """stabilizer_overlaps (chirp + DFT) against the explicit d(d+1)-row stack."""

    @staticmethod
    def _cases(dim):
        """Every stabilizer with its Weyl and Clifford images, Haar states,
        and last a stabilizer perturbed by 1e-3."""
        d = dim.d
        states = list(_family(dim))
        gens = [metaplectic(SymplecticMatrix(dim, 0, -1, 1, 0)).mat,
                metaplectic(SymplecticMatrix(dim, 1, 0, 1, 1)).mat,
                metaplectic(SymplecticMatrix(dim, 2, 0, 0, half(dim))).mat]
        cases = list(states)
        for amp in states:
            cases += [weyl(dim, *v).mat @ amp for v in all_points(dim)]
            cases += [g @ amp for g in gens]
        cases += [haar_sample(dim, 5000 + s, 0).amp for s in range(20)]
        rng = np.random.default_rng(3)
        noise = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        cases.append(states[-1] + 1e-3 * noise)
        return [amp / np.linalg.norm(amp) for amp in cases]

    @pytest.mark.parametrize("dim", DIMS)
    def test_overlaps_and_predicate_match_stack(self, dim):
        stack = stabilizer_stack(dim.d)
        cases = self._cases(dim)
        overlaps = stabilizer_overlaps(np.array(cases))
        want = np.array([_stack_overlap(stack, amp) for amp in cases])
        assert np.max(np.abs(overlaps - want)) <= 1e-12
        for tol in (STABILIZER_MATCH_TOL, 1e-4):
            assert np.array_equal(_matches(cases, tol), want >= 1.0 - tol)

    @pytest.mark.parametrize("dim", DIMS)
    def test_perturbed_state_separates_the_tolerances(self, dim):
        amp = self._cases(dim)[-1]
        want = _stack_overlap(stabilizer_stack(dim.d), amp)
        assert 1.0 - 1e-4 <= want < 1.0 - STABILIZER_MATCH_TOL
        assert not _matches([amp])[0]
        assert _matches([amp], tol=1e-4)[0]

    # every index against two more constructions, which verify_hudson leaves
    # to this test: it asks for two rows. The gather of the d + 1 blocks
    # stabilizer_rows replaced must give the same bits, compared as uint64
    @pytest.mark.parametrize("dim", [PrimeDim(p) for p in PRIMES_TO_101])
    def test_blocks_follow_the_enumeration(self, dim):
        d = dim.d
        rows = stabilizer_rows(d, range(d * (d + 1)))
        assert rows.shape == (d * (d + 1), d) and rows.dtype == complex
        assert np.array_equal(rows.view(np.uint64), np.concatenate(stabilizer_blocks(d)).view(np.uint64))
        assert np.max(np.abs(rows - stabilizer_stack(d))) < 1e-12
        # any index set, in any order and with repeats, gives those rows
        picked = np.random.default_rng(d).integers(0, d * (d + 1), 2 * d)
        assert np.array_equal(stabilizer_rows(d, picked.tolist()).view(np.uint64), rows[picked].view(np.uint64))

    @pytest.mark.parametrize("indices", [[-1], [0, 12], [12], [3, -5, 1], [2**70]])
    def test_index_out_of_range_raises(self, indices):
        with pytest.raises(ValueError, match=r"stabilizer indices must lie in \[0, 12\)"):
            stabilizer_rows(3, indices)

    def test_no_index_gives_no_rows(self):
        assert stabilizer_rows(5, []).shape == (0, 5)
