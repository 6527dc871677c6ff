"""Tests for cyclic Fourier analysis and the two positivity predicates."""

import numpy as np
import pytest

from phasespace import (
    CyclicFunction,
    PrimeDim,
    has_nonneg_fourier,
    omega_table,
)

from oracles import DIMS, autocorrelation, circulant, fourier, has_constant_modulus_fourier, inverse_fourier


def _delta(dim, k):
    vals = np.zeros(dim.d, dtype=complex)
    vals[k % dim.d] = 1.0
    return CyclicFunction(dim, vals)


def _random_function(dim, seed):
    rng = np.random.default_rng(seed)
    return CyclicFunction(
        dim, rng.standard_normal(dim.d) + 1j * rng.standard_normal(dim.d)
    )


def _hermitian_symmetrized(dim, seed):
    """Random f with f(-q) = conj(f(q)), so its transform is real."""
    v = _random_function(dim, seed).values
    sym = (v + v[(-np.arange(dim.d)) % dim.d].conj()) / 2
    return CyclicFunction(dim, sym)


def _nonneg_spectrum_function(dim, seed):
    """f synthesized from a nonnegative transform, so fhat >= 0 by design."""
    rng = np.random.default_rng(seed)
    return inverse_fourier(CyclicFunction(dim, rng.uniform(0.0, 1.0, dim.d)))


class TestFourier:
    @pytest.mark.parametrize("dim", DIMS)
    def test_delta_at_zero_is_flat(self, dim):
        fhat = fourier(_delta(dim, 0)).values
        assert np.allclose(fhat, 1.0 / dim.d, atol=1e-15)

    @pytest.mark.parametrize("dim", DIMS)
    def test_constant_is_delta_at_zero(self, dim):
        fhat = fourier(CyclicFunction(dim, np.ones(dim.d))).values
        expected = np.zeros(dim.d)
        expected[0] = 1.0
        assert np.allclose(fhat, expected, atol=1e-14)

    @pytest.mark.parametrize("dim", DIMS)
    def test_modulation_shifts_the_transform(self, dim):
        # f(q) = omega^(m q) concentrates the transform at x = m.
        d = dim.d
        table = omega_table(d)
        for m in range(d):
            f = CyclicFunction(dim, table[(m * np.arange(d)) % d])
            fhat = fourier(f).values
            expected = np.zeros(d)
            expected[m] = 1.0
            assert np.allclose(fhat, expected, atol=1e-14)

    @pytest.mark.parametrize("dim", DIMS)
    def test_inverse_round_trip(self, dim):
        f = _random_function(dim, 5)
        back = inverse_fourier(fourier(f)).values
        assert np.max(np.abs(back - f.values)) < 1e-13
        fwd = fourier(inverse_fourier(f)).values
        assert np.max(np.abs(fwd - f.values)) < 1e-13

    @pytest.mark.parametrize("dim", DIMS)
    def test_parseval(self, dim):
        f = _random_function(dim, 6)
        fhat = fourier(f).values
        assert abs(np.sum(np.abs(fhat) ** 2) - np.sum(np.abs(f.values) ** 2) / dim.d) < 1e-12

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            CyclicFunction(PrimeDim(3), np.zeros(4))


class TestCirculant:
    def test_delta_gives_identity(self):
        dim = PrimeDim(5)
        assert np.array_equal(circulant(_delta(dim, 0)).mat, np.eye(5))

    def test_constant_gives_all_ones(self):
        dim = PrimeDim(3)
        assert np.array_equal(circulant(CyclicFunction(dim, np.ones(3))).mat, np.ones((3, 3)))

    @pytest.mark.parametrize("dim", DIMS)
    def test_entry_structure(self, dim):
        f = _random_function(dim, 7)
        mat = circulant(f).mat
        for x in range(dim.d):
            for q in range(dim.d):
                assert mat[x, q] == f.values[(x - q) % dim.d]

    @pytest.mark.parametrize("dim", DIMS)
    def test_hermitian_iff_symmetric_function(self, dim):
        sym = _hermitian_symmetrized(dim, 8)
        mat = circulant(sym).mat
        assert np.allclose(mat, mat.conj().T, atol=1e-15)

    def test_eigenvalue_factor_fit_d3(self):
        # Fit the constant relating circulant eigenvalues to the transform:
        # sorted eigenvalues == sorted (factor * fhat), and the factor is d.
        dim = PrimeDim(3)
        f = _hermitian_symmetrized(dim, 9)
        eigs = np.sort(np.linalg.eigvalsh(circulant(f).mat))
        fhat = np.sort(fourier(f).values.real)
        ratios = eigs / fhat
        assert np.allclose(ratios, 3.0, atol=1e-9)

    @pytest.mark.parametrize("dim", DIMS)
    def test_eigenvalues_are_scaled_transform(self, dim):
        f = _hermitian_symmetrized(dim, 10)
        eigs = np.sort(np.linalg.eigvalsh(circulant(f).mat))
        expected = np.sort(dim.d * fourier(f).values.real)
        assert np.allclose(eigs, expected, atol=1e-9)


class TestAutocorrelation:
    @pytest.mark.parametrize("dim", DIMS)
    def test_zero_lag_is_energy(self, dim):
        f = _random_function(dim, 11)
        a = autocorrelation(f)
        assert abs(a[0] - np.sum(np.abs(f.values) ** 2)) < 1e-12

    def test_delta_autocorrelation(self):
        dim = PrimeDim(5)
        a = autocorrelation(_delta(dim, 2))
        expected = np.zeros(5, dtype=complex)
        expected[0] = 1.0
        assert np.allclose(a, expected, atol=1e-15)

    @pytest.mark.parametrize("dim", DIMS)
    def test_matches_transform_moduli(self, dim):
        # a(q) is the inverse transform of d |fhat|^2 up to conjugation; in
        # particular a vanishes off 0 exactly when |fhat| is constant.
        f = _random_function(dim, 12)
        a = autocorrelation(f)
        fhat = fourier(f).values
        rebuilt = inverse_fourier(CyclicFunction(dim, dim.d * np.abs(fhat) ** 2)).values
        assert np.allclose(a, rebuilt.conj(), atol=1e-10)


class TestNonnegFourier:
    def test_two_sided_delta_fails(self):
        # (delta_1 + delta_{-1})/2 has transform cos(2 pi x / d), which dips
        # negative for every odd prime d.
        dim = PrimeDim(5)
        vals = np.zeros(5)
        vals[1] = vals[4] = 0.5
        assert not has_nonneg_fourier(CyclicFunction(dim, vals))

    def test_delta_at_zero_passes(self):
        assert has_nonneg_fourier(_delta(PrimeDim(7), 0))

    @pytest.mark.parametrize("dim", DIMS)
    def test_synthesized_nonneg_spectrum_passes(self, dim):
        for seed in range(10):
            assert has_nonneg_fourier(_nonneg_spectrum_function(dim, 100 + seed))

    def test_asymmetric_input_rejected(self):
        dim = PrimeDim(3)
        with pytest.raises(ValueError, match="transform not real"):
            has_nonneg_fourier(CyclicFunction(dim, np.array([0.0, 1.0, 0.0])))

    def test_zero_function_passes(self):
        assert has_nonneg_fourier(CyclicFunction(PrimeDim(3), np.zeros(3)))

    @pytest.mark.parametrize("dim", DIMS)
    def test_agrees_with_eigenvalue_oracle(self, dim):
        # Independent route: PSD test on the circulant of the rescaled f.
        hits = {True: 0, False: 0}
        for seed in range(300):
            if seed % 2 == 0:
                f = _hermitian_symmetrized(dim, 2000 + seed)
            else:
                f = _nonneg_spectrum_function(dim, 2000 + seed)
            scaled = f.values / np.linalg.norm(f.values)
            eig_min = float(np.linalg.eigvalsh(circulant(CyclicFunction(dim, scaled)).mat).min())
            oracle = eig_min >= -1e-9 * dim.d
            verdict = has_nonneg_fourier(f)
            assert verdict == oracle
            hits[verdict] += 1
        assert hits[True] > 0 and hits[False] > 0


class TestConstantModulusFourier:
    @pytest.mark.parametrize("dim", DIMS)
    def test_chirps_pass(self, dim):
        # f(q) = omega^(theta q^2 + x q) with theta != 0 has flat transform.
        d = dim.d
        table = omega_table(d)
        q = np.arange(d)
        for theta in range(1, d):
            for x in range(d):
                f = CyclicFunction(dim, table[(theta * q * q + x * q) % d])
                assert has_constant_modulus_fourier(f)

    @pytest.mark.parametrize("dim", DIMS)
    def test_deltas_pass(self, dim):
        for k in range(dim.d):
            assert has_constant_modulus_fourier(_delta(dim, k))

    def test_constant_fails(self):
        assert not has_constant_modulus_fourier(CyclicFunction(PrimeDim(5), np.ones(5)))

    def test_zero_function_passes(self):
        assert has_constant_modulus_fourier(CyclicFunction(PrimeDim(3), np.zeros(3)))

    @pytest.mark.parametrize("dim", DIMS)
    def test_agrees_with_modulus_spread_oracle(self, dim):
        # Independent route: compare max and min of |fhat| directly.
        d = dim.d
        table = omega_table(d)
        q = np.arange(d)
        cases = [_random_function(dim, 3000 + s) for s in range(300)]
        cases += [
            CyclicFunction(dim, table[(theta * q * q) % d]) for theta in range(1, d)
        ]
        hits = {True: 0, False: 0}
        for f in cases:
            scaled = f.values / np.linalg.norm(f.values)
            moduli = np.abs(fourier(CyclicFunction(dim, scaled)).values)
            # couple the spread threshold to the autocorrelation tolerance:
            # a(q) entries and |fhat|^2 differences scale by the same factor d
            oracle = float(moduli.max() - moduli.min()) <= 1e-9
            verdict = has_constant_modulus_fourier(f)
            assert verdict == oracle
            hits[verdict] += 1
        assert hits[True] > 0 and hits[False] > 0
