"""Tests for characteristic functions, Wigner grids and covariance."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from phasespace import (
    KIND_CHARACTERISTIC,
    KIND_WIGNER,
    SYMPLECTIC_INVERSE,
    TRANSLATION_SIGN,
    DenseOperator,
    PhaseGrid,
    PrimeDim,
    StateVector,
    char_from_wigner,
    characteristic,
    haar_random_state,
    metaplectic,
    operator_from_char,
    position_marginal,
    probe_covariance_directions,
    projector,
    self_correlation,
    sl2_enumerate,
    symplectic_transform_grid,
    translate_grid,
    weyl,
    weyl_translated_grid,
    metaplectic_image_grid,
    wigner_from_char,
    wigner_pure,
)
from phasespace.qudit import dft_matrix, row_chunks
from phasespace.wigner import wigner_minima

DIMS = [PrimeDim(3), PrimeDim(5), PrimeDim(7)]
PRIMES_TO_101 = [p for p in range(3, 102) if all(p % f for f in range(2, p))]


def _random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim.d, dim.d)) + 1j * rng.standard_normal((dim.d, dim.d))
    return DenseOperator(dim, (a + a.conj().T) / 2)


def _maximally_mixed(dim):
    return DenseOperator(dim, np.eye(dim.d) / dim.d)


class TestPhaseGrid:
    def test_kind_validation(self):
        with pytest.raises(ValueError, match="kind"):
            PhaseGrid(PrimeDim(3), np.zeros((3, 3)), "spectrogram")

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            PhaseGrid(PrimeDim(3), np.zeros((3, 4)), KIND_WIGNER)

    def test_real_values_guards_imaginary_residue(self):
        g = PhaseGrid(PrimeDim(3), np.full((3, 3), 1j), KIND_WIGNER)
        with pytest.raises(ValueError, match="imaginary residue"):
            g.real_values()

    def test_total(self):
        g = PhaseGrid(PrimeDim(3), np.full((3, 3), 1.0 / 9), KIND_WIGNER)
        assert abs(g.total() - 1.0) < 1e-15

    def test_values_read_only(self):
        g = PhaseGrid(PrimeDim(3), np.zeros((3, 3)), KIND_WIGNER)
        with pytest.raises(ValueError):
            g.values[0, 0] = 1.0


class TestCharacteristic:
    @pytest.mark.parametrize("dim", DIMS)
    def test_maximally_mixed(self, dim):
        xi = characteristic(_maximally_mixed(dim))
        expected = np.zeros((dim.d, dim.d), dtype=complex)
        expected[0, 0] = 1.0 / dim.d
        assert np.allclose(xi.values, expected, atol=1e-15)

    def test_basis_projector_d3(self):
        # For |0><0| only the x = 0 column survives, with constant value 1/3.
        xi = characteristic(projector(StateVector.basis(PrimeDim(3), 0)))
        expected = np.zeros((3, 3), dtype=complex)
        expected[:, 0] = 1.0 / 3
        assert np.allclose(xi.values, expected, atol=1e-15)

    @pytest.mark.parametrize("dim", DIMS)
    def test_origin_value_is_normalized_trace(self, dim):
        rho = _random_hermitian(dim, 7)
        xi = characteristic(rho)
        assert abs(xi.values[0, 0] - np.trace(rho.mat) / dim.d) < 1e-12

    @pytest.mark.parametrize("dim", DIMS)
    def test_linear_in_operator(self, dim):
        r1 = _random_hermitian(dim, 1)
        r2 = _random_hermitian(dim, 2)
        combo = DenseOperator(dim, 2.0 * r1.mat - 0.5 * r2.mat)
        lhs = characteristic(combo).values
        rhs = 2.0 * characteristic(r1).values - 0.5 * characteristic(r2).values
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestWignerTransforms:
    def test_kind_guards(self):
        dim = PrimeDim(3)
        wig = PhaseGrid(dim, np.zeros((3, 3)), KIND_WIGNER)
        char = PhaseGrid(dim, np.zeros((3, 3)), KIND_CHARACTERISTIC)
        with pytest.raises(ValueError):
            wigner_from_char(wig)
        with pytest.raises(ValueError):
            char_from_wigner(char)
        with pytest.raises(ValueError):
            operator_from_char(wig)
        with pytest.raises(ValueError):
            position_marginal(char)

    @pytest.mark.parametrize("dim", DIMS)
    def test_maximally_mixed_is_flat(self, dim):
        w = wigner_from_char(characteristic(_maximally_mixed(dim)))
        assert np.allclose(w.values, 1.0 / dim.d**2, atol=1e-15)

    def test_basis_state_is_a_position_line(self):
        # |0> concentrates on the q = 0 column with weight 1/d.
        dim = PrimeDim(3)
        w = wigner_from_char(characteristic(projector(StateVector.basis(dim, 0))))
        expected = np.zeros((3, 3))
        expected[:, 0] = 1.0 / 3
        assert np.allclose(w.values, expected, atol=1e-14)

    def test_uniform_state_is_a_momentum_line(self):
        dim = PrimeDim(5)
        psi = StateVector.normalized(dim, np.ones(5))
        w = wigner_pure(psi)
        expected = np.zeros((5, 5))
        expected[0, :] = 1.0 / 5
        assert np.allclose(w.values, expected, atol=1e-14)

    @pytest.mark.parametrize("dim", DIMS)
    def test_two_routes_agree(self, dim):
        for s in range(20):
            psi = haar_random_state(dim, 100 + s)
            via_char = wigner_from_char(characteristic(projector(psi)))
            direct = wigner_pure(psi)
            assert np.max(np.abs(via_char.values - direct.values)) <= 1e-12

    @pytest.mark.parametrize("dim", DIMS)
    def test_reality_and_normalization(self, dim):
        for s in range(10):
            w = wigner_pure(haar_random_state(dim, 200 + s))
            vals = w.real_values(1e-12)
            assert abs(vals.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("dim", DIMS)
    def test_position_marginal(self, dim):
        for s in range(10):
            psi = haar_random_state(dim, 300 + s)
            marg = position_marginal(wigner_pure(psi))
            assert np.allclose(marg, np.abs(psi.amp) ** 2, atol=1e-12)

    def test_purity_constant_fit_d3(self):
        # The squared sum over a pure-state grid is state-independent; fit it.
        dim = PrimeDim(3)
        sums = []
        for s in range(10):
            vals = wigner_pure(haar_random_state(dim, 400 + s)).real_values()
            sums.append(float(np.sum(vals**2)))
        assert max(sums) - min(sums) < 1e-12
        assert abs(sums[0] - 1.0 / 3) < 1e-12

    @pytest.mark.parametrize("dim", DIMS)
    def test_purity_is_inverse_dimension(self, dim):
        for s in range(5):
            vals = wigner_pure(haar_random_state(dim, 500 + s)).real_values()
            assert abs(np.sum(vals**2) - 1.0 / dim.d) < 1e-10

    @pytest.mark.parametrize("dim", DIMS)
    def test_char_wigner_round_trip(self, dim):
        xi = characteristic(_random_hermitian(dim, 11))
        back = char_from_wigner(wigner_from_char(xi))
        assert np.max(np.abs(back.values - xi.values)) < 1e-12

    @pytest.mark.parametrize("dim", DIMS)
    def test_operator_round_trip(self, dim):
        rho = _random_hermitian(dim, 13)
        back = operator_from_char(characteristic(rho))
        assert np.max(np.abs(back.mat - rho.mat)) < 1e-12


def _einsum_transform(values, sign):
    """sign=+1: wigner_from_char, W(p,q) = (1/d) sum omega^(q xi - p x) Xi(xi, x);
    sign=-1: char_from_wigner, Xi(xi,x) = (1/d) sum omega^(p x - q xi) W(p, q)."""
    d = values.shape[0]
    jk = np.outer(np.arange(d), np.arange(d))
    omega = np.exp(2j * np.pi * jk / d)
    if sign > 0:
        return np.einsum("qj,px,jx->pq", omega, omega.conj(), values) / d
    return np.einsum("px,qj,pq->jx", omega, omega.conj(), values) / d


def _weyl_sum(xi):
    """rho = sum_{xi, x} Xi(xi, x) w(xi, x) from d^2 dense Weyl matrices."""
    dim = xi.dim
    mat = np.zeros((dim.d, dim.d), dtype=complex)
    for a, x in itertools.product(range(dim.d), repeat=2):
        mat += xi.values[a, x] * weyl(dim.point(a, x)).mat
    return mat


def _weyl_traces(rho):
    """Xi(xi, x) = (1/d) tr(w(xi, x)^dagger rho) from d^2 dense Weyl matrices."""
    dim = rho.dim
    vals = np.empty((dim.d, dim.d), dtype=complex)
    for a, x in itertools.product(range(dim.d), repeat=2):
        vals[a, x] = np.trace(weyl(dim.point(a, x)).mat.conj().T @ rho.mat) / dim.d
    return vals


class TestTransformOracles:
    @pytest.mark.parametrize("d", [3, 5, 7, 11])
    def test_matrix_product_transforms_match_einsum(self, d):
        dim = PrimeDim(d)
        rng = np.random.default_rng(d)
        vals = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        char = PhaseGrid(dim, vals, KIND_CHARACTERISTIC)
        wig = PhaseGrid(dim, vals, KIND_WIGNER)
        assert np.max(np.abs(wigner_from_char(char).values - _einsum_transform(vals, +1))) < 1e-12
        assert np.max(np.abs(char_from_wigner(wig).values - _einsum_transform(vals, -1))) < 1e-12

    @pytest.mark.parametrize("d", [3, 5, 7, 11])
    def test_monomial_reassembly_matches_weyl_sum(self, d):
        dim = PrimeDim(d)
        rng = np.random.default_rng(d + 1)
        xi = PhaseGrid(dim, rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)),
                       KIND_CHARACTERISTIC)
        assert np.max(np.abs(operator_from_char(xi).mat - _weyl_sum(xi))) < 1e-12

    @pytest.mark.parametrize("d", [3, 5, 7, 11])
    def test_diagonal_gather_matches_weyl_traces(self, d):
        dim = PrimeDim(d)
        rng = np.random.default_rng(d + 2)
        rho = DenseOperator(dim, rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        assert np.max(np.abs(characteristic(rho).values - _weyl_traces(rho))) < 1e-12


def _fft_wigner(amp):
    """W[p, q] = (1/d) sum_x omega^(-p x) psi(q + x/2) conj(psi(q - x/2)), by FFT."""
    d = len(amp)
    h = (d + 1) // 2
    q = np.arange(d)[:, None]
    x = np.arange(d)[None, :]
    k = amp[(q + h * x) % d] * np.conj(amp[(q - h * x) % d])
    return np.fft.fft(k, axis=1).T / d


class TestWignerMinima:
    @given(
        d=st.sampled_from(PRIMES_TO_101),
        n=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(d=61, n=40, seed=0)
    @example(d=101, n=13, seed=1)
    def test_block_minima_match_per_state_fft(self, d, n, seed):
        rng = np.random.default_rng(seed)
        amps = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        amps /= np.linalg.norm(amps, axis=1, keepdims=True)
        minima, argmins = wigner_minima(amps, dft_matrix(d))
        for i in range(n):
            grid = _fft_wigner(amps[i])
            assert abs(grid.imag).max() <= 1e-12
            assert abs(minima[i] - grid.real.min()) <= 1e-12
            p, q = divmod(int(argmins[i]), d)
            assert grid.real[p, q] - grid.real.min() <= 1e-12

    def test_large_d_blocks_span_several_chunks(self):
        assert len(row_chunks(40, 61)) == 3
        assert len(row_chunks(1000, 7)) == 1

    def test_imaginary_residue_is_rejected(self):
        amps = haar_random_state(PrimeDim(5), 1).amp[None]
        with pytest.raises(ValueError, match="imaginary residue"):
            wigner_minima(amps, 1j * dft_matrix(5))


class TestSelfCorrelation:
    def test_basis_state(self):
        dim = PrimeDim(3)
        k = self_correlation(StateVector.basis(dim, 0)).values
        # x = 0 row of q = 0 is |psi(0)|^2 = 1; the x != 0 entries pair
        # distinct basis labels and vanish.
        assert k[0, 0] == 1.0
        assert np.count_nonzero(k) == 1

    def test_zero_offset_column_is_probability(self):
        dim = PrimeDim(7)
        psi = haar_random_state(dim, 21)
        k = self_correlation(psi).values
        assert np.allclose(k[:, 0], np.abs(psi.amp) ** 2, atol=1e-15)

    @pytest.mark.parametrize("dim", DIMS)
    def test_conjugate_symmetry_in_offset(self, dim):
        psi = haar_random_state(dim, 22)
        k = self_correlation(psi).values
        for q, x in itertools.product(range(dim.d), repeat=2):
            assert abs(k[q, x].conjugate() - k[q, (-x) % dim.d]) < 1e-15


class TestGridMotions:
    def test_translate_identity(self):
        dim = PrimeDim(3)
        g = wigner_pure(haar_random_state(dim, 1))
        moved = translate_grid(g, dim.point(0, 0))
        assert np.array_equal(moved.values, g.values)

    def test_translate_relabeling(self):
        # new[p][q] = old[p + vp][q + vq], checked entrywise.
        dim = PrimeDim(5)
        g = wigner_pure(haar_random_state(dim, 2))
        v = dim.point(1, 3)
        moved = translate_grid(g, v)
        for p, q in itertools.product(range(5), repeat=2):
            assert moved.values[p, q] == g.values[(p + 1) % 5, (q + 3) % 5]

    def test_translate_composition(self):
        dim = PrimeDim(5)
        g = wigner_pure(haar_random_state(dim, 3))
        u, v = dim.point(1, 2), dim.point(3, 4)
        twice = translate_grid(translate_grid(g, u), v)
        once = translate_grid(g, u + v)
        assert np.allclose(twice.values, once.values, atol=0)

    def test_symplectic_identity(self):
        dim = PrimeDim(3)
        g = wigner_pure(haar_random_state(dim, 4))
        from phasespace import SymplecticMatrix

        moved = symplectic_transform_grid(g, SymplecticMatrix.identity(dim))
        assert np.array_equal(moved.values, g.values)

    def test_symplectic_pullback_composition(self):
        # Pulling back through S then T equals pulling back through S @ T.
        from phasespace import SymplecticMatrix

        dim = PrimeDim(5)
        g = wigner_pure(haar_random_state(dim, 5))
        s = SymplecticMatrix(dim, 2, 1, 1, 1)
        t = SymplecticMatrix(dim, 0, 4, 1, 0)
        twice = symplectic_transform_grid(symplectic_transform_grid(g, s), t)
        once = symplectic_transform_grid(g, s @ t)
        assert np.array_equal(twice.values, once.values)

    def test_symplectic_relabeling(self):
        from phasespace import SymplecticMatrix, sl2_apply

        dim = PrimeDim(3)
        g = wigner_pure(haar_random_state(dim, 6))
        s = SymplecticMatrix(dim, 1, 1, 1, 2)
        moved = symplectic_transform_grid(g, s)
        for v in dim.all_points():
            image = sl2_apply(s, v)
            assert moved.values[v.p, v.q] == g.values[image.p, image.q]


class TestCovariance:
    def test_probe_matches_conventions_d3(self):
        assert probe_covariance_directions(PrimeDim(3)) == (
            TRANSLATION_SIGN,
            SYMPLECTIC_INVERSE,
        )

    def test_probe_matches_conventions_d5(self):
        assert probe_covariance_directions(PrimeDim(5), n_states=3) == (
            TRANSLATION_SIGN,
            SYMPLECTIC_INVERSE,
        )

    @pytest.mark.parametrize("dim", [PrimeDim(3), PrimeDim(5)])
    def test_translation_covariance(self, dim):
        for s in range(5):
            psi = haar_random_state(dim, 600 + s)
            grid = wigner_pure(psi)
            for v in dim.all_points():
                shifted = StateVector.normalized(dim, weyl(v).apply(psi))
                lhs = wigner_pure(shifted).values
                rhs = weyl_translated_grid(grid, v).values
                assert np.max(np.abs(lhs - rhs)) <= 1e-12

    @pytest.mark.parametrize("dim", [PrimeDim(3), PrimeDim(5)])
    def test_symplectic_covariance(self, dim):
        for s in range(5):
            psi = haar_random_state(dim, 700 + s)
            grid = wigner_pure(psi)
            for mat in sl2_enumerate(dim):
                mapped = StateVector.normalized(dim, metaplectic(mat).apply(psi))
                lhs = wigner_pure(mapped).values
                rhs = metaplectic_image_grid(grid, mat).values
                assert np.max(np.abs(lhs - rhs)) <= 1e-10


class TestSerialization:
    def test_wigner_json(self):
        dim = PrimeDim(3)
        doc = wigner_pure(StateVector.basis(dim, 0)).to_json_dict()
        assert doc["d"] == 3
        assert doc["kind"] == KIND_WIGNER
        assert len(doc["values"]) == 3
        assert all(isinstance(x, float) for row in doc["values"] for x in row)
        assert abs(doc["values"][0][0] - 1.0 / 3) < 1e-15

    def test_characteristic_json(self):
        dim = PrimeDim(3)
        doc = characteristic(projector(StateVector.basis(dim, 0))).to_json_dict()
        assert doc["kind"] == KIND_CHARACTERISTIC
        assert doc["values"][0][0] == [pytest.approx(1.0 / 3), pytest.approx(0.0)]

    def test_wigner_csv(self):
        dim = PrimeDim(3)
        rows = wigner_pure(StateVector.basis(dim, 0)).to_csv_rows()
        assert rows[0] == "p,q,value"
        assert len(rows) == 10
        p, q, val = rows[1].split(",")
        assert (p, q) == ("0", "0")
        assert abs(float(val) - 1.0 / 3) < 1e-15

    def test_characteristic_csv(self):
        dim = PrimeDim(3)
        rows = characteristic(_maximally_mixed(dim)).to_csv_rows()
        assert rows[0] == "p,q,re,im"
        assert len(rows) == 10
        fields = rows[1].split(",")
        assert abs(float(fields[2]) - 1.0 / 3) < 1e-15
        assert float(fields[3]) == 0.0
