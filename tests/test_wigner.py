"""Tests for characteristic functions, Wigner grids and covariance."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phasespace import (
    KIND_CHARACTERISTIC,
    KIND_WIGNER,
    DenseOperator,
    PhaseGrid,
    PrimeDim,
    StateVector,
    SymplecticMatrix,
    characteristic,
    cli,
    haar_sample,
    metaplectic,
    projector,
    self_correlation,
    sl2_enumerate,
    weyl,
    metaplectic_image_grid,
    wigner_from_char,
    wigner_pure,
)
from phasespace.clifford import stabilizer_rows
from phasespace import hudson
from phasespace.hudson import _HAAR_STREAM, _TWO_POINT_STREAM
from phasespace.wigner import _real_dft, lag_products, wigner_rows, wigner_workspace

from oracles import (
    DIMS,
    PRIMES_TO_101,
    act,
    all_points,
    complex_wigner_block,
    compose,
    fft_wigner,
    gathered_real_dft,
    inverse,
    operator_from_wigner,
    sample_rows,
    translated_grid,
    wigner_minima,
)


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
            operator_from_wigner(char)
        with pytest.raises(ValueError):
            metaplectic_image_grid(char, SymplecticMatrix(dim, 0, -1, 1, 0))

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
            psi = haar_sample(dim, 100 + s, 0)
            via_char = wigner_from_char(characteristic(projector(psi)))
            direct = wigner_pure(psi)
            assert np.max(np.abs(via_char.values - direct.values)) <= 1e-12

    @pytest.mark.parametrize("dim", DIMS)
    def test_reality_and_normalization(self, dim):
        for s in range(10):
            w = wigner_pure(haar_sample(dim, 200 + s, 0))
            vals = w.values.real
            assert abs(vals.sum() - 1.0) < 1e-12

    @given(d=st.sampled_from(PRIMES_TO_101), seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(deadline=None)
    def test_pure_grid_is_exactly_real(self, d, seed, data):
        # the grid comes from the real wigner_rows, so run_wigner writes
        # values.real with no residue to check
        dim = PrimeDim(d)
        stabilizer = stabilizer_rows(d, [data.draw(st.integers(0, d * (d + 1) - 1))])[0]
        for psi in (haar_sample(dim, seed, 0), StateVector(dim, stabilizer)):
            assert not wigner_pure(psi).values.imag.any()

    @pytest.mark.parametrize("dim", DIMS)
    def test_position_marginal(self, dim):
        for s in range(10):
            psi = haar_sample(dim, 300 + s, 0)
            marg = wigner_pure(psi).values.real.sum(axis=0)
            assert np.allclose(marg, np.abs(psi.amp) ** 2, atol=1e-12)

    def test_purity_constant_fit_d3(self):
        # The squared sum over a pure-state grid is state-independent; fit it.
        dim = PrimeDim(3)
        sums = []
        for s in range(10):
            vals = wigner_pure(haar_sample(dim, 400 + s, 0)).values.real
            sums.append(float(np.sum(vals**2)))
        assert max(sums) - min(sums) < 1e-12
        assert abs(sums[0] - 1.0 / 3) < 1e-12

    @pytest.mark.parametrize("dim", DIMS)
    def test_purity_is_inverse_dimension(self, dim):
        for s in range(5):
            vals = wigner_pure(haar_sample(dim, 500 + s, 0)).values.real
            assert abs(np.sum(vals**2) - 1.0 / dim.d) < 1e-10

    @pytest.mark.parametrize("dim", DIMS)
    def test_operator_round_trip(self, dim):
        rho = _random_hermitian(dim, 13)
        back = operator_from_wigner(wigner_from_char(characteristic(rho)))
        assert np.max(np.abs(back.mat - rho.mat)) < 1e-12

    @pytest.mark.parametrize("d", PRIMES_TO_101)
    def test_pure_grid_inverts_to_the_projector(self, d):
        psi = haar_sample(PrimeDim(d), 17, 0)
        assert np.max(np.abs(operator_from_wigner(wigner_pure(psi)).mat - projector(psi).mat)) < 1e-14

    @pytest.mark.parametrize("d", PRIMES_TO_101)
    def test_point_mass_inverts_to_the_parity(self, d):
        # A(0) = (1/d) sum_v w(v) maps |q> to |-q>
        vals = np.zeros((d, d))
        vals[0, 0] = 1.0
        parity = np.eye(d)[(-np.arange(d)) % d]
        rho = operator_from_wigner(PhaseGrid(PrimeDim(d), vals, KIND_WIGNER)).mat
        assert np.max(np.abs(rho - parity)) <= 1e-15


def _einsum_transform(values):
    """wigner_from_char, W(p,q) = (1/d) sum omega^(q xi - p x) Xi(xi, x)."""
    d = values.shape[0]
    jk = np.outer(np.arange(d), np.arange(d))
    omega = np.exp(2j * np.pi * jk / d)
    return np.einsum("qj,px,jx->pq", omega, omega.conj(), values) / d


def _phase_point_sum(grid):
    """rho = sum_v W(v) w(v) A(0) w(v)^dagger with A(0) = (1/d) sum_u w(u),
    from dense Weyl matrices."""
    dim = grid.dim
    weyls = {v: weyl(dim, *v).mat for v in all_points(dim)}
    origin = sum(weyls.values()) / dim.d
    return sum(grid.values[v] * w @ origin @ w.conj().T for v, w in weyls.items())


def _weyl_traces(rho):
    """Xi(xi, x) = (1/d) tr(w(xi, x)^dagger rho) from d^2 dense Weyl matrices."""
    dim = rho.dim
    vals = np.empty((dim.d, dim.d), dtype=complex)
    for a, x in itertools.product(range(dim.d), repeat=2):
        vals[a, x] = np.trace(weyl(dim, a, x).mat.conj().T @ rho.mat) / dim.d
    return vals


class TestTransformOracles:
    @pytest.mark.parametrize("d", [3, 5, 7, 11])
    def test_matrix_product_transforms_match_einsum(self, d):
        dim = PrimeDim(d)
        rng = np.random.default_rng(d)
        vals = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        char = PhaseGrid(dim, vals, KIND_CHARACTERISTIC)
        assert np.max(np.abs(wigner_from_char(char).values - _einsum_transform(vals))) < 1e-12

    @pytest.mark.parametrize("d", [3, 5, 7, 11])
    def test_scatter_matches_phase_point_sum(self, d):
        dim = PrimeDim(d)
        rng = np.random.default_rng(d + 1)
        wig = PhaseGrid(dim, rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)), KIND_WIGNER)
        assert np.max(np.abs(operator_from_wigner(wig).mat - _phase_point_sum(wig))) < 1e-12

    @pytest.mark.parametrize("d", [3, 5, 7, 11])
    def test_diagonal_gather_matches_weyl_traces(self, d):
        dim = PrimeDim(d)
        rng = np.random.default_rng(d + 2)
        rho = DenseOperator(dim, rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        assert np.max(np.abs(characteristic(rho).values - _weyl_traces(rho))) < 1e-12


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
        minima = wigner_minima(amps)
        for i in range(n):
            assert abs(minima[i] - fft_wigner(amps[i]).min()) <= 1e-12

    def test_large_d_blocks_span_several_chunks(self):
        # a sample block is whole chunks: 7 of 17 rows at d = 61, 20 of one
        # row at d = 401, and one chunk, the whole default stream, at d = 7
        assert [hudson._block_rows(d) // hudson._chunk_rows(d) for d in (7, 61, 401)] == [1, 7, 20]
        assert [len(r) for r, _ in hudson._seeded_blocks(40, 61, 0, 0)] == [40]
        assert [len(r) for r, _ in hudson._seeded_blocks(1000, 7, 0, 0)] == [1000]
        assert [len(r) for r, _ in hudson._seeded_blocks(50, 401, 0, 0)] == [20, 20, 10]

    @pytest.mark.parametrize("d", PRIMES_TO_101)
    def test_real_route_matches_complex_route(self, d):
        # the real product over half the lags against the complex DFT of all
        # of them, on Haar, two-point, basis and quadratic-phase rows: the
        # basis rows 0, d // 2 and d - 1, and (theta, x) = (0, 0), (0, 1),
        # (d // 2, 0) and (d // 2, d - 1)
        chirp = d + d // 2 * d
        stabilizers = stabilizer_rows(d, [0, d // 2, d - 1, d, d + 1, chirp, chirp + d - 1])
        samples = [sample_rows(d, d, stream, range(4)) for stream in (_HAAR_STREAM, _TWO_POINT_STREAM)]
        amps = np.concatenate([*samples, stabilizers])
        grids = wigner_rows(amps, 0, d)
        oracle = complex_wigner_block(amps)
        assert grids.dtype == np.float64 and grids.shape == (len(amps), d, d)
        assert np.abs(oracle.imag).max() <= 1e-12
        assert np.abs(grids - oracle.real).max() <= 1e-12


class TestWignerWorkspace:
    """wigner_rows(amps, start, stop, work), as verify_hudson runs it on every
    sample chunk and q range."""

    @pytest.mark.parametrize("d", [3, 7, 61])
    def test_out_equals_fresh_grids_bitwise(self, d):
        amps = np.concatenate([sample_rows(d, 2, _HAAR_STREAM, range(5)),
                               sample_rows(d, 2, _TWO_POINT_STREAM, range(3)), stabilizer_rows(d, [d, d + 1])])
        # stale NaN in a workspace made for more rows than any block below
        work = wigner_workspace(len(amps) + 4, d)
        work.fill(np.nan)
        for rows in (slice(0, 10), slice(3, 10), slice(9, 10)):
            grids = wigner_rows(amps[rows], 0, d, work)
            assert np.shares_memory(grids, work)
            assert grids.shape == (len(amps[rows]), d, d)
            assert np.abs(grids - complex_wigner_block(amps[rows]).real).max() <= 1e-12
            # a new workspace per call gives the same floats as the reused one
            assert np.array_equal(grids, wigner_rows(amps[rows], 0, d))

    @pytest.mark.parametrize("d", [3, 7, 61])
    def test_complex64_block_reads_the_workspace_as_float32(self, d):
        amps = np.concatenate([sample_rows(d, 2, _HAAR_STREAM, range(5)),
                               sample_rows(d, 2, _TWO_POINT_STREAM, range(3))])
        work = wigner_workspace(len(amps), d)
        double = wigner_rows(amps, 0, d, work).copy()
        single = wigner_rows(amps.astype(np.complex64), 0, d, work)
        assert single.dtype == np.float32 and np.shares_memory(single, work)
        assert np.array_equal(single, wigner_rows(amps.astype(np.complex64), 0, d))
        assert np.abs(single - double).max() <= hudson._screen_bound(d)
        # the float32 block leaves nothing behind that the float64 one reads
        assert np.array_equal(wigner_rows(amps, 0, d, work), double)
        factor = _real_dft(d, np.float32)
        assert factor.dtype == np.float32 and not factor.flags.writeable
        assert np.array_equal(factor, _real_dft(d, np.float64).astype(np.float32))

    @pytest.mark.parametrize("d", [3, 61, 2003])
    def test_factor_equals_the_gathered_factor_bitwise(self, d):
        # built one row pair at a time, the factor is the one gather bit for bit
        for dtype in (np.float64, np.float32):
            factor = _real_dft(d, dtype)
            assert factor.dtype == dtype and factor.shape == (d + 1, d)
            assert factor.tobytes() == gathered_real_dft(d, dtype).tobytes()

    @pytest.mark.parametrize("d", [3, 7, 11, 61])
    def test_q_ranges_write_the_lag_products_of_their_rows(self, d):
        # lag_products is the gathered definition bit for bit, in both
        # precisions; the rows [start, stop) write exactly its slice into the
        # workspace, and their grids are those rows of the whole grids
        amps = np.concatenate([sample_rows(d, 4, _HAAR_STREAM, range(5)),
                               sample_rows(d, 4, _TWO_POINT_STREAM, range(3))])
        q, u = np.arange(d)[:, None], np.arange((d + 1) // 2)
        ranges = [(0, d), (0, d // 8 + 1), (d // 8, d // 4 + 1), (d // 4, d // 2), (d // 2, d), (d - 1, d)]
        for block, tol in ((amps, 1e-15), (amps.astype(np.complex64), hudson._screen_bound(d))):
            lags = lag_products(block)
            assert lags.dtype == block.dtype
            assert np.array_equal(lags, block[:, (q + u) % d] * np.conj(block[:, (q - u) % d]))
            work = wigner_workspace(len(block), d)
            whole = wigner_rows(block, 0, d).copy()
            for start, stop in ranges:
                grids = wigner_rows(block, start, stop, work)
                assert grids.shape == (len(block), stop - start, d) and np.shares_memory(grids, work)
                pairs = work.view(grids.dtype)[:len(block) * (stop - start) * (d + 1)].view(block.dtype)
                assert np.array_equal(pairs.reshape(len(block), stop - start, -1), lags[:, start:stop])
                assert np.abs(grids - whole[:, start:stop]).max() <= tol

    def test_calls_without_out_share_no_memory(self):
        amps = sample_rows(7, 2, _HAAR_STREAM, range(3))
        first = wigner_rows(amps, 0, 7)
        kept = first.copy()
        second = wigner_rows(amps[::-1], 0, 7)
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept)

    @pytest.mark.parametrize("start,stop", [(0, 1), (2, 5), (0, 61)])
    def test_call_without_out_allocates_its_rows_alone(self, start, stop):
        # the point-mass step reads one q row of its witness's grid: its
        # buffer is that row's 2d + 1 floats, not a whole grid's workspace
        d = 61
        amps = sample_rows(d, 2, _HAAR_STREAM, range(3))
        grids = wigner_rows(amps, start, stop)
        buffer = grids
        while buffer.base is not None:
            buffer = buffer.base
        assert buffer.size == len(amps) * (stop - start) * (2 * d + 1)
        assert np.array_equal(grids, wigner_rows(amps, start, stop, wigner_workspace(len(amps), d)))

    def test_out_too_small_raises(self):
        amps = sample_rows(7, 2, _HAAR_STREAM, range(3))
        with pytest.raises(ValueError):
            wigner_rows(amps, 0, 7, wigner_workspace(2, 7))


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
        psi = haar_sample(dim, 21, 0)
        k = self_correlation(psi).values
        assert np.allclose(k[:, 0], np.abs(psi.amp) ** 2, atol=1e-15)

    @pytest.mark.parametrize("d", PRIMES_TO_101)
    def test_matches_the_definition(self, d):
        # the half-lag table with its conjugates filled in, against the direct gather
        amp = haar_sample(PrimeDim(d), 23, 0).amp
        q, x = np.arange(d)[:, None], np.arange(d)[None, :]
        h = (d + 1) // 2
        want = amp[(q + h * x) % d] * np.conj(amp[(q - h * x) % d])
        assert np.abs(self_correlation(StateVector(PrimeDim(d), amp)).values - want).max() <= 1e-15

    @pytest.mark.parametrize("dim", DIMS)
    def test_conjugate_symmetry_in_offset(self, dim):
        psi = haar_sample(dim, 22, 0)
        k = self_correlation(psi).values
        for q, x in itertools.product(range(dim.d), repeat=2):
            assert abs(k[q, x].conjugate() - k[q, (-x) % dim.d]) < 1e-15


class TestGridMotions:
    """metaplectic_image_grid, and the translated_grid oracle of criterion 5."""

    def test_translate_identity(self):
        dim = PrimeDim(3)
        g = wigner_pure(haar_sample(dim, 1, 0)).values
        assert np.array_equal(translated_grid(g, (0, 0)), g)

    def test_translate_relabeling(self):
        # new[p][q] = old[p - vp][q - vq], checked entrywise.
        dim = PrimeDim(5)
        g = wigner_pure(haar_sample(dim, 2, 0)).values
        moved = translated_grid(g, (1, 3))
        for p, q in itertools.product(range(5), repeat=2):
            assert moved[p, q] == g[(p - 1) % 5, (q - 3) % 5]

    def test_translate_composition(self):
        dim = PrimeDim(5)
        g = wigner_pure(haar_sample(dim, 3, 0)).values
        assert np.array_equal(translated_grid(translated_grid(g, (1, 2)), (3, 4)), translated_grid(g, (4, 1)))

    def test_symplectic_identity(self):
        dim = PrimeDim(3)
        g = wigner_pure(haar_sample(dim, 4, 0))
        moved = metaplectic_image_grid(g, SymplecticMatrix(dim, 1, 0, 0, 1))
        assert np.array_equal(moved.values, g.values)

    def test_symplectic_pullback_composition(self):
        # The image under S then T equals the image under the product T S.
        dim = PrimeDim(5)
        g = wigner_pure(haar_sample(dim, 5, 0))
        s = SymplecticMatrix(dim, 2, 1, 1, 1)
        t = SymplecticMatrix(dim, 0, 4, 1, 0)
        twice = metaplectic_image_grid(metaplectic_image_grid(g, s), t)
        once = metaplectic_image_grid(g, compose(t, s))
        assert np.array_equal(twice.values, once.values)

    @pytest.mark.parametrize("d", [3, 5, 11])
    def test_symplectic_pullback_through_the_inverse(self, d):
        # new[p][q] = old[S^-1 (p, q)] bit for bit, S^-1 from oracles.inverse
        dim = PrimeDim(d)
        g = wigner_pure(haar_sample(dim, 8, 0))
        p, q = np.indices((d, d))
        for s in sl2_enumerate(dim):
            a, b, c, e = inverse(s).as_ints()
            pulled = g.values[(a * p + b * q) % d, (c * p + e * q) % d]
            assert metaplectic_image_grid(g, s).values.tobytes() == pulled.tobytes()

    def test_symplectic_relabeling(self):
        # new[S v] = old[v], checked entrywise.
        dim = PrimeDim(3)
        g = wigner_pure(haar_sample(dim, 6, 0))
        s = SymplecticMatrix(dim, 1, 1, 1, 2)
        moved = metaplectic_image_grid(g, s)
        for v in all_points(dim):
            assert moved.values[act(s, v)] == g.values[v]


class TestCovariance:
    @pytest.mark.parametrize("dim", [PrimeDim(3), PrimeDim(5)])
    def test_translation_covariance(self, dim):
        for s in range(5):
            psi = haar_sample(dim, 600 + s, 0)
            grid = wigner_pure(psi)
            for v in all_points(dim):
                shifted = StateVector.normalized(dim, weyl(dim, *v).apply(psi))
                lhs = wigner_pure(shifted).values
                rhs = translated_grid(grid.values, v)
                assert np.max(np.abs(lhs - rhs)) <= 1e-12

    @pytest.mark.parametrize("dim", [PrimeDim(3), PrimeDim(5)])
    def test_symplectic_covariance(self, dim):
        for s in range(5):
            psi = haar_sample(dim, 700 + s, 0)
            grid = wigner_pure(psi)
            for mat in sl2_enumerate(dim):
                mapped = StateVector.normalized(dim, metaplectic(mat).apply(psi))
                lhs = wigner_pure(mapped).values
                rhs = metaplectic_image_grid(grid, mat).values
                assert np.max(np.abs(lhs - rhs)) <= 1e-10


class TestSerialization:
    """The Wigner grid artifact that `phasespace wigner` writes."""

    @staticmethod
    def _artifact(capsys, *extra):
        assert cli.main(["wigner", "--d", "3", "--state", "[[1,0],[0,0],[0,0]]", *extra]) == 0
        return capsys.readouterr().out

    def test_wigner_json(self, capsys):
        doc = json.loads(self._artifact(capsys))
        assert doc["d"] == 3
        assert doc["kind"] == KIND_WIGNER
        assert len(doc["values"]) == 3
        assert all(isinstance(x, float) for row in doc["values"] for x in row)
        assert abs(doc["values"][0][0] - 1.0 / 3) < 1e-15

    def test_wigner_csv(self, capsys):
        rows = self._artifact(capsys, "--format", "csv").splitlines()
        assert rows[0] == "p,q,value"
        assert len(rows) == 10
        points = [row.split(",")[:2] for row in rows[1:]]
        assert points == [[str(p), str(q)] for p in range(3) for q in range(3)]
        assert abs(float(rows[1].split(",")[2]) - 1.0 / 3) < 1e-15
