"""Reference implementations that the tests compare the library against,
and the dimension lists the test modules share.

None of these is called by the package: each is the definitional form of an
object the package computes another way (weyl builds w(p, q) entrywise; the
Fourier predicates never form a circulant matrix; the Wigner kernels use one
real matrix product over half the lags, not complex arithmetic over all of
them; the point-mass step pairs one entry of a grid where operator_from_wigner
inverts the whole grid), or a helper that only the tests need (all_points,
act, compose, inverse, translated_grid, sample_rows, wigner_minima,
crafted_draws). exact_ki finds numpy's own ziggurat bounds by probing its
generator, where the package derives lower bounds on them from its wi.
stabilizer_blocks keeps the construction stabilizer_rows replaced, as the
bit-for-bit reference of its rows, gathered_real_dft keeps the one gather
wigner._real_dft made before it built its factor one row pair at a time,
and chunked_minima replays verify_hudson's sample minima all in float64,
each row by the call that certifies it in verify, without its float32
screen. Phase-space points are (p, q) tuples of ints.
"""

import numpy as np

from phasespace import (KIND_WIGNER, CyclicFunction, DenseOperator, PhaseGrid, PrimeDim, SymplecticMatrix, half,
                        hudson, omega_table)
from phasespace.bochner import PREDICATE_TOL
from phasespace.qudit import dft_matrix
from phasespace.wigner import wigner_rows, wigner_workspace

DIMS = [PrimeDim(3), PrimeDim(5), PrimeDim(7)]
PRIMES_TO_101 = [p for p in range(3, 102) if all(p % f for f in range(2, p))]


def all_points(dim: PrimeDim) -> list[tuple[int, int]]:
    """All d^2 phase-space points, row-major in (p, q)."""
    return [(p, q) for p in range(dim.d) for q in range(dim.d)]


def act(S: SymplecticMatrix, v: tuple[int, int]) -> tuple[int, int]:
    """S v on column vectors: (p, q) -> (a p + b q, c p + e q) mod d."""
    return ((S.a * v[0] + S.b * v[1]) % S.dim.d, (S.c * v[0] + S.e * v[1]) % S.dim.d)


def compose(S: SymplecticMatrix, T: SymplecticMatrix) -> SymplecticMatrix:
    """The group product S T, multiplied out on the integer entries."""
    (a, b, c, e), (w, x, y, z) = S.as_ints(), T.as_ints()
    return SymplecticMatrix(S.dim, a * w + b * y, a * x + b * z, c * w + e * y, c * x + e * z)


def inverse(S: SymplecticMatrix) -> SymplecticMatrix:
    """S^-1 = [[e, -b], [-c, a]], exact since det S = 1."""
    a, b, c, e = S.as_ints()
    return SymplecticMatrix(S.dim, e, -b, -c, a)


def translated_grid(values: np.ndarray, v: tuple[int, int]) -> np.ndarray:
    """Wigner grid of w(v) rho w(v)^dagger from the grid of rho: new[p][q] = old[p - v_p][q - v_q]."""
    return np.roll(values, v, axis=(0, 1))


def shift_op(dim: PrimeDim, q: int) -> np.ndarray:
    """The matrix of x(q)|k> = |k + q>."""
    d = dim.d
    mat = np.zeros((d, d), dtype=complex)
    k = np.arange(d)
    mat[(k + q) % d, k] = 1.0
    return mat


def boost_op(dim: PrimeDim, p: int) -> np.ndarray:
    """The matrix of z(p)|k> = omega^(p k) |k>."""
    d = dim.d
    k = np.arange(d)
    return np.diag(omega_table(d)[(p * k) % d])


def symplectic_form(dim: PrimeDim, v1: tuple[int, int], v2: tuple[int, int]) -> int:
    """sigma(v1, v2) = p1*q2 - q1*p2 mod d."""
    return (v1[0] * v2[1] - v1[1] * v2[0]) % dim.d


def projective_equal(u: np.ndarray, v: np.ndarray, tol: float = 1e-9) -> bool:
    """True iff the d x d unitaries satisfy u = (phase) v, tested as | |tr(u^dagger v)| - d | <= tol."""
    if u.shape != v.shape:
        raise ValueError("operator dimensions differ")
    return bool(abs(abs(np.trace(u.conj().T @ v)) - len(u)) <= tol)


def sample_rows(d: int, seed: int, stream: int, indices) -> np.ndarray:
    """verify_hudson's unit rows of stream (hudson._HAAR_STREAM or
    hudson._TWO_POINT_STREAM) for the given indices of seed."""
    return hudson._sample_rows(d, stream, hudson._seed_words(seed, stream, indices))[0]


def crafted_draws(rng: np.random.Generator, first: int, second: int | None = None) -> np.random.Generator:
    """rng with its PCG64 re-pointed so that its next raw outputs are first
    (then second), and returned. A state (0 : r), high word 0, outputs r as it
    is under XSL-RR, so the state set is (0 : first) stepped back, with inc 1,
    or with the increment that steps (0 : first) to (0 : second)."""
    mod = 1 << 128
    inc = 1 if second is None else (second - first * hudson._PCG_MULT) % mod
    state = (first - inc) * pow(hudson._PCG_MULT, -1, mod) % mod
    rng.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
    return rng


def exact_ki() -> np.ndarray:
    """numpy's ki: for each index idx of its standard_normal ziggurat, the
    least rabs whose draw leaves the fast path, found by bisection. A draw
    idx | rabs << 9 on the fast path steps the generator once, to the state
    (0 : draw); any other path draws again."""
    rng = np.random.Generator(np.random.PCG64(0))
    ki = np.empty(256, dtype=np.uint64)
    for idx in range(256):
        lo, hi = 0, 1 << 52  # every rabs below lo is fast; hi is not
        while lo < hi:
            mid = (lo + hi) // 2
            draw = idx | mid << 9
            crafted_draws(rng, draw).standard_normal()
            if rng.bit_generator.state["state"]["state"] == draw:
                lo = mid + 1
            else:
                hi = mid
        ki[idx] = lo
    return ki


def autocorrelation(f: CyclicFunction) -> np.ndarray:
    """a(q) = sum_x conj(f(x)) f(x - q)."""
    d = f.dim.d
    x = np.arange(d)[:, None]
    q = np.arange(d)[None, :]
    return np.einsum("x,xq->q", f.values.conj(), f.values[(x - q) % d])


def has_constant_modulus_fourier(f: CyclicFunction) -> bool:
    """True iff sum_x conj(f(x)) f(x - q) vanishes (within PREDICATE_TOL,
    for f rescaled to unit norm) for all q != 0, which holds exactly when
    |fhat| is constant."""
    norm = np.linalg.norm(f.values)
    if norm == 0.0:
        return True
    a = autocorrelation(CyclicFunction(f.dim, f.values / norm))
    return bool(np.max(np.abs(a[1:])) <= PREDICATE_TOL)


def fourier(f: CyclicFunction) -> CyclicFunction:
    """fhat(x) = (1/d) sum_q omega^(-q x) f(q), each root from np.exp at its
    exact residue q x mod d."""
    d = f.dim.d
    q = np.arange(d)
    return CyclicFunction(f.dim, np.exp(-2j * np.pi * (np.outer(q, q) % d) / d) @ f.values / d)


def inverse_fourier(g: CyclicFunction) -> CyclicFunction:
    """f(q) = sum_x omega^(q x) g(x); exact inverse of fourier."""
    d = g.dim.d
    return CyclicFunction(g.dim, d * (dft_matrix(d).conj() @ g.values))


def circulant(f: CyclicFunction) -> DenseOperator:
    """The matrix A[x][q] = f(x - q)."""
    d = f.dim.d
    x = np.arange(d)[:, None]
    q = np.arange(d)[None, :]
    return DenseOperator(f.dim, f.values[(x - q) % d])


def stabilizer_stack(d: int) -> np.ndarray:
    """All d(d+1) stabilizer states as explicit rows: basis states, then
    d^(-1/2) exp(2 pi i (theta q^2 + x q) / d) in (theta, x) order. The
    exponent is reduced mod d first: unreduced, its rounding error grows as
    d^2 and passes 1e-12 at d = 89."""
    q = np.arange(d)
    rows = [np.eye(d)[k] for k in range(d)]
    rows += [np.exp(2j * np.pi * ((t * q * q + x * q) % d) / d) / np.sqrt(d) for t in range(d) for x in range(d)]
    return np.array(rows)


def stabilizer_blocks(d: int) -> list[np.ndarray]:
    """The d(d+1) stabilizer states as d + 1 (d, d) blocks, built as the
    package built them before stabilizer_rows: np.eye for the basis states,
    then for each theta one gather from omega_table at the residues
    theta q^2 + x q mod d. stabilizer_rows must match it bit for bit."""
    q = np.arange(d)
    xq = np.outer(q, q)  # [x, q] -> x q
    return [np.eye(d, dtype=complex)] + [omega_table(d)[(theta * q * q + xq) % d] / np.sqrt(d) for theta in range(d)]


def fft_wigner(amp: np.ndarray) -> np.ndarray:
    """W[p, q] = (1/d) sum_x omega^(-p x) psi(q + x/2) conj(psi(q - x/2)), by FFT;
    asserts that the imaginary residue is at most 1e-12 and returns the real grid."""
    d = len(amp)
    h = (d + 1) // 2
    q = np.arange(d)[:, None]
    x = np.arange(d)[None, :]
    grid = np.fft.fft(amp[(q + h * x) % d] * np.conj(amp[(q - h * x) % d]), axis=1).T / d
    assert np.abs(grid.imag).max() <= 1e-12
    return grid.real


def operator_from_wigner(grid: PhaseGrid) -> DenseOperator:
    """The operator rho whose Wigner function is the grid: one DFT product
    D[q, x] = sum_p W(p, q) omega^(p x) = rho[q + 2^-1 x, q - 2^-1 x], scattered
    back; (q, x) -> (q + 2^-1 x, q - 2^-1 x) is a bijection of Z_d^2."""
    if grid.kind != KIND_WIGNER:
        raise ValueError("input grid must be a Wigner function")
    d = grid.dim.d
    h = half(grid.dim)
    D = d * (grid.values.T @ dft_matrix(d).conj())
    q = np.arange(d)[:, None]
    x = np.arange(d)[None, :]
    mat = np.empty((d, d), dtype=complex)
    mat[(q + h * x) % d, (q - h * x) % d] = D
    return DenseOperator(grid.dim, mat)


def gathered_real_dft(d: int, dtype: type) -> np.ndarray:
    """wigner._real_dft(d, dtype) as one gather: every (cos, sin) pair of
    omega_table at the residues 2 u p mod d through (d + 1) x d index arrays,
    scaled in float64, then rounded to dtype."""
    u = np.arange(d + 1) // 2
    pairs = omega_table(d).view(np.float64)  # [2 k], [2 k + 1] -> cos, sin of 2 pi k / d
    factor = pairs[2 * (2 * u[:, None] * np.arange(d) % d) + np.arange(d + 1)[:, None] % 2]
    factor *= np.where(u > 0, 2.0, 1.0)[:, None] / d
    return factor.astype(dtype, copy=False)


def wigner_minima(amps: np.ndarray) -> np.ndarray:
    """Minimum of each row's Wigner grid, from wigner_rows."""
    return wigner_rows(amps, 0, amps.shape[1]).min(axis=(1, 2))


def complex_wigner_block(amps: np.ndarray) -> np.ndarray:
    """Complex Wigner grids of an (n, d) block, indexed [n, q, p]: every lag
    K(q, x) = psi(q + x/2) conj(psi(q - x/2)), gathered, times the complex DFT
    matrix F[x, p] = omega^(-p x) / d in one product over the rows (n, q)."""
    n, d = amps.shape
    h = (d + 1) // 2
    q = np.arange(d)[:, None]
    x = np.arange(d)[None, :]
    lags = amps[:, (q + h * x) % d] * np.conj(amps[:, (q - h * x) % d])  # [n, q, x]
    return (lags.reshape(n * d, d) @ dft_matrix(d)).reshape(n, d, d)


def chunked_minima(d: int, samples: int, two_point: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The float64 Wigner minima of verify_hudson's Haar and two-point
    samples, every row computed by the call that certifies it in verify_hudson,
    with no float32 bound: each stream cut into chunks of hudson._chunk_rows(d)
    indices, each chunk's rows drawn on their own, then
    wigner_rows(rows, 0, d, work) on each whole chunk, in order, until the
    stream has a finite minimum, and on each later row alone, on one workspace
    sized as verify sizes it."""
    step = hudson._chunk_rows(d)
    work = wigner_workspace(min(step, max(samples, two_point)), d)
    minima = []
    for n, stream in ((samples, hudson._HAAR_STREAM), (two_point, hudson._TWO_POINT_STREAM)):
        chunks = []
        for i in range(0, n, step):
            rows = sample_rows(d, seed, stream, range(i, min(i + step, n)))
            finite = any((chunk > -np.inf).any() for chunk in chunks)
            chunks += [wigner_rows(part, 0, d, work).min(axis=(1, 2))
                       for part in (np.split(rows, len(rows)) if finite else [rows])]
        minima.append(np.concatenate(chunks) if chunks else np.empty(0))
    return minima[0], minima[1]
