"""Characteristic functions, discrete Wigner functions, and covariance.

For a density operator rho on a qudit of odd prime dimension d:

    characteristic:  Xi(xi, x) = (1/d) tr( w(xi, x)^dagger rho )
    Wigner:          W(p, q)   = (1/d) sum_{xi, x} omega^(q xi - p x) Xi(xi, x)

and for a pure state psi (with 2^-1 = (d+1)/2):

    K(q, x) = psi(q + 2^-1 x) conj(psi(q - 2^-1 x))
    W(p, q) = (1/d) sum_x omega^(-p x) K(q, x)

The two Wigner routes agree entrywise; for fixed q the row W(., q) is the
Fourier transform of the self-correlation row K(q, .). Grids are indexed
values[p][q]. The second formula holds for any operator rho, with
rho[q + 2^-1 x, q - 2^-1 x] for K(q, x). Operators pair through their grids
(Gross 2006), tr(A rho) = d sum_{p, q} W_A(p, q) W_rho(p, q), which
hudson.single_point_infeasibility reads at one entry; no grid is inverted
back to its operator here (the tests do that, as an oracle).

The pure-state route runs on (n, d) amplitude blocks, one state per row,
in real arithmetic over half the lags. With x = 2u the self-correlation row
is L(q, u) = psi(q + u) conj(psi(q - u)), and L(q, -u) = conj L(q, u), so

    W(p, q) = (1/d) [ L(q, 0) + 2 sum_{u=1}^{(d-1)/2}
                      ( Re L(q, u) cos(4 pi p u / d) + Im L(q, u) sin(4 pi p u / d) ) ].

lag_products returns only u = 0, ..., (d-1)/2, and wigner_rows applies the
sum to every (state, q) row as one real matrix product: the (Re, Im) pairs
of those lags against cos and sin rows gathered from omega_table on the
integer residues 2 u p mod d. The grids are real by construction.
wigner_rows(amps, start, stop) computes the rows q in [start, stop) of the
(n, d, d) grids, and start, stop = 0, d the whole grids; wigner_pure is the
n = 1 case. It writes the complex lag products and the real grids of those
rows into the front of a wigner_workspace and returns a view of it; without
out it allocates a buffer for those rows alone. hudson.verify_hudson reuses
one workspace per call for each base grid, then every sample chunk and q range.

wigner_rows takes its precision from its input. A complex128 block (and any
other but complex64) runs in float64: complex128 lag products, a float64
factor, dgemm. A complex64 block runs in float32 throughout: complex64 lag
products, a float32 copy of the factor, sgemm, float32 grids. Both write into
the same float64 workspace, the float32 block through a float32 view of it,
so one workspace serves both and the float32 block uses half its bytes.

Covariance (checked against wigner_pure of the transformed state for every
v and every S at d = 3 and 5 by acceptance criteria 4 and 5;
metaplectic_image_grid computes the second):

    W of w(v) rho w(v)^dagger   is   W of rho, translated by +v
    W of mu(S) rho mu(S)^dagger is   W of rho, pulled back through S^-1
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qudit import DenseOperator, StateVector, _freeze, dft_matrix, omega_table
from .zmod import PrimeDim, SymplecticMatrix, half

KIND_WIGNER = "wigner"
KIND_CHARACTERISTIC = "characteristic"


@dataclass(frozen=True, eq=False)
class PhaseGrid:
    """A d x d grid over phase space, indexed values[p][q]."""

    dim: PrimeDim
    values: np.ndarray
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in (KIND_WIGNER, KIND_CHARACTERISTIC):
            raise ValueError(f"unknown grid kind {self.kind!r}")
        _freeze(self, "values", self.values, (self.dim.d, self.dim.d), "grid")


@dataclass(frozen=True, eq=False)
class CorrelationTable:
    """Self-correlation K(q, x) of a pure state, indexed values[q][x]."""

    dim: PrimeDim
    values: np.ndarray

    def __post_init__(self) -> None:
        _freeze(self, "values", self.values, (self.dim.d, self.dim.d), "table")


def characteristic(rho: DenseOperator) -> PhaseGrid:
    """Xi(xi, x) = (1/d) tr( w(xi, x)^dagger rho ).

    w(a, x) has its entry omega^(a (k + 2^-1 x)) at (k + x, k), so with j = k + 2^-1 x
    Xi(a, x) = (1/d) sum_j omega^(-a j) G[x, j], G[x, j] = rho[j + 2^-1 x, j - 2^-1 x],
    a DFT over j of the gathered rows.
    """
    d = rho.dim.d
    h = half(rho.dim)
    j = np.arange(d)[None, :]
    x = np.arange(d)[:, None]
    G = rho.mat[(j + h * x) % d, (j - h * x) % d]
    return PhaseGrid(rho.dim, (G @ dft_matrix(d)).T, KIND_CHARACTERISTIC)


def wigner_from_char(xi: PhaseGrid) -> PhaseGrid:
    """Symplectic Fourier transform W(p,q) = (1/d) sum omega^(q xi - p x) Xi(xi, x),
    as d F Xi^T conj(F): two d x d matrix products."""
    if xi.kind != KIND_CHARACTERISTIC:
        raise ValueError("input grid must be a characteristic function")
    d = xi.dim.d
    f = dft_matrix(d)
    return PhaseGrid(xi.dim, d * (f @ xi.values.T @ f.conj()), KIND_WIGNER)


def _lag_factors(amps: np.ndarray, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """The two (n, stop - start, (d+1)/2) factors of lag_products on the rows
    q in [start, stop): A[n, q + u] and conj(A[n, q - u]), strided views that
    both step forward along u, so that their product is one pass with
    contiguous inner loops and no gather. The first reads the rows written
    twice; the second a conjugated window of the columns it reads, held
    backwards from column stop - 1 down, so its q axis steps back."""
    n, d = amps.shape
    lags = (d + 1) // 2
    rows, width = stop - start, stop - start + lags - 1
    doubled = np.concatenate([amps, amps], axis=1)  # [n, k] -> A[n, k mod d]
    # [n, j] -> conj A[n, stop - 1 - j], for j < width
    behind = np.conjugate(doubled[:, stop - 1 + d:start + d - lags:-1])
    row, col = doubled.strides
    return (np.ndarray((n, rows, lags), doubled.dtype, doubled, start * col, (row, col, col)),
            np.ndarray((n, rows, lags), behind.dtype, behind, (rows - 1) * col, (behind.strides[0], -col, col)))


def lag_products(amps: np.ndarray) -> np.ndarray:
    """L[n, q, u] = A[n, q + u] conj(A[n, q - u]) for an (n, d) block A and
    u = 0, ..., (d-1)/2; the other lags are L(q, -u) = conj L(q, u).

    For amplitudes this is the self-correlation K(q, x) at x = 2u.
    """
    ahead, behind = _lag_factors(amps, 0, amps.shape[1])
    return ahead * behind


@lru_cache(maxsize=2)
def _real_dft(d: int, dtype: type) -> np.ndarray:
    """The real right factor of wigner_rows, (d + 1) x d, in dtype (float64,
    or float32 for a complex64 block): row 2u holds c_u cos(4 pi p u / d) / d
    and row 2u + 1 holds c_u sin(4 pi p u / d) / d, with c_0 = 1 and c_u = 2
    above. One gather from the (cos, sin) pairs of omega_table on the residues
    2 u p mod d, in float64; the float32 factor is that one rounded. Two are
    kept, both dtypes at one d: at d = 2003 the float64 factor is 32 MB.
    """
    u = np.arange(d + 1) // 2
    pairs = omega_table(d).view(np.float64)  # [2 k], [2 k + 1] -> cos, sin of 2 pi k / d
    factor = pairs[2 * (2 * u[:, None] * np.arange(d) % d) + np.arange(d + 1)[:, None] % 2]
    factor *= np.where(u > 0, 2.0, 1.0)[:, None] / d
    factor = factor.astype(dtype, copy=False)
    factor.setflags(write=False)
    return factor


def wigner_workspace(n: int, d: int) -> np.ndarray:
    """Scratch for wigner_rows(amps, start, stop, out) on blocks of up to n
    rows of length d: n d (d + 1) float64 reals for the lag pairs, then n d^2
    for the grids. A complex64 block reads it as float32, so fits in its first half."""
    return np.empty(n * d * (2 * d + 1))


def wigner_rows(amps: np.ndarray, start: int, stop: int, out: np.ndarray | None = None) -> np.ndarray:
    """The rows q in [start, stop) of the real Wigner grids of a complex
    (n, d) block, indexed [n, q - start, p] (transposed); start, stop = 0, d
    gives the whole grids. The (Re, Im) pairs of lag_products on those rows,
    read in place as n (stop - start) rows of d + 1 reals, times
    _real_dft(d): one real matrix product, whose Im L(q, 0) column meets a
    zero sine row. An entry is the same sum of d + 1 terms on any range.

    A complex64 block gets float32 grids, from complex64 lag products and
    sgemm; every other block float64 grids, from complex128 lag products and
    dgemm (see the module docstring). Both fill n (stop - start) (2d + 1)
    reals at the front of out, a wigner_workspace for at least n rows (by
    default a new buffer of that size), read as float32 for a complex64 block;
    the grids returned are a view of it, overwritten by the next call on it.
    """
    n, d = amps.shape
    if out is None:
        out = np.empty(n * (stop - start) * (2 * d + 1))  # these rows alone
    if amps.dtype == np.complex64:
        out, real, lags = out.view(np.float32), np.float32, np.complex64
    else:
        real, lags = np.float64, np.complex128
    rows = n * (stop - start)
    split = rows * (d + 1)
    # a workspace too small for the block fails these reshapes with ValueError
    pairs = out[:split].reshape(rows, d + 1)
    np.multiply(*_lag_factors(amps, start, stop), out=pairs.view(lags).reshape(n, stop - start, (d + 1) // 2))
    grids = out[split:split + rows * d].reshape(rows, d)
    np.matmul(pairs, _real_dft(d, real), out=grids)
    return grids.reshape(n, stop - start, d)


def self_correlation(psi: StateVector) -> CorrelationTable:
    """K(q, x) = psi(q + 2^-1 x) conj(psi(q - 2^-1 x))."""
    d = psi.dim.d
    lags = lag_products(psi.amp[None])[0]  # [q, u], u = 0, ..., (d-1)/2
    # even x = 2u is lag u; odd x = 2u - d is lag u > (d-1)/2, the conjugate of lag d - u
    table = np.empty((d, d), dtype=complex)
    table[:, ::2] = lags
    np.conjugate(lags[:, :0:-1], out=table[:, 1::2])
    return CorrelationTable(psi.dim, table)


def wigner_pure(psi: StateVector) -> PhaseGrid:
    """W(p, q) = (1/d) sum_x omega^(-p x) K(q, x), from the real wigner_rows,
    so the imaginary part of its values is exactly zero. The real grid is
    copied out of its workspace first, so that the workspace (64 MB at
    d = 2003, against 32 MB for the grid) is freed before PhaseGrid makes
    its complex copy."""
    return PhaseGrid(psi.dim, wigner_rows(psi.amp[None], 0, psi.dim.d)[0].T.copy(), KIND_WIGNER)


def metaplectic_image_grid(grid: PhaseGrid, S: SymplecticMatrix) -> PhaseGrid:
    """Wigner grid of mu(S) rho mu(S)^dagger, given the grid of rho: the grid
    pulled back through S^-1, new[p][q] = old[S^-1 (p, q)]."""
    if grid.kind != KIND_WIGNER:
        raise ValueError("covariance acts on Wigner grids")
    if S.dim != grid.dim:
        raise ValueError("grid dimensions differ")
    d = grid.dim.d
    a, b, c, e = S.inverse().as_ints()
    p = np.arange(d)[:, None]
    q = np.arange(d)[None, :]
    return PhaseGrid(grid.dim, grid.values[(a * p + b * q) % d, (c * p + e * q) % d], KIND_WIGNER)
