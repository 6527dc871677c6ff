"""Characteristic functions, discrete Wigner functions, and covariance.

For a density operator rho on a qudit of odd prime dimension d:

    characteristic:  Xi(xi, x) = (1/d) tr( w(xi, x)^dagger rho )
    Wigner:          W(p, q)   = (1/d) sum_{xi, x} omega^(q xi - p x) Xi(xi, x)

and for a pure state psi (with 2^-1 = (d+1)/2):

    K(q, x) = psi(q + 2^-1 x) conj(psi(q - 2^-1 x))
    W(p, q) = (1/d) sum_x omega^(-p x) K(q, x)

The two Wigner routes agree entrywise; for fixed q the row W(., q) is the
Fourier transform of the self-correlation row K(q, .). Grids are indexed
values[p][q].

The pure-state route runs on (n, d) amplitude blocks, one state per row:
wigner_block stacks the self-correlation rows of every state and applies the
DFT matrix F[x, p] = omega^(-p x) / d (rows permuted to the lag order
x = 2u of lag_products) in one matrix product, and
wigner_minima reduces each grid to its minimum chunk by chunk. wigner_pure is
the n = 1 case.

Covariance conventions are fixed once by an exhaustive numerical probe at
d = 3 (see probe_covariance_directions) and hard-coded:

    W of w(v) rho w(v)^dagger   is   W of rho, translated by -v
    W of mu(S) rho mu(S)^dagger is   W of rho, pulled back through S^-1
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qudit import DenseOperator, StateVector, dft_matrix, row_chunks
from .zmod import PhasePoint, PrimeDim, SymplecticMatrix, half

KIND_WIGNER = "wigner"
KIND_CHARACTERISTIC = "characteristic"

REALITY_TOL = 1e-12

# Direction conventions, fixed by probe_covariance_directions(PrimeDim(3)).
TRANSLATION_SIGN = -1
SYMPLECTIC_INVERSE = True


@dataclass(frozen=True, eq=False)
class PhaseGrid:
    """A d x d grid over phase space, indexed values[p][q]."""

    dim: PrimeDim
    values: np.ndarray
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in (KIND_WIGNER, KIND_CHARACTERISTIC):
            raise ValueError(f"unknown grid kind {self.kind!r}")
        values = np.array(self.values, dtype=complex)
        if values.shape != (self.dim.d, self.dim.d):
            raise ValueError(f"grid must have shape ({self.dim.d}, {self.dim.d})")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def real_values(self, tol: float = REALITY_TOL) -> np.ndarray:
        """The grid as a real array; fails if any imaginary residue exceeds tol."""
        return _real_part(self.values, tol).copy()

    def total(self) -> complex:
        return complex(self.values.sum())

    def to_json_dict(self) -> dict:
        """JSON form: real entries for Wigner grids, [re, im] pairs otherwise."""
        if self.kind == KIND_WIGNER:
            vals = [[float(x) for x in row] for row in self.real_values()]
        else:
            vals = [[[float(x.real), float(x.imag)] for x in row] for row in self.values]
        return {"d": self.dim.d, "kind": self.kind, "values": vals}

    def to_csv_rows(self) -> list[str]:
        """Rows in lexicographic (p, q) order with a header row."""
        if self.kind == KIND_WIGNER:
            vals = self.real_values()
            rows = ["p,q,value"]
            for p in range(self.dim.d):
                for q in range(self.dim.d):
                    rows.append(f"{p},{q},{float(vals[p, q])!r}")
        else:
            rows = ["p,q,re,im"]
            for p in range(self.dim.d):
                for q in range(self.dim.d):
                    z = self.values[p, q]
                    rows.append(f"{p},{q},{float(z.real)!r},{float(z.imag)!r}")
        return rows


@dataclass(frozen=True, eq=False)
class CorrelationTable:
    """Self-correlation K(q, x) of a pure state, indexed values[q][x]."""

    dim: PrimeDim
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=complex)
        if values.shape != (self.dim.d, self.dim.d):
            raise ValueError(f"table must have shape ({self.dim.d}, {self.dim.d})")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def _real_part(values: np.ndarray, tol: float = REALITY_TOL) -> np.ndarray:
    """A view of the real part; fails if any imaginary residue exceeds tol."""
    resid = float(np.max(np.abs(values.imag)))
    if resid > tol:
        raise ValueError(f"grid has imaginary residue {resid:.3e} above {tol:.1e}")
    return values.real


def characteristic(rho: DenseOperator) -> PhaseGrid:
    """Xi(xi, x) = (1/d) tr( w(xi, x)^dagger rho ).

    The mirror of operator_from_char: w(a, x) has its entry
    omega^(a (k + 2^-1 x)) at (k + x, k), so with j = k + 2^-1 x
    Xi(a, x) = (1/d) sum_j omega^(-a j) G[x, j], G[x, j] = rho[j + 2^-1 x, j - 2^-1 x],
    a DFT over j of the gathered rows.
    """
    d = rho.dim.d
    h = half(rho.dim)
    j = np.arange(d)[None, :]
    x = np.arange(d)[:, None]
    G = rho.mat[(j + h * x) % d, (j - h * x) % d]
    return PhaseGrid(rho.dim, (G @ dft_matrix(d)).T, KIND_CHARACTERISTIC)


def _symplectic_fourier(values: np.ndarray) -> np.ndarray:
    """d F G^T conj(F) for a grid G: both directions of the symplectic
    Fourier transform take this form, as two d x d matrix products."""
    d = values.shape[0]
    f = dft_matrix(d)
    return d * (f @ values.T @ f.conj())


def wigner_from_char(xi: PhaseGrid) -> PhaseGrid:
    """Symplectic Fourier transform W(p,q) = (1/d) sum omega^(q xi - p x) Xi(xi, x)."""
    if xi.kind != KIND_CHARACTERISTIC:
        raise ValueError("input grid must be a characteristic function")
    return PhaseGrid(xi.dim, _symplectic_fourier(xi.values), KIND_WIGNER)


def char_from_wigner(grid: PhaseGrid) -> PhaseGrid:
    """Inverse of wigner_from_char: Xi(xi, x) = (1/d) sum omega^(p x - q xi) W(p, q)."""
    if grid.kind != KIND_WIGNER:
        raise ValueError("input grid must be a Wigner function")
    return PhaseGrid(grid.dim, _symplectic_fourier(grid.values), KIND_CHARACTERISTIC)


def operator_from_char(xi: PhaseGrid) -> DenseOperator:
    """Reassemble the operator: rho = sum_{xi, x} Xi(xi, x) w(xi, x).

    w(a, x) is monomial, with its entry omega^(a (k + 2^-1 x)) at (k + x, k),
    so rho[k + x, k] = D[x, k + 2^-1 x] with D[x, j] = sum_a Xi(a, x) omega^(a j),
    a DFT over a for each x.
    """
    if xi.kind != KIND_CHARACTERISTIC:
        raise ValueError("input grid must be a characteristic function")
    d = xi.dim.d
    h = half(xi.dim)
    D = d * (xi.values.T @ dft_matrix(d).conj())
    k = np.arange(d)[None, :]
    x = np.arange(d)[:, None]
    mat = np.empty((d, d), dtype=complex)
    mat[(k + x) % d, k] = D[x, (k + h * x) % d]
    return DenseOperator(xi.dim, mat)


def lag_products(amps: np.ndarray) -> np.ndarray:
    """L[n, q, u] = A[n, q + u] conj(A[n, q - u]) for an (n, d) block A.

    For amplitudes this is the self-correlation K(q, x) at x = 2u. Both
    factors are strided views into the rows repeated three times, so the
    product is one pass over the (n, d, d) result with no gather.
    """
    n, d = amps.shape
    tripled = np.concatenate([amps, amps, amps], axis=1)  # [n, d + j] -> A[n, j mod d]
    row, col = tripled.strides
    # both views start at column d; along u one steps forward, the other back
    ahead = np.ndarray((n, d, d), tripled.dtype, tripled, d * col, (row, col, col))
    behind = np.ndarray((n, d, d), tripled.dtype, np.conj(tripled), d * col, (row, col, -col))
    return ahead * behind


def wigner_block(amps: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Wigner grids of an (n, d) block, indexed [n, q, p] (transposed):
    W(p, q) = (1/d) sum_u omega^(-2 p u) L(q, u), with L = lag_products and
    F = dft_matrix(d), as one matrix product over the stacked rows (n, q)."""
    n, d = amps.shape
    return (lag_products(amps).reshape(n * d, d) @ F[2 * np.arange(d) % d]).reshape(n, d, d)


def wigner_minima(amps: np.ndarray, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum of each row's Wigner grid, and its flat index p * d + q (the
    first in row-major (p, q) order), over row_chunks of the block.

    F is dft_matrix(d). Raises ValueError, like PhaseGrid.real_values, when a
    grid has an imaginary residue above REALITY_TOL.
    """
    n, d = amps.shape
    minima = np.empty(n)
    argmins = np.empty(n, dtype=np.intp)
    for rows in row_chunks(n, d):
        grids = _real_part(wigner_block(amps[rows], F))
        flat = grids.transpose(0, 2, 1).reshape(-1, d * d)  # [c, p * d + q]
        argmins[rows] = flat.argmin(axis=1)
        minima[rows] = flat[np.arange(len(flat)), argmins[rows]]
    return minima, argmins


def self_correlation(psi: StateVector) -> CorrelationTable:
    """K(q, x) = psi(q + 2^-1 x) conj(psi(q - 2^-1 x))."""
    d = psi.dim.d
    h = half(psi.dim)
    return CorrelationTable(psi.dim, lag_products(psi.amp[None])[0][:, h * np.arange(d) % d])


def wigner_pure(psi: StateVector) -> PhaseGrid:
    """W(p, q) = (1/d) sum_x omega^(-p x) K(q, x)."""
    grid = wigner_block(psi.amp[None], dft_matrix(psi.dim.d))[0]
    return PhaseGrid(psi.dim, grid.T, KIND_WIGNER)


def position_marginal(grid: PhaseGrid) -> np.ndarray:
    """sum_p W(p, q), a real length-d vector."""
    if grid.kind != KIND_WIGNER:
        raise ValueError("marginals are defined for Wigner grids")
    return grid.real_values().sum(axis=0)


def translate_grid(grid: PhaseGrid, v: PhasePoint) -> PhaseGrid:
    """Cyclic relabeling: new[p][q] = old[p + v.p][q + v.q]."""
    if grid.kind != KIND_WIGNER:
        raise ValueError("translation acts on Wigner grids")
    if v.dim != grid.dim:
        raise ValueError("point and grid dimensions differ")
    vals = np.roll(grid.values, shift=(-v.p, -v.q), axis=(0, 1))
    return PhaseGrid(grid.dim, vals, KIND_WIGNER)


def symplectic_transform_grid(grid: PhaseGrid, S: SymplecticMatrix) -> PhaseGrid:
    """Pullback relabeling: new[p][q] = old[S applied to (p, q)]."""
    if grid.kind != KIND_WIGNER:
        raise ValueError("symplectic transforms act on Wigner grids")
    if S.dim != grid.dim:
        raise ValueError("matrix and grid dimensions differ")
    d = grid.dim.d
    a, b, c, e = S.as_ints()
    P, Q = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    vals = grid.values[(a * P + b * Q) % d, (c * P + e * Q) % d]
    return PhaseGrid(grid.dim, vals, KIND_WIGNER)


# ---------------------------------------------------------------------------
# Covariance (probe-fixed directions)
# ---------------------------------------------------------------------------


def weyl_translated_grid(grid: PhaseGrid, v: PhasePoint) -> PhaseGrid:
    """Wigner grid of w(v) rho w(v)^dagger, given the grid of rho."""
    signed = grid.dim.point(TRANSLATION_SIGN * v.p, TRANSLATION_SIGN * v.q)
    return translate_grid(grid, signed)


def metaplectic_image_grid(grid: PhaseGrid, S: SymplecticMatrix) -> PhaseGrid:
    """Wigner grid of mu(S) rho mu(S)^dagger, given the grid of rho."""
    return symplectic_transform_grid(grid, S.inverse() if SYMPLECTIC_INVERSE else S)


def _grids_equal(g1: PhaseGrid, g2: PhaseGrid, tol: float) -> bool:
    return bool(np.max(np.abs(g1.values - g2.values)) <= tol)


def probe_covariance_directions(
    dim: PrimeDim, n_states: int = 5, seed: int = 2024, tol: float = 1e-10
) -> tuple[int, bool]:
    """Determine the covariance directions empirically.

    Exhausts all translations v (both signs) and all of SL(2, Z_d) (both S
    and S^-1) against n_states seeded Haar-random states, and returns the
    unique surviving (translation sign, use-inverse flag). The shipped
    constants TRANSLATION_SIGN and SYMPLECTIC_INVERSE are asserted against
    this probe in the test suite.
    """
    from .clifford import metaplectic
    from .qudit import haar_random_state, weyl
    from .zmod import sl2_enumerate

    states = [haar_random_state(dim, seed + i) for i in range(n_states)]
    grids = [wigner_pure(psi) for psi in states]

    signs = {+1, -1}
    for psi, grid in zip(states, grids):
        for v in dim.all_points():
            shifted = StateVector.normalized(dim, weyl(v).apply(psi))
            target = wigner_pure(shifted)
            for s in list(signs):
                moved = translate_grid(grid, dim.point(s * v.p, s * v.q))
                if not _grids_equal(moved, target, tol):
                    signs.discard(s)
    if len(signs) != 1:
        raise RuntimeError(f"translation probe is inconclusive: {sorted(signs)}")

    choices = {False, True}
    for psi, grid in zip(states, grids):
        for S in sl2_enumerate(dim):
            mapped = StateVector.normalized(dim, metaplectic(S).apply(psi))
            target = wigner_pure(mapped)
            for use_inv in list(choices):
                moved = symplectic_transform_grid(grid, S.inverse() if use_inv else S)
                if not _grids_equal(moved, target, tol):
                    choices.discard(use_inv)
    if len(choices) != 1:
        raise RuntimeError(f"symplectic probe is inconclusive: {sorted(choices)}")

    return (signs.pop(), choices.pop())
