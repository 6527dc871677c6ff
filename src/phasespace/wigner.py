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

Covariance conventions are fixed once by an exhaustive numerical probe at
d = 3 (see probe_covariance_directions) and hard-coded:

    W of w(v) rho w(v)^dagger   is   W of rho, translated by -v
    W of mu(S) rho mu(S)^dagger is   W of rho, pulled back through S^-1
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qudit import DenseOperator, StateVector, omega_table, weyl
from .zmod import PhasePoint, PrimeDim, SymplecticMatrix, half, sl2_apply

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
        resid = float(np.max(np.abs(self.values.imag)))
        if resid > tol:
            raise ValueError(f"grid has imaginary residue {resid:.3e} above {tol:.1e}")
        return self.values.real.copy()

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


def _phase_matrix(d: int, sign: int) -> np.ndarray:
    """Matrix omega^(sign * j * k) for j, k in Z_d."""
    jk = np.outer(np.arange(d), np.arange(d))
    return omega_table(d)[(sign * jk) % d]


def characteristic(rho: DenseOperator) -> PhaseGrid:
    """Xi(xi, x) = (1/d) tr( w(xi, x)^dagger rho )."""
    dim = rho.dim
    d = dim.d
    vals = np.empty((d, d), dtype=complex)
    for xi in range(d):
        for x in range(d):
            w = weyl(dim.point(xi, x))
            vals[xi, x] = np.vdot(w.mat, rho.mat) / d
    return PhaseGrid(dim, vals, KIND_CHARACTERISTIC)


def wigner_from_char(xi: PhaseGrid) -> PhaseGrid:
    """Symplectic Fourier transform W(p,q) = (1/d) sum omega^(q xi - p x) Xi(xi, x)."""
    if xi.kind != KIND_CHARACTERISTIC:
        raise ValueError("input grid must be a characteristic function")
    d = xi.dim.d
    plus = _phase_matrix(d, +1)   # [q, xi] -> omega^(q xi)
    minus = _phase_matrix(d, -1)  # [p, x]  -> omega^(-p x)
    vals = np.einsum("qj,px,jx->pq", plus, minus, xi.values) / d
    return PhaseGrid(xi.dim, vals, KIND_WIGNER)


def char_from_wigner(grid: PhaseGrid) -> PhaseGrid:
    """Inverse of wigner_from_char: Xi(xi, x) = (1/d) sum omega^(p x - q xi) W(p, q)."""
    if grid.kind != KIND_WIGNER:
        raise ValueError("input grid must be a Wigner function")
    d = grid.dim.d
    plus = _phase_matrix(d, +1)   # [p, x] -> omega^(p x)
    minus = _phase_matrix(d, -1)  # [q, xi] -> omega^(-q xi)
    vals = np.einsum("px,qj,pq->jx", plus, minus, grid.values) / d
    return PhaseGrid(grid.dim, vals, KIND_CHARACTERISTIC)


def operator_from_char(xi: PhaseGrid) -> DenseOperator:
    """Reassemble the operator: rho = sum_{xi, x} Xi(xi, x) w(xi, x)."""
    if xi.kind != KIND_CHARACTERISTIC:
        raise ValueError("input grid must be a characteristic function")
    dim = xi.dim
    d = dim.d
    mat = np.zeros((d, d), dtype=complex)
    for a in range(d):
        for x in range(d):
            mat += xi.values[a, x] * weyl(dim.point(a, x)).mat
    return DenseOperator(dim, mat)


def self_correlation(psi: StateVector) -> CorrelationTable:
    """K(q, x) = psi(q + 2^-1 x) conj(psi(q - 2^-1 x))."""
    d = psi.dim.d
    h = half(psi.dim).value
    q = np.arange(d)[:, None]
    x = np.arange(d)[None, :]
    vals = psi.amp[(q + h * x) % d] * np.conj(psi.amp[(q - h * x) % d])
    return CorrelationTable(psi.dim, vals)


def wigner_pure(psi: StateVector) -> PhaseGrid:
    """W(p, q) = (1/d) sum_x omega^(-p x) K(q, x)."""
    d = psi.dim.d
    k = self_correlation(psi).values
    minus = _phase_matrix(d, -1)  # [p, x] -> omega^(-p x)
    vals = (minus @ k.T) / d      # [p, q]
    return PhaseGrid(psi.dim, vals, KIND_WIGNER)


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
    vals = np.roll(grid.values, shift=(-v.p.value, -v.q.value), axis=(0, 1))
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
    signed = grid.dim.point(TRANSLATION_SIGN * v.p.value, TRANSLATION_SIGN * v.q.value)
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
    from .qudit import haar_random_state
    from .zmod import sl2_enumerate

    states = [haar_random_state(dim, seed + i) for i in range(n_states)]
    grids = [wigner_pure(psi) for psi in states]

    signs = {+1, -1}
    for psi, grid in zip(states, grids):
        for v in dim.all_points():
            shifted = StateVector.normalized(dim, weyl(v).apply(psi))
            target = wigner_pure(shifted)
            for s in list(signs):
                moved = translate_grid(grid, dim.point(s * v.p.value, s * v.q.value))
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
