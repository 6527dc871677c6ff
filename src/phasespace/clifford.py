"""The metaplectic representation of SL(2, Z_d) and stabilizer states.

metaplectic(S) returns the unitary mu(S) satisfying the exact conjugation
identity

    mu(S) w(v) mu(S)^dagger = w(S v)   for every phase point v,

where S = [[a, b], [c, e]] acts as (p, q) -> (a p + b q, c p + e q). Its
entries are written down in closed form, with h = 2^-1 = (d+1)/2 and every
exponent reduced as an exact integer residue before the root-of-unity
lookup:

    c != 0:  mu(S)[j, k] = d^(-1/2) omega^(h c^-1 (a j^2 - 2 j k + e k^2))
    c == 0:  mu(S)|k> = omega^(h b e k^2) |e k>   (e = a^-1 here)

By Schur's lemma the conjugation identity fixes mu(S) up to a global phase.
The convention picks the phase that makes the first nonzero entry in
row-major order real and positive, and both branches meet it as written:
for c != 0 the entry [0, 0] has exponent 0 and equals d^(-1/2); for c == 0
row 0 holds a single 1 at column 0. No rescale is needed. mu is a
projective representation: mu(S) mu(T) equals mu(S T) up to a phase.

Stabilizer states of a single qudit of odd prime dimension are the d
position basis states together with the d^2 quadratic-phase states

    psi(q) = d^(-1/2) omega^(theta q^2 + x q),

d(d+1) states in total (an orbit of |0> under the Clifford group; the test
suite certifies this by brute-force orbit closure). stabilizer_blocks yields
them as d + 1 blocks of d amplitude rows, so no caller has to hold all of
them at once.

is_stabilizer never builds that family. The largest overlap of psi with a
stabilizer state is

    max( max_k |psi(k)|,  max_{theta, x} d^(-1/2) |sum_q omega^(-theta q^2 - x q) psi(q)| ),

and for each theta the inner sums over x are one DFT of the chirped row
omega^(-theta q^2) psi(q); stabilizer_overlaps evaluates them for a block of
states with the same DFT matrix product as the Wigner kernels.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .qudit import DenseOperator, StateVector, dft_matrix, omega_table, row_chunks, weyl
from .zmod import PhasePoint, PrimeDim, SymplecticMatrix, half, sl2_apply


def metaplectic(S: SymplecticMatrix) -> DenseOperator:
    """The unitary mu(S) with mu(S) w(v) mu(S)^dagger = w(S v)."""
    d = S.dim.d
    a, b, c, e = S.as_ints()
    h = half(S.dim)
    omega = omega_table(d)
    k = np.arange(d)
    if c:
        # h c^-1 (a j^2 - 2 j k + e k^2) with 2 h = 1, so the cross term is -c^-1 j k
        ci = pow(c, -1, d)
        j = k[:, None]
        exps = (h * ci * a % d * (j * j) - ci * (j * k) + h * ci * e % d * (k * k)) % d
        mat = omega[exps] / np.sqrt(d)
    else:
        mat = np.zeros((d, d), dtype=complex)
        mat[e * k % d, k] = omega[h * b * e % d * (k * k) % d]
    return DenseOperator(S.dim, mat)


def projective_equal(u: DenseOperator, v: DenseOperator, tol: float = 1e-9) -> bool:
    """True iff u = (phase) v, tested as | |tr(u^dagger v)| - d | <= tol."""
    if u.dim != v.dim:
        raise ValueError("operator dimensions differ")
    return bool(abs(abs(np.trace(u.mat.conj().T @ v.mat)) - u.dim.d) <= tol)


@dataclass(frozen=True, eq=False)
class CliffordElement:
    """A Clifford group element w(shift) mu(symp)."""

    shift: PhasePoint
    symp: SymplecticMatrix
    unitary: DenseOperator

    @property
    def dim(self) -> PrimeDim:
        return self.shift.dim


def clifford_element(shift: PhasePoint, symp: SymplecticMatrix) -> CliffordElement:
    if shift.dim != symp.dim:
        raise ValueError("shift and matrix dimensions differ")
    return CliffordElement(shift, symp, weyl(shift) @ metaplectic(symp))


def compose(g: CliffordElement, h: CliffordElement) -> CliffordElement:
    """Group law: (u, S) (v, T) = (u + S v, S T), up to global phase."""
    return clifford_element(g.shift + sl2_apply(g.symp, h.shift), g.symp @ h.symp)


def clifford_apply(g: CliffordElement, psi: StateVector) -> StateVector:
    """Apply the unitary of g; the result is renormalized defensively."""
    if g.dim != psi.dim:
        raise ValueError("element and state dimensions differ")
    return StateVector.normalized(psi.dim, g.unitary.apply(psi))


# ---------------------------------------------------------------------------
# Stabilizer states
# ---------------------------------------------------------------------------


def _quadratic_amps(d: int, theta: int, x) -> np.ndarray:
    """d^(-1/2) omega^(theta q^2 + x q) over q; an (m, 1) array x gives m rows."""
    q = np.arange(d)
    return omega_table(d)[(theta * q * q + x * q) % d] / np.sqrt(d)


def stabilizer_from_quadratic(dim: PrimeDim, theta: int, x: int) -> StateVector:
    """The quadratic-phase state psi(q) = d^(-1/2) omega^(theta q^2 + x q)."""
    return StateVector(dim, _quadratic_amps(dim.d, theta, x))


def stabilizer_blocks(d: int) -> Iterator[np.ndarray]:
    """The d(d+1) stabilizer states as d + 1 (d, d) amplitude blocks, in the
    order of enumerate_stabilizers: the basis states, then for each theta the
    quadratic-phase states x = 0, ..., d-1."""
    yield np.eye(d, dtype=complex)
    x = np.arange(d)[:, None]
    for theta in range(d):
        yield _quadratic_amps(d, theta, x)


def enumerate_stabilizers(dim: PrimeDim) -> list[StateVector]:
    """All d(d+1) stabilizer states: basis states, then quadratic-phase states
    in lexicographic (theta, x) order."""
    return [StateVector(dim, amp) for block in stabilizer_blocks(dim.d) for amp in block]


def stabilizer_descriptors(dim: PrimeDim) -> list[dict]:
    """Descriptors aligned index-by-index with enumerate_stabilizers."""
    descs: list[dict] = [{"kind": "basis", "k": k} for k in range(dim.d)]
    for theta in range(dim.d):
        for x in range(dim.d):
            descs.append({"kind": "quadratic", "theta": theta, "x": x})
    return descs


def stabilizer_overlaps(amps: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Largest |<s|psi>| over the d(d+1) stabilizer states s, for each row psi
    of an (n, d) block; F is dft_matrix(d).

    For each theta the overlaps with the quadratic states are sqrt(d) times
    the DFT (through F) of the chirped row omega^(-theta q^2) psi(q).
    """
    n, d = amps.shape
    q = np.arange(d)
    chirps = omega_table(d)[np.outer(q, -(q * q)) % d]  # [theta, q]
    best = np.abs(amps).max(axis=1)
    for rows in row_chunks(n, d):
        c = rows.stop - rows.start
        chirped = amps[rows, None, :] * chirps  # [c, theta, q]
        sums = np.abs(chirped.reshape(c * d, d) @ F).reshape(c, d * d)
        best[rows] = np.maximum(best[rows], sums.max(axis=1) * np.sqrt(d))
    return best


def is_stabilizer(psi: StateVector, tol: float = 1e-9) -> bool:
    """True iff psi matches some stabilizer state up to phase within tol."""
    overlap = stabilizer_overlaps(psi.amp[None], dft_matrix(psi.dim.d))[0]
    return bool(overlap >= 1.0 - tol)
