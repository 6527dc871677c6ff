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
suite certifies this by brute-force orbit closure).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qudit import DenseOperator, StateVector, omega_table, weyl
from .zmod import ModScalar, PhasePoint, PrimeDim, SymplecticMatrix, half, sl2_apply


def metaplectic(S: SymplecticMatrix) -> DenseOperator:
    """The unitary mu(S) with mu(S) w(v) mu(S)^dagger = w(S v)."""
    d = S.dim.d
    a, b, c, e = S.as_ints()
    h = half(S.dim).value
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


@dataclass(frozen=True)
class QuadraticStabilizer:
    """Parameters (theta, x) of psi(q) = d^(-1/2) omega^(theta q^2 + x q)."""

    theta: ModScalar
    x: ModScalar

    def __post_init__(self) -> None:
        if self.theta.dim != self.x.dim:
            raise ValueError("parameters live in different residue rings")

    @property
    def dim(self) -> PrimeDim:
        return self.theta.dim


def stabilizer_from_quadratic(s: QuadraticStabilizer) -> StateVector:
    d = s.dim.d
    q = np.arange(d)
    exps = (s.theta.value * q * q + s.x.value * q) % d
    return StateVector(s.dim, omega_table(d)[exps] / np.sqrt(d))


def enumerate_stabilizers(dim: PrimeDim) -> list[StateVector]:
    """All d(d+1) stabilizer states: basis states, then quadratic-phase states
    in lexicographic (theta, x) order."""
    states = [StateVector.basis(dim, k) for k in range(dim.d)]
    for theta in range(dim.d):
        for x in range(dim.d):
            s = QuadraticStabilizer(dim.scalar(theta), dim.scalar(x))
            states.append(stabilizer_from_quadratic(s))
    return states


def stabilizer_descriptors(dim: PrimeDim) -> list[dict]:
    """Descriptors aligned index-by-index with enumerate_stabilizers."""
    descs: list[dict] = [{"kind": "basis", "k": k} for k in range(dim.d)]
    for theta in range(dim.d):
        for x in range(dim.d):
            descs.append({"kind": "quadratic", "theta": theta, "x": x})
    return descs


@lru_cache(maxsize=None)
def _stabilizer_stack(d: int) -> np.ndarray:
    stack = np.stack([s.amp for s in enumerate_stabilizers(PrimeDim(d))])
    stack.setflags(write=False)
    return stack


def is_stabilizer(psi: StateVector, tol: float = 1e-9) -> bool:
    """True iff psi matches some stabilizer state up to phase within tol."""
    overlaps = np.abs(_stabilizer_stack(psi.dim.d).conj() @ psi.amp)
    return bool(overlaps.max() >= 1.0 - tol)
