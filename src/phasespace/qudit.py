"""State vectors, dense and Weyl operators, and amplitude-block helpers for a qudit.

Conventions (d an odd prime, omega = exp(2 pi i / d)):

    shift:        x(q)|k> = |k + q>
    boost:        z(p)|k> = omega^(p k) |k>
    weyl(p, q):   w(p, q) = omega^(-2^-1 p q) z(p) x(q)

where 2^-1 = (d+1)/2 is the inverse of 2 mod d, and w(v)^dagger = w(-v)
exactly. Every phase is looked up in a precomputed table of the d roots of
unity, indexed by exact residue arithmetic; phases are never accumulated by
repeated multiplication.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .zmod import PrimeDim, half

NORM_TOL = 1e-12


@lru_cache(maxsize=None)
def omega_table(d: int) -> np.ndarray:
    """The d distinct d-th roots of unity, indexed by exponent residue."""
    table = np.exp(2j * np.pi * np.arange(d) / d)
    table.setflags(write=False)
    return table


def _freeze(obj, field: str, values, shape: tuple[int, ...], what: str) -> np.ndarray:
    """Set obj.<field> to a read-only complex copy of values, its current
    value, and return the copy; a shape other than shape raises ValueError.
    The constructor step of every validated value type."""
    values = np.array(values, dtype=complex)
    if values.shape != shape:
        raise ValueError(f"{what} must have shape {shape}")
    values.setflags(write=False)
    object.__setattr__(obj, field, values)
    return values


@dataclass(frozen=True, eq=False)
class StateVector:
    """A normalized pure state; amp[k] is the amplitude on |k>."""

    dim: PrimeDim
    amp: np.ndarray

    def __post_init__(self) -> None:
        amp = _freeze(self, "amp", self.amp, (self.dim.d,), "amplitude vector")
        # written so that a NaN norm fails the check too
        if not abs(np.vdot(amp, amp).real - 1.0) <= NORM_TOL:
            raise ValueError("state vector is not normalized")

    @classmethod
    def normalized(cls, dim: PrimeDim, amp) -> StateVector:
        amp = np.asarray(amp, dtype=complex)
        norm = np.linalg.norm(amp)
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(dim, amp / norm)

    @classmethod
    def basis(cls, dim: PrimeDim, k: int) -> StateVector:
        amp = np.zeros(dim.d, dtype=complex)
        amp[k % dim.d] = 1.0
        return cls(dim, amp)


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """A dense d x d complex matrix acting on the qudit."""

    dim: PrimeDim
    mat: np.ndarray

    def __post_init__(self) -> None:
        _freeze(self, "mat", self.mat, (self.dim.d, self.dim.d), "operator")

    def apply(self, psi: StateVector) -> np.ndarray:
        """Raw matrix-vector product (no renormalization)."""
        return self.mat @ psi.amp


def weyl(dim: PrimeDim, p: int, q: int) -> DenseOperator:
    """w(p, q) = omega^(-2^-1 p q) z(p) x(q), built entrywise from the root table.

    p and q are reduced with operator.index(x) % d: any integer type is
    accepted, and a float raises TypeError.
    """
    d = dim.d
    p, q = operator.index(p) % d, operator.index(q) % d
    h = half(dim)
    k = np.arange(d)
    # nonzero entries sit at (k + q, k); exponent collects the global phase
    # -2^-1 p q with the boost phase p (k + q)
    exps = (-h * p * q + p * (k + q)) % d
    mat = np.zeros((d, d), dtype=complex)
    mat[(k + q) % d, k] = omega_table(d)[exps]
    return DenseOperator(dim, mat)


def projector(psi: StateVector) -> DenseOperator:
    """|psi><psi|."""
    return DenseOperator(psi.dim, np.outer(psi.amp, psi.amp.conj()))


# ---------------------------------------------------------------------------
# Amplitude blocks: one state per row of an (n, d) array
# ---------------------------------------------------------------------------


def normalize_rows(amps: np.ndarray) -> np.ndarray:
    """Each row of an (n, d) block scaled to unit norm: the block form of
    StateVector.normalized followed by the StateVector norm check.

    Raises ValueError on a zero row, and on a row whose squared norm still
    misses 1 by more than NORM_TOL after scaling.
    """
    norms = np.linalg.norm(amps, axis=1)
    if not norms.all():
        raise ValueError("cannot normalize the zero vector")
    rows = amps / norms[:, None]
    if not np.all(np.abs((rows.real**2 + rows.imag**2).sum(axis=1) - 1.0) <= NORM_TOL):
        raise ValueError("state vector is not normalized")
    return rows


def dft_matrix(d: int) -> np.ndarray:
    """F[x, p] = omega^(-p x) / d, gathered from the root table on exact
    residues. Symmetric; callers build it once per call, it is not cached."""
    k = np.arange(d)
    return omega_table(d)[np.outer(k, -k) % d] / d
