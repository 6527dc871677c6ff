"""State vectors, dense operators and Weyl operators for a single qudit.

Conventions (d an odd prime, omega = exp(2 pi i / d)):

    shift_op(q):  x(q)|k> = |k + q>
    boost_op(p):  z(p)|k> = omega^(p k) |k>
    weyl(p, q):   w(p, q) = omega^(-2^-1 p q) z(p) x(q)

where 2^-1 = (d+1)/2 is the inverse of 2 mod d. Every phase is looked up
in a precomputed table of the d roots of unity, indexed by exact residue
arithmetic; phases are never accumulated by repeated multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .zmod import PhasePoint, PrimeDim, half

NORM_TOL = 1e-12
# The block kernels process amplitude blocks in chunks of c consecutive rows,
# with c chosen so that each (c, d, d) temporary holds at most this many
# complex entries (1 MiB): peak memory stays flat however many states a block
# holds, and small-d blocks of a thousand states still take one chunk.
CHUNK_ELEMENTS = 1 << 16


@lru_cache(maxsize=None)
def omega_table(d: int) -> np.ndarray:
    """The d distinct d-th roots of unity, indexed by exponent residue."""
    table = np.exp(2j * np.pi * np.arange(d) / d)
    table.setflags(write=False)
    return table


@dataclass(frozen=True, eq=False)
class StateVector:
    """A normalized pure state; amp[k] is the amplitude on |k>."""

    dim: PrimeDim
    amp: np.ndarray

    def __post_init__(self) -> None:
        amp = np.array(self.amp, dtype=complex)
        if amp.shape != (self.dim.d,):
            raise ValueError(f"amplitude vector must have shape ({self.dim.d},)")
        # written so that a NaN norm fails the check too
        if not abs(np.vdot(amp, amp).real - 1.0) <= NORM_TOL:
            raise ValueError("state vector is not normalized")
        amp.setflags(write=False)
        object.__setattr__(self, "amp", amp)

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

    def overlap(self, other: StateVector) -> complex:
        """<self|other>."""
        return complex(np.vdot(self.amp, other.amp))


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """A dense d x d complex matrix acting on the qudit."""

    dim: PrimeDim
    mat: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.mat, dtype=complex)
        if mat.shape != (self.dim.d, self.dim.d):
            raise ValueError(f"operator must have shape ({self.dim.d}, {self.dim.d})")
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)

    @property
    def adjoint(self) -> DenseOperator:
        return DenseOperator(self.dim, self.mat.conj().T)

    def __matmul__(self, other: DenseOperator) -> DenseOperator:
        if other.dim != self.dim:
            raise ValueError("operator dimensions differ")
        return DenseOperator(self.dim, self.mat @ other.mat)

    def apply(self, psi: StateVector) -> np.ndarray:
        """Raw matrix-vector product (no renormalization)."""
        return self.mat @ psi.amp


def shift_op(dim: PrimeDim, q: int) -> DenseOperator:
    """x(q)|k> = |k + q>."""
    d = dim.d
    mat = np.zeros((d, d), dtype=complex)
    k = np.arange(d)
    mat[(k + q) % d, k] = 1.0
    return DenseOperator(dim, mat)


def boost_op(dim: PrimeDim, p: int) -> DenseOperator:
    """z(p)|k> = omega^(p k) |k>."""
    d = dim.d
    k = np.arange(d)
    return DenseOperator(dim, np.diag(omega_table(d)[(p * k) % d]))


def weyl(v: PhasePoint) -> DenseOperator:
    """w(p, q) = omega^(-2^-1 p q) z(p) x(q), built entrywise from the root table."""
    dim = v.dim
    d = dim.d
    p, q = v.p, v.q
    h = half(dim)
    k = np.arange(d)
    # nonzero entries sit at (k + q, k); exponent collects the global phase
    # -2^-1 p q with the boost phase p (k + q)
    exps = (-h * p * q + p * (k + q)) % d
    mat = np.zeros((d, d), dtype=complex)
    mat[(k + q) % d, k] = omega_table(d)[exps]
    return DenseOperator(dim, mat)


def weyl_adjoint(v: PhasePoint) -> DenseOperator:
    """Conjugate transpose of weyl(v); equals weyl(-v) exactly for odd d."""
    return weyl(v).adjoint


def projector(psi: StateVector) -> DenseOperator:
    """|psi><psi|."""
    return DenseOperator(psi.dim, np.outer(psi.amp, psi.amp.conj()))


def haar_random_state(dim: PrimeDim, seed: int) -> StateVector:
    """Haar-distributed pure state from a seeded generator (deterministic)."""
    return StateVector(dim, haar_block(dim.d, [seed])[0])


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


def haar_block(d: int, seeds) -> np.ndarray:
    """Haar-random unit rows; row k takes 2d standard normals (real parts,
    then imaginary parts) from default_rng(seeds[k])."""
    raw = np.empty((len(seeds), 2, d))
    for k, seed in enumerate(seeds):
        raw[k] = np.random.default_rng(seed).standard_normal((2, d))
    return normalize_rows(raw[:, 0] + 1j * raw[:, 1])


def dft_matrix(d: int) -> np.ndarray:
    """F[x, p] = omega^(-p x) / d, gathered from the root table on exact
    residues. Symmetric; callers build it once per call, it is not cached."""
    k = np.arange(d)
    return omega_table(d)[np.outer(k, -k) % d] / d


def row_chunks(n: int, d: int) -> list[slice]:
    """Consecutive row slices covering range(n), each at most
    max(1, CHUNK_ELEMENTS // d^2) rows long."""
    step = max(1, CHUNK_ELEMENTS // (d * d))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]
