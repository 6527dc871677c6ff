"""Reference implementations that the tests compare the library against.

None of these is called by the package: each is the definitional form of an
object the package computes another way (weyl builds w(p, q) entrywise; the
Fourier predicates never form a circulant matrix).
"""

import numpy as np

from phasespace import CyclicFunction, DenseOperator, PhasePoint, PrimeDim, omega_table
from phasespace.qudit import dft_matrix


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


def symplectic_form(v1: PhasePoint, v2: PhasePoint) -> int:
    """sigma(v1, v2) = p1*q2 - q1*p2 mod d."""
    if v1.dim != v2.dim:
        raise ValueError("points live in different residue rings")
    return (v1.p * v2.q - v1.q * v2.p) % v1.dim.d


def projective_equal(u: DenseOperator, v: DenseOperator, tol: float = 1e-9) -> bool:
    """True iff u = (phase) v, tested as | |tr(u^dagger v)| - d | <= tol."""
    if u.dim != v.dim:
        raise ValueError("operator dimensions differ")
    return bool(abs(abs(np.trace(u.mat.conj().T @ v.mat)) - u.dim.d) <= tol)


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
