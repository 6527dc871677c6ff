"""Functions on Z_d and a Bochner-style positivity test.

Transform convention:

    fhat(x) = (1/d) sum_q omega^(-q x) f(q),   i.e. fhat = dft_matrix(d) @ f

The positivity predicate is paired with an independent oracle in the test
suite (the circulant, the transform and its inverse live in tests/oracles.py):

    has_nonneg_fourier(f):          fhat >= 0 everywhere. Equivalent to the
        circulant matrix A[x][q] = f(x - q) being positive semidefinite
        (its eigenvalues are d * fhat up to ordering).

PREDICATE_TOL is applied to values rescaled so that sum |f|^2 = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qudit import _freeze, dft_matrix
from .zmod import PrimeDim

PREDICATE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class CyclicFunction:
    """A complex-valued function on Z_d, stored as values[q]."""

    dim: PrimeDim
    values: np.ndarray

    def __post_init__(self) -> None:
        _freeze(self, "values", self.values, (self.dim.d,), "function")


def has_nonneg_fourier(f: CyclicFunction) -> bool:
    """True iff the transform of f is (real and) nonnegative within PREDICATE_TOL.

    Requires the Hermitian symmetry f(-q) = conj(f(q)), which makes the
    transform real; otherwise the question is ill-posed and a ValueError
    is raised.
    """
    norm = np.linalg.norm(f.values)
    if norm == 0.0:
        return True
    values = f.values / norm
    d = f.dim.d
    sym_gap = np.max(np.abs(values[(-np.arange(d)) % d].conj() - values))
    if sym_gap > 1e-12:
        raise ValueError("transform not real: f lacks the symmetry f(-q) = conj(f(q))")
    return bool((dft_matrix(d) @ values).real.min() >= -PREDICATE_TOL)
