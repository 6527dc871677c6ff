"""Exact arithmetic in Z_d for an odd prime d, and the group SL(2, Z_d).

Residues are plain Python ints, and a phase-space point is a plain pair
(p, q) of them. SymplecticMatrix reduces every entry to {0, ..., d-1} on
construction, with operator.index(x) % d, so representations are unique and
equality is structural. PrimeDim and SymplecticMatrix store any integer type
as Python ints and raise TypeError on floats. Every type here is immutable
and hashable; all operations are pure functions on Python integers, never on
floats.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass


def _is_odd_prime(n: int) -> bool:
    if n < 3 or n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class PrimeDim:
    """An odd prime dimension d >= 3 of any integer type, validated by trial division."""

    d: int

    def __post_init__(self) -> None:
        if isinstance(self.d, bool) or not isinstance(self.d, numbers.Integral):
            raise TypeError(f"d must be an integer, got {type(self.d).__name__}")
        object.__setattr__(self, "d", operator.index(self.d))
        if not _is_odd_prime(self.d):
            raise ValueError(f"d must be an odd prime >= 3, got {self.d!r}")


def half(dim: PrimeDim) -> int:
    """The residue (d+1)/2, i.e. the multiplicative inverse of 2 mod d."""
    return (dim.d + 1) // 2


# ---------------------------------------------------------------------------
# SL(2, Z_d)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymplecticMatrix:
    """A matrix [[a, b], [c, e]] over Z_d with determinant 1, acting on
    column vectors: (p, q) -> (a p + b q, c p + e q)."""

    dim: PrimeDim
    a: int
    b: int
    c: int
    e: int

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "e"):
            object.__setattr__(self, name, operator.index(getattr(self, name)) % self.dim.d)
        if (self.a * self.e - self.b * self.c) % self.dim.d != 1:
            raise ValueError("determinant must be 1 mod d")

    def as_ints(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.e)


def sl2_enumerate(dim: PrimeDim) -> list[SymplecticMatrix]:
    """All d(d^2 - 1) elements of SL(2, Z_d), sorted by (a, b, c, e).

    Generated in that order, each matrix built as it comes: first a = 0,
    where the determinant forces b != 0 and c = -b^-1 with e free, rising in
    (b, e); then each a != 0, where e = a^-1 (1 + b c), rising in (b, c).
    """
    d = dim.d
    mats = [SymplecticMatrix(dim, 0, b, -pow(b, -1, d), e) for b in range(1, d) for e in range(d)]
    for a in range(1, d):
        ai = pow(a, -1, d)
        mats += [SymplecticMatrix(dim, a, b, c, ai * (1 + b * c)) for b in range(d) for c in range(d)]
    return mats
