"""Exact arithmetic in Z_d for an odd prime d, and the group SL(2, Z_d).

Residues are plain Python ints. The value types below reduce every entry to
{0, ..., d-1} on construction, with operator.index(x) % d, so
representations are unique and equality is structural; integer types such
as numpy integers are accepted and floats are rejected. Every type here is
immutable and hashable; all operations are pure functions on Python
integers, never on floats.
"""

from __future__ import annotations

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
    """An odd prime dimension d >= 3, validated by trial division."""

    d: int

    def __post_init__(self) -> None:
        if not isinstance(self.d, int) or isinstance(self.d, bool) or not _is_odd_prime(self.d):
            raise ValueError(f"d must be an odd prime >= 3, got {self.d!r}")

    def point(self, p: int, q: int) -> PhasePoint:
        return PhasePoint(self, p, q)

    def all_points(self) -> list[PhasePoint]:
        """All d^2 phase-space points, row-major in (p, q)."""
        return [self.point(p, q) for p in range((self.d)) for q in range(self.d)]


def _reduce(obj, names: tuple[str, ...]) -> None:
    """Replace each named field of a frozen value by its residue mod obj.dim.d."""
    d = obj.dim.d
    for name in names:
        object.__setattr__(obj, name, operator.index(getattr(obj, name)) % d)


@dataclass(frozen=True)
class PhasePoint:
    """A point (p, q) of the d x d phase space; p is the momentum label."""

    dim: PrimeDim
    p: int
    q: int

    def __post_init__(self) -> None:
        _reduce(self, ("p", "q"))

    def __add__(self, other: PhasePoint) -> PhasePoint:
        if other.dim != self.dim:
            raise ValueError("points live in different residue rings")
        return PhasePoint(self.dim, self.p + other.p, self.q + other.q)

    def __neg__(self) -> PhasePoint:
        return PhasePoint(self.dim, -self.p, -self.q)

    def as_ints(self) -> tuple[int, int]:
        return (self.p, self.q)


def half(dim: PrimeDim) -> int:
    """The residue (d+1)/2, i.e. the multiplicative inverse of 2 mod d."""
    return (dim.d + 1) // 2


def symplectic_form(v1: PhasePoint, v2: PhasePoint) -> int:
    """sigma(v1, v2) = p1*q2 - q1*p2 mod d."""
    if v1.dim != v2.dim:
        raise ValueError("points live in different residue rings")
    return (v1.p * v2.q - v1.q * v2.p) % v1.dim.d


# ---------------------------------------------------------------------------
# SL(2, Z_d)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymplecticMatrix:
    """A matrix [[a, b], [c, e]] over Z_d with determinant 1."""

    dim: PrimeDim
    a: int
    b: int
    c: int
    e: int

    def __post_init__(self) -> None:
        _reduce(self, ("a", "b", "c", "e"))
        if (self.a * self.e - self.b * self.c) % self.dim.d != 1:
            raise ValueError("determinant must be 1 mod d")

    @classmethod
    def identity(cls, dim: PrimeDim) -> SymplecticMatrix:
        return cls(dim, 1, 0, 0, 1)

    @classmethod
    def fourier(cls, dim: PrimeDim) -> SymplecticMatrix:
        """The flip [[0, -1], [1, 0]]."""
        return cls(dim, 0, -1, 1, 0)

    @classmethod
    def chirp(cls, dim: PrimeDim, c: int) -> SymplecticMatrix:
        """The lower-triangular shear [[1, 0], [c, 1]]."""
        return cls(dim, 1, 0, c, 1)

    @classmethod
    def scaling(cls, dim: PrimeDim, a: int) -> SymplecticMatrix:
        """The diagonal [[a, 0], [0, a^-1]], a != 0."""
        return cls(dim, a, 0, 0, pow(operator.index(a), -1, dim.d))

    def __matmul__(self, other: SymplecticMatrix) -> SymplecticMatrix:
        if other.dim != self.dim:
            raise ValueError("operands live in different residue rings")
        return SymplecticMatrix(
            self.dim,
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.e,
            self.c * other.a + self.e * other.c,
            self.c * other.b + self.e * other.e,
        )

    def inverse(self) -> SymplecticMatrix:
        return SymplecticMatrix(self.dim, self.e, -self.b, -self.c, self.a)

    def as_ints(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.e)


def sl2_apply(S: SymplecticMatrix, v: PhasePoint) -> PhasePoint:
    """Left action on column vectors: (p, q) -> (a*p + b*q, c*p + e*q)."""
    if S.dim != v.dim:
        raise ValueError("matrix and point live in different residue rings")
    return PhasePoint(S.dim, S.a * v.p + S.b * v.q, S.c * v.p + S.e * v.q)


def sl2_enumerate(dim: PrimeDim) -> list[SymplecticMatrix]:
    """All d(d^2 - 1) elements of SL(2, Z_d), sorted by (a, b, c, e).

    Parametrized directly: for a != 0 the entry e is a^-1 (1 + b c); for
    a = 0 the determinant forces c = -b^-1 with b != 0 and e free.
    """
    d = dim.d
    tuples = []
    for a in range(1, d):
        ai = pow(a, -1, d)
        for b in range(d):
            for c in range(d):
                tuples.append((a, b, c, ai * (1 + b * c) % d))
    for b in range(1, d):
        c = -pow(b, -1, d) % d
        for e in range(d):
            tuples.append((0, b, c, e))
    tuples.sort()
    return [SymplecticMatrix(dim, *t) for t in tuples]
