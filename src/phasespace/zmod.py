"""Exact arithmetic in Z_d for an odd prime d, and the group SL(2, Z_d).

Residues are reduced to {0, ..., d-1} on construction, so representations
are unique and equality is structural. Every type here is immutable and
hashable; all operations are pure functions on Python integers, never on
floats.
"""

from __future__ import annotations

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

    def scalar(self, value: int) -> ModScalar:
        return ModScalar(value, self)

    def point(self, p: int, q: int) -> PhasePoint:
        return PhasePoint(self.scalar(p), self.scalar(q))

    def all_points(self) -> list[PhasePoint]:
        """All d^2 phase-space points, row-major in (p, q)."""
        return [self.point(p, q) for p in range((self.d)) for q in range(self.d)]


@dataclass(frozen=True)
class ModScalar:
    """A canonical residue in {0, ..., d-1}."""

    value: int
    dim: PrimeDim

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", int(self.value) % self.dim.d)

    def _coerce(self, other: ModScalar | int) -> ModScalar:
        if isinstance(other, int):
            return ModScalar(other, self.dim)
        if not isinstance(other, ModScalar):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError("operands live in different residue rings")
        return other

    def __add__(self, other: ModScalar | int) -> ModScalar:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ModScalar(self.value + other.value, self.dim)

    __radd__ = __add__

    def __sub__(self, other: ModScalar | int) -> ModScalar:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ModScalar(self.value - other.value, self.dim)

    def __rsub__(self, other: ModScalar | int) -> ModScalar:
        other = self._coerce(other)
        return ModScalar(other.value - self.value, self.dim)

    def __mul__(self, other: ModScalar | int) -> ModScalar:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ModScalar(self.value * other.value, self.dim)

    __rmul__ = __mul__

    def __neg__(self) -> ModScalar:
        return ModScalar(-self.value, self.dim)

    def inv(self) -> ModScalar:
        return mod_inv(self)

    def __int__(self) -> int:
        return self.value

    # lets residues index numpy arrays directly
    __index__ = __int__


@dataclass(frozen=True)
class PhasePoint:
    """A point (p, q) of the d x d phase space; p is the momentum label."""

    p: ModScalar
    q: ModScalar

    def __post_init__(self) -> None:
        if self.p.dim != self.q.dim:
            raise ValueError("coordinates live in different residue rings")

    @property
    def dim(self) -> PrimeDim:
        return self.p.dim

    def __add__(self, other: PhasePoint) -> PhasePoint:
        return PhasePoint(self.p + other.p, self.q + other.q)

    def __neg__(self) -> PhasePoint:
        return PhasePoint(-self.p, -self.q)

    def as_ints(self) -> tuple[int, int]:
        return (self.p.value, self.q.value)


def mod_inv(x: ModScalar) -> ModScalar:
    """Multiplicative inverse in Z_d. Zero is not invertible."""
    if x.value == 0:
        raise ZeroDivisionError(f"0 is not invertible mod {x.dim.d}")
    return ModScalar(pow(x.value, -1, x.dim.d), x.dim)


def half(dim: PrimeDim) -> ModScalar:
    """The residue (d+1)/2, i.e. the multiplicative inverse of 2 mod d."""
    return dim.scalar((dim.d + 1) // 2)


def symplectic_form(v1: PhasePoint, v2: PhasePoint) -> ModScalar:
    """sigma(v1, v2) = p1*q2 - q1*p2 mod d."""
    return v1.p * v2.q - v1.q * v2.p


# ---------------------------------------------------------------------------
# SL(2, Z_d)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymplecticMatrix:
    """A matrix [[a, b], [c, e]] over Z_d with determinant 1."""

    a: ModScalar
    b: ModScalar
    c: ModScalar
    e: ModScalar

    def __post_init__(self) -> None:
        dims = {self.a.dim, self.b.dim, self.c.dim, self.e.dim}
        if len(dims) != 1:
            raise ValueError("entries live in different residue rings")
        if (self.a * self.e - self.b * self.c).value != 1:
            raise ValueError("determinant must be 1 mod d")

    @property
    def dim(self) -> PrimeDim:
        return self.a.dim

    @classmethod
    def from_ints(cls, dim: PrimeDim, a: int, b: int, c: int, e: int) -> SymplecticMatrix:
        return cls(dim.scalar(a), dim.scalar(b), dim.scalar(c), dim.scalar(e))

    @classmethod
    def identity(cls, dim: PrimeDim) -> SymplecticMatrix:
        return cls.from_ints(dim, 1, 0, 0, 1)

    @classmethod
    def fourier(cls, dim: PrimeDim) -> SymplecticMatrix:
        """The flip [[0, -1], [1, 0]]."""
        return cls.from_ints(dim, 0, -1, 1, 0)

    @classmethod
    def chirp(cls, dim: PrimeDim, c: int) -> SymplecticMatrix:
        """The lower-triangular shear [[1, 0], [c, 1]]."""
        return cls.from_ints(dim, 1, 0, c, 1)

    @classmethod
    def scaling(cls, dim: PrimeDim, a: int) -> SymplecticMatrix:
        """The diagonal [[a, 0], [0, a^-1]], a != 0."""
        ai = pow(a % dim.d, -1, dim.d)
        return cls.from_ints(dim, a, 0, 0, ai)

    def __matmul__(self, other: SymplecticMatrix) -> SymplecticMatrix:
        if other.dim != self.dim:
            raise ValueError("operands live in different residue rings")
        return SymplecticMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.e,
            self.c * other.a + self.e * other.c,
            self.c * other.b + self.e * other.e,
        )

    def inverse(self) -> SymplecticMatrix:
        return SymplecticMatrix(self.e, -self.b, -self.c, self.a)

    def as_ints(self) -> tuple[int, int, int, int]:
        return (self.a.value, self.b.value, self.c.value, self.e.value)


def sl2_apply(S: SymplecticMatrix, v: PhasePoint) -> PhasePoint:
    """Left action on column vectors: (p, q) -> (a*p + b*q, c*p + e*q)."""
    if S.dim != v.dim:
        raise ValueError("matrix and point live in different residue rings")
    return PhasePoint(S.a * v.p + S.b * v.q, S.c * v.p + S.e * v.q)


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
    return [SymplecticMatrix.from_ints(dim, *t) for t in tuples]
