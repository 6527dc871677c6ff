"""Certification that nonnegative Wigner functions single out stabilizer states.

verify_hudson runs, for one dimension d, the full battery:

  * every enumerated stabilizer state has a nonnegative Wigner function
    (minimum entry >= -1e-12);
  * seeded Haar-random states all have a strictly negative minimum
    (below -tol) and are confirmed non-stabilizer;
  * seeded states supported on exactly two positions all have a strictly
    negative minimum;
  * on every state that passes positivity: the modulus inequality
    |psi(q)|^2 >= |psi(q - x)| |psi(q + x)| holds pairwise, the support size
    is 1 or d, and full-support states have constant modulus d^(-1/2).

Sample i is drawn from a substream keyed by (seed, stream, i), so reports
are reproducible and independent of evaluation order. Any sub-check failure
is recorded in the report's failures list; a report passes iff that list is
empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .clifford import enumerate_stabilizers, is_stabilizer
from .qudit import StateVector, haar_random_state
from .wigner import KIND_WIGNER, PhaseGrid, char_from_wigner, operator_from_char, wigner_pure
from .zmod import PhasePoint, PrimeDim

SUPPORT_THRESHOLD = 1e-8
STABILIZER_NONNEG_TOL = 1e-12
LEMMA_TOL = 1e-12


@dataclass(frozen=True)
class PositivityResult:
    """Minimum of a pure state's Wigner function and where it is attained."""

    min_value: float
    argmin: PhasePoint
    is_nonnegative: bool
    tol: float


@dataclass(frozen=True)
class SupportSet:
    """Positions where |psi(q)| exceeds the threshold.

    stable is False when some modulus lies within a factor 10 of the
    threshold, in which case membership is too fragile to classify.
    """

    points: tuple[int, ...]
    threshold: float
    stable: bool

    @property
    def size(self) -> int:
        return len(self.points)


def check_positivity(psi: StateVector, tol: float = 1e-9) -> PositivityResult:
    """Minimum Wigner entry of psi; nonnegative means min >= -tol."""
    w = wigner_pure(psi).real_values()
    flat_idx = int(np.argmin(w))
    p, q = divmod(flat_idx, psi.dim.d)
    min_value = float(w[p, q])
    return PositivityResult(min_value, psi.dim.point(p, q), min_value >= -tol, tol)


def check_modulus_inequality(psi: StateVector, tol: float = LEMMA_TOL) -> int:
    """Count pairs (q, x) violating |psi(q)|^2 >= |psi(q-x)| |psi(q+x)| - tol."""
    d = psi.dim.d
    m = np.abs(psi.amp)
    q = np.arange(d)[:, None]
    x = np.arange(d)[None, :]
    lhs = m[q] ** 2
    rhs = m[(q - x) % d] * m[(q + x) % d]
    return int(np.count_nonzero(lhs < rhs - tol))


def support(psi: StateVector, threshold: float = SUPPORT_THRESHOLD) -> SupportSet:
    """Indices with |psi(q)| > threshold, with a factor-10 stability guard."""
    m = np.abs(psi.amp)
    points = tuple(int(q) for q in np.nonzero(m > threshold)[0])
    near = (m >= threshold / 10) & (m <= threshold * 10)
    return SupportSet(points, threshold, not bool(near.any()))


def check_support_dichotomy(psi: StateVector, threshold: float = SUPPORT_THRESHOLD) -> bool:
    """True iff the support size is 1 or d."""
    return support(psi, threshold).size in (1, psi.dim.d)


def check_constant_modulus(psi: StateVector, threshold: float = SUPPORT_THRESHOLD) -> float:
    """Spread max|psi| - min|psi| of a full-support state (else ValueError)."""
    if support(psi, threshold).size != psi.dim.d:
        raise ValueError("constant-modulus check requires full support")
    m = np.abs(psi.amp)
    return float(m.max() - m.min())


# ---------------------------------------------------------------------------
# Seeded sampling (per-index substreams)
# ---------------------------------------------------------------------------

_HAAR_STREAM = 0
_TWO_POINT_STREAM = 1


def haar_sample(dim: PrimeDim, seed: int, index: int) -> StateVector:
    """Haar-random state i of the run; depends only on (seed, index)."""
    return haar_random_state(dim, np.random.SeedSequence([seed, _HAAR_STREAM, index]))


def two_point_sample(dim: PrimeDim, seed: int, index: int) -> StateVector:
    """State supported on two uniformly chosen positions, amplitudes uniform
    on the unit sphere of the two-dimensional subspace."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, _TWO_POINT_STREAM, index]))
    pos = rng.choice(dim.d, size=2, replace=False)
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    amp = np.zeros(dim.d, dtype=complex)
    amp[pos] = z
    return StateVector.normalized(dim, amp)


# ---------------------------------------------------------------------------
# The report
# ---------------------------------------------------------------------------


@dataclass
class VerificationReport:
    """Outcome of one verify_hudson run; passes iff failures is empty."""

    dim: int
    seed: int
    tol: float
    stabilizer_tol: float
    stabilizer_count: int
    stabilizers_all_nonneg: bool
    stabilizer_min_wigner: float
    random_samples: int
    random_all_negative: bool
    random_all_nonstabilizer: bool
    random_max_min_wigner: float
    two_point_samples: int
    two_point_all_negative: bool
    two_point_max_min_wigner: float
    lemma4_violations: int
    lemma5_support_sizes: dict[int, int]
    lemma6_max_modulus_spread: float
    lemma6_max_modulus_offset: float
    support_guard_stable: bool
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "seed": self.seed,
            "tol": self.tol,
            "stabilizer_tol": self.stabilizer_tol,
            "stabilizer_count": self.stabilizer_count,
            "stabilizers_all_nonneg": self.stabilizers_all_nonneg,
            "stabilizer_min_wigner": self.stabilizer_min_wigner,
            "random_samples": self.random_samples,
            "random_all_negative": self.random_all_negative,
            "random_all_nonstabilizer": self.random_all_nonstabilizer,
            "random_max_min_wigner": self.random_max_min_wigner,
            "two_point_samples": self.two_point_samples,
            "two_point_all_negative": self.two_point_all_negative,
            "two_point_max_min_wigner": self.two_point_max_min_wigner,
            "lemma4_violations": self.lemma4_violations,
            "lemma5_support_sizes": {str(k): v for k, v in sorted(self.lemma5_support_sizes.items())},
            "lemma6_max_modulus_spread": self.lemma6_max_modulus_spread,
            "lemma6_max_modulus_offset": self.lemma6_max_modulus_offset,
            "support_guard_stable": self.support_guard_stable,
            "failures": list(self.failures),
            "passed": self.passed,
        }


def verify_hudson(
    dim: PrimeDim,
    samples: int,
    seed: int,
    tol: float = 1e-9,
    two_point_samples: int = 100,
) -> VerificationReport:
    """Run the full certification battery for one dimension.

    Stabilizer states must be nonnegative at the fixed 1e-12 tolerance;
    random and two-point states must dip below -tol. The report is a pure
    function of (dim, samples, seed, tol, two_point_samples).

    tol must be finite and nonnegative: with a negative or NaN tol no sample
    could fail the negativity check, so the report would certify nothing, and
    with an infinite one every sample would fail.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    failures: list[str] = []
    d = dim.d

    stabilizers = enumerate_stabilizers(dim)
    stab_min = math.inf
    sizes: dict[int, int] = {}
    lemma4_violations = 0
    max_spread = 0.0
    max_offset = 0.0
    guard_stable = True
    target_modulus = 1.0 / math.sqrt(d)

    for idx, state in enumerate(stabilizers):
        result = check_positivity(state, STABILIZER_NONNEG_TOL)
        stab_min = min(stab_min, result.min_value)
        if not result.is_nonnegative:
            failures.append(
                f"stabilizer {idx} has Wigner minimum {result.min_value!r} "
                f"at {result.argmin.as_ints()}"
            )
            continue
        # the remaining checks apply to states that passed positivity
        violations = check_modulus_inequality(state, LEMMA_TOL)
        if violations:
            failures.append(f"stabilizer {idx} violates the modulus inequality {violations} times")
        lemma4_violations += violations

        sup = support(state)
        if not sup.stable:
            guard_stable = False
            failures.append(f"support threshold guard tripped on stabilizer {idx}; run inconclusive")
        sizes[sup.size] = sizes.get(sup.size, 0) + 1
        if sup.size not in (1, d):
            failures.append(f"stabilizer {idx} has support size {sup.size}, expected 1 or {d}")
        elif sup.size == d:
            spread = check_constant_modulus(state)
            offset = float(np.max(np.abs(np.abs(state.amp) - target_modulus)))
            max_spread = max(max_spread, spread)
            max_offset = max(max_offset, offset)
            if spread > LEMMA_TOL:
                failures.append(f"stabilizer {idx} has modulus spread {spread!r}")
            if offset > LEMMA_TOL:
                failures.append(f"stabilizer {idx} modulus is off d^-1/2 by {offset!r}")

    stabilizers_all_nonneg = stab_min >= -STABILIZER_NONNEG_TOL

    random_all_negative = True
    random_all_nonstabilizer = True
    random_max_min = -math.inf
    for i in range(samples):
        psi = haar_sample(dim, seed, i)
        result = check_positivity(psi, tol)
        random_max_min = max(random_max_min, result.min_value)
        if result.is_nonnegative:
            random_all_negative = False
            failures.append(f"random sample {i} has Wigner minimum {result.min_value!r} >= -{tol!r}")
        if is_stabilizer(psi):
            random_all_nonstabilizer = False
            failures.append(f"random sample {i} matches a stabilizer state")

    two_point_all_negative = True
    two_point_max_min = -math.inf
    for i in range(two_point_samples):
        psi = two_point_sample(dim, seed, i)
        result = check_positivity(psi, tol)
        two_point_max_min = max(two_point_max_min, result.min_value)
        if result.is_nonnegative:
            two_point_all_negative = False
            failures.append(f"two-point sample {i} has Wigner minimum {result.min_value!r} >= -{tol!r}")

    return VerificationReport(
        dim=d,
        seed=seed,
        tol=tol,
        stabilizer_tol=STABILIZER_NONNEG_TOL,
        stabilizer_count=len(stabilizers),
        stabilizers_all_nonneg=stabilizers_all_nonneg,
        stabilizer_min_wigner=float(stab_min),
        random_samples=samples,
        random_all_negative=random_all_negative,
        random_all_nonstabilizer=random_all_nonstabilizer,
        random_max_min_wigner=float(random_max_min) if samples else 0.0,
        two_point_samples=two_point_samples,
        two_point_all_negative=two_point_all_negative,
        two_point_max_min_wigner=float(two_point_max_min) if two_point_samples else 0.0,
        lemma4_violations=lemma4_violations,
        lemma5_support_sizes=sizes,
        lemma6_max_modulus_spread=max_spread,
        lemma6_max_modulus_offset=max_offset,
        support_guard_stable=guard_stable,
        failures=failures,
    )


def single_point_infeasibility(dim: PrimeDim, tol: float = 1e-9) -> bool:
    """True iff the Wigner grid concentrated at the origin (value 1) cannot
    come from a positive semidefinite operator.

    The grid is inverted to a characteristic function, the operator is
    reassembled as a Weyl sum, and its spectrum is examined: a negative
    eigenvalue below -tol certifies infeasibility.
    """
    d = dim.d
    vals = np.zeros((d, d), dtype=complex)
    vals[0, 0] = 1.0
    grid = PhaseGrid(dim, vals, KIND_WIGNER)
    rho = operator_from_char(char_from_wigner(grid)).mat
    herm_gap = float(np.max(np.abs(rho - rho.conj().T)))
    if herm_gap > 1e-12:
        raise RuntimeError(f"reconstructed operator is not Hermitian (gap {herm_gap:.3e})")
    eigs = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
    return bool(eigs.min() < -tol)
