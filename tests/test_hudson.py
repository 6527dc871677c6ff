"""Tests for the positivity checks, seeded sampling and the verification engine."""

import functools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from phasespace import (
    PrimeDim,
    StateVector,
    check_constant_modulus,
    check_modulus_inequality,
    check_positivity,
    check_support_dichotomy,
    enumerate_stabilizers,
    haar_sample,
    single_point_infeasibility,
    support,
    two_point_sample,
    verify_hudson,
    wigner_pure,
)
from phasespace.hudson import MAX_FAILURE_MESSAGES, _haar_rows, _two_point_rows

DIMS = [PrimeDim(3), PrimeDim(5), PrimeDim(7)]


class TestCheckPositivity:
    def test_basis_state_is_nonnegative(self):
        result = check_positivity(StateVector.basis(PrimeDim(3), 0))
        assert result.is_nonnegative
        assert result.min_value == 0.0

    def test_argmin_is_consistent(self):
        dim = PrimeDim(5)
        psi = haar_sample(dim, 3, 0)
        result = check_positivity(psi)
        grid = wigner_pure(psi).real_values()
        assert grid[result.argmin.p, result.argmin.q] == result.min_value
        assert result.min_value == grid.min()

    @pytest.mark.parametrize("dim", DIMS)
    def test_random_states_are_negative(self, dim):
        for i in range(10):
            result = check_positivity(haar_sample(dim, 5, i))
            assert not result.is_nonnegative
            assert result.min_value < -1e-9

    def test_tolerance_is_honored(self):
        psi = haar_sample(PrimeDim(3), 5, 0)
        assert not check_positivity(psi, tol=1e-9).is_nonnegative
        assert check_positivity(psi, tol=1.0).is_nonnegative


def _violations_oracle(psi, tol=1e-12):
    """Nested-loop recount of modulus-inequality violations."""
    d = psi.dim.d
    m = np.abs(psi.amp)
    count = 0
    for q in range(d):
        for x in range(d):
            if m[q] ** 2 < m[(q - x) % d] * m[(q + x) % d] - tol:
                count += 1
    return count


class TestModulusInequality:
    @pytest.mark.parametrize("dim", DIMS)
    def test_stabilizers_have_no_violations(self, dim):
        for state in enumerate_stabilizers(dim):
            assert check_modulus_inequality(state) == 0

    def test_two_point_profile_violates(self):
        dim = PrimeDim(3)
        psi = StateVector(dim, np.array([np.sqrt(0.9), np.sqrt(0.1), 0.0]))
        count = check_modulus_inequality(psi)
        assert count > 0
        assert count == _violations_oracle(psi)

    @pytest.mark.parametrize("dim", [PrimeDim(5), PrimeDim(7)])
    def test_matches_nested_loop_oracle(self, dim):
        for i in range(5):
            psi = haar_sample(dim, 8, i)
            assert check_modulus_inequality(psi) == _violations_oracle(psi)
        for i in range(5):
            psi = two_point_sample(dim, 8, i)
            assert check_modulus_inequality(psi) == _violations_oracle(psi)


class TestSupport:
    def test_uniform_has_full_support(self):
        dim = PrimeDim(5)
        sup = support(StateVector.normalized(dim, np.ones(5)))
        assert sup.points == (0, 1, 2, 3, 4)
        assert sup.size == 5
        assert sup.stable

    def test_basis_has_single_point(self):
        sup = support(StateVector.basis(PrimeDim(7), 4))
        assert sup.points == (4,)
        assert sup.stable

    def test_guard_trips_near_threshold(self):
        # a modulus within a factor 10 of the threshold is unclassifiable
        dim = PrimeDim(3)
        psi = StateVector.normalized(dim, np.array([1.0, 3e-8, 0.0]))
        assert not support(psi).stable
        below = StateVector.normalized(dim, np.array([1.0, 5e-9, 0.0]))
        assert not support(below).stable

    def test_guard_clear_far_from_threshold(self):
        dim = PrimeDim(3)
        psi = StateVector.normalized(dim, np.array([1.0, 1e-3, 0.0]))
        sup = support(psi)
        assert sup.stable
        assert sup.size == 2

    def test_threshold_parameter(self):
        dim = PrimeDim(3)
        psi = StateVector.normalized(dim, np.array([1.0, 1e-3, 0.0]))
        assert support(psi, threshold=1e-2).size == 1


class TestSupportDichotomy:
    def test_lines_and_points(self):
        dim = PrimeDim(5)
        assert check_support_dichotomy(StateVector.basis(dim, 2))
        assert check_support_dichotomy(StateVector.normalized(dim, np.ones(5)))
        assert check_support_dichotomy(haar_sample(dim, 1, 0))  # full support

    def test_two_point_states_fail(self):
        dim = PrimeDim(5)
        for i in range(5):
            assert not check_support_dichotomy(two_point_sample(dim, 1, i))


class TestConstantModulus:
    def test_uniform_spread_is_zero(self):
        dim = PrimeDim(5)
        assert check_constant_modulus(StateVector.normalized(dim, np.ones(5))) == 0.0

    @pytest.mark.parametrize("dim", DIMS)
    def test_quadratic_stabilizers_are_flat(self, dim):
        for state in enumerate_stabilizers(dim)[dim.d :]:
            assert check_constant_modulus(state) < 1e-15

    def test_requires_full_support(self):
        with pytest.raises(ValueError, match="full support"):
            check_constant_modulus(StateVector.basis(PrimeDim(3), 0))


class TestSampling:
    @pytest.mark.parametrize("dim", DIMS)
    def test_haar_sample_determinism(self, dim):
        a = haar_sample(dim, 42, 17)
        b = haar_sample(dim, 42, 17)
        assert np.array_equal(a.amp, b.amp)
        c = haar_sample(dim, 42, 18)
        assert not np.array_equal(a.amp, c.amp)
        e = haar_sample(dim, 43, 17)
        assert not np.array_equal(a.amp, e.amp)

    @pytest.mark.parametrize("dim", DIMS)
    def test_two_point_sample_support(self, dim):
        for i in range(10):
            psi = two_point_sample(dim, 42, i)
            assert np.count_nonzero(np.abs(psi.amp) > 1e-12) == 2

    def test_two_point_sample_determinism(self):
        dim = PrimeDim(5)
        a = two_point_sample(dim, 9, 4)
        b = two_point_sample(dim, 9, 4)
        assert np.array_equal(a.amp, b.amp)

    @pytest.mark.parametrize("d", [3, 61])
    def test_raw_draws_come_from_per_index_substreams(self, d):
        dim = PrimeDim(d)
        for i in (0, 1, 17, 40):
            rng = np.random.default_rng(np.random.SeedSequence([42, 0, i]))
            z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            assert np.max(np.abs(haar_sample(dim, 42, i).amp - z / np.linalg.norm(z))) <= 1e-15
            rng = np.random.default_rng(np.random.SeedSequence([42, 1, i]))
            pos = rng.choice(d, size=2, replace=False)
            w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            amp = two_point_sample(dim, 42, i).amp
            assert set(np.nonzero(amp)[0]) == set(pos)
            assert np.max(np.abs(amp[pos] - w / np.linalg.norm(w))) <= 1e-15

    @pytest.mark.parametrize("d", [3, 61])
    def test_block_rows_equal_single_samples(self, d):
        dim = PrimeDim(d)
        haar, two = _haar_rows(d, 9, range(40)), _two_point_rows(d, 9, range(40))
        for i in range(40):
            assert np.array_equal(haar[i], haar_sample(dim, 9, i).amp)
            assert np.array_equal(two[i], two_point_sample(dim, 9, i).amp)

    def test_streams_are_distinct(self):
        # index 0 of the two streams must not collide
        dim = PrimeDim(7)
        a = haar_sample(dim, 42, 0)
        b = two_point_sample(dim, 42, 0)
        assert abs(a.overlap(b)) < 1 - 1e-6


class TestVerifyHudson:
    @pytest.mark.parametrize(
        "dim,count", [(PrimeDim(3), 12), (PrimeDim(5), 30), (PrimeDim(7), 56)]
    )
    def test_passing_run(self, dim, count):
        report = verify_hudson(dim, samples=25, seed=11)
        assert report.passed
        assert report.failures == []
        assert report.stabilizer_count == count
        assert report.stabilizers_all_nonneg
        assert report.stabilizer_min_wigner >= -1e-12
        assert report.random_all_negative
        assert report.random_all_nonstabilizer
        assert report.random_max_min_wigner < -1e-9
        assert report.two_point_all_negative
        assert report.lemma4_violations == 0
        assert report.lemma5_support_sizes == {1: dim.d, dim.d: dim.d**2}
        assert report.lemma6_max_modulus_spread <= 1e-12
        assert report.lemma6_max_modulus_offset <= 1e-12
        assert report.support_guard_stable

    def test_deterministic(self):
        a = verify_hudson(PrimeDim(3), samples=30, seed=7)
        b = verify_hudson(PrimeDim(3), samples=30, seed=7)
        assert a.to_dict() == b.to_dict()

    def test_to_dict_is_json_ready(self):
        report = verify_hudson(PrimeDim(3), samples=5, seed=2)
        doc = json.loads(json.dumps(report.to_dict(), sort_keys=True))
        assert doc["passed"] is True
        assert doc["lemma5_support_sizes"] == {"1": 3, "3": 9}
        assert doc["dim"] == 3
        assert doc["random_samples"] == 5

    def test_failure_path_is_recorded(self):
        # an absurd negativity demand cannot be met: |W| <= 1/d < 0.5
        report = verify_hudson(PrimeDim(3), samples=10, seed=1, tol=0.5)
        assert not report.passed
        assert not report.random_all_negative
        assert len(report.failures) > 0
        assert any("random sample" in msg for msg in report.failures)

    def test_failure_messages_are_bounded(self):
        report = verify_hudson(PrimeDim(3), samples=1000, seed=1, tol=0.5)
        assert len(report.failures) == MAX_FAILURE_MESSAGES == 20
        assert report.failures_total >= 1000
        assert not report.passed
        doc = report.to_dict()
        assert doc["failures_total"] == report.failures_total
        assert doc["failures"] == report.failures
        # the kept messages are the first ones, in index order
        assert report.failures[:2] == [m for m in report.failures if "sample 0 " in m or "sample 1 " in m]

    def test_passing_artifact_adds_only_the_zero_total(self):
        doc = verify_hudson(PrimeDim(3), samples=5, seed=2).to_dict()
        assert doc["failures"] == [] and doc["failures_total"] == 0 and doc["passed"] is True

    def test_peak_memory_is_bounded(self):
        tracemalloc.start()
        try:
            verify_hudson(PrimeDim(61), 50, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_rejects_nonfinite_or_negative_tol(self, tol):
        with pytest.raises(ValueError, match="tol"):
            verify_hudson(PrimeDim(3), samples=5, seed=1, tol=tol, two_point_samples=5)

    def test_zero_samples_edge(self):
        report = verify_hudson(PrimeDim(3), samples=0, seed=1, two_point_samples=0)
        assert report.passed
        assert report.random_max_min_wigner == 0.0
        assert report.two_point_max_min_wigner == 0.0


def _explicit_stack(d):
    """Basis rows, then d^(-1/2) exp(2 pi i (theta q^2 + x q) / d) in (theta, x) order."""
    q = np.arange(d)
    rows = [np.eye(d)[k] for k in range(d)]
    rows += [np.exp(2j * np.pi * (t * q * q + x * q) / d) / np.sqrt(d) for t in range(d) for x in range(d)]
    return np.array(rows)


def _fft_minimum(amp):
    """Minimum of the FFT-route Wigner grid W[p, q] and its (p, q)."""
    d = len(amp)
    q = np.arange(d)
    h = (d + 1) // 2
    grid = np.fft.fft(amp[(q[:, None] + h * q) % d] * np.conj(amp[(q[:, None] - h * q) % d]), axis=1).T / d
    assert np.abs(grid.imag).max() <= 1e-12
    flat = grid.real.ravel()
    return float(flat.min()), divmod(int(flat.argmin()), d)


@functools.lru_cache(maxsize=None)
def _reference_stabilizer_part(d):
    """The seed-independent half of the reference loop, over the stabilizers."""
    q = np.arange(d)
    failures = []
    stab_min, sizes, lemma4, spread_max, offset_max, stable_all = math.inf, {}, 0, 0.0, 0.0, True
    for idx, amp in enumerate(_explicit_stack(d)):
        value, where = _fft_minimum(amp)
        stab_min = min(stab_min, value)
        if value < -1e-12:
            failures.append(f"stabilizer {idx} has Wigner minimum {value!r} at {where}")
            continue
        m = np.abs(amp)
        lhs, lag = m[q, None] ** 2, q[None, :]
        violations = int(np.count_nonzero(lhs < m[(q[:, None] - lag) % d] * m[(q[:, None] + lag) % d] - 1e-12))
        if violations:
            failures.append(f"stabilizer {idx} violates the modulus inequality {violations} times")
        lemma4 += violations
        size = int(np.sum(m > 1e-8))
        if np.any((m >= 1e-9) & (m <= 1e-7)):
            stable_all = False
            failures.append(f"support threshold guard tripped on stabilizer {idx}; run inconclusive")
        sizes[size] = sizes.get(size, 0) + 1
        if size not in (1, d):
            failures.append(f"stabilizer {idx} has support size {size}, expected 1 or {d}")
        elif size == d:
            spread, offset = float(m.max() - m.min()), float(np.abs(m - 1 / math.sqrt(d)).max())
            spread_max, offset_max = max(spread_max, spread), max(offset_max, offset)
            if spread > 1e-12:
                failures.append(f"stabilizer {idx} has modulus spread {spread!r}")
            if offset > 1e-12:
                failures.append(f"stabilizer {idx} modulus is off d^-1/2 by {offset!r}")
    fields = {
        "stabilizer_tol": 1e-12, "stabilizer_count": d * (d + 1),
        "stabilizers_all_nonneg": stab_min >= -1e-12, "stabilizer_min_wigner": stab_min,
        "lemma4_violations": lemma4, "lemma5_support_sizes": {str(k): v for k, v in sorted(sizes.items())},
        "lemma6_max_modulus_spread": spread_max, "lemma6_max_modulus_offset": offset_max,
        "support_guard_stable": stable_all,
    }
    return fields, tuple(failures)


def _reference_report(d, samples, seed, tol, two_point):
    """verify_hudson as a per-state loop over independent numpy oracles:
    explicit stabilizer rows, per-index draws, FFT Wigner grids, the explicit
    stabilizer stack for matching, and gather-indexed lemma checks."""
    stack = _explicit_stack(d)
    stabilizer_fields, stabilizer_failures = _reference_stabilizer_part(d)
    failures = list(stabilizer_failures)

    random_max, random_neg, random_nonstab = -math.inf, True, True
    for i in range(samples):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0, i]))
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        amp = z / np.linalg.norm(z)
        value, _ = _fft_minimum(amp)
        random_max = max(random_max, value)
        if value >= -tol:
            random_neg = False
            failures.append(f"random sample {i} has Wigner minimum {value!r} >= -{tol!r}")
        if np.abs(stack.conj() @ amp).max() >= 1 - 1e-9:
            random_nonstab = False
            failures.append(f"random sample {i} matches a stabilizer state")

    two_max, two_neg = -math.inf, True
    for i in range(two_point):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1, i]))
        pos = rng.choice(d, size=2, replace=False)
        amp = np.zeros(d, dtype=complex)
        amp[pos] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        value, _ = _fft_minimum(amp / np.linalg.norm(amp))
        two_max = max(two_max, value)
        if value >= -tol:
            two_neg = False
            failures.append(f"two-point sample {i} has Wigner minimum {value!r} >= -{tol!r}")

    return {
        "dim": d, "seed": seed, "tol": tol, **stabilizer_fields,
        "random_samples": samples, "random_all_negative": random_neg,
        "random_all_nonstabilizer": random_nonstab, "random_max_min_wigner": random_max if samples else 0.0,
        "two_point_samples": two_point, "two_point_all_negative": two_neg,
        "two_point_max_min_wigner": two_max if two_point else 0.0,
        "failures": failures[:20], "failures_total": len(failures), "passed": not failures,
    }


_FLOAT = re.compile(r"-?\d+\.\d+(?:e-?\d+)?|-?\d+e-?\d+")


def _assert_reports_match(got, want):
    """Floats within 1e-12, failure messages exact apart from their floats,
    everything else exact."""
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, float):
            assert type(got[key]) is float and abs(got[key] - value) <= 1e-12, key
        elif key == "failures":
            assert [_FLOAT.sub("#", m) for m in got[key]] == [_FLOAT.sub("#", m) for m in value]
            for a, b in zip(got[key], value):
                for x, y in zip(_FLOAT.findall(a), _FLOAT.findall(b)):
                    assert abs(float(x) - float(y)) <= 1e-12
        else:
            assert got[key] == value and type(got[key]) is type(value), key


class TestVerifyAgainstPerStateReference:
    @pytest.mark.parametrize("d", [3, 5, 7, 61])
    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_report_matches_reference_loop(self, d, seed):
        got = verify_hudson(PrimeDim(d), samples=100, seed=seed, two_point_samples=40).to_dict()
        _assert_reports_match(got, _reference_report(d, 100, seed, 1e-9, 40))

    @pytest.mark.parametrize("d", [3, 61])
    def test_failing_report_matches_reference_loop(self, d):
        tol = 0.5 if d == 3 else 0.007
        got = verify_hudson(PrimeDim(d), samples=30, seed=5, tol=tol, two_point_samples=30).to_dict()
        want = _reference_report(d, 30, 5, tol, 30)
        assert want["failures_total"] > 0
        _assert_reports_match(got, want)


class TestSinglePointInfeasibility:
    @pytest.mark.parametrize("dim", DIMS)
    def test_point_mass_is_infeasible(self, dim):
        assert single_point_infeasibility(dim)

    def test_tolerance_semantics(self):
        # the reconstructed operator has minimum eigenvalue -1, so an
        # absurdly loose tolerance declares the point mass feasible
        assert not single_point_infeasibility(PrimeDim(3), tol=3.0)
