"""Tests for the positivity checks, seeded sampling and the verification engine."""

import json

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
        assert grid[result.argmin.p.value, result.argmin.q.value] == result.min_value
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

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_rejects_nonfinite_or_negative_tol(self, tol):
        with pytest.raises(ValueError, match="tol"):
            verify_hudson(PrimeDim(3), samples=5, seed=1, tol=tol, two_point_samples=5)

    def test_zero_samples_edge(self):
        report = verify_hudson(PrimeDim(3), samples=0, seed=1, two_point_samples=0)
        assert report.passed
        assert report.random_max_min_wigner == 0.0
        assert report.two_point_max_min_wigner == 0.0


class TestSinglePointInfeasibility:
    @pytest.mark.parametrize("dim", DIMS)
    def test_point_mass_is_infeasible(self, dim):
        assert single_point_infeasibility(dim)

    def test_tolerance_semantics(self):
        # the reconstructed operator has minimum eigenvalue -1, so an
        # absurdly loose tolerance declares the point mass feasible
        assert not single_point_infeasibility(PrimeDim(3), tol=3.0)
