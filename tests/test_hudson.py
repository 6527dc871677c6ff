"""Tests for the lemma kernels, seeded sampling and the verification engine."""

import functools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phasespace import (
    KIND_WIGNER,
    PhaseGrid,
    PrimeDim,
    StateVector,
    haar_sample,
    single_point_infeasibility,
    stabilizer_rows,
    two_point_sample,
    verify_hudson,
    weyl,
)
from phasespace import hudson
from phasespace.cli import MAX_D
from phasespace.clifford import stabilizer_overlaps
from phasespace.hudson import (
    LEMMA_TOL,
    MAX_FAILURE_MESSAGES,
    STABILIZER_MATCH_TOL,
    STABILIZER_NONNEG_TOL,
    SUPPORT_THRESHOLD,
    _HAAR_STREAM,
    _TWO_POINT_STREAM,
    _seed_words,
    modulus_violations,
    support_rows,
)
from phasespace.qudit import normalize_rows
from phasespace.wigner import wigner_rows, wigner_workspace

from oracles import (
    DIMS,
    PRIMES_TO_101,
    chunked_minima,
    crafted_draws,
    exact_ki,
    fft_wigner,
    operator_from_wigner,
    sample_rows,
    stabilizer_stack,
    wigner_minima,
)


def _block(states):
    """The (n, d) amplitude block of a list of StateVectors, one per row."""
    return np.array([state.amp for state in states])


class TestCheckPositivity:
    def test_basis_state_is_nonnegative(self):
        minima = wigner_minima(StateVector.basis(PrimeDim(3), 0).amp[None])
        assert minima[0] == 0.0

    @pytest.mark.parametrize("dim", DIMS)
    def test_random_states_are_negative(self, dim):
        minima = wigner_minima(sample_rows(dim.d, 5, _HAAR_STREAM, range(10)))
        assert len(minima) == 10
        assert np.all(minima < -1e-9)


def _violations_oracle(amp, tol=1e-12):
    """Nested-loop recount of modulus-inequality violations."""
    d = len(amp)
    m = np.abs(amp)
    count = 0
    for q in range(d):
        for x in range(d):
            if m[q] ** 2 < m[(q - x) % d] * m[(q + x) % d] - tol:
                count += 1
    return count


class TestModulusInequality:
    @pytest.mark.parametrize("dim", DIMS)
    def test_stabilizers_have_no_violations(self, dim):
        counts = modulus_violations(np.abs(stabilizer_rows(dim.d, range(dim.d * (dim.d + 1)))))
        assert counts.shape == (dim.d * (dim.d + 1),)
        assert not counts.any()

    def test_two_point_profile_violates(self):
        amp = np.array([np.sqrt(0.9), np.sqrt(0.1), 0.0])
        count = modulus_violations(np.abs(amp)[None])[0]
        assert count > 0
        assert count == _violations_oracle(amp)

    @pytest.mark.parametrize("dim", [PrimeDim(5), PrimeDim(7)])
    def test_matches_nested_loop_oracle(self, dim):
        amps = np.concatenate([sample_rows(dim.d, 8, stream, range(5)) for stream in (_HAAR_STREAM, _TWO_POINT_STREAM)])
        counts = modulus_violations(np.abs(amps))
        assert counts.tolist() == [_violations_oracle(amp) for amp in amps]


class TestSupport:
    def test_uniform_has_full_support(self):
        inside, stable = support_rows(np.abs(StateVector.normalized(PrimeDim(5), np.ones(5)).amp)[None])
        assert np.nonzero(inside[0])[0].tolist() == [0, 1, 2, 3, 4]
        assert stable[0]

    def test_basis_has_single_point(self):
        inside, stable = support_rows(np.abs(StateVector.basis(PrimeDim(7), 4).amp)[None])
        assert np.nonzero(inside[0])[0].tolist() == [4]
        assert stable[0]

    def test_guard_trips_near_threshold(self):
        # a modulus within a factor 10 of the threshold is unclassifiable
        dim = PrimeDim(3)
        near = StateVector.normalized(dim, np.array([1.0, 3e-8, 0.0]))
        below = StateVector.normalized(dim, np.array([1.0, 5e-9, 0.0]))
        inside, stable = support_rows(np.abs(_block([near, below])))
        assert stable.tolist() == [False, False]
        assert inside.sum(axis=1).tolist() == [2, 1]

    def test_guard_clear_far_from_threshold(self):
        psi = StateVector.normalized(PrimeDim(3), np.array([1.0, 1e-3, 0.0]))
        inside, stable = support_rows(np.abs(psi.amp)[None])
        assert stable[0]
        assert inside[0].sum() == 2


class TestSupportDichotomy:
    def test_lines_and_points(self):
        dim = PrimeDim(5)
        states = [StateVector.basis(dim, 2), StateVector.normalized(dim, np.ones(5)), haar_sample(dim, 1, 0)]
        inside, _ = support_rows(np.abs(_block(states)))
        assert inside.sum(axis=1).tolist() == [1, 5, 5]  # the Haar state has full support

    def test_two_point_states_fail(self):
        inside, _ = support_rows(np.abs(sample_rows(5, 1, _TWO_POINT_STREAM, range(5))))
        assert inside.sum(axis=1).tolist() == [2] * 5


class TestConstantModulus:
    def test_uniform_spread_is_zero(self):
        m = np.abs(StateVector.normalized(PrimeDim(5), np.ones(5)).amp)[None]
        inside, _ = support_rows(m)
        assert inside.all()
        assert (m.max(axis=1) - m.min(axis=1))[0] == 0.0

    @pytest.mark.parametrize("dim", DIMS)
    def test_quadratic_stabilizers_are_flat(self, dim):
        m = np.abs(stabilizer_rows(dim.d, range(dim.d, dim.d * (dim.d + 1))))
        inside, _ = support_rows(m)
        assert inside.all()
        assert np.all(m.max(axis=1) - m.min(axis=1) < 1e-15)
        report = verify_hudson(dim, samples=0, seed=1, two_point_samples=0)
        assert report.lemma6_max_modulus_spread < 1e-15


SEED_EDGES = [0, 1, 42, 2**32 - 1, 2**32, 2**64 + 11, 10**30, np.int64(2**40 + 3)]
INDEX_EDGES = [0, 1, 2**31, 2**32 - 1]


def _oracle_words(seed, stream, indices):
    return np.array([np.random.SeedSequence([seed, stream, i]).generate_state(4, np.uint64) for i in indices])


def _oracle_haar(d, seed, i):
    """Haar row i drawn through numpy's own SeedSequence, normalized as the sampler does."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0, i]))
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return normalize_rows(z[None])[0]


def _oracle_two_point(d, seed, i):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1, i]))
    pos = rng.choice(d, size=2, replace=False)
    amp = np.zeros(d, dtype=complex)
    amp[pos] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return normalize_rows(amp[None])[0]


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
            assert np.array_equal(haar_sample(dim, 42, i).amp, _oracle_haar(d, 42, i))
            rng = np.random.default_rng(np.random.SeedSequence([42, 1, i]))
            pos = rng.choice(d, size=2, replace=False)
            amp = two_point_sample(dim, 42, i).amp
            assert set(np.nonzero(amp)[0]) == set(pos)
            assert np.array_equal(amp, _oracle_two_point(d, 42, i))

    @pytest.mark.parametrize("seed", SEED_EDGES)
    def test_draws_equal_seed_sequence_draws_exactly(self, seed):
        # indices up to the largest, 2^32 - 1, in one block, on both streams
        d = 5
        haar, two = (sample_rows(d, seed, stream, INDEX_EDGES) for stream in (_HAAR_STREAM, _TWO_POINT_STREAM))
        for k, i in enumerate(INDEX_EDGES):
            assert np.array_equal(haar[k], _oracle_haar(d, seed, i))
            assert np.array_equal(two[k], _oracle_two_point(d, seed, i))
        for i in INDEX_EDGES:
            assert np.array_equal(haar_sample(PrimeDim(d), seed, i).amp, _oracle_haar(d, seed, i))

    @pytest.mark.parametrize("seed", SEED_EDGES)
    @pytest.mark.parametrize("stream", [0, 1])
    def test_seed_words_equal_seed_sequence_state(self, seed, stream):
        for indices in (INDEX_EDGES + [7], [2**32 - 1, 5, 2**32 - 2, 0]):
            assert np.array_equal(_seed_words(seed, stream, indices), _oracle_words(seed, stream, indices))
        assert _seed_words(seed, stream, []).shape == (0, 4)

    @given(
        seed=st.integers(min_value=0, max_value=2**140),
        index=st.integers(min_value=0, max_value=2**32 - 1),
        stream=st.sampled_from([0, 1]),
    )
    @settings(max_examples=200, deadline=None)
    def test_seed_words_property(self, seed, index, stream):
        indices = [index, index // 2**16, 0]
        assert np.array_equal(_seed_words(seed, stream, indices), _oracle_words(seed, stream, indices))

    def test_range_and_list_give_the_same_words(self):
        # a range is built with arange, a list index by index
        for indices in (range(0), range(5), range(3, 40, 7), range(9, -1, -1), range(2**32 - 4, 2**32),
                        range(2**32 - 1, 0, -(2**30)), range(100_000)):
            assert np.array_equal(_seed_words(5, 1, indices), _seed_words(5, 1, list(indices)))
        for indices in (range(-1, 3), range(2**32 - 2, 2**32 + 1), range(2, -3, -1)):
            with pytest.raises(ValueError, match=r"\[0, 2\^32\)"):
                _seed_words(5, 1, indices)

    def test_negative_seed_or_index_raises(self):
        dim = PrimeDim(3)
        for seed, indices in ((-1, [0]), (1, [-1]), (1, [0, 2**32, -(2**40)]), (np.int64(-3), [0])):
            with pytest.raises(ValueError):
                _seed_words(seed, 0, indices)
        with pytest.raises(ValueError):
            haar_sample(dim, -1, 0)
        with pytest.raises(ValueError):
            two_point_sample(dim, 1, -1)
        # a bool is not a seed or an index, not even as the int it equals
        for seed, indices in ((True, [0]), (1, [False]), (2, [0, True, 5]), (np.True_, [0]), (1, [np.False_])):
            with pytest.raises(TypeError):
                _seed_words(seed, 0, indices)
        for sample, seed, index in ((haar_sample, True, 0), (haar_sample, 5, True), (two_point_sample, 3, False)):
            with pytest.raises(TypeError, match="not bool"):
                sample(dim, seed, index)

    def test_index_past_32_bits_raises(self):
        dim = PrimeDim(3)
        for sample in (haar_sample, two_point_sample):
            with pytest.raises(ValueError, match=r"\[0, 2\^32\)"):
                sample(dim, 1, 2**32)
        for indices in ([0, 2**32 - 1, 2**32], [2**64], [2**70 + 3, 7]):
            with pytest.raises(ValueError, match=r"\[0, 2\^32\)"):
                _seed_words(1, 0, indices)

    @pytest.mark.parametrize("d", [3, 61])
    def test_block_rows_equal_single_samples(self, d):
        dim = PrimeDim(d)
        haar, two = sample_rows(d, 9, _HAAR_STREAM, range(40)), sample_rows(d, 9, _TWO_POINT_STREAM, range(40))
        for i in range(40):
            assert np.array_equal(haar[i], haar_sample(dim, 9, i).amp)
            assert np.array_equal(two[i], two_point_sample(dim, 9, i).amp)

    def test_streams_are_distinct(self):
        # index 0 of the two streams must not collide
        dim = PrimeDim(7)
        a = haar_sample(dim, 42, 0)
        b = two_point_sample(dim, 42, 0)
        assert abs(np.vdot(a.amp, b.amp)) < 1 - 1e-6

    def test_seeded_blocks_are_whole_chunks_with_their_words(self):
        # three hash runs of 550 blocks of 7 chunks of 17 rows, the last one short
        d, n = 61, 2 * 65450 + 20
        step, block = hudson._chunk_rows(d), hudson._block_rows(d)
        assert (step, block) == (17, 119)
        got = list(hudson._seeded_blocks(n, d, 5, 1))
        assert [(r.start, r.stop) for r, _ in got] == [(i, min(i + block, n)) for i in range(0, n, block)]
        for indices, rows in got[548:552] + got[-2:]:
            assert np.array_equal(rows, sample_rows(d, 5, 1, indices))

    def test_verify_hashes_each_stream_once(self, monkeypatch):
        calls = []

        def counted(seed, stream, indices):
            calls.append((stream, len(indices)))
            return _seed_words(seed, stream, indices)

        monkeypatch.setattr(hudson, "_seed_words", counted)
        verify_hudson(PrimeDim(61), samples=1000, seed=7, two_point_samples=100)
        assert calls == [(0, 1000), (1, 100)]


class TestVectorSamplers:
    """The vector path (numpy's PCG64 over whole blocks, the fast paths of
    standard_normal and choice) draws what numpy's Generator draws, bit for
    bit, and leaves every other row to numpy's per-row path."""

    def test_self_check_passes_on_this_numpy(self):
        assert hudson._normal_table() is not None

    def test_derived_ki_bounds_numpys_exact_ki(self):
        # at most numpy's ki, and below it by at most the margin plus one, the
        # floor of a rounded quotient
        exact, ki = exact_ki(), hudson._normal_table()[1]
        assert np.all(ki <= exact)
        assert np.all(exact - ki <= hudson._KI_MARGIN + 1)

    def test_fast_normals_at_the_last_fast_rabs_equal_numpys(self):
        # every index, both signs, rabs just below the derived ki (or 0 where it is 0)
        table = hudson._normal_table()
        rng = np.random.Generator(np.random.PCG64(0))
        rabs = np.maximum(table[1].astype(np.int64) - 1, 0)
        draws = [idx | sign << 8 | int(rabs[idx]) << 9 for idx in range(256) for sign in (0, 1)]
        values, fast = hudson._fast_normals(np.array(draws, dtype=np.uint64)[:, None], table)
        assert fast.sum() == 2 * 255  # all but index 1, whose ki is 0
        for draw, value, on_path in zip(draws, values[:, 0], fast):
            expected = crafted_draws(rng, draw).standard_normal()
            if on_path:
                assert value == expected and math.copysign(1, value) == math.copysign(1, expected)

    @pytest.mark.parametrize("d", [3, 5, 61, 401])
    def test_pair_flags_and_order_against_choice(self, d):
        # uint32 halves at the edges of each Lemire draw's rejection test: the
        # flag is raised exactly when a leftover falls below its bound, and
        # every unflagged pair, b == a and both shuffle bits among them, is
        # the pair Generator.choice draws from the same outputs
        def halves(bound):
            edge = -(-(1 << 32) // bound)  # the least x with x bound >= 2^32
            return [0, 1, edge - 1, edge, edge + 1, (1 << 31) - 1, 1 << 31, (1 << 32) - 1]

        def rejects(x, bound):
            return x * bound % (1 << 32) < bound

        rng = np.random.Generator(np.random.PCG64(0))
        cases = [(a, b, s) for a in halves(d - 1) for b in halves(d) for s in halves(2)]
        outputs = np.array([[b << 32 | a, 0x9E3779B9 << 32 | s] for a, b, s in cases], dtype=np.uint64)
        pos, fast = hudson._fast_pairs(outputs, d)
        flagged = [rejects(a, d - 1) or rejects(b, d) or rejects(s, 2) for a, b, s in cases]
        assert list(~fast) == flagged and any(flagged) and not all(flagged)
        orders = set()
        for (first, second), pair, on_path in zip(outputs.tolist(), pos.tolist(), fast):
            if on_path:
                assert pair == crafted_draws(rng, first, second).choice(d, size=2, replace=False).tolist()
                orders.add(pair[0] < pair[1])
        assert orders == {True, False}

    @given(
        seed=st.integers(min_value=0, max_value=2**70),
        start=st.integers(min_value=0, max_value=2**32 - 300),
        d=st.sampled_from([3, 5, 7, 11, 13, 61]),
    )
    @settings(max_examples=12, deadline=None)
    @example(seed=2**64 + 11, start=2**32 - 300, d=5)  # the last indices, a seed past 64 bits
    def test_blocks_equal_generator_rows(self, seed, start, d):
        indices = range(start, start + 300)
        for stream, oracle in ((_HAAR_STREAM, _oracle_haar), (_TWO_POINT_STREAM, _oracle_two_point)):
            rows, fast = hudson._sample_rows(d, stream, _seed_words(seed, stream, indices))
            for k, i in enumerate(indices):
                assert np.array_equal(rows[k], oracle(d, seed, i))
            # a block on the vector path holds both kinds of row: those the
            # fast paths draw whole, and those that leave them for numpy's
            # per-row path; past the cutover every row takes the per-row path
            if stream == _TWO_POINT_STREAM or 2 * d <= hudson._VECTOR_DRAWS:
                assert fast.any() and not fast.all()
            else:
                assert not fast.any()

    @pytest.mark.parametrize("d,vector", [(3, True), (13, True), (17, False), (61, False)])
    def test_haar_rows_take_the_vector_path_up_to_the_cutover(self, d, vector):
        fast = hudson._sample_rows(d, _HAAR_STREAM, _seed_words(3, _HAAR_STREAM, range(200)))[1]
        assert (0 < np.count_nonzero(fast) < 200) if vector else not fast.any()

    def test_failed_self_check_leaves_every_block_unchanged(self, monkeypatch):
        indices = range(300)
        before = {(d, stream): sample_rows(d, 5, stream, indices)
                  for d in (3, 7, 13, 61) for stream in (_HAAR_STREAM, _TWO_POINT_STREAM)}
        calls, fast_normals = [], hudson._fast_normals

        def off_by_one(outputs, table):
            calls.append(len(outputs))
            values, fast = fast_normals(outputs, table)
            return values + 1.0, fast

        monkeypatch.setattr(hudson, "_fast_normals", off_by_one)
        hudson._normal_table.cache_clear()
        try:
            assert hudson._normal_table() is None
            calls.clear()
            for (d, stream), rows in before.items():
                assert np.array_equal(sample_rows(d, 5, stream, indices), rows)
            assert calls == []  # every row took numpy's per-row path
        finally:
            hudson._normal_table.cache_clear()


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

    @pytest.mark.parametrize("d", [5, 61])
    def test_non_finite_floats_are_null_in_to_dict(self, monkeypatch, d):
        # an all-NaN Haar stream reports a max-minimum of -inf, and a NaN
        # base a NaN stabilizer minimum; the attributes keep those floats,
        # and to_dict writes each as None, so the document is strict JSON
        draw = hudson._sample_rows

        def poisoned(d, stream, words):
            rows, fast = draw(d, stream, words)
            if stream == _HAAR_STREAM:
                rows[:, 0] = np.nan
            return rows, fast

        monkeypatch.setattr(hudson, "_sample_rows", poisoned)
        _perturbed_rows(monkeypatch, 0, _nan)
        monkeypatch.setattr(hudson, "MAX_FAILURE_MESSAGES", 10**6)
        report = verify_hudson(PrimeDim(d), 3, 7, two_point_samples=0)
        assert report.random_max_min_wigner == -math.inf and math.isnan(report.stabilizer_min_wigner)
        assert report.failures[-3:] == [f"random sample {i} has no finite Wigner minimum" for i in range(3)]
        doc = report.to_dict()
        assert json.loads(json.dumps(doc, allow_nan=False)) == doc
        nulls = {key for key, value in doc.items() if value is None}
        assert nulls == {"random_max_min_wigner", "stabilizer_min_wigner", "stabilizer_line_deviation"}
        assert doc["tol"] == report.tol and doc["two_point_max_min_wigner"] == 0.0

    def test_numpy_scalar_arguments_give_a_json_ready_report(self):
        report = verify_hudson(PrimeDim(np.int64(3)), np.int64(5), np.int64(2), np.float32(1e-9), np.int32(4))
        doc = json.loads(json.dumps(report.to_dict()))  # raises TypeError on a numpy scalar
        assert doc == verify_hudson(PrimeDim(3), 5, 2, float(np.float32(1e-9)), 4).to_dict()

    # (samples, seed, two_point_samples, tol); a tol must be a real number, as d is
    @pytest.mark.parametrize("args", [(5.0, 1, 5, 1e-9), (5, 1.0, 5, 1e-9), (5, 1, 5.0, 1e-9),
                                      (2, 1, 0, "1e-9"), (2, 1, 0, True), (True, False, 0, 1e-9)])
    def test_float_counts_and_seeds_raise_before_any_work(self, args, monkeypatch):
        monkeypatch.setattr(hudson, "stabilizer_rows", lambda d, indices: pytest.fail("states built before the check"))
        with pytest.raises(TypeError):
            verify_hudson(PrimeDim(3), *args[:2], two_point_samples=args[2], tol=args[3])

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

    def test_point_mass_step_decides_the_verdict(self, monkeypatch):
        monkeypatch.setattr(hudson, "single_point_infeasibility", lambda dim: False)
        report = verify_hudson(PrimeDim(3), samples=5, seed=2, two_point_samples=5)
        assert report.point_mass_infeasible is False
        assert report.passed is False and report.failures_total == 1
        assert report.failures == ["the point mass at the origin is not certified infeasible"]

    def test_passing_artifact_adds_only_the_zero_total(self):
        doc = verify_hudson(PrimeDim(3), samples=5, seed=2).to_dict()
        assert doc["failures"] == [] and doc["failures_total"] == 0 and doc["passed"] is True

    # at d = 211 one (c, d, d) temporary for a block of samples at once would
    # take about 0.7 MB a row; verify_hudson's row chunks keep it to 1 MiB
    @pytest.mark.parametrize("d,samples,two_point", [(61, 50, 100), (211, 5, 5)])
    def test_peak_memory_is_bounded(self, d, samples, two_point):
        tracemalloc.start()
        try:
            verify_hudson(PrimeDim(d), samples, 1, two_point_samples=two_point)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_rejects_nonfinite_or_negative_tol(self, tol):
        with pytest.raises(ValueError, match="tol"):
            verify_hudson(PrimeDim(3), samples=5, seed=1, tol=tol, two_point_samples=5)

    @pytest.mark.parametrize("samples,two_point", [(-5, 5), (5, -2), (-5, -2)])
    def test_rejects_negative_sample_counts(self, samples, two_point):
        with pytest.raises(ValueError, match="sample counts must be nonnegative"):
            verify_hudson(PrimeDim(3), samples=samples, seed=1, two_point_samples=two_point)

    @pytest.mark.parametrize("samples,two_point", [(2**32 + 1, 0), (0, 2**32 + 1), (2**70, 2**70)])
    def test_rejects_counts_past_the_index_range(self, samples, two_point, monkeypatch):
        def drawn(*args):
            raise AssertionError("states built before the counts were checked")

        for name in ("stabilizer_rows", "_sample_rows"):
            monkeypatch.setattr(hudson, name, drawn)
        with pytest.raises(ValueError, match=r"at most 2\^32"):
            verify_hudson(PrimeDim(3), samples=samples, seed=1, two_point_samples=two_point)
        # a count of exactly 2^32 passes the check and reaches the stabilizer sweep
        with pytest.raises(AssertionError, match="states built"):
            verify_hudson(PrimeDim(3), samples=2**32, seed=1, two_point_samples=2**32)

    def test_zero_samples_edge(self):
        report = verify_hudson(PrimeDim(3), samples=0, seed=1, two_point_samples=0)
        assert report.passed
        assert report.random_max_min_wigner == 0.0
        assert report.two_point_max_min_wigner == 0.0
        # no stream is hashed, but a negative seed is still rejected
        with pytest.raises(ValueError, match="seeds must be nonnegative"):
            verify_hudson(PrimeDim(3), samples=0, seed=-1, two_point_samples=0)


class TestOverlapBound:
    """The O(d) bound on stabilizer_overlaps that gates its chirp DFT."""

    @given(d=st.sampled_from([p for p in PRIMES_TO_101 if p <= 31]), seed=st.integers(0, 2**32 - 1))
    @settings(deadline=None)
    def test_bound_dominates_the_exact_overlaps(self, d, seed):
        rng = np.random.default_rng(seed)
        dense = rng.standard_normal((8, d)) + 1j * rng.standard_normal((8, d))
        amps = np.concatenate([dense / np.linalg.norm(dense, axis=1, keepdims=True),
                               stabilizer_stack(d), sample_rows(d, seed, _TWO_POINT_STREAM, range(8))])
        exact = stabilizer_overlaps(amps)
        assert np.all(hudson._overlap_bound(amps) >= exact - 1e-12)
        # the gate hands every stabilizer row on to the exact overlaps
        assert np.array_equal(hudson._stabilizer_matches(amps), exact >= 1.0 - STABILIZER_MATCH_TOL)
        assert np.count_nonzero(exact >= 1.0 - STABILIZER_MATCH_TOL) == d * (d + 1)

    def test_stabilizer_among_the_samples_is_matched(self, monkeypatch):
        d = 7
        stabilizer = stabilizer_stack(d)[d + 2 * d + 5]  # (theta, x) = (2, 5)
        draw, exact = hudson._sample_rows, hudson.stabilizer_overlaps
        checked = []

        sample_4 = _seed_words(3, _HAAR_STREAM, [4])[0]

        def injected(d, stream, words):
            rows, fast = draw(d, stream, words)
            rows[(words == sample_4).all(axis=1)] = stabilizer
            return rows, fast

        def spied(amps):
            checked.append(len(amps))
            return exact(amps)

        monkeypatch.setattr(hudson, "_sample_rows", injected)
        monkeypatch.setattr(hudson, "stabilizer_overlaps", spied)
        report = verify_hudson(PrimeDim(d), samples=10, seed=3, two_point_samples=0)
        assert checked == [1]  # only the injected row reaches the chirp DFT
        assert not report.random_all_nonstabilizer
        assert report.failures_total == 2
        assert report.failures[1] == "random sample 4 matches a stabilizer state"
        assert report.failures[0].startswith("random sample 4 has Wigner minimum")


def _fft_minimum(amp):
    """Minimum of the FFT-route Wigner grid W[p, q] and its (p, q)."""
    flat = fft_wigner(amp).ravel()
    return float(flat.min()), divmod(int(flat.argmin()), len(amp))


def _exact_line(d, idx):
    """W[p, q] of stabilizer idx: (1/d) 1[q = k] for |k>, (1/d) 1[p = 2 theta q + x] for (theta, x)."""
    p, q = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    if idx < d:
        return (q == idx) / d
    theta, x = divmod(idx - d, d)
    return ((p - 2 * theta * q - x) % d == 0) / d


@functools.lru_cache(maxsize=None)
def _reference_stabilizer_part(d):
    """The seed-independent half of the reference loop: the stabilizers and the point mass."""
    q = np.arange(d)
    failures = []
    stab_min, sizes, lemma4, spread_max, offset_max, stable_all = math.inf, {}, 0, 0.0, 0.0, True
    line_deviation = 0.0
    for idx, amp in enumerate(stabilizer_stack(d)):
        grid = fft_wigner(amp)
        line_deviation = max(line_deviation, float(np.abs(grid - _exact_line(d, idx)).max()))
        value, where = float(grid.min()), divmod(int(grid.argmin()), d)
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
    # the point mass at the origin is the operator (1/d) sum_v w(v), which is
    # a density operator only if no eigenvalue is negative
    dim = PrimeDim(d)
    point_mass = sum(weyl(dim, p, q).mat for p in range(d) for q in range(d)) / d
    fields = {
        "stabilizer_tol": 1e-12, "stabilizer_count": d * (d + 1),
        "point_mass_infeasible": bool(np.linalg.eigvalsh(point_mass).min() < -1e-9),
        "stabilizers_all_nonneg": stab_min >= -1e-12, "stabilizer_min_wigner": stab_min,
        "stabilizer_line_deviation": line_deviation,
        "lemma4_violations": lemma4, "lemma5_support_sizes": {str(k): v for k, v in sorted(sizes.items())},
        "lemma6_max_modulus_spread": spread_max, "lemma6_max_modulus_offset": offset_max,
        "support_guard_stable": stable_all,
    }
    return fields, tuple(failures)


def _reference_report(d, samples, seed, tol, two_point):
    """verify_hudson as a per-state loop over independent numpy oracles:
    explicit stabilizer rows, per-index draws, FFT Wigner grids, the explicit
    stabilizer stack for matching, and gather-indexed lemma checks."""
    stack = stabilizer_stack(d)
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
    @pytest.mark.parametrize("d", [3, 5, 7, 31, 61, 101])
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


def _screen_rows(d, kind, seed, n):
    """n sample-like unit rows through normalize_rows: Haar or two-point rows
    of seed, basis rows, or basis rows nudged by 10^-(3 + seed % 6) times a
    Haar row, whose minima lie near zero."""
    if kind == "haar":
        return sample_rows(d, seed, _HAAR_STREAM, range(n))
    if kind == "two_point":
        return sample_rows(d, seed, _TWO_POINT_STREAM, range(n))
    basis = np.eye(d, dtype=complex)[(seed + np.arange(n) * (d // n + 1)) % d]
    if kind == "basis":
        return normalize_rows(basis)
    return normalize_rows(basis + 10.0 ** -(3 + seed % 6) * sample_rows(d, seed, _HAAR_STREAM, range(n)))


def _replayed_report(d, samples, seed, tol, two_point):
    """verify_hudson's report with its sample fields taken from the all-float64
    chunked replay; the samples match no stabilizer state."""
    haar, pair = chunked_minima(d, samples, two_point, seed)
    doc = verify_hudson(PrimeDim(d), 0, seed, tol, two_point_samples=0).to_dict()
    failures = list(doc["failures"])
    failures += [f"random sample {i} has Wigner minimum {m!r} >= -{tol!r}"
                 for i, m in enumerate(haar.tolist()) if m >= -tol]
    failures += [f"two-point sample {i} has Wigner minimum {m!r} >= -{tol!r}"
                 for i, m in enumerate(pair.tolist()) if m >= -tol]
    total = doc["failures_total"] + len(failures) - len(doc["failures"])
    doc.update(random_samples=samples, random_all_negative=not (haar >= -tol).any(),
               random_max_min_wigner=float(haar.max()) if samples else 0.0,
               two_point_samples=two_point, two_point_all_negative=not (pair >= -tol).any(),
               two_point_max_min_wigner=float(pair.max()) if two_point else 0.0,
               failures=failures[:MAX_FAILURE_MESSAGES], failures_total=total, passed=total == 0)
    return doc


def _spy_kernel(monkeypatch):
    """Record (rows, start, stop, minima) of every wigner_rows call: the
    amplitude rows, the q range and each row's minimum over it. verify_hudson
    makes whole-grid calls (start, stop = 0, d) in float64 on the two bases
    and on each sample chunk it certifies, q-range calls in float32 for the
    bound, and a last one on the point-mass witness's q = 0 row."""
    calls = []
    grids = hudson.wigner_rows

    def spied(amps, start, stop, out=None):
        result = grids(amps, start, stop, out)
        calls.append((amps.copy(), start, stop, result.min(axis=(1, 2))))
        return result

    monkeypatch.setattr(hudson, "wigner_rows", spied)
    return calls


def _whole_grids(calls, d):
    """The amplitude rows of the whole-grid calls _spy_kernel recorded."""
    return [rows for rows, start, stop, _ in calls if (start, stop) == (0, d)]


def _without_witness(calls, d):
    """The q-range calls _spy_kernel recorded over one verify_hudson run, but
    the point-mass step's. That step is the run's last call, and the only
    q-range call in float64: the q = 0 row of its witness (|1> - |-1>) / sqrt(2)."""
    witness = np.zeros((1, d), dtype=complex)
    witness[0, [1, -1]] = [1 / math.sqrt(2), -1 / math.sqrt(2)]
    rows, start, stop, _ = calls[-1]
    assert rows.dtype == np.complex128 and np.array_equal(rows, witness) and (start, stop) == (0, 1)
    return _q_ranges(calls[:-1], d)


def _q_ranges(calls, d):
    """The calls _spy_kernel recorded on part of the q rows."""
    return [call for call in calls if call[1:3] != (0, d)]


def _patched_rows(monkeypatch, seed, change, stream=_HAAR_STREAM):
    """Make every draw of the stream's rows (Haar by default), in verify's
    blocks or the replay's chunks, return change[i] as the row of each index i
    that change (a dict of index -> row) holds, found by its substream words."""
    draw = hudson._sample_rows
    keyed = {i: _seed_words(seed, stream, [i])[0] for i in change}

    def patched(d, kind, words):
        rows, fast = draw(d, kind, words)
        for i, key in keyed.items():
            rows[(words == key).all(axis=1)] = change[i]
        return rows, fast

    monkeypatch.setattr(hudson, "_sample_rows", patched)


class TestFloat32Screen:
    """verify_hudson bounds every sample row after a stream's first chunk
    by its float32 minima over four q ranges plus beta(d), drops the rows
    whose bound falls below -tol and the stream's largest minimum so far,
    and computes in float64, one row at a time, those that stay open; the
    report is the all-float64 one."""

    @given(d=st.sampled_from(PRIMES_TO_101 + [211, 401]),
           kind=st.sampled_from(["haar", "two_point", "basis", "nearly_basis"]),
           seed=st.integers(0, 2**32))
    @example(d=61, kind="haar", seed=7)
    @example(d=3, kind="nearly_basis", seed=2)
    @example(d=401, kind="two_point", seed=1)
    @settings(max_examples=40, deadline=None)
    def test_bound_covers_every_float32_entry(self, d, kind, seed):
        amps = _screen_rows(d, kind, seed, 3)
        beta = hudson._screen_bound(d)
        double = wigner_rows(amps, 0, d)
        single = wigner_rows(amps.astype(np.complex64), 0, d)
        assert single.dtype == np.float32
        assert np.abs(single - double).max() <= beta
        assert np.abs(single.min(axis=(1, 2)) - double.min(axis=(1, 2))).max() <= beta

    def test_bound_stays_far_inside_the_margins(self):
        # the largest sampled minima lie about 0.2/d below zero (4.8e-4 at the cap)
        primes = [p for p in range(3, MAX_D["verify"] + 1) if all(p % f for f in range(2, p))]
        assert all(hudson._screen_bound(d) <= 1e-6 for d in primes)

    @pytest.mark.parametrize("d,seed,samples,two_point", [
        (31, 1, 1000, 100), (31, 42, 1000, 100), (61, 1, 1000, 100), (61, 7, 1000, 100),
        (61, 42, 1000, 100), (101, 7, 1000, 100), (101, 3, 1000, 100), (211, 7, 300, 40),
        # streams that end with a chunk, inside one, with a block, inside one
        (61, 7, 1, 1), (61, 7, 17, 17), (61, 7, 18, 18), (61, 7, 119, 119), (61, 7, 120, 120),
    ])
    def test_report_equals_the_float64_replay(self, d, seed, samples, two_point):
        want = _replayed_report(d, samples, seed, 1e-9, two_point)
        assert want["passed"]
        assert verify_hudson(PrimeDim(d), samples, seed, two_point_samples=two_point).to_dict() == want

    @pytest.mark.parametrize("d,stream", [(31, 0), (61, 0), (61, 1), (101, 0), (211, 0), (211, 1)])
    def test_tol_at_a_later_chunks_minimum_fails_with_the_float64_value(self, d, stream):
        # -tol is exactly the largest float64 minimum of the fourth chunk, so
        # that chunk fails, and the screen cannot decide it
        samples, two_point, seed = (1000, 100, 5) if d < 211 else (300, 40, 5)
        step = hudson._chunk_rows(d)
        minima = chunked_minima(d, samples, two_point, seed)[stream]
        tol = -float(minima[3 * step:4 * step].max())
        want = _replayed_report(d, samples, seed, tol, two_point)
        assert not want["passed"]
        assert verify_hudson(PrimeDim(d), samples, seed, tol, two_point_samples=two_point).to_dict() == want

    def test_row_within_beta_of_tol_takes_the_float64_path(self, monkeypatch):
        # Every row of the third chunk becomes one Haar row psi of the first
        # two chunks, below their largest minimum, whose float32 minimum lies
        # below its float64 one. With -tol at the float64 minimum, a bound
        # without beta would drop the rows; with beta they stay open, and each
        # is computed alone in float64 and reports the float64 value.
        d, seed, samples = 61, 7, 60
        step = hudson._chunk_rows(d)
        rows = sample_rows(d, seed, _HAAR_STREAM, range(2 * step))
        double = wigner_rows(rows, 0, d).min(axis=(1, 2))
        single = wigner_rows(rows.astype(np.complex64), 0, d).min(axis=(1, 2)).astype(np.float64)
        assert np.abs(single - double).max() > 0  # the rounding the bound is for
        candidates = np.flatnonzero((double < double.max()) & (single < double))
        psi = int(candidates[np.argmax(double[candidates])])
        tol = -float(double[psi])
        assert single[psi] < -tol and single[psi] < double.max()
        assert -tol - single[psi] <= hudson._screen_bound(d)
        _patched_rows(monkeypatch, seed, {i: rows[psi] for i in range(2 * step, 3 * step)})
        calls = _spy_kernel(monkeypatch)
        report = verify_hudson(PrimeDim(d), samples, seed, tol, two_point_samples=0)
        # past the two base grids: the first chunk whole, then one row per
        # float64 call, each row of the third chunk among them, and psi itself
        # if it lies in the second chunk, where it fails alike
        blocks = _whole_grids(calls, d)[2:]
        assert all(b.dtype == np.complex128 for b in blocks)
        assert [len(b) for b in blocks] == [step] + [1] * (len(blocks) - 1)
        assert sum(np.array_equal(b, rows[psi:psi + 1]) for b in blocks[1:]) == step + (psi >= step)
        # the first message of the chunk (the list keeps MAX_FAILURE_MESSAGES)
        value = float(double[psi])
        assert f"random sample {2 * step} has Wigner minimum {value!r} >= -{tol!r}" in report.failures
        assert repr(value) != repr(float(single[psi]))
        assert report.failures_total >= step

    def test_later_chunks_run_as_complex64_at_d61(self, monkeypatch):
        # the first q range takes every row after each stream's first chunk,
        # as complex64; each later range only the rows still open
        d, seed = 61, 7
        calls = _spy_kernel(monkeypatch)
        assert verify_hudson(PrimeDim(d), 1000, seed).passed
        calls = _without_witness(calls, d)
        step = hudson._chunk_rows(d)
        later = np.concatenate([sample_rows(d, seed, _HAAR_STREAM, range(step, 1000)),
                                sample_rows(d, seed, _TWO_POINT_STREAM, range(step, 100))])
        first = [rows for rows, start, _, _ in calls if start == 0]
        assert np.array_equal(np.concatenate(first), later.astype(np.complex64))
        assert all(rows.dtype == np.complex64 for rows, _, _, _ in calls)
        edges = [(0, 7), (7, 15), (15, 30), (30, 61)]
        counts = [sum(len(rows) for rows, *q, _ in calls if tuple(q) == edge) for edge in edges]
        assert counts[0] == 983 + 83 and counts == sorted(counts, reverse=True) and counts[-1] < counts[0] // 4

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_no_complex64_block_runs_at_small_d(self, monkeypatch, d):
        # at d <= 7 each stream is one chunk, which always runs in float64,
        # after the two one-row base grids
        calls = _spy_kernel(monkeypatch)
        assert verify_hudson(PrimeDim(d), 1000, 7).passed
        blocks = _whole_grids(calls, d)
        assert len(blocks) == 4 and all(b.dtype == np.complex128 for b in blocks)
        assert [len(b) for b in blocks[:2]] == [1, 1]
        assert _without_witness(calls, d) == []

    def test_float64_grids_are_first_chunks_then_single_rows_at_d61(self, monkeypatch):
        # past the two one-row base grids, each stream's first float64 grid is
        # its first chunk of _chunk_rows(d) rows, and every later one a single
        # row: 4 of the 983 later Haar rows and 1 of the 83 later two-point
        # rows at seed 7, one in each chunk that ran whole before
        d, seed = 61, 7
        calls = _spy_kernel(monkeypatch)
        assert verify_hudson(PrimeDim(d), 1000, seed).passed
        blocks = _whole_grids(calls, d)
        step = hudson._chunk_rows(d)
        streams = (("haar", sample_rows(d, seed, _HAAR_STREAM, range(1000))),
                   ("two_point", sample_rows(d, seed, _TWO_POINT_STREAM, range(100))))
        found = [(name, k, len(b)) for b in blocks[2:] for name, rows in streams
                 for k in range(len(rows)) if np.array_equal(b, rows[k:k + len(b)])]
        assert len(found) == len(blocks) - 2
        assert found == [("haar", 0, step), ("haar", 64, 1), ("haar", 332, 1), ("haar", 647, 1), ("haar", 726, 1),
                         ("two_point", 0, step), ("two_point", 64, 1)]

    def test_row_dipping_only_in_the_last_q_range_stays_open_to_it(self, monkeypatch):
        # A two-point state on 49 and 51 has its only negative entries on the
        # row q = 50, in [d/2, d): its bound stays above -tol through the first
        # three ranges. Nearly a basis state, its minimum (about -3e-5) lies
        # above every Haar minimum; with -tol there it fails, so its chunk must
        # be computed in float64 after the last range.
        d, seed, samples, index = 61, 7, 200, 130
        psi = np.zeros(d, dtype=complex)
        psi[[49, 51]] = [math.sqrt(1 - 1e-6), 1e-3j]
        minimum = wigner_rows(psi[None], 0, d).min(axis=(1, 2))
        assert minimum[0] < 0 and np.flatnonzero(wigner_rows(psi[None], 0, d)[0].min(axis=1) < 0).tolist() == [50]
        tol = -float(minimum[0])
        _patched_rows(monkeypatch, seed, {index: psi})
        calls = _spy_kernel(monkeypatch)
        report = verify_hudson(PrimeDim(d), samples, seed, tol, two_point_samples=0).to_dict()
        assert report == _replayed_report(d, samples, seed, tol, 0)
        assert report["failures"][0].startswith(f"random sample {index} has Wigner minimum ")
        ranges = [start for rows, start, _, _ in _without_witness(calls, d)
                  if (rows == psi.astype(np.complex64)).all(axis=1).any()]
        assert ranges == [0, 7, 15, 30]

    def test_dropped_rows_carry_their_float32_bound_in_float64(self, monkeypatch):
        # each dropped row returns min W32 over the ranges it ran, plus beta,
        # added in float64: below min(best, -tol) and at least its float64
        # minimum; the first chunk and each open row are computed in float64
        d, tol = 61, 1e-9
        step = hudson._chunk_rows(d)
        amps = sample_rows(d, 3, _HAAR_STREAM, range(hudson._block_rows(d)))
        beta = hudson._screen_bound(d)
        work = hudson.wigner_workspace(step, d)
        calls = _spy_kernel(monkeypatch)
        minima, best = hudson._block_minima(amps, work, -math.inf, tol, beta)
        blocks, calls = _whole_grids(calls, d), _q_ranges(calls, d)
        exact = wigner_rows(amps, 0, d).min(axis=(1, 2))
        single = amps.astype(np.complex64)
        lowest = np.full(len(amps), np.inf, dtype=np.float32)
        for rows, _, _, range_minima in calls:
            at = [int(np.flatnonzero((single == row).all(axis=1))[0]) for row in rows]
            lowest[at] = np.minimum(lowest[at], range_minima)
        assert np.array_equal(blocks[0], amps[:step]) and all(len(b) == 1 for b in blocks[1:])
        dropped = np.ones(len(amps), dtype=bool)
        dropped[:step] = False
        for block in blocks[1:]:
            dropped[(amps == block[0]).all(axis=1)] = False
        # every one-row call certifies a row of its own, and at least one runs
        assert best == float(exact.max()) and len(blocks) > 1
        assert dropped.sum() == len(amps) - step - (len(blocks) - 1) > 0
        assert np.all(minima[dropped] < min(best, -tol))
        assert np.array_equal(minima[dropped], lowest[dropped].astype(np.float64) + beta)
        assert np.all(minima[dropped] >= exact[dropped])
        assert np.array_equal(minima[~dropped], exact[~dropped])

    def test_nan_minima_fall_through_to_float64(self, monkeypatch):
        # a NaN row's bound is NaN, which never drops it: it runs alone in
        # float64 and keeps its NaN minimum, and every row computed in float64
        # gets the minimum of its own call
        d = 61
        step = hudson._chunk_rows(d)
        amps = sample_rows(d, 1, _HAAR_STREAM, range(hudson._block_rows(d)))
        nan_row = 2 * step + 5
        amps[nan_row, 5] = np.nan
        calls = _spy_kernel(monkeypatch)
        work = hudson.wigner_workspace(step, d)
        minima, best = hudson._block_minima(amps, work, -math.inf, 1e-3, hudson._screen_bound(d))
        blocks = _whole_grids(calls, d)
        assert np.array_equal(blocks[0], amps[:step]) and all(len(b) == 1 for b in blocks[1:])
        assert sum(np.array_equal(b, amps[nan_row:nan_row + 1], equal_nan=True) for b in blocks) == 1
        assert minima.dtype == np.float64 and np.isnan(minima[nan_row])
        assert np.isnan(minima).sum() == 1 and math.isfinite(best)
        assert np.array_equal(minima[:step], wigner_rows(amps[:step], 0, d).min(axis=(1, 2)))
        for block in blocks[1:]:
            r = next(k for k, row in enumerate(amps) if np.array_equal(row, block[0], equal_nan=True))
            assert np.array_equal(minima[r:r + 1], wigner_rows(block, 0, d).min(axis=(1, 2)), equal_nan=True)

    @pytest.mark.parametrize("d,stream,index", [
        (5, _HAAR_STREAM, 3), (5, _TWO_POINT_STREAM, 3),  # one chunk per stream, no bound
        (61, _HAAR_STREAM, 130), (61, _TWO_POINT_STREAM, 40),  # past the first chunk, through the bound
    ])
    def test_nan_minimum_fails_its_sample(self, monkeypatch, d, stream, index):
        # a NaN amplitude after normalize_rows: the row fails and is named, and
        # each stream's max-minimum is the largest of its other, finite minima
        seed, samples, two_point, tol = 7, 200, 100, 1e-9
        amp = sample_rows(d, seed, stream, [index])[0]
        amp[0] = np.nan
        _patched_rows(monkeypatch, seed, {index: amp}, stream)
        calls = _spy_kernel(monkeypatch)
        report = verify_hudson(PrimeDim(d), samples, seed, tol, two_point_samples=two_point)
        label = "random sample" if stream == _HAAR_STREAM else "two-point sample"
        assert not report.passed and report.failures == [f"{label} {index} has no finite Wigner minimum"]
        haar, pair = chunked_minima(d, samples, two_point, seed)
        assert np.flatnonzero(np.isnan(np.concatenate([haar, pair]))).tolist() == [
            index if stream == _HAAR_STREAM else samples + index]
        assert report.random_max_min_wigner == float(np.nanmax(haar)) > -math.inf
        assert report.two_point_max_min_wigner == float(np.nanmax(pair)) > -math.inf
        assert report.random_all_negative == (stream != _HAAR_STREAM)
        assert report.two_point_all_negative == (stream == _HAAR_STREAM)
        bounded = [rows for rows, start, _, _ in _without_witness(calls, d) if start == 0]
        assert sum(np.isnan(rows).any(axis=1).sum() for rows in bounded) == (d == 61)


class TestStabilizerCertificate:
    """The facts verify_hudson rests on when it computes only the grids of
    its two bases, |0> and stabilizer d + 1: every row's grid is its block
    representative's translated, every quadratic row's grid is that of
    stabilizer d + 1 sheared and moved, and every grid is its exact line."""

    @given(d=st.sampled_from(PRIMES_TO_101))
    @example(d=61)
    @example(d=101)
    @settings(max_examples=5, deadline=None)
    def test_rows_are_translated_representatives_on_exact_lines(self, d):
        k = np.arange(d)
        back = (k - k[:, None]) % d  # [x, j] -> j - x
        step = hudson._chunk_rows(d)
        for b in range(d + 1):  # stabilizers b d, ..., b d + d - 1
            block = stabilizer_rows(d, range(b * d, (b + 1) * d))
            rep = wigner_rows(block[:1], 0, d)[0]  # [q, p]
            for rows in (slice(i, i + step) for i in range(0, d, step)):
                grids = wigner_rows(block[rows], 0, d)  # [x, q, p]
                if b == 0:  # |x>: translated along q, on the line q = x
                    rolled, line = rep[back[rows]], (k[rows, None] == k)[:, :, None]
                else:  # (theta, x): translated along p, on the line p = 2 theta q + x
                    rolled = rep[:, back[rows]].transpose(1, 0, 2)
                    line = back[rows, None, :] == (2 * (b - 1) * k % d)[:, None]
                assert np.abs(grids - rolled).max() <= 1e-12
                assert np.abs(grids - line / d).max() <= 1e-12

    @given(d=st.sampled_from(PRIMES_TO_101))
    @example(d=61)
    @example(d=101)
    @settings(max_examples=5, deadline=None)
    def test_quadratic_rows_are_the_base_grid_sheared_and_moved(self, d):
        # W_(theta, x)(p, q) = W_(d + 1)(p - 2 theta q - (x - 1), q), on integer residues
        k = np.arange(d)
        base = wigner_rows(stabilizer_rows(d, [d + 1]), 0, d)[0]  # [q, p]
        step = hudson._chunk_rows(d)
        for theta in range(d):
            block = stabilizer_rows(d, range(d + theta * d, 2 * d + theta * d))  # x = 0, ..., d - 1
            moved = (k - 2 * theta * k[:, None] - (k[:, None, None] - 1)) % d  # [x, q, p] -> the base's p
            for rows in (slice(i, i + step) for i in range(0, d, step)):
                assert np.abs(wigner_rows(block[rows], 0, d) - base[k[:, None], moved[rows]]).max() <= 1e-12

    @pytest.mark.parametrize("d", [3, 61, 257])
    def test_stabilizer_pass_computes_two_grids(self, monkeypatch, d):
        # one grid per base, |0> then stabilizer d + 1, each a one-row call
        # in the one workspace; from d = 257 on a sample chunk is one row too
        calls = _spy_kernel(monkeypatch)
        assert verify_hudson(PrimeDim(d), samples=0, seed=1, two_point_samples=0).passed
        blocks = _whole_grids(calls, d)
        assert [len(b) for b in blocks] == [1, 1]
        assert np.array_equal(np.concatenate(blocks), stabilizer_rows(d, [0, d + 1]))

    @pytest.mark.parametrize("d,samples,two_point", [(5, 1000, 100), (61, 1000, 100), (257, 3, 3), (401, 0, 0)])
    def test_one_workspace_serves_every_grid(self, monkeypatch, d, samples, two_point):
        # the base grids, the float64 chunks and the float32 q ranges all go
        # through the call's one workspace; only the point-mass step's q = 0
        # row, the run's last call, allocates its own
        made, outs, grids = [], [], hudson.wigner_rows

        def workspace(n, d):
            made.append(wigner_workspace(n, d))
            return made[-1]

        def spied(amps, start, stop, out=None):
            outs.append(out)
            return grids(amps, start, stop, out)

        monkeypatch.setattr(hudson, "wigner_workspace", workspace)
        monkeypatch.setattr(hudson, "wigner_rows", spied)
        assert verify_hudson(PrimeDim(d), samples, 7, two_point_samples=two_point).passed
        assert len(made) == 1 and outs[-1] is None
        assert len(outs) >= 3 and all(out is made[0] for out in outs[:-1])

    def test_stabilizer_pass_holds_one_workspace_row(self):
        # with no samples the one workspace is one row, d (2d + 1) floats
        # (2.5 MiB at d = 401), taken after the lemma statistics' temporaries
        # are freed; two rows for the two bases at once would take 4.9 MiB
        d = 401
        verify_hudson(PrimeDim(d), 0, 1, two_point_samples=0)  # the cached cos/sin factor
        tracemalloc.start()
        try:
            assert verify_hudson(PrimeDim(d), 0, 1, two_point_samples=0).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20 < 2 * d * (2 * d + 1) * 8

    @pytest.mark.parametrize("d", [3, 7, 61, 211])
    def test_lemma6_maxima_are_those_of_every_quadratic_row(self, d):
        # the row theta = 0, x = 1 holds every entry of the quadratic rows, so
        # its spread and offset are their maxima over all d^2 rows, exactly
        m = np.abs(stabilizer_rows(d, range(d, d * (d + 1))))
        report = verify_hudson(PrimeDim(d), samples=0, seed=1, two_point_samples=0)
        assert report.lemma6_max_modulus_spread == float((m.max(axis=1) - m.min(axis=1)).max())
        assert report.lemma6_max_modulus_offset == float(np.abs(m - 1.0 / math.sqrt(d)).max())

    @pytest.mark.parametrize("d", [3, 7, 61])
    def test_stabilizer_pass_asks_for_two_rows(self, monkeypatch, d):
        asked = []

        def spy(d, indices):
            asked.append(list(indices))
            return stabilizer_rows(d, indices)

        monkeypatch.setattr(hudson, "stabilizer_rows", spy)
        # a passing run adds no failure, so no message generator walks its bases' rows
        monkeypatch.setattr(hudson._Failures, "add", lambda *args: pytest.fail("a passing run added a failure"))
        report = verify_hudson(PrimeDim(d), samples=0, seed=1, two_point_samples=0)
        assert report.passed and report.stabilizer_count == d * (d + 1)
        assert asked == [[0, d + 1]]


def _perturbed_rows(monkeypatch, index, change):
    """Make verify_hudson read stabilizer index with change applied to it."""
    rows = hudson.stabilizer_rows

    def perturbed(d, indices):
        block = rows(d, indices)
        for k, i in enumerate(indices):
            if i == index:
                block[k] = change(block[k])
        return block

    monkeypatch.setattr(hudson, "stabilizer_rows", perturbed)


def _verify_keeping_every_message(monkeypatch, d=7):
    """verify_hudson at d with no samples, with the failure messages unbounded."""
    monkeypatch.setattr(hudson, "MAX_FAILURE_MESSAGES", 10**6)
    return verify_hudson(PrimeDim(d), samples=0, seed=1, two_point_samples=0)


def _add(amp):
    amp[1] += 1e-6
    return amp


def _turn(amp):
    amp[1] *= np.exp(1e-6j)
    return amp


def _nan(amp):
    amp[2] = np.nan
    return amp


def _nudge(eps):
    """A change that adds eps to amplitude 1."""

    def change(amp):
        amp[1] += eps
        return amp

    return change


class TestStabilizerFaultInjection:
    """verify_hudson reads base 0, |0>, for the d basis rows and base 1,
    stabilizer d + 1, for the d^2 quadratic rows, each for its grid and its
    lemma statistics; a fault in a base reaches every row of its family."""

    @pytest.mark.parametrize("base,change", [(0, _add), (1, _add), (1, _turn)])
    def test_perturbed_representative_is_off_its_line(self, monkeypatch, base, change):
        _perturbed_rows(monkeypatch, (0, 8)[base], change)
        # at the default message cap too, the fault reaches every row its base
        # stands for, 7 basis rows or 49 quadratic ones, and its line
        total = verify_hudson(PrimeDim(7), samples=0, seed=1, two_point_samples=0).failures_total
        assert total == (8, 50)[base]
        report = _verify_keeping_every_message(monkeypatch)
        assert report.passed is False and report.failures_total == total
        assert report.stabilizer_line_deviation > 1e-12
        assert report.failures[0].startswith(f"stabilizer {(0, 8)[base]} is off its exact Wigner line by ")

    @pytest.mark.parametrize("base", [0, 1])
    def test_nan_in_a_base_fails_the_run(self, monkeypatch, base):
        _perturbed_rows(monkeypatch, (0, 8)[base], _nan)
        report = verify_hudson(PrimeDim(7), samples=0, seed=1, two_point_samples=0)
        assert report.passed is False and not report.stabilizers_all_nonneg
        assert report.failures_total == (8, 50)[base]
        assert math.isnan(report.stabilizer_min_wigner) and math.isnan(report.stabilizer_line_deviation)
        assert report.failures[0] == f"stabilizer {(0, 8)[base]} is off its exact Wigner line by nan"
        doc = report.to_dict()  # either base's NaN reaches both fields, as null
        assert doc["stabilizer_min_wigner"] is doc["stabilizer_line_deviation"] is None and doc["passed"] is False

    @pytest.mark.parametrize("d,base", [(7, 0), (5, 1), (7, 1)])
    def test_negative_block_reports_each_row_where_its_own_grid_dips(self, monkeypatch, d, base):
        # the family rebuilt from a perturbed base by the Clifford orbit: the
        # basis rows from |0> by shifts; the quadratic rows from stabilizer
        # d + 1 by chirps and boosts. Each row carries its base's minimum at
        # the base's first argmin moved along q, or sheared and moved along p,
        # which must be the row's own FFT first argmin.
        q = np.arange(d)
        rows = stabilizer_rows(d, range(d * (d + 1)))
        rng = np.random.default_rng(base)
        amp = rows[(0, d + 1)[base]] + 1e-3 * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
        if base == 0:
            rows[:d] = [np.roll(amp, k) for k in q]
        else:
            for theta in q:  # the rows x = 0, ..., d - 1 of theta: omega^(theta q^2 + (x - 1) q) amp
                start = d + theta * d
                rows[start:start + d] = np.exp(2j * np.pi * (q[:, None] * q - q + theta * q * q) / d) * amp
        monkeypatch.setattr(hudson, "stabilizer_rows", lambda d, indices: rows[list(indices)])
        total = verify_hudson(PrimeDim(d), samples=0, seed=1, two_point_samples=0).failures_total
        assert total == 1 + (d, d * d)[base]  # every rebuilt row dips, and the base is off its line
        report = _verify_keeping_every_message(monkeypatch, d)
        assert report.failures_total == total
        rebuilt = range(d) if base == 0 else range(d, d * (d + 1))
        dips = [m for m in report.failures if "Wigner minimum" in m]
        assert len(dips) == len(rebuilt)
        for idx, message in zip(rebuilt, dips):
            value, where = _fft_minimum(rows[idx])
            assert message.startswith(f"stabilizer {idx} has Wigner minimum ")
            assert message.endswith(f" at {where}")
            assert abs(float(_FLOAT.findall(message)[0]) - value) <= 1e-12

    @pytest.mark.parametrize("base,eps", [(0, 2e-11), (1, 4e-11)])
    def test_base_minimum_just_below_the_tolerance_fails_positivity(self, monkeypatch, base, eps):
        # a minimum in (-1e-11, -1e-12) is negative at STABILIZER_NONNEG_TOL
        d = 7
        _perturbed_rows(monkeypatch, (0, d + 1)[base], _nudge(eps))
        report = verify_hudson(PrimeDim(d), samples=0, seed=1, two_point_samples=0)
        assert -10 * STABILIZER_NONNEG_TOL < report.stabilizer_min_wigner < -STABILIZER_NONNEG_TOL
        assert report.stabilizers_all_nonneg is False and report.passed is False
        assert report.failures_total == (8, 50)[base]  # its line, and every row of its family
        assert report.failures[1].startswith(f"stabilizer {base * d} has Wigner minimum ")

    @pytest.mark.parametrize("base,eps,count", [(0, 2e-12, 2), (1, 8e-12, 12)])
    def test_modulus_violations_on_a_positive_base_count_its_family(self, monkeypatch, base, eps, count):
        # a nudge that keeps the base's grid within STABILIZER_NONNEG_TOL of its
        # line but breaks the modulus inequality by more than LEMMA_TOL, counted
        # for the d or d^2 rows of its family; on stabilizer d + 1 it also moves
        # the modulus off d^-1/2, so each quadratic row fails lemma 6's two checks
        d = 7
        _perturbed_rows(monkeypatch, (0, d + 1)[base], _nudge(eps))
        report = _verify_keeping_every_message(monkeypatch, d)
        members = (range(d), range(d, d * (d + 1)))[base]
        assert report.stabilizers_all_nonneg is True
        assert -STABILIZER_NONNEG_TOL <= report.stabilizer_min_wigner < 0
        assert report.stabilizer_line_deviation <= STABILIZER_NONNEG_TOL
        assert report.lemma4_violations == count * len(members)
        spread, offset = report.lemma6_max_modulus_spread, report.lemma6_max_modulus_offset
        checks = [f"violates the modulus inequality {count} times"] + (
            [f"has modulus spread {spread!r}", f"modulus is off d^-1/2 by {offset!r}"] if base else [])
        assert report.failures == [f"stabilizer {k} {check}" for k in members for check in checks]
        assert report.failures_total == len(checks) * len(members)

    def test_support_guard_on_a_positive_base_is_reported(self, monkeypatch):
        # a threshold within a factor 10 of d^-1/2, but not of 0 or 1: the guard
        # trips on stabilizer d + 1, which stays positive, for every quadratic
        # row, and the report says the run is inconclusive
        d = 7
        monkeypatch.setattr(hudson, "SUPPORT_THRESHOLD", 0.05)
        report = verify_hudson(PrimeDim(d), samples=0, seed=1, two_point_samples=0)
        assert report.stabilizers_all_nonneg is True and report.lemma5_support_sizes == {1: d, d: d * d}
        assert report.support_guard_stable is False and report.passed is False
        assert report.failures_total == d * d
        assert report.failures[0] == f"support threshold guard tripped on stabilizer {d}; run inconclusive"


class TestFailingBaseAtScale:
    """A failing base stands for d or d^2 rows: each is counted, and only the
    kept messages are formatted. The totals and messages are those of the
    loop that formatted one message per row, recorded at d = 401."""

    @staticmethod
    def _verify_counting_pulls(monkeypatch, d):
        pulled, add = [], hudson._Failures.add

        def counted(self, count, messages):
            pulled.append(0)

            def tally():
                for message in messages:
                    pulled[-1] += 1
                    yield message

            add(self, count, tally())

        monkeypatch.setattr(hudson._Failures, "add", counted)
        report = verify_hudson(PrimeDim(d), samples=0, seed=7, two_point_samples=0)
        assert max(pulled) <= MAX_FAILURE_MESSAGES
        return report

    # an all-NaN base grid's first argmin is (0, 0), moved for each row
    @pytest.mark.parametrize("base,total,where", [
        (0, 402, lambda k: (0, k)),
        (1, 160802, lambda k: ((k - 1) % 401, 0)),
    ])
    def test_nan_base_counts_every_row(self, monkeypatch, base, total, where):
        d = 401
        _perturbed_rows(monkeypatch, (0, d + 1)[base], _nan)
        report = self._verify_counting_pulls(monkeypatch, d)
        assert report.failures_total == total == 1 + (d, d * d)[base]
        assert report.failures == [f"stabilizer {(0, d + 1)[base]} is off its exact Wigner line by nan"] + [
            f"stabilizer {base * d + k} has Wigner minimum nan at {where(k)}" for k in range(19)]

    def test_lemma_failure_counts_every_check_of_every_row(self, monkeypatch):
        # stabilizer d + 1 stays positive and on its line, and within LEMMA_TOL
        # of the modulus inequality, but its modulus leaves d^-1/2: two checks fail
        d = 401
        _perturbed_rows(monkeypatch, d + 1, _nudge(1e-11))
        report = self._verify_counting_pulls(monkeypatch, d)
        assert report.stabilizers_all_nonneg is True and report.lemma4_violations == 0
        assert report.failures_total == 321602 == 2 * d * d
        spread, offset = report.lemma6_max_modulus_spread, report.lemma6_max_modulus_offset
        assert spread > LEMMA_TOL and offset > LEMMA_TOL
        assert report.failures == [message for k in range(10) for message in (
            f"stabilizer {d + k} has modulus spread {spread!r}",
            f"stabilizer {d + k} modulus is off d^-1/2 by {offset!r}")]


class TestSinglePointInfeasibility:
    @pytest.mark.parametrize("dim", DIMS)
    def test_point_mass_is_infeasible(self, dim):
        assert single_point_infeasibility(dim)

    def test_positive_semidefinite_operator_is_not_certified(self, monkeypatch):
        # with a nonnegative witness grid (here the flat 1/d^2 of I/d) the
        # pairing d W_v(0, 0) is no negative value, so the step must say False
        monkeypatch.setattr(hudson, "wigner_rows",
                            lambda amps, start, stop, out=None: np.full((len(amps), stop - start, amps.shape[1]),
                                                                   amps.shape[1] ** -2.0))
        assert single_point_infeasibility(PrimeDim(7)) is False

    @pytest.mark.parametrize("d", PRIMES_TO_101 + [401, 1009])
    def test_witness_value_is_minus_one(self, monkeypatch, d):
        # <v|A|v> = -1 for the parity A and the unit witness v, so the verdict
        # flips between the tolerances 1 - 1e-12 and 1 + 1e-12
        monkeypatch.setattr(hudson, "POINT_MASS_TOL", 1 - 1e-12)
        assert single_point_infeasibility(PrimeDim(d)) is True
        monkeypatch.setattr(hudson, "POINT_MASS_TOL", 1 + 1e-12)
        assert single_point_infeasibility(PrimeDim(d)) is False

    @given(d=st.sampled_from(PRIMES_TO_101), seed=st.integers(0, 2**32))
    @example(d=101, seed=0)
    @settings(max_examples=30, deadline=None)
    def test_operators_pair_through_their_grids(self, d, seed):
        # <v|A_W|v> = d sum_{p, q} W(p, q) W_v(p, q) for a real grid W, its
        # operator A_W and a unit v: the identity the point-mass step reads
        # at the point mass
        rng = np.random.default_rng(seed)
        dim = PrimeDim(d)
        grid = rng.standard_normal((d, d))
        v = StateVector.normalized(dim, rng.standard_normal(d) + 1j * rng.standard_normal(d))
        witness = wigner_rows(v.amp[None], 0, d)[0].T  # [p, q]
        pairing = d * float((grid * witness).sum())
        value = np.vdot(v.amp, operator_from_wigner(PhaseGrid(dim, grid, KIND_WIGNER)).mat @ v.amp)
        scale = d * float(np.abs(grid * witness).sum())
        assert abs(value - pairing) <= 1e-13 * d * scale
