"""Acceptance battery.

Thirteen numbered criteria, run in order; each test prints a single
PASS/FAIL line (visible under pytest -s, and on any failure) and then
asserts. Tolerances and sample counts are pinned here and must not drift.
"""

import itertools
import json
import math
import os
import re
import subprocess
import sys
import time

import numpy as np

from phasespace import PrimeDim, StateVector, haar_sample, single_point_infeasibility, verify_hudson
from phasespace.bochner import CyclicFunction, has_nonneg_fourier
from phasespace.clifford import metaplectic, stabilizer_overlaps, stabilizer_rows
from phasespace.hudson import _HAAR_STREAM, _TWO_POINT_STREAM, modulus_violations, support_rows
from phasespace.qudit import omega_table, projector, weyl
from phasespace.wigner import characteristic, metaplectic_image_grid, wigner_from_char, wigner_pure
from phasespace.zmod import half, sl2_enumerate

from oracles import (
    DIMS,
    act,
    all_points,
    circulant,
    compose,
    fourier,
    has_constant_modulus_fourier,
    inverse_fourier,
    sample_rows,
    symplectic_form,
    translated_grid,
    wigner_minima,
)


def _report(num: int, ok: bool, text: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}")


def test_criterion_01_stabilizer_nonnegativity():
    # All d(d+1) stabilizer states have min Wigner entry >= -1e-12; < 1 s total.
    start = time.perf_counter()
    worst = math.inf
    counts = {}
    for dim in DIMS:
        amps = stabilizer_rows(dim.d, range(dim.d * (dim.d + 1)))
        counts[dim.d] = len(amps)
        minima = wigner_minima(amps)
        worst = min(worst, float(minima.min()))
    elapsed = time.perf_counter() - start
    ok = (
        counts == {3: 12, 5: 30, 7: 56}
        and worst >= -1e-12
        and elapsed < 1.0
    )
    _report(
        1,
        ok,
        f"stabilizer counts {counts}, worst Wigner minimum {worst:.3e} >= -1e-12, "
        f"{elapsed:.2f} s < 1 s",
    )
    assert ok


def test_criterion_02_random_states_negative_and_nonstabilizer():
    # 1000 seeded Haar states per d: min W < -1e-9 and not a stabilizer; < 5 s per d.
    ok = True
    details = []
    for dim in DIMS:
        start = time.perf_counter()
        amps = sample_rows(dim.d, 42, _HAAR_STREAM, 0, 1000)
        minima = wigner_minima(amps)
        max_min = float(minima.max())
        all_negative = bool(np.all(minima < -1e-9))
        none_stabilizer = bool(np.all(stabilizer_overlaps(amps) < 1.0 - 1e-9))
        elapsed = time.perf_counter() - start
        ok &= len(amps) == 1000 and all_negative and none_stabilizer and elapsed < 5.0
        details.append(f"d={dim.d} max of minima {max_min:.3e}, {elapsed:.2f} s")
    _report(2, ok, "1000 seeded states per d all negative and non-stabilizer; " + "; ".join(details))
    assert ok


def test_criterion_03_transform_routes_agree():
    # Pure-state route vs characteristic route within 1e-12 on 100 states per d; < 2 s.
    start = time.perf_counter()
    worst = 0.0
    for dim in DIMS:
        for i in range(100):
            psi = haar_sample(dim, 10_000 + i, 0)
            direct = wigner_pure(psi).values
            via_char = wigner_from_char(characteristic(projector(psi))).values
            worst = max(worst, float(np.max(np.abs(direct - via_char))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 2.0
    _report(3, ok, f"max entrywise route gap {worst:.3e} <= 1e-12 on 300 states, {elapsed:.2f} s < 2 s")
    assert ok


def test_criterion_04_symplectic_covariance_exhaustive():
    # Every S in SL(2, Z_d) x 20 states at d = 3, 5, within 1e-10; < 30 s.
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    for dim in [PrimeDim(3), PrimeDim(5)]:
        mats = sl2_enumerate(dim)
        states = [haar_sample(dim, 20_000 + i, 0) for i in range(20)]
        grids = [wigner_pure(psi) for psi in states]
        for S in mats:
            mu = metaplectic(S)
            for psi, grid in zip(states, grids):
                mapped = StateVector.normalized(dim, mu.apply(psi))
                gap = np.max(np.abs(wigner_pure(mapped).values - metaplectic_image_grid(grid, S).values))
                worst = max(worst, float(gap))
                checked += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and checked == (24 + 120) * 20 and elapsed < 30.0
    _report(4, ok, f"{checked} (S, state) pairs, max grid gap {worst:.3e} <= 1e-10, {elapsed:.2f} s < 30 s")
    assert ok


def test_criterion_05_translation_covariance_exhaustive():
    # Every translation v x 20 states at d = 3, 5, within 1e-12.
    worst = 0.0
    checked = 0
    for dim in [PrimeDim(3), PrimeDim(5)]:
        states = [haar_sample(dim, 30_000 + i, 0) for i in range(20)]
        grids = [wigner_pure(psi) for psi in states]
        for v in all_points(dim):
            w = weyl(dim, *v)
            for psi, grid in zip(states, grids):
                shifted = StateVector.normalized(dim, w.apply(psi))
                gap = np.max(np.abs(wigner_pure(shifted).values - translated_grid(grid.values, v)))
                worst = max(worst, float(gap))
                checked += 1
    ok = worst <= 1e-12 and checked == (9 + 25) * 20
    _report(5, ok, f"{checked} (v, state) pairs, max grid gap {worst:.3e} <= 1e-12")
    assert ok


def test_criterion_06_metaplectic_conjugation_and_homomorphism():
    # Conjugation identity within 1e-10 at d = 3 (all S, all v); projective
    # homomorphism | |tr| - d | <= 1e-9 on all 576 pairs at d = 3 and 200
    # seeded random pairs at d = 5 and 7.
    dim3 = PrimeDim(3)
    conj_worst = 0.0
    for S in sl2_enumerate(dim3):
        u = metaplectic(S).mat
        for v in all_points(dim3):
            gap = np.max(np.abs(u @ weyl(dim3, *v).mat @ u.conj().T - weyl(dim3, *act(S, v)).mat))
            conj_worst = max(conj_worst, float(gap))

    hom_worst = 0.0
    pair_count = 0
    mats3 = sl2_enumerate(dim3)
    for S, T in itertools.product(mats3, repeat=2):
        prod = metaplectic(S).mat @ metaplectic(T).mat
        gap = abs(abs(np.trace(metaplectic(compose(S, T)).mat.conj().T @ prod)) - 3)
        hom_worst = max(hom_worst, float(gap))
        pair_count += 1
    for dim in [PrimeDim(5), PrimeDim(7)]:
        mats = sl2_enumerate(dim)
        rng = np.random.default_rng(99)
        for _ in range(200):
            i, j = rng.integers(0, len(mats), size=2)
            S, T = mats[i], mats[j]
            prod = metaplectic(S).mat @ metaplectic(T).mat
            gap = abs(abs(np.trace(metaplectic(compose(S, T)).mat.conj().T @ prod)) - dim.d)
            hom_worst = max(hom_worst, float(gap))
            pair_count += 1
    ok = conj_worst <= 1e-10 and hom_worst <= 1e-9 and pair_count == 576 + 400
    _report(
        6,
        ok,
        f"conjugation gap {conj_worst:.3e} <= 1e-10; homomorphism trace gap {hom_worst:.3e} "
        f"<= 1e-9 over {pair_count} pairs",
    )
    assert ok


def test_criterion_07_nonneg_transform_predicate_agrees_with_eigensolver():
    # 1000 seeded Hermitian-symmetric functions per d; predicate (min of the
    # transform >= -1e-9 on the unit-norm rescaling) vs PSD of the circulant
    # by eigensolver (eigenvalues are d times the transform): zero disagreements.
    disagreements = 0
    branch_hits = {True: 0, False: 0}
    for dim in DIMS:
        d = dim.d
        rng = np.random.default_rng(7000 + d)
        neg_idx = np.arange(d) * -1 % d
        for i in range(1000):
            if i % 2 == 0:
                v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                vals = (v + v[neg_idx].conj()) / 2
            else:
                vals = inverse_fourier(CyclicFunction(dim, rng.uniform(0.0, 1.0, d))).values
            f = CyclicFunction(dim, vals)
            verdict = has_nonneg_fourier(f)
            scaled = vals / np.linalg.norm(vals)
            eig_min = float(np.linalg.eigvalsh(circulant(CyclicFunction(dim, scaled)).mat).min())
            oracle = eig_min >= -1e-9 * d
            disagreements += verdict != oracle
            branch_hits[verdict] += 1
    ok = disagreements == 0 and branch_hits[True] > 0 and branch_hits[False] > 0
    _report(
        7,
        ok,
        f"3000 functions, {disagreements} disagreements, verdicts True {branch_hits[True]} / "
        f"False {branch_hits[False]}",
    )
    assert ok


def test_criterion_08_flat_transform_predicate_agrees_with_spread_oracle():
    # 1000 seeded functions per d (plus constructed flat-transform cases):
    # autocorrelation-vanishing verdict vs direct modulus-spread inspection.
    disagreements = 0
    branch_hits = {True: 0, False: 0}
    for dim in DIMS:
        d = dim.d
        rng = np.random.default_rng(8000 + d)
        cases = [
            rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(1000)
        ]
        q = np.arange(d)
        table = omega_table(d)
        cases += [table[(theta * q * q + x * q) % d] for theta in range(1, d) for x in range(d)]
        for vals in cases:
            f = CyclicFunction(dim, vals)
            verdict = has_constant_modulus_fourier(f)
            scaled = vals / np.linalg.norm(vals)
            moduli = np.abs(fourier(CyclicFunction(dim, scaled)).values)
            oracle = float(moduli.max() - moduli.min()) <= 1e-9
            disagreements += verdict != oracle
            branch_hits[verdict] += 1
    ok = disagreements == 0 and branch_hits[True] > 0 and branch_hits[False] > 0
    _report(
        8,
        ok,
        f"3000 random + constructed flat cases, {disagreements} disagreements, verdicts "
        f"True {branch_hits[True]} / False {branch_hits[False]}",
    )
    assert ok


def test_criterion_09_positive_states_satisfy_the_structure_lemmas():
    # On every state passing positivity (the stabilizer states): zero modulus
    # inequality violations; support size 1 or d; full-support modulus spread
    # < 1e-12 around the common value d^(-1/2).
    ok = True
    details = []
    for dim in DIMS:
        d = dim.d
        amps = stabilizer_rows(dim.d, range(dim.d * (dim.d + 1)))
        minima = wigner_minima(amps)
        assert np.all(minima >= -1e-12)
        m = np.abs(amps)
        violations = int(modulus_violations(m).sum())
        inside, _ = support_rows(m)
        size = inside.sum(axis=1)
        sizes = set(size.tolist())
        full = m[size == d]
        spread = float((full.max(axis=1) - full.min(axis=1)).max())
        offset = float(np.max(np.abs(full - 1 / math.sqrt(d))))
        report = verify_hudson(dim, samples=0, seed=42, two_point_samples=0)
        ok &= (
            violations == 0
            and sizes <= {1, d}
            and spread < 1e-12
            and offset <= 1e-12
            and report.lemma4_violations == 0
            and set(report.lemma5_support_sizes) <= {1, d}
            and report.lemma6_max_modulus_spread < 1e-12
            and report.lemma6_max_modulus_offset <= 1e-12
            and report.support_guard_stable
        )
        details.append(
            f"d={d} violations {violations}, sizes {sorted(sizes)}, spread {spread:.1e}, "
            f"offset {offset:.1e}"
        )
    _report(9, ok, "; ".join(details))
    assert ok


def test_criterion_10_two_point_states_are_negative():
    # 100 seeded two-point-support states per d all dip below -1e-9.
    ok = True
    details = []
    for dim in DIMS:
        amps = sample_rows(dim.d, 42, _TWO_POINT_STREAM, 0, 100)
        inside, _ = support_rows(np.abs(amps))
        assert inside.sum(axis=1).tolist() == [2] * 100
        minima = wigner_minima(amps)
        max_min = float(minima.max())
        ok &= max_min < -1e-9
        details.append(f"d={dim.d} max of minima {max_min:.3e}")
    _report(10, ok, "100 two-point states per d all below -1e-9; " + "; ".join(details))
    assert ok


def test_criterion_11_point_mass_grid_is_infeasible():
    # A Wigner grid concentrated on one point reconstructs to an operator
    # with a negative eigenvalue at every d.
    verdicts = {dim.d: single_point_infeasibility(dim) for dim in DIMS}
    ok = all(verdicts.values())
    _report(11, ok, f"point-mass infeasibility by dimension: {verdicts}")
    assert ok


def test_criterion_12_weyl_order_and_composition_law():
    # weyl(v)^d = I and the fitted composition phase law, exhaustively at
    # d = 3 and 5 within 1e-12. The phase exponent is first fitted from the
    # operator products themselves, then pinned against 2^-1 sigma(v1, v2).
    worst_order = 0.0
    worst_comp = 0.0
    fit_consistent = True
    for dim in [PrimeDim(3), PrimeDim(5)]:
        d = dim.d
        h = half(dim)
        table = omega_table(d)
        mats = {v: weyl(dim, *v).mat for v in all_points(dim)}
        for v in all_points(dim):
            gap = np.max(np.abs(np.linalg.matrix_power(mats[v], d) - np.eye(d)))
            worst_order = max(worst_order, float(gap))
        for v1, v2 in itertools.product(all_points(dim), repeat=2):
            prod = mats[v1] @ mats[v2]
            total = mats[(v1[0] + v2[0]) % d, (v1[1] + v2[1]) % d]
            ratio = np.trace(total.conj().T @ prod) / d
            k_fit = round(np.angle(ratio) / (2 * np.pi / d)) % d
            k_law = (h * symplectic_form(dim, v1, v2)) % d
            fit_consistent &= k_fit == k_law
            gap = np.max(np.abs(prod - table[k_law] * total))
            worst_comp = max(worst_comp, float(gap))
    ok = worst_order <= 1e-12 and worst_comp <= 1e-12 and fit_consistent
    _report(
        12,
        ok,
        f"order gap {worst_order:.3e} <= 1e-12, composition gap {worst_comp:.3e} <= 1e-12, "
        f"fitted exponent matches on every pair: {fit_consistent}",
    )
    assert ok


def test_criterion_13_cli_verify_is_deterministic():
    # Two identical verify invocations exit 0 and produce byte-identical
    # artifacts once the duration field is masked.
    env = os.environ.copy()
    env.pop("PHASESPACE_SEED", None)
    args = [
        sys.executable, "-m", "phasespace",
        "verify", "--d", "3", "--samples", "200", "--seed", "7",
    ]
    runs = [subprocess.run(args, capture_output=True, text=True, env=env) for _ in range(2)]
    masked = [
        re.sub(r'"duration_seconds": [^,}]+', '"duration_seconds": null', p.stdout)
        for p in runs
    ]
    codes = [p.returncode for p in runs]
    doc = json.loads(runs[0].stdout)
    ok = (
        codes == [0, 0]
        and masked[0] == masked[1]
        and doc["overall_passed"] is True
        and doc["seed"] == 7
        and doc["random_samples"] == 200
    )
    _report(
        13,
        ok,
        f"exit codes {codes}, byte-identical after masking duration: {masked[0] == masked[1]}",
    )
    assert ok
