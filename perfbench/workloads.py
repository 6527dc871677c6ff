"""The three benchmark workloads and the checks applied to every call.

Each workload is a closed loop: one client issues the next call only after
the previous one returned. A workload derives every call's inputs from the
workload seed; the program receives only those generated inputs.

  verify-small      phasespace.cli.main(["verify", ...]) in process, d cycling
                    through 3, 5, 7: per-state Python and object overhead.
  verify-large      the same call at d = 61 only: the O(d^3) per-state kernels.
  covariance-sweep  one SL(2, Z_11) element per call, sweeping the whole group:
                    metaplectic, characteristic, sl2_* and bochner, which verify
                    never calls.

A workload exposes prepare(ps, seed, output, reference) -> context, warmup(ctx) ->
configs, config(ctx, i) -> the config of timed call i, call(ctx, cfg) (the
only timed part), read(ctx, cfg, result) -> raw output, check(ctx, cfg, raw)
-> list of problems, and fingerprint(raw), which a traced replay of the call
must reproduce.
"""

from __future__ import annotations

import hashlib
import json
import re

import numpy as np

# Per-call seeds come from a pool of this size, so that reference values can
# be recorded for every call made on the default workload seed.
SEED_POOL = 4
VERIFY_SAMPLES = 1000
VERIFY_TWO_POINT = 100
VERIFY_TOL = 1e-9          # the CLI default --tol
LEMMA_TOL = 1e-12
STABILIZER_NONNEG_TOL = 1e-12
# Reference floats must agree to this absolute tolerance: far above the
# ulp-level drift of a reordered kernel, far below any wrong minimum.
REFERENCE_ATOL = 1e-9
# Fields that legitimately differ between otherwise identical runs or versions.
UNCOMPARED_FIELDS = ("duration_seconds", "version")
COVARIANCE_TOL = 1e-10
NORM_TOL = 1e-10
BOCHNER_TOL = 1e-9         # the has_nonneg_fourier default
# Rows K(q, .) below this norm are rounding noise (a nonzero row of a state
# image has norm >= 1/d); rescaled to unit norm, their sign pattern is noise.
ROW_NORM_FLOOR = 1e-8
SWEEP_D = 11

_DURATION = re.compile(r'"duration_seconds": [^,}]*')


def call_seeds(workload_seed: int, stream: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence([workload_seed, stream]).generate_state(SEED_POOL)]


def mask_duration(text: str) -> str:
    """The artifact text with the duration_seconds value blanked out."""
    return _DURATION.sub('"duration_seconds": null', text)


# ---------------------------------------------------------------------------
# verify-small / verify-large
# ---------------------------------------------------------------------------


class VerifyContext:
    def __init__(self, ps, configs: list[tuple[int, int]], output: str, reference: dict) -> None:
        self.ps = ps
        self.configs = configs
        self.output = output
        self.reference = reference  # recorded artifacts, keyed "d:seed"


def check_verify_artifact(d: int, seed: int, rc: int, text: str, reference: dict | None) -> list[str]:
    """Problems with one verify artifact: theorem invariants, then the recorded reference."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        art = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"artifact is not JSON: {exc}"]
    try:
        invariants = {
            "overall_passed is true": art["overall_passed"] is True,
            "failures is empty": art["failures"] == [],
            "dim and seed echo the call": art["dim"] == d and art["seed"] == seed,
            "sample counts echo the call": (art["random_samples"], art["two_point_samples"])
            == (VERIFY_SAMPLES, VERIFY_TWO_POINT),
            "stabilizer_count is d(d+1)": art["stabilizer_count"] == d * (d + 1),
            "lemma5 support sizes are {1: d, d: d^2}": art["lemma5_support_sizes"]
            == {"1": d, str(d): d * d},
            "lemma4_violations is 0": art["lemma4_violations"] == 0,
            "lemma6 spreads <= 1e-12": max(art["lemma6_max_modulus_spread"],
                                           art["lemma6_max_modulus_offset"]) <= LEMMA_TOL,
            "stabilizer_min_wigner >= -1e-12": art["stabilizer_min_wigner"] >= -STABILIZER_NONNEG_TOL,
            "sampled max-minima < -tol": max(art["random_max_min_wigner"],
                                             art["two_point_max_min_wigner"]) < -VERIFY_TOL,
        }
    except (KeyError, TypeError) as exc:
        return [f"artifact lacks a field: {exc!r}"]
    problems = [name for name, ok in invariants.items() if not ok]
    if reference is not None:
        problems += compare_reference(art, reference)
    return problems


def compare_reference(art: dict, reference: dict) -> list[str]:
    """Field-by-field comparison: floats within REFERENCE_ATOL, everything else exact."""
    problems = []
    for key, want in reference.items():
        if key in UNCOMPARED_FIELDS:
            continue
        if key not in art:
            problems.append(f"field {key} missing")
            continue
        got = art[key]
        if isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
            if not abs(got - want) <= REFERENCE_ATOL:
                problems.append(f"field {key} = {got!r}, reference {want!r}")
        elif got != want or type(got) is not type(want):
            problems.append(f"field {key} = {got!r}, reference {want!r}")
    return problems


class VerifyWorkload:
    def __init__(self, name: str, dims: tuple[int, ...], stream: int) -> None:
        self.name = name
        self.dims = dims
        self.stream = stream

    def configs(self, seed: int) -> list[tuple[int, int]]:
        """The call cycle: d varies fastest, then the per-call seed."""
        return [(d, s) for s in call_seeds(seed, self.stream) for d in self.dims]

    def prepare(self, ps, seed: int, output: str, reference: dict) -> VerifyContext:
        return VerifyContext(ps, self.configs(seed), output, reference)

    def warmup(self, ctx: VerifyContext) -> list[tuple[int, int]]:
        return ctx.configs[: len(self.dims)]

    def config(self, ctx: VerifyContext, i: int) -> tuple[int, int]:
        return ctx.configs[i % len(ctx.configs)]

    def states_per_call(self, cfg: tuple[int, int]) -> int:
        d = cfg[0]
        return d * (d + 1) + VERIFY_SAMPLES + VERIFY_TWO_POINT

    def call(self, ctx: VerifyContext, cfg: tuple[int, int]) -> int:
        d, s = cfg
        return ctx.ps.cli.main([
            "verify", "--d", str(d), "--samples", str(VERIFY_SAMPLES),
            "--two-point", str(VERIFY_TWO_POINT), "--seed", str(s), "--output", ctx.output,
        ])

    def read(self, ctx: VerifyContext, cfg, rc: int) -> tuple[int, str]:
        """The raw output of a call: its exit code and the artifact it wrote."""
        with open(ctx.output) as fh:
            return rc, fh.read()

    def check(self, ctx: VerifyContext, cfg: tuple[int, int], raw: tuple[int, str]) -> list[str]:
        rc, text = raw
        ref = ctx.reference.get(f"{cfg[0]}:{cfg[1]}")
        return check_verify_artifact(cfg[0], cfg[1], rc, text, ref)

    def fingerprint(self, raw: tuple[int, str]) -> tuple[int, str]:
        return raw[0], mask_duration(raw[1])


# ---------------------------------------------------------------------------
# covariance-sweep
# ---------------------------------------------------------------------------


def oracle_wigner(amp: np.ndarray) -> np.ndarray:
    """W[p, q] = (1/d) sum_x omega^(-p x) psi(q + x/2) conj(psi(q - x/2)), by FFT."""
    d = len(amp)
    h = (d + 1) // 2
    q = np.arange(d)[:, None]
    x = np.arange(d)[None, :]
    k = amp[(q + h * x) % d] * np.conj(amp[(q - h * x) % d])
    return np.fft.fft(k, axis=1).T / d


class SweepContext:
    def __init__(self, ps, seed: int) -> None:
        d = SWEEP_D
        self.ps = ps
        self.dim = ps.zmod.PrimeDim(d)
        rng = np.random.default_rng([seed, 2])
        amp = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        self.sources = (
            ps.qudit.StateVector.normalized(self.dim, amp),
            ps.qudit.StateVector.basis(self.dim, 0),
        )
        self.grids = tuple(ps.wigner.wigner_pure(psi) for psi in self.sources)
        self.oracle_grids = tuple(oracle_wigner(np.asarray(psi.amp)) for psi in self.sources)
        self.group_order = d * (d * d - 1)
        self.order = rng.permutation(self.group_order)
        self.elements: list = []


class SweepWorkload:
    name = "covariance-sweep"

    def prepare(self, ps, seed: int, output: str, reference: dict) -> SweepContext:
        return SweepContext(ps, seed)

    def warmup(self, ctx: SweepContext) -> range:
        # every element is a distinct configuration: one sweep fills the metaplectic cache
        return range(ctx.group_order)

    def config(self, ctx: SweepContext, i: int) -> int:
        return i % ctx.group_order

    def states_per_call(self, cfg: int) -> int:
        return 2

    def call(self, ctx: SweepContext, j: int):
        ps = ctx.ps
        if j == 0:  # each sweep starts by enumerating the group
            ctx.elements = ps.zmod.sl2_enumerate(ctx.dim)
        S = ctx.elements[ctx.order[j]]
        mu = ps.clifford.metaplectic(S)
        images = []
        for psi, grid in zip(ctx.sources, ctx.grids):
            raw = mu.apply(psi)
            img = ps.qudit.StateVector.normalized(ctx.dim, raw)
            w = ps.wigner.wigner_pure(img)
            predicted = ps.wigner.metaplectic_image_grid(grid, S)
            rows = ps.wigner.self_correlation(img).values
            nonneg = [ps.bochner.has_nonneg_fourier(ps.bochner.CyclicFunction(ctx.dim, row))
                      for row in rows]
            images.append((img, raw, w, predicted, rows, nonneg))
        haar_img = images[0][0]
        char_route = ps.wigner.wigner_from_char(ps.wigner.characteristic(ps.qudit.projector(haar_img)))
        return S, images, char_route

    def read(self, ctx: SweepContext, cfg, raw):
        return raw

    def check(self, ctx: SweepContext, j: int, raw) -> list[str]:
        S, images, char_route = raw
        d = SWEEP_D
        a, b, c, e = (int(v) for v in S.as_ints())
        problems = []
        if (a * e - b * c) % d != 1:
            problems.append("swept element is not in SL(2)")
        P, Q = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
        pullback = ((e * P - b * Q) % d, (-c * P + a * Q) % d)  # S^-1 applied to (p, q)
        for label, oracle, (img, raw_amp, w, predicted, rows, nonneg) in zip(
            ("haar", "stabilizer"), ctx.oracle_grids, images
        ):
            wv = np.asarray(w.values)
            if abs(np.linalg.norm(raw_amp) - 1.0) > NORM_TOL:
                problems.append(f"{label}: mu(S) psi is not unit norm before renormalization")
            if np.max(np.abs(wv - oracle[pullback])) > COVARIANCE_TOL:
                problems.append(f"{label}: covariance identity fails")
            if np.max(np.abs(wv - np.asarray(predicted.values))) > COVARIANCE_TOL:
                problems.append(f"{label}: metaplectic_image_grid disagrees with wigner_pure")
            # Column q of W is the Fourier transform of the row K(q, .), which
            # has_nonneg_fourier rescales to unit norm before comparing with -tol.
            norms = np.linalg.norm(np.asarray(rows), axis=1)
            col_min = wv.real.min(axis=0)
            for q in np.nonzero(norms >= ROW_NORM_FLOOR)[0]:
                margin = col_min[q] / norms[q] + BOCHNER_TOL
                if bool(nonneg[q]) != (margin >= 0.0) and abs(margin) > 1e-12:
                    problems.append(f"{label}: has_nonneg_fourier row {q} is {nonneg[q]}")
            # every row W(., q) of a stabilizer image is nonnegative
            if label == "stabilizer" and wv.real.min() < -STABILIZER_NONNEG_TOL:
                problems.append("stabilizer image has a negative Wigner entry")
        if np.max(np.abs(np.asarray(images[0][2].values) - np.asarray(char_route.values))) > COVARIANCE_TOL:
            problems.append("haar: Wigner routes disagree")
        return problems

    def fingerprint(self, raw) -> str:
        S, images, char_route = raw
        h = hashlib.sha256(repr(S.as_ints()).encode())
        for img, raw_amp, w, predicted, rows, nonneg in images:
            h.update(np.asarray(w.values).tobytes() + np.asarray(predicted.values).tobytes())
            h.update(bytes(map(bool, nonneg)))
        h.update(np.asarray(char_route.values).tobytes())
        return h.hexdigest()


WORKLOADS = {
    w.name: w
    for w in (
        VerifyWorkload("verify-small", (3, 5, 7), stream=0),
        VerifyWorkload("verify-large", (61,), stream=1),
        SweepWorkload(),
    )
}
