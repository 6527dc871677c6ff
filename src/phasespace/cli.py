"""Command-line front end.

Subcommands: wigner, stabilizers, metaplectic, verify, each run by the
handler its subparser names (run_wigner, ...), which checks --d and then its
own options. Machine-readable artifacts (JSON by default, CSV via --format
csv) go to stdout or --output; all human-oriented text goes to stderr. The
verify CSV is written by csv.writer, so a value holding a comma or a quote is
quoted; stabilizers --amplitudes is JSON only. Exit codes: 0 success, 1 a
verification check failed, 2 invalid input or usage.

The verify seed comes from --seed when given, else from the PHASESPACE_SEED
environment variable, else defaults to 42; identical configurations produce
byte-identical artifacts except for the segregated duration_seconds field.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import itertools
import json
import math
import os
import sys
import time
from collections.abc import Iterable

import numpy as np

from . import __version__
from .clifford import metaplectic, stabilizer_rows
from .hudson import verify_hudson
from .qudit import StateVector, weyl
from .wigner import KIND_WIGNER, wigner_pure
from .zmod import PrimeDim, SymplecticMatrix

DEFAULT_SEED = 42
INPUT_NORM_TOL = 1e-6
SEED_ENV_VAR = "PHASESPACE_SEED"
# Largest accepted --d per subcommand, so that oversized input exits 2 instead
# of exhausting memory or running for hours. Measured in process on a 2-core
# machine (Python 3.11, numpy 2.4), writing the artifact with --output:
#   wigner       d = 2003: JSON 6.0-6.1 s, peak RSS 442 MB; CSV 8.0-9.6 s,
#                166 MB (its lines are written one at a time); memory grows as
#                d^2, and 32 MB of it is the cached cos/sin factor of the
#                Wigner product, held while the artifact is formatted.
#   stabilizers  d = 101 with --amplitudes: 3.6-4.2 s, 276 MB (d = 151: 900 MB);
#                every amplitude pair is built before the artifact is written,
#                so memory grows as d^3.
#   metaplectic  d = 1009: JSON 4.5-4.9 s, 318 MB; CSV 4.3-4.4 s, 95 MB. The
#                self-check is O(d^3), 0.8 s of it, so the artifact sets the cost.
#   verify       d = 401: 0.48-0.66 s, 45 MB (BLAS on 1 thread). The
#                stabilizer pass builds three rows and two base grids, one
#                at a time in the call's one workspace: 0.02 s (0.09-0.1 s
#                and 66 MB at d = 1009), the point-mass step under 1 ms. The
#                1100 samples take the rest, a real half-lag Wigner product
#                each (O(d^3)): float32 minima over q ranges bound 1098, of
#                which 102-128 reach the last range, and 8-9 run whole in
#                float64, the overlap check's chirp DFT skipped by its O(d) bound.
MAX_D = {"wigner": 2003, "stabilizers": 101, "metaplectic": 1009, "verify": 401}
# Largest accepted --samples and --two-point: time grows linearly in the counts,
# memory stays flat. Measured as above with both counts at the cap: d = 3 0.45-0.47 s
# and 45 MB, mostly the draws; d = 101 7.0-7.1 s and 44 MB, 4.2 s minima, 2.4 s draws.
MAX_SAMPLES = 100_000


class CliError(Exception):
    """Invalid input; maps to exit code 2."""


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="phasespace",
        description="Discrete phase-space analysis of a single qudit of odd prime dimension.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--d", type=int, required=True, help="qudit dimension (odd prime)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", default=None, help="write the artifact to this path instead of stdout")

    p = sub.add_parser("wigner", help="Wigner function of a pure state")
    add_common(p)
    p.add_argument("--state", required=True, help="JSON array of d [re, im] amplitude pairs")
    p.add_argument("--normalize", action="store_true", help="rescale the input state to unit norm")
    p.set_defaults(run=run_wigner)

    p = sub.add_parser("stabilizers", help="enumerate the d(d+1) stabilizer states")
    add_common(p)
    p.add_argument("--amplitudes", action="store_true", help="include amplitude arrays")
    p.set_defaults(run=run_stabilizers)

    p = sub.add_parser("metaplectic", help="unitary implementing an SL(2, Z_d) element")
    add_common(p)
    p.add_argument("--matrix", required=True, help="entries a,b,c,e of [[a,b],[c,e]], det = 1 mod d")
    p.set_defaults(run=run_metaplectic)

    p = sub.add_parser("verify", help="run the positivity certification battery")
    add_common(p)
    p.add_argument("--samples", type=int, default=1000, help="number of Haar-random samples")
    p.add_argument("--seed", type=int, default=None, help=f"RNG seed (default: ${SEED_ENV_VAR} or {DEFAULT_SEED})")
    p.add_argument("--tol", type=float, default=1e-9, help="negativity threshold for sampled states")
    p.add_argument("--two-point", type=int, default=100, dest="two_point",
                   help="number of two-point-support samples")
    p.set_defaults(run=run_verify)
    return parser


def _prime_dim(args: argparse.Namespace) -> PrimeDim:
    """The PrimeDim of --d, checked first against the subcommand's MAX_D:
    PrimeDim's trial division alone would hang on a huge --d."""
    if args.d > MAX_D[args.command]:
        raise CliError(f"--d must be at most {MAX_D[args.command]} for {args.command}")
    try:
        return PrimeDim(args.d)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def parse_state(args: argparse.Namespace, dim: PrimeDim) -> StateVector:
    """Parse the --state JSON into a StateVector, applying the norm policy."""
    try:
        raw = json.loads(args.state)
    except ValueError as exc:  # also an int literal past Python's digit limit
        raise CliError(f"--state is not valid JSON: {exc}") from None
    d = dim.d
    if not isinstance(raw, list) or len(raw) != d:
        raise CliError(f"--state must be a JSON array of {d} [re, im] pairs")
    amp = np.empty(d, dtype=complex)
    for k, pair in enumerate(raw):
        if not isinstance(pair, list) or len(pair) != 2 or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair
        ):
            raise CliError(f"--state entry {k} must be a [re, im] pair of numbers")
        try:
            amp[k] = complex(pair[0], pair[1])
        except OverflowError:  # an int beyond the float range
            amp[k] = np.inf
        if not np.isfinite(amp[k]):
            raise CliError(f"--state entry {k} is not finite")
    with np.errstate(over="ignore"):  # an overflow is reported as the error below
        norm = float(np.linalg.norm(amp))
    if not math.isfinite(norm):
        raise CliError("--state norm overflows; scale the amplitudes down")
    if norm == 0.0:
        raise CliError("--state is the zero vector")
    if abs(norm - 1.0) > INPUT_NORM_TOL and not args.normalize:
        raise CliError(
            f"--state has norm {norm!r}, more than {INPUT_NORM_TOL:g} from 1; pass --normalize to rescale"
        )
    return StateVector(dim, amp / norm)


def _complex_pairs(mat: np.ndarray) -> list:
    """Each entry z of a complex array as the pair [z.real, z.imag] of floats."""
    return np.stack([mat.real, mat.imag], -1).tolist()


def run_wigner(args: argparse.Namespace) -> tuple[dict | Iterable[str], int]:
    dim = _prime_dim(args)
    values = wigner_pure(parse_state(args, dim)).values.real
    if args.format == "csv":
        # one line per (p, q) in lexicographic order, made as _emit writes it and
        # converted one grid row at a time, so the d^2 floats are never all objects
        lines = (f"{p},{q},{v!r}" for p, row in enumerate(values) for q, v in enumerate(row.tolist()))
        return itertools.chain(["p,q,value"], lines), 0
    return {"d": dim.d, "kind": KIND_WIGNER, "values": values.tolist()}, 0


def run_stabilizers(args: argparse.Namespace) -> tuple[dict | Iterable[str], int]:
    dim = _prime_dim(args)
    if args.amplitudes and args.format != "json":
        raise CliError("--amplitudes needs --format json")
    d = dim.d
    # stabilizer i as clifford.stabilizer_rows indexes it: |i> for i < d, then (theta, x) = divmod(i - d, d)
    descs = [{"kind": "basis", "k": k} for k in range(d)]
    descs += [{"kind": "quadratic", "theta": i // d, "x": i % d} for i in range(d * d)]
    if args.format == "csv":
        lines = (f"{i},{s['kind']},{s.get('k', '')},{s.get('theta', '')},{s.get('x', '')}" for i, s in enumerate(descs))
        return ["index,kind,k,theta,x", *lines], 0
    if args.amplitudes:
        for start in range(0, len(descs), d):  # one block of d rows at a time
            for desc, row in zip(descs[start:start + d], _complex_pairs(stabilizer_rows(d, range(start, start + d)))):
                desc["amplitudes"] = row
    return {"d": d, "count": len(descs), "states": descs}, 0


def _conjugation_error(mu: np.ndarray, S: SymplecticMatrix) -> float:
    """Largest entry of mu mu^dagger - I and of mu w(v) - w(S v) mu at v = (1, 0)
    and (0, 1). These two suffice: by the composition law of criterion 12,
    w(p, q) = omega^(-2^-1 p q) w(1, 0)^p w(0, 1)^q, and w(S(p, q)) is the same
    phase times w(S(1, 0))^p w(S(0, 1))^q, as S preserves the symplectic form.
    The operator-norm error of mu A - A' mu adds along products of unitaries, so
    with |p|, |q| <= (d - 1)/2 the largest entry of mu w(v) - w(S v) mu at any v
    is at most d (d - 1)/2 times the sum of the two generator errors. The
    images S(1, 0) and S(0, 1) are the columns (a, c) and (b, e) of S."""
    err = np.abs(mu @ mu.conj().T - np.eye(len(mu))).max()
    for v, image in (((1, 0), (S.a, S.c)), ((0, 1), (S.b, S.e))):
        err = max(err, np.abs(mu @ weyl(S.dim, *v).mat - weyl(S.dim, *image).mat @ mu).max())
    return float(err)


def run_metaplectic(args: argparse.Namespace) -> tuple[dict | Iterable[str], int]:
    dim = _prime_dim(args)
    parts = args.matrix.split(",")
    if len(parts) != 4:
        raise CliError("--matrix expects four comma-separated integers a,b,c,e")
    try:
        entries = [int(part) for part in parts]
    except ValueError:
        raise CliError("--matrix entries must be integers") from None
    try:
        S = SymplecticMatrix(dim, *entries)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    mu = metaplectic(S)
    err = _conjugation_error(mu.mat, S)
    passed = err <= 1e-10
    if args.format == "csv":
        # converted one row of mu at a time, as in run_wigner
        lines = (f"{r},{c},{z.real!r},{z.imag!r}" for r, row in enumerate(mu.mat) for c, z in enumerate(row.tolist()))
        return itertools.chain(["row,col,re,im"], lines), 0 if passed else 1
    artifact = {
        "d": dim.d,
        "matrix": [[S.a, S.b], [S.c, S.e]],
        "unitary": _complex_pairs(mu.mat),
        "conjugation_max_error": err,
        "conjugation_check_passed": passed,
    }
    return artifact, 0 if passed else 1


def run_verify(args: argparse.Namespace) -> tuple[dict | Iterable[str], int]:
    dim = _prime_dim(args)
    if args.samples < 0 or args.two_point < 0:
        raise CliError("sample counts must be nonnegative")
    if max(args.samples, args.two_point) > MAX_SAMPLES:
        raise CliError(f"sample counts must be at most {MAX_SAMPLES}")
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise CliError(f"--tol must be a finite nonnegative number, got {args.tol!r}")
    seed = args.seed
    if seed is None:
        raw = os.environ.get(SEED_ENV_VAR)
        try:
            seed = DEFAULT_SEED if raw is None else int(raw)
        except ValueError:
            raise CliError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None
    if seed < 0:
        raise CliError("seed must be nonnegative")
    start = time.perf_counter()
    report = verify_hudson(dim, args.samples, seed, tol=args.tol, two_point_samples=args.two_point)
    duration = time.perf_counter() - start
    code = 0 if report.passed else 1
    artifact = report.to_dict()
    artifact["overall_passed"] = report.passed
    artifact["version"] = __version__
    artifact["duration_seconds"] = duration
    if args.format == "csv":
        # a JSON value may hold commas and quotes, which csv.writer quotes; it
        # never holds a line break, which json.dumps escapes, so a row is a line
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [("key", "value")] + [(key, json.dumps(artifact[key], sort_keys=True)) for key in sorted(artifact)]
        )
        return buf.getvalue().splitlines(), code
    return artifact, code


def _emit(payload: dict | Iterable[str], args: argparse.Namespace) -> None:
    """Write a JSON document, or CSV lines one at a time, to --output or stdout."""
    with open(args.output, "w") if args.output else contextlib.nullcontext(sys.stdout) as fh:
        if isinstance(payload, dict):
            fh.write(json.dumps(payload, sort_keys=True) + "\n")
        else:
            fh.writelines(f"{line}\n" for line in payload)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code) if exc.code is not None else 0
    try:
        payload, code = args.run(args)
        _emit(payload, args)
        return code
    except (CliError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
