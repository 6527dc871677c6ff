"""Command-line front end.

Subcommands: wigner, stabilizers, metaplectic, verify. Machine-readable
artifacts (JSON by default, CSV via --format csv) go to stdout or --output;
all human-oriented text goes to stderr. Exit codes: 0 success, 1 a
verification check failed, 2 invalid input or usage.

The verify seed comes from --seed when given, else from the PHASESPACE_SEED
environment variable, else defaults to 42; identical configurations produce
byte-identical artifacts except for the segregated duration_seconds field.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .clifford import enumerate_stabilizers, metaplectic, stabilizer_descriptors
from .hudson import single_point_infeasibility, verify_hudson
from .qudit import StateVector, weyl
from .wigner import wigner_pure
from .zmod import PrimeDim, SymplecticMatrix, sl2_apply

DEFAULT_SEED = 42
INPUT_NORM_TOL = 1e-6
SEED_ENV_VAR = "PHASESPACE_SEED"


class CliError(Exception):
    """Invalid input; maps to exit code 2."""


@dataclass(frozen=True)
class CliConfig:
    """Resolved options for one invocation."""

    command: str
    dim: PrimeDim
    fmt: str = "json"
    output: str | None = None
    state_json: str | None = None
    normalize: bool = False
    amplitudes: bool = False
    matrix: tuple[int, int, int, int] | None = None
    samples: int = 1000
    seed: int = DEFAULT_SEED
    tol: float = 1e-9
    two_point: int = 100


def build_parser() -> argparse.ArgumentParser:
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

    p = sub.add_parser("stabilizers", help="enumerate the d(d+1) stabilizer states")
    add_common(p)
    p.add_argument("--amplitudes", action="store_true", help="include amplitude arrays")

    p = sub.add_parser("metaplectic", help="unitary implementing an SL(2, Z_d) element")
    add_common(p)
    p.add_argument("--matrix", required=True, help="entries a,b,c,e of [[a,b],[c,e]], det = 1 mod d")

    p = sub.add_parser("verify", help="run the positivity certification battery")
    add_common(p)
    p.add_argument("--samples", type=int, default=1000, help="number of Haar-random samples")
    p.add_argument("--seed", type=int, default=None, help=f"RNG seed (default: ${SEED_ENV_VAR} or {DEFAULT_SEED})")
    p.add_argument("--tol", type=float, default=1e-9, help="negativity threshold for sampled states")
    p.add_argument("--two-point", type=int, default=100, dest="two_point",
                   help="number of two-point-support samples")
    return parser


def _resolve_seed(arg_seed: int | None) -> int:
    if arg_seed is not None:
        seed = arg_seed
    else:
        raw = os.environ.get(SEED_ENV_VAR)
        if raw is None:
            return DEFAULT_SEED
        try:
            seed = int(raw)
        except ValueError:
            raise CliError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None
    if seed < 0:
        raise CliError("seed must be nonnegative")
    return seed


def resolve_config(args: argparse.Namespace) -> CliConfig:
    try:
        dim = PrimeDim(args.d)
    except ValueError as exc:
        raise CliError(str(exc)) from None

    matrix = None
    if getattr(args, "matrix", None) is not None:
        parts = args.matrix.split(",")
        if len(parts) != 4:
            raise CliError("--matrix expects four comma-separated integers a,b,c,e")
        try:
            matrix = tuple(int(part) for part in parts)
        except ValueError:
            raise CliError("--matrix entries must be integers") from None

    samples = getattr(args, "samples", 1000)
    two_point = getattr(args, "two_point", 100)
    if samples < 0 or two_point < 0:
        raise CliError("sample counts must be nonnegative")
    tol = getattr(args, "tol", 1e-9)
    if not (math.isfinite(tol) and tol >= 0):
        raise CliError(f"--tol must be a finite nonnegative number, got {tol!r}")

    return CliConfig(
        command=args.command,
        dim=dim,
        fmt=args.format,
        output=args.output,
        state_json=getattr(args, "state", None),
        normalize=getattr(args, "normalize", False),
        amplitudes=getattr(args, "amplitudes", False),
        matrix=matrix,
        samples=samples,
        seed=_resolve_seed(getattr(args, "seed", None)),
        tol=tol,
        two_point=two_point,
    )


def parse_state(config: CliConfig) -> StateVector:
    """Parse the --state JSON into a StateVector, applying the norm policy."""
    try:
        raw = json.loads(config.state_json)
    except json.JSONDecodeError as exc:
        raise CliError(f"--state is not valid JSON: {exc}") from None
    d = config.dim.d
    if not isinstance(raw, list) or len(raw) != d:
        raise CliError(f"--state must be a JSON array of {d} [re, im] pairs")
    amp = np.empty(d, dtype=complex)
    for k, pair in enumerate(raw):
        if not isinstance(pair, list) or len(pair) != 2 or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair
        ):
            raise CliError(f"--state entry {k} must be a [re, im] pair of numbers")
        amp[k] = complex(pair[0], pair[1])
        if not np.isfinite(amp[k]):
            raise CliError(f"--state entry {k} is not finite")
    with np.errstate(over="ignore"):  # an overflow is reported as the error below
        norm = float(np.linalg.norm(amp))
    if not math.isfinite(norm):
        raise CliError("--state norm overflows; scale the amplitudes down")
    if norm == 0.0:
        raise CliError("--state is the zero vector")
    if abs(norm - 1.0) > INPUT_NORM_TOL and not config.normalize:
        raise CliError(
            f"--state has norm {norm!r}, more than {INPUT_NORM_TOL:g} from 1; pass --normalize to rescale"
        )
    return StateVector.normalized(config.dim, amp)


def _complex_pairs(mat: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def run_wigner(config: CliConfig) -> tuple[dict | list[str], int]:
    grid = wigner_pure(parse_state(config))
    if config.fmt == "csv":
        return grid.to_csv_rows(), 0
    return grid.to_json_dict(), 0


def run_stabilizers(config: CliConfig) -> tuple[dict | list[str], int]:
    states = enumerate_stabilizers(config.dim)
    descs = stabilizer_descriptors(config.dim)
    if config.fmt == "csv":
        rows = ["index,kind,k,theta,x"]
        for i, desc in enumerate(descs):
            rows.append(
                f"{i},{desc['kind']},{desc.get('k', '')},{desc.get('theta', '')},{desc.get('x', '')}"
            )
        return rows, 0
    records = []
    for desc, state in zip(descs, states):
        rec = dict(desc)
        if config.amplitudes:
            rec["amplitudes"] = [[float(z.real), float(z.imag)] for z in state.amp]
        records.append(rec)
    return {"d": config.dim.d, "count": len(records), "states": records}, 0


def run_metaplectic(config: CliConfig) -> tuple[dict | list[str], int]:
    a, b, c, e = config.matrix
    try:
        S = SymplecticMatrix(config.dim, a, b, c, e)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    mu = metaplectic(S)
    # self-check: conjugation identity at every phase point
    err = 0.0
    for v in config.dim.all_points():
        lhs = mu.mat @ weyl(v).mat @ mu.mat.conj().T
        rhs = weyl(sl2_apply(S, v)).mat
        err = max(err, float(np.max(np.abs(lhs - rhs))))
    passed = err <= 1e-10
    if config.fmt == "csv":
        rows = ["row,col,re,im"]
        for r in range(config.dim.d):
            for col in range(config.dim.d):
                z = mu.mat[r, col]
                rows.append(f"{r},{col},{float(z.real)!r},{float(z.imag)!r}")
        return rows, 0 if passed else 1
    artifact = {
        "d": config.dim.d,
        "matrix": [[S.a, S.b], [S.c, S.e]],
        "unitary": _complex_pairs(mu.mat),
        "conjugation_max_error": err,
        "conjugation_check_passed": passed,
    }
    return artifact, 0 if passed else 1


def run_verify(config: CliConfig) -> tuple[dict | list[str], int]:
    start = time.perf_counter()
    report = verify_hudson(
        config.dim, config.samples, config.seed, tol=config.tol, two_point_samples=config.two_point
    )
    point_mass = single_point_infeasibility(config.dim)
    duration = time.perf_counter() - start
    overall = report.passed and point_mass
    artifact = report.to_dict()
    artifact["point_mass_infeasible"] = point_mass
    artifact["overall_passed"] = overall
    artifact["version"] = __version__
    artifact["duration_seconds"] = duration
    if config.fmt == "csv":
        rows = ["key,value"]
        for key in sorted(artifact):
            rows.append(f"{key},{json.dumps(artifact[key], sort_keys=True)}")
        return rows, 0 if overall else 1
    return artifact, 0 if overall else 1


def _emit(payload: dict | list[str], config: CliConfig) -> None:
    if isinstance(payload, dict):
        text = json.dumps(payload, sort_keys=True) + "\n"
    else:
        text = "\n".join(payload) + "\n"
    if config.output:
        with open(config.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_RUNNERS = {
    "wigner": run_wigner,
    "stabilizers": run_stabilizers,
    "metaplectic": run_metaplectic,
    "verify": run_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code) if exc.code is not None else 0
    try:
        config = resolve_config(args)
        payload, code = _RUNNERS[config.command](config)
        _emit(payload, config)
        return code
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
