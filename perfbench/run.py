"""Benchmark of the phasespace package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-small --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 replays the same calls
under the span tracer and prints the per-layer metrics. The last line of
stdout is one JSON object {"correct", "attempted", "failed", "metrics"};
the lines before it state the run metadata and every metric by name and unit.
The program under test is imported from src/ of this checkout. Without it the
run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BLAS_THREADS = 1
# Set before numpy loads its BLAS, identically on every commit measured.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

from tracer import Tracer, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
PACKAGE = "phasespace"
SETUP_REPEATS = 3
MAX_REPORTED_PROBLEMS = 5

END_TO_END = (
    ("setup_s", "s"),
    ("call_s.mean", "s"),
    ("call_s.p90", "s"),
    ("states_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    "cli.main.self_s",
    "hudson.verify_hudson.self_s",
    "hudson.check_positivity.calls",
    "hudson.check_positivity.self_s",
    "hudson.support.self_s",
    "hudson.check_modulus_inequality.self_s",
    "hudson.check_constant_modulus.self_s",
    "hudson.haar_sample.self_s",
    "hudson.two_point_sample.self_s",
    "hudson.single_point_infeasibility.self_s",
    "wigner.wigner_pure.calls",
    "wigner.wigner_pure.self_s",
    "wigner.self_correlation.self_s",
    "wigner.PhaseGrid.calls",
    "wigner.PhaseGrid.self_s",
    "wigner.characteristic.calls",
    "wigner.characteristic.self_s",
    "wigner.wigner_from_char.self_s",
    "wigner.char_from_wigner.self_s",
    "wigner.operator_from_char.self_s",
    "wigner.metaplectic_image_grid.self_s",
    "qudit.StateVector.calls",
    "qudit.StateVector.self_s",
    "qudit.haar_random_state.self_s",
    "qudit.weyl.calls",
    "qudit.weyl.self_s",
    "clifford.enumerate_stabilizers.self_s",
    "clifford.is_stabilizer.calls",
    "clifford.is_stabilizer.self_s",
    "clifford.metaplectic.calls",
    "clifford.metaplectic.cold_self_s",
    "clifford.metaplectic.warm_self_s",
    "zmod.sl2_enumerate.self_s",
    "zmod.sl2_decompose.calls",
    "zmod.sl2_decompose.self_s",
    "bochner.has_nonneg_fourier.calls",
    "bochner.has_nonneg_fourier.self_s",
    "trace.overhead_ratio",
    "trace.unattributed_ratio",
)


class Run:
    """Outcome of one benchmark run: every call is checked and counted."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str], calls: int = 1, attempted: int = 1) -> None:
        """Count `attempted` calls, of which `calls` failed when there are problems."""
        self.attempted += attempted
        if problems:
            self.failed += calls
            if len(self.problems) < MAX_REPORTED_PROBLEMS:
                self.problems.append(f"{label}: {'; '.join(problems)}")


def blas_info() -> dict:
    """BLAS library and its thread count, set to BLAS_THREADS where the library allows."""
    import ctypes

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"blas": f"{blas.get('name')} {blas.get('version')}"}
    except (TypeError, KeyError):
        info = {"blas": "unknown"}
    info["blas_threads"] = None
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.rsplit("/", 1)[-1].lower()}
    except OSError:  # no /proc: the thread count stays as the environment set it
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                try:
                    setter = getattr(lib, f"{prefix}_set_num_threads{suffix}")
                    getter = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                except AttributeError:
                    continue
                setter.argtypes, getter.restype = [ctypes.c_int], ctypes.c_int
                setter(BLAS_THREADS)
                info["blas_threads"] = getter()
                return info
    return info


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / PACKAGE).rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def fresh_import():
    """Import phasespace from scratch, so that every module-level cache starts empty."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    gc.collect()
    ps = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    if not Path(ps.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"{PACKAGE} was imported from {ps.__file__}, not from this checkout")
    return ps


def timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def call_and_check(wl, ctx, cfg, label: str, run: Run, tracer: Tracer | None = None):
    """Issue one call and check its output; returns (fingerprint, wall seconds).

    A call that raises counts as failed, with fingerprint None and time NaN.
    """
    try:
        if tracer is None:
            result, seconds = timed(wl.call, ctx, cfg)
        else:
            result, seconds = tracer.run_call(timed, wl.call, ctx, cfg)
        raw = wl.read(ctx, cfg, result)
        problems = wl.check(ctx, cfg, raw)
        fingerprint = wl.fingerprint(raw)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        fingerprint, seconds, problems = None, float("nan"), [f"raised {exc!r}"]
    run.record(label, problems)
    return fingerprint, seconds


def setup(wl, seed: int, run: Run, reference: dict, tracer: Tracer | None = None):
    """Fresh import, context and one warm-up call per distinct configuration.

    Returns (context, seconds, warm-up fingerprints). The seconds count the
    import, the context and the warm-up calls, not the checks.
    """
    t0 = time.perf_counter()
    ps = fresh_import()
    ctx = wl.prepare(ps, seed, str(OUT_DIR / f"{wl.name}.json"), reference)
    seconds = time.perf_counter() - t0
    if tracer is not None:  # spans are recorded inside workload calls only
        tracer.install(PACKAGE)
    fingerprints = []
    for cfg in wl.warmup(ctx):
        fingerprint, s = call_and_check(wl, ctx, cfg, f"warm-up {cfg}", run, tracer)
        seconds += s
        fingerprints.append(fingerprint)
    return ctx, seconds, fingerprints


def measure(wl, ctx, seconds: float, run: Run, start: int = 0):
    """Closed loop for `seconds`, from call index `start`; returns the config,
    wall seconds and fingerprint of each call."""
    configs, durations, fingerprints = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        i = start + len(configs)
        cfg = wl.config(ctx, i)
        fingerprint, s = call_and_check(wl, ctx, cfg, f"call {i} {cfg}", run)
        configs.append(cfg)
        durations.append(s)
        fingerprints.append(fingerprint)
    return configs, durations, fingerprints


def end_to_end(wl, seed: int, seconds: float, run: Run, reference: dict) -> dict:
    """SETUP_REPEATS rounds of a fresh set-up followed by an equal share of the
    timed loop, so that the set-ups sample the machine at different times."""
    setup_times, configs, durations = [], [], []
    for _ in range(SETUP_REPEATS):
        ctx = None  # let the previous import's caches go before the next set-up
        ctx, s, _ = setup(wl, seed, run, reference)
        setup_times.append(s)
        c, d, _ = measure(wl, ctx, seconds / SETUP_REPEATS, run, start=len(configs))
        configs += c
        durations += d
    done = [(cfg, d) for cfg, d in zip(configs, durations) if d == d]
    times = [d for _, d in done]
    # The median is printed but not gated: a host shared with other tenants
    # alternates between a fast and a slow speed for seconds at a time, so call
    # times are bimodal and the median jumps between the modes as their mix
    # shifts from run to run; the mean moves smoothly.
    print(f"# {len(durations)} timed calls; statistics over {len(times)} samples; "
          f"call_s.p50 {float(np.percentile(times, 50))!r} s", flush=True)
    return {
        "setup_s": statistics.median(setup_times),
        "call_s.mean": statistics.fmean(times),
        "call_s.p90": float(np.percentile(times, 90)),
        "states_per_s": sum(wl.states_per_call(cfg) for cfg, _ in done) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_metric(per_name: dict, name: str) -> float:
    """A per-layer metric from per-span (calls, self_s); clifford.metaplectic sums its cold and warm spans."""
    span, _, field = name.rpartition(".")
    if field.endswith("_self_s"):  # cold_self_s -> the span clifford.metaplectic.cold
        span, field = f"{span}.{field[: -len('_self_s')]}", "self_s"
    index = 0 if field == "calls" else 1
    return float(sum(v[index] for k, v in per_name.items() if k == span or k.startswith(span + ".")))


def traced(wl, seed: int, seconds: float, run: Run, reference: dict) -> dict:
    """Untraced set-up and loop, then a fresh set-up and the same calls under the tracer."""
    ctx, _, plain = setup(wl, seed, run, reference)
    configs, plain_times, plain_timed = measure(wl, ctx, seconds, run)
    plain += plain_timed
    ctx = None

    tracer = Tracer()
    traced_times = []
    try:
        ctx, _, replay = setup(wl, seed, run, reference, tracer)
        for i, cfg in enumerate(configs):
            fingerprint, s = call_and_check(wl, ctx, cfg, f"traced call {i} {cfg}", run, tracer)
            traced_times.append(s)
            replay.append(fingerprint)
    finally:
        stale = tracer.restore()
    run.record("tracer restore", [f"attributes left patched: {stale}"] if stale else [], attempted=0)
    mismatched = sum(a != b for a, b in zip(plain, replay))
    run.record("traced replay", [f"{mismatched} outputs differ from the untraced run"] if mismatched else [],
               calls=mismatched, attempted=0)
    tracer.save(OUT_DIR / f"spans-{wl.name}.npz")
    summary = summarize(tracer.names, tracer.arrays())
    run.record("span integrity", summary["problems"], attempted=0)

    metrics = {name: layer_metric(summary["per_name"], name)
               for name in PER_LAYER if not name.startswith("trace.")}
    metrics["trace.overhead_ratio"] = sum(traced_times) / sum(plain_times) - 1.0
    metrics["trace.unattributed_ratio"] = summary["unattributed_ratio"]
    print(f"# traced {summary['calls']} calls; {len(tracer.start)} spans in "
          f"{OUT_DIR.name}/spans-{wl.name}.npz", flush=True)
    return metrics


def layer_unit(name: str) -> str:
    if name.startswith("trace."):
        return "ratio"
    return "calls/call" if name.endswith(".calls") else "s/call"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (ROOT / "src" / PACKAGE / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / PACKAGE} not found; run from a phasespace checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)
    reference = json.loads((BENCH_DIR / "reference.json").read_text())["artifacts"]

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_info(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }
    print("# meta " + json.dumps(meta, sort_keys=True), flush=True)

    wl = WORKLOADS[args.workload]
    run = Run()
    try:
        if args.trace:
            values = traced(wl, args.seed, args.seconds, run, reference)
            units = {name: layer_unit(name) for name in values}
        else:
            values = end_to_end(wl, args.seed, args.seconds, run, reference)
            units = dict(END_TO_END)
    except ImportError as exc:
        print(f"error: cannot import {PACKAGE}: {exc}", file=sys.stderr)
        return 2

    for problem in run.problems:
        print(f"# FAILED {problem}", flush=True)
    for name, value in values.items():
        print(f"{name} {value!r} {units[name]}")
    print(f"failed_ratio {run.failed}/{run.attempted} = {run.failed / run.attempted!r}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
