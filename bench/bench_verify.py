"""Wall time, page faults and system time of verify_hudson, its per-sample kernels and its samplers.

Usage:

    python bench/bench_verify.py [--src DIR] [--label NAME] [--output PATH]

The script imports phasespace from DIR (default: src/ of this checkout),
pins BLAS to one thread, and times each case with time.perf_counter. A case
runs once as a warm-up, then REPEATS times, and the median is kept. Each
timed call also records the minor page faults and the system CPU seconds it
cost this process (resource.getrusage), which show allocator churn: memory
handed back to the system and faulted in again.

  * verify_hudson(PrimeDim(d), 1000 samples, seed 7, 100 two-point samples)
    at d = 3, 5, 7, 31, 61, 101 and 401;
  * the stabilizer pass alone, verify_hudson with both sample counts 0 (its
    point-mass step included), at d = 101, 401, 601 and 1009;
  * at d = 61, on one block of 1000 Haar rows: the grid minima of the whole
    block at once, the grid minima in verify's row chunks (through one reused
    workspace), the same chunks through verify's float32 screen
    (hudson._sample_minima, in a tree that has it), and the sample-overlap
    step, which decides for each row whether it matches a stabilizer state;
  * at d = 7 and 61, the seeded samplers that draw verify's blocks:
    1000 Haar rows (hudson._haar_rows) and 100 two-point rows
    (hudson._two_point_rows), seeding included.

The results are stored under the key NAME in the output file (default
BENCH_verify.json at the root of this checkout). Other keys already in the
file are kept, so two trees can be recorded side by side, for example

    python bench/bench_verify.py --src ../parent/src --label parent
    python bench/bench_verify.py --label change

Each entry also records nproc and the numpy and Python versions.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
REPEATS = 5
VERIFY_DIMS = (3, 5, 7, 31, 61, 101, 401)
STABILIZER_PASS_DIMS = (101, 401, 601, 1009)
SAMPLES, TWO_POINT, SEED, TOL = 1000, 100, 7, 1e-9
KERNEL_D, KERNEL_ROWS = 61, 1000
SAMPLER_DIMS = (7, 61)


def timed(fn) -> dict:
    """One warm-up call, then REPEATS calls: the median and every wall time,
    and the minor page faults and system CPU seconds of each call."""
    fn()
    times, faults, system = [], [], []
    for _ in range(REPEATS):
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
        after = resource.getrusage(resource.RUSAGE_SELF)
        faults.append(after.ru_minflt - before.ru_minflt)
        system.append(after.ru_stime - before.ru_stime)
    return {"median_s": statistics.median(times), "times_s": times, "minor_faults": faults, "system_s": system}


def sampler(hudson, name: str, d: int, stream: int, n: int):
    """A call of hudson.<name> drawing indices range(n) of SEED, seeding included."""
    rows = getattr(hudson, name)
    return lambda: rows(d, hudson._seed_words(SEED, stream, range(n)))


def kernels(ps) -> dict:
    """The per-sample kernels on one block of KERNEL_ROWS Haar rows at KERNEL_D:
    the grid minima of the whole block, the same in verify's row chunks through
    one reused workspace, those chunks through the float32 screen with verify's
    running maximum and default tol, and verify's stabilizer-match step."""
    import math

    import numpy as np

    hudson, wigner = ps.hudson, ps.wigner
    amps = sampler(hudson, "_haar_rows", KERNEL_D, hudson._HAAR_STREAM, KERNEL_ROWS)()
    step = hudson._chunk_rows(KERNEL_D)
    chunks = [slice(i, i + step) for i in range(0, KERNEL_ROWS, step)]
    work = wigner.wigner_workspace(step, KERNEL_D)

    def chunked_minima():
        return [wigner.wigner_block(amps[rows], out=work).min(axis=(1, 2)) for rows in chunks]

    def screened_chunk_minima():
        beta, best = hudson._screen_bound(KERNEL_D), -math.inf
        for rows in chunks:
            best = max(best, float(hudson._sample_minima(amps[rows], work, min(best, -TOL), beta).max()))
        return best

    assert not np.any(hudson._stabilizer_matches(amps))
    cases = {"wigner_minima": timed(lambda: wigner.wigner_block(amps).min(axis=(1, 2))),
             "chunked_minima": timed(chunked_minima)}
    if hasattr(hudson, "_sample_minima"):
        assert screened_chunk_minima() == max(float(m.max()) for m in chunked_minima())
        cases["screened_chunk_minima"] = timed(screened_chunk_minima)
    cases["sample_overlap_step"] = timed(lambda: hudson._stabilizer_matches(amps))
    return cases


def samplers(ps) -> dict:
    """The Haar and two-point samplers on blocks of SAMPLES and TWO_POINT rows,
    as verify_hudson draws them at small d (one chunk each)."""
    hudson = ps.hudson
    return {
        str(d): {
            f"haar_rows_{SAMPLES}": timed(sampler(hudson, "_haar_rows", d, hudson._HAAR_STREAM, SAMPLES)),
            f"two_point_rows_{TWO_POINT}": timed(
                sampler(hudson, "_two_point_rows", d, hudson._TWO_POINT_STREAM, TWO_POINT)),
        }
        for d in SAMPLER_DIMS
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory that holds phasespace/")
    parser.add_argument("--label", default="change", help="key of this run in the output file")
    parser.add_argument("--output", type=Path, default=ROOT / "BENCH_verify.json")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(args.src.resolve()))
    import numpy as np
    import phasespace as ps

    verify = {}
    for d in VERIFY_DIMS:
        dim = ps.PrimeDim(d)
        verify[str(d)] = timed(lambda: ps.verify_hudson(dim, SAMPLES, SEED, two_point_samples=TWO_POINT))
        entry = verify[str(d)]
        print(f"verify_hudson d = {d}: {entry['median_s']:.4f} s, minor faults {entry['minor_faults']},"
              f" system {statistics.median(entry['system_s']):.4f} s", file=sys.stderr)
    stabilizer_pass = {}
    for d in STABILIZER_PASS_DIMS:
        dim = ps.PrimeDim(d)
        stabilizer_pass[str(d)] = timed(lambda: ps.verify_hudson(dim, 0, SEED, two_point_samples=0))
        print(f"stabilizer pass d = {d}: {stabilizer_pass[str(d)]['median_s']:.4f} s", file=sys.stderr)
    kernel = kernels(ps)
    for name, entry in kernel.items():
        print(f"{name} d = {KERNEL_D}, {KERNEL_ROWS} rows: {entry['median_s']:.4f} s", file=sys.stderr)
    sampler = samplers(ps)
    for d, entries in sampler.items():
        for name, entry in entries.items():
            print(f"{name} d = {d}: {entry['median_s']:.4f} s", file=sys.stderr)

    doc = json.loads(args.output.read_text()) if args.output.exists() else {}
    doc[args.label] = {
        "machine": {
            "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
            "blas_threads": 1,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "repeats": REPEATS,
        "verify_hudson": {
            "samples": SAMPLES, "two_point_samples": TWO_POINT, "seed": SEED, "by_d": verify,
        },
        "stabilizer_pass": {"samples": 0, "two_point_samples": 0, "seed": SEED, "by_d": stabilizer_pass},
        f"kernels_d{KERNEL_D}_{KERNEL_ROWS}_haar_rows": kernel,
        "samplers_by_d": sampler,
    }
    args.output.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
