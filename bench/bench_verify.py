"""Wall time, page faults and system time of verify_hudson, its per-sample kernels and its samplers.

Usage:

    python bench/bench_verify.py [--src DIR] [--parent DIR] [--label NAME] [--output PATH]

The script imports phasespace from DIR (default: src/ of this checkout),
pins BLAS to one thread, and times each case with time.perf_counter. A case
runs once as a warm-up, then REPEATS times, and the median is kept. Each
timed call also records the minor page faults and the system CPU seconds it
cost this process (resource.getrusage), which show allocator churn: memory
handed back to the system and faulted in again.

  * verify_hudson(PrimeDim(d), 1000 samples, seed 7, 100 two-point samples)
    at d = 3, 5, 7, 31, 61, 101, 401 and 601 (601 is past the CLI cap);
  * the stabilizer pass alone, verify_hudson with both sample counts 0 (its
    point-mass step included), at d = 101, 401, 601, 1009 and 2003;
  * the point-mass step alone, hudson.single_point_infeasibility, at d = 61,
    401 and 1009;
  * at d = 61, on one stream of 1000 Haar rows: the grid minima of the whole
    block at once, the grid minima in verify's row chunks (through one reused
    workspace), verify's own pass over the stream, which keeps its largest
    float64 minimum (hudson._block_minima over its sample blocks), and the
    sample-overlap step, which decides for each row whether it matches a
    stabilizer state;
  * at d = 3, 5, 7, 13 and 61, the seeded sampler that draws verify's
    blocks, hudson._sample_rows: 1000 Haar rows and 100 two-point rows,
    seeding included. Each also records per_row_share, the share of its rows
    that numpy's per-row path draws (1 where the block does not take the
    vector path at that d).

The results are stored under the key NAME in the output file (default
BENCH_verify.json at the root of this checkout). Other keys already in the
file are kept.

With --parent DIR a second tree, the parent, is imported from DIR into the
same process, and every case runs on both trees in turn, call by call: the
parent first on even repeats and the change first on odd ones, so that the
host's slow and fast spells fall on both alike. The parent's results go
under the key "parent NAME", the change's under NAME, so that each pair
keeps its own keys, and each case of the change also records paired_ratio,
the median over the repeats of its time over the parent's in the same
repeat. NAME should name the commit the change's figures come from, for
example

    git archive HEAD~1 | tar -x -C ../parent
    python bench/bench_verify.py --parent ../parent/src --label "change $(git rev-parse --short HEAD)"

Each entry also records nproc and the numpy and Python versions.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
REPEATS = 7
VERIFY_DIMS = (3, 5, 7, 31, 61, 101, 401, 601)
STABILIZER_PASS_DIMS = (101, 401, 601, 1009, 2003)
POINT_MASS_DIMS = (61, 401, 1009)
SAMPLES, TWO_POINT, SEED, TOL = 1000, 100, 7, 1e-9
KERNEL_D, KERNEL_ROWS = 61, 1000
SAMPLER_DIMS = (3, 5, 7, 13, 61)


def load(src: Path):
    """phasespace imported from src as modules of its own: those of an earlier
    load leave sys.modules first, so that two trees live in one process."""
    for name in [n for n in sys.modules if n == "phasespace" or n.startswith("phasespace.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src.resolve()))
    try:
        return importlib.import_module("phasespace")
    finally:
        sys.path.pop(0)


def sampler(hudson, d: int, stream: int, n: int):
    """A call of hudson._sample_rows drawing indices range(n) of SEED, seeding
    included: the unit rows and their per-row fast mask."""
    return lambda: hudson._sample_rows(d, stream, hudson._seed_words(SEED, stream, range(n)))


def per_row_share(hudson, d: int, stream: int, n: int) -> float:
    """The share of rows range(n) of SEED of stream that numpy's per-row path
    draws: those that leave the vector path's fast draws, or all of them where
    the block does not take it."""
    return float(1 - sampler(hudson, d, stream, n)()[1].mean())


def stream_minima(hudson, amps):
    """A call of verify's pass over one stream of rows at TOL, returning the
    stream's largest float64 minimum: _block_minima over its sample blocks."""
    n, d = amps.shape
    work = hudson.wigner_workspace(min(hudson._chunk_rows(d), n), d)
    beta = hudson._screen_bound(d)
    step = hudson._block_rows(d)

    def run():
        best = -math.inf
        for i in range(0, n, step):
            best = hudson._block_minima(amps[i:i + step], work, best, TOL, beta)[1]
        return best
    return run


def cases(ps) -> dict[tuple[str, ...], object]:
    """Every case as (path in the output entry) -> call, for one tree."""
    import numpy as np

    hudson, wigner = ps.hudson, ps.wigner
    out = {}
    for d in VERIFY_DIMS:
        dim = ps.PrimeDim(d)
        out["verify_hudson", "by_d", str(d)] = (
            lambda dim=dim: ps.verify_hudson(dim, SAMPLES, SEED, two_point_samples=TWO_POINT))
    for d in STABILIZER_PASS_DIMS:
        dim = ps.PrimeDim(d)
        out["stabilizer_pass", "by_d", str(d)] = lambda dim=dim: ps.verify_hudson(dim, 0, SEED, two_point_samples=0)
    for d in POINT_MASS_DIMS:
        out["point_mass_step", "by_d", str(d)] = lambda dim=ps.PrimeDim(d): hudson.single_point_infeasibility(dim)

    kernels = f"kernels_d{KERNEL_D}_{KERNEL_ROWS}_haar_rows"
    amps = sampler(hudson, KERNEL_D, hudson._HAAR_STREAM, KERNEL_ROWS)()[0]
    step = hudson._chunk_rows(KERNEL_D)
    work = wigner.wigner_workspace(step, KERNEL_D)

    def chunked_minima():
        return [wigner.wigner_rows(amps[i:i + step], 0, KERNEL_D, work).min(axis=(1, 2))
                for i in range(0, KERNEL_ROWS, step)]

    passed = stream_minima(hudson, amps)
    assert passed() == max(float(m.max()) for m in chunked_minima())
    assert not np.any(hudson._stabilizer_matches(amps))
    out[kernels, "wigner_minima"] = lambda: wigner.wigner_rows(amps, 0, KERNEL_D).min(axis=(1, 2))
    out[kernels, "chunked_minima"] = chunked_minima
    out[kernels, "stream_minima"] = passed
    out[kernels, "sample_overlap_step"] = lambda: hudson._stabilizer_matches(amps)

    for d in SAMPLER_DIMS:
        out["samplers_by_d", str(d), f"haar_rows_{SAMPLES}"] = sampler(hudson, d, hudson._HAAR_STREAM, SAMPLES)
        out["samplers_by_d", str(d), f"two_point_rows_{TWO_POINT}"] = sampler(
            hudson, d, hudson._TWO_POINT_STREAM, TWO_POINT)
    return out


def measure(calls: dict[str, object]) -> dict[str, dict]:
    """One warm-up call per tree, then REPEATS rounds of one call per tree,
    the trees in turn (reversed on odd rounds): per tree the median and every
    wall time, and the minor page faults and system CPU seconds of each call."""
    for fn in calls.values():
        fn()
    entries = {label: {"times_s": [], "minor_faults": [], "system_s": []} for label in calls}
    for r in range(REPEATS):
        for label in (list(calls) if r % 2 == 0 else list(calls)[::-1]):
            before = resource.getrusage(resource.RUSAGE_SELF)
            start = time.perf_counter()
            calls[label]()
            entries[label]["times_s"].append(time.perf_counter() - start)
            after = resource.getrusage(resource.RUSAGE_SELF)
            entries[label]["minor_faults"].append(after.ru_minflt - before.ru_minflt)
            entries[label]["system_s"].append(after.ru_stime - before.ru_stime)
    for entry in entries.values():
        entry["median_s"] = statistics.median(entry["times_s"])
    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory that holds phasespace/")
    parser.add_argument("--parent", type=Path, default=None,
                        help="directory that holds the parent's phasespace/, timed in turn with --src")
    parser.add_argument("--label", default="change", help="key of this run in the output file")
    parser.add_argument("--output", type=Path, default=ROOT / "BENCH_verify.json")
    args = parser.parse_args(argv)

    import numpy as np

    parent_key = f"parent {args.label}"
    trees = {parent_key: load(args.parent)} if args.parent else {}
    trees[args.label] = load(args.src)
    calls = {label: cases(ps) for label, ps in trees.items()}
    entries = {label: {} for label in trees}
    for path, call in calls[args.label].items():
        timed = measure({label: tree_calls[path] for label, tree_calls in calls.items() if path in tree_calls})
        if len(timed) == 2:
            pairs = zip(timed[parent_key]["times_s"], timed[args.label]["times_s"])
            timed[args.label]["paired_ratio"] = statistics.median(change / parent for parent, change in pairs)
        for label, entry in timed.items():
            node = entries[label]
            for key in path[:-1]:
                node = node.setdefault(key, {})
            node[path[-1]] = entry
        print("/".join(path) + ":", ", ".join(f"{label} {entry['median_s']:.4f} s" for label, entry in timed.items()),
              f"(ratio {timed[args.label]['paired_ratio']:.3f})" if len(timed) == 2 else "",
              f"minor faults {timed[args.label]['minor_faults']}", file=sys.stderr)

    doc = json.loads(args.output.read_text()) if args.output.exists() else {}
    for label, entry in entries.items():
        entry["verify_hudson"].update(samples=SAMPLES, two_point_samples=TWO_POINT, seed=SEED)
        entry["stabilizer_pass"].update(samples=0, two_point_samples=0, seed=SEED)
        hudson = trees[label].hudson
        for d in SAMPLER_DIMS:
            rows = entry["samplers_by_d"][str(d)]
            rows[f"haar_rows_{SAMPLES}"]["per_row_share"] = per_row_share(hudson, d, hudson._HAAR_STREAM, SAMPLES)
            rows[f"two_point_rows_{TWO_POINT}"]["per_row_share"] = per_row_share(
                hudson, d, hudson._TWO_POINT_STREAM, TWO_POINT)
        doc[label] = {
            "machine": {
                "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
                "blas_threads": 1,
                "numpy": np.__version__,
                "python": platform.python_version(),
            },
            "repeats": REPEATS,
            "interleaved_with": [other for other in trees if other != label],
            **entry,
        }
    args.output.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
