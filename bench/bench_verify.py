"""Wall time, page faults and system time of phasespace verify, verify_hudson, its kernels and its samplers.

Usage:

    python bench/bench_verify.py [--src DIR] [--parent DIR] [--label NAME] [--output PATH]

The script imports phasespace from DIR (default: src/ of this checkout),
pins BLAS to one thread, and times each case with time.perf_counter. A case
runs once as a warm-up, then REPEATS times, and the median is kept. Each
timed call also records the minor page faults and the system CPU seconds it
cost this process (resource.getrusage), which show allocator churn: memory
handed back to the system and faulted in again.

  * `phasespace verify --samples 1000 --seed 7` (100 two-point samples, the
    default) as a child process at d = 3, 5, 7, 31, 101 and 401, the end to
    end time: interpreter start-up and imports included, the artifact
    discarded. Its page faults and system time are the child's, and its peak
    RSS (peak_rss_mb) is the VmHWM the child reads from /proc/self/status as
    it exits: ru_maxrss would count this process's own peak, which a child
    inherits at exec;
  * verify_hudson(PrimeDim(d), 1000 samples, seed 7, 100 two-point samples)
    at d = 3, 5, 7, 31, 61, 101, 401 and 601 (601 is past the CLI cap);
  * the stabilizer pass alone, verify_hudson with both sample counts 0 (its
    point-mass step included), at d = 101, 401, 601, 1009 and 2003;
  * the point-mass step alone, hudson.single_point_infeasibility, at d = 61,
    401 and 1009;
  * at d = 61, on one stream of 1000 Haar rows: the grid minima of the whole
    block at once, the grid minima in verify's row chunks (through one reused
    workspace), verify's own pass over the stream, which keeps its largest
    float64 minimum (hudson._block_minima over its sample blocks), the
    sample-overlap step, which decides for each row whether it matches a
    stabilizer state, the lag products L(q, u) of the block (lag_products),
    and the lemma-4 check on its moduli (hudson.modulus_violations);
  * at d = 3, 5, 7, 13 and 61, the seeded sampler that draws verify's
    blocks, hudson._sample_rows: 1000 Haar rows and 100 two-point rows,
    seeding included. Each also records per_row_share, the share of its rows
    that numpy's per-row path draws (1 where the block does not take the
    vector path at that d);
  * at d = 11 and 101, the covariance kernels, which verify does not call,
    on Haar sample 0 of seed 7 and S = [[2, 1], [1, 1]]: metaplectic(S),
    characteristic(projector(psi)), wigner_from_char of that grid,
    metaplectic_image_grid of the Wigner grid under S, has_nonneg_fourier on
    each of the d rows K(q, .) of self_correlation(psi), and sl2_enumerate
    (1,030,200 elements at d = 101, about 2.5 s and 164 MB peak RSS in a
    fresh process). At d = 11 a timed
    call runs each kernel but sl2_enumerate COVARIANCE_LOOPS times in a row,
    so that it lasts milliseconds rather than microseconds.

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
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
REPEATS = 7
CLI_DIMS = (3, 5, 7, 31, 101, 401)
VERIFY_DIMS = (3, 5, 7, 31, 61, 101, 401, 601)
STABILIZER_PASS_DIMS = (101, 401, 601, 1009, 2003)
POINT_MASS_DIMS = (61, 401, 1009)
SAMPLES, TWO_POINT, SEED, TOL = 1000, 100, 7, 1e-9
KERNEL_D, KERNEL_ROWS = 61, 1000
SAMPLER_DIMS = (3, 5, 7, 13, 61)
COVARIANCE_DIMS = (11, 101)
COVARIANCE_LOOPS = 100


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


# `python -m phasespace ARGS` that writes its VmHWM line to stderr as it exits
PEAK_PROBE = """import atexit, runpy, sys
atexit.register(lambda: sys.stderr.write(next(l for l in open("/proc/self/status") if l.startswith("VmHWM:"))))
runpy.run_module("phasespace", run_name="__main__", alter_sys=True)
"""


class ChildPeak(float):
    """The peak RSS in MB of the child process a timed call ran."""


def cli_verify(src: Path, d: int):
    """A call of `phasespace verify` at d, run from src in a child process,
    that returns the child's ChildPeak."""
    argv = [sys.executable, "-c", PEAK_PROBE, "verify", "--d", str(d), "--samples", str(SAMPLES), "--seed", str(SEED)]
    env = {**os.environ, "PYTHONPATH": str(src)}

    def run():
        child = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if child.returncode != 0:
            raise RuntimeError(f"phasespace verify --d {d} exited {child.returncode}: {child.stderr}")
        return ChildPeak(int(child.stderr.split()[-2]) / 1024)  # "VmHWM: N kB"
    return run


def sampler(hudson, d: int, stream: int, n: int):
    """A call of hudson._sample_rows drawing indices range(n) of SEED, seeding
    included: the unit rows and their per-row fast mask."""
    return lambda: hudson._sample_rows(d, stream, hudson._seed_words(SEED, stream, 0, n))


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
    src = Path(ps.__file__).resolve().parents[1]
    for d in CLI_DIMS:
        out["verify_cli", "by_d", str(d)] = cli_verify(src, d)
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
    out[kernels, "lag_products"] = lambda: wigner.lag_products(amps)
    moduli = np.abs(amps)
    out[kernels, "modulus_violations"] = lambda: hudson.modulus_violations(moduli)

    for d in SAMPLER_DIMS:
        out["samplers_by_d", str(d), f"haar_rows_{SAMPLES}"] = sampler(hudson, d, hudson._HAAR_STREAM, SAMPLES)
        out["samplers_by_d", str(d), f"two_point_rows_{TWO_POINT}"] = sampler(
            hudson, d, hudson._TWO_POINT_STREAM, TWO_POINT)

    for d in COVARIANCE_DIMS:
        dim = ps.PrimeDim(d)
        psi, S = ps.haar_sample(dim, SEED, 0), ps.zmod.SymplecticMatrix(dim, 2, 1, 1, 1)
        xi, grid = ps.wigner.characteristic(ps.qudit.projector(psi)), ps.wigner.wigner_pure(psi)
        rows = [ps.bochner.CyclicFunction(dim, row) for row in ps.wigner.self_correlation(psi).values]
        covariance = {
            "metaplectic": lambda S=S: ps.clifford.metaplectic(S),
            "characteristic": lambda psi=psi: ps.wigner.characteristic(ps.qudit.projector(psi)),
            "wigner_from_char": lambda xi=xi: ps.wigner.wigner_from_char(xi),
            "metaplectic_image_grid": lambda grid=grid, S=S: ps.wigner.metaplectic_image_grid(grid, S),
            f"has_nonneg_fourier_{d}_rows": lambda rows=rows: [ps.bochner.has_nonneg_fourier(f) for f in rows],
            "sl2_enumerate": lambda dim=dim: ps.zmod.sl2_enumerate(dim),
        }
        for name, call in covariance.items():
            loops = COVARIANCE_LOOPS if d == 11 and name != "sl2_enumerate" else 1
            out["covariance_by_d", str(d), name] = lambda call=call, loops=loops: [call() for _ in range(loops)]
    return out


def usage() -> tuple[int, float]:
    """Minor page faults and system CPU seconds so far, of this process and
    of its child processes that have exited."""
    own, children = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_minflt + children.ru_minflt, own.ru_stime + children.ru_stime


def measure(calls: dict[str, object]) -> dict[str, dict]:
    """One warm-up call per tree, then REPEATS rounds of one call per tree,
    the trees in turn (reversed on odd rounds): per tree the median and every
    wall time, the minor page faults and system CPU seconds of each call,
    those of its child processes included, and the peak RSS of a call that
    returns its child's ChildPeak."""
    for fn in calls.values():
        fn()
    entries = {label: {"times_s": [], "minor_faults": [], "system_s": []} for label in calls}
    for r in range(REPEATS):
        for label in (list(calls) if r % 2 == 0 else list(calls)[::-1]):
            before = usage()
            start = time.perf_counter()
            result = calls[label]()
            entries[label]["times_s"].append(time.perf_counter() - start)
            after = usage()
            entries[label]["minor_faults"].append(after[0] - before[0])
            entries[label]["system_s"].append(after[1] - before[1])
            if isinstance(result, ChildPeak):
                entries[label].setdefault("peak_rss_mb", []).append(float(result))
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
        entry["verify_cli"].update(samples=SAMPLES, two_point_samples=TWO_POINT, seed=SEED)
        entry["verify_hudson"].update(samples=SAMPLES, two_point_samples=TWO_POINT, seed=SEED)
        entry["stabilizer_pass"].update(samples=0, two_point_samples=0, seed=SEED)
        entry["covariance_by_d"].update(haar_sample=[SEED, 0], matrix=[2, 1, 1, 1], loops_at_d11=COVARIANCE_LOOPS)
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
