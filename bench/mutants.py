"""Mutation gate for verify_hudson's stabilizer pass, its float32 sample
screen, its point-mass step, its report's bookkeeping and its vector
sampler: every listed mutant must be killed.

Usage:

    python bench/mutants.py

MUTANTS lists string mutations (file, old, new, reason) in
src/phasespace/hudson.py: of the stabilizer pass, of the float32 sample
screen (_block_minima and the stream loop that reads its minima), of the
point-mass step (single_point_infeasibility and verify's use of it), of the
report's bookkeeping (the message cap, to_dict's nulls, an empty stream's
max-minimum) and of the vector sampler (_fast_pairs and _pcg64). Each old
string must occur exactly once in its file, so that a mutation lands only
where its reason says; the script
checks this for every mutant before it runs any. For each mutant it copies
src/, tests/ and pyproject.toml of this checkout into a temporary directory,
applies the mutation to the copy, and there, with PYTHONPATH set to the
copy's src/, runs

    python -m pytest -x -q -p no:cacheprovider tests/test_hudson.py::<class> ...

on the FIRST_CLASSES (the stabilizer pass's fault injections, the point-mass,
report and vector-sampler tests, then the screen's tests, then the slower
stabilizer certificate), and then, if they
pass, the same command on the rest of tests/test_hudson.py (those classes
deselected). A mutant is killed when either run fails: together the two
runs are the whole file, so the verdict is the whole file's, reached sooner
for a mutant that the first classes kill. The same runs on the unmutated
copy come first and must pass, so that a broken environment does not read
as every mutant killed. The script prints one line per mutant and exits 1
if an old string does not occur exactly once, the unmutated copy fails, or
a mutant survives that is not marked equivalent; an equivalent mutant
gives, as its reason, why no test can kill it. The checkout itself is never
edited. On a 2-core machine a killed mutant takes 1.3-5.3 s (about 14 s for
the one that only the stabilizer certificate kills), a survivor runs both,
about 23 s, and the list takes about 2 minutes (6.7 minutes when every
mutant ran the whole file first).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
HUDSON = "src/phasespace/hudson.py"
COMMAND = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
TESTS = "tests/test_hudson.py"
FIRST_CLASSES = (
    "TestStabilizerFaultInjection", "TestFailingBaseAtScale", "TestSinglePointInfeasibility", "TestVerifyHudson",
    "TestVectorSamplers", "TestFloat32Screen", "TestStabilizerCertificate",
)


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    reason: str
    equivalent: bool = False


MUTANTS = [
    Mutant(HUDSON, "(slice(None), 1),", "(slice(None), 0),",
           "stabilizer d + 1 measured against the line p = 0, the uniform state's"),
    Mutant(HUDSON, "idx % d - 1) % d, q)", "idx % d) % d, q)",
           "a quadratic row takes its base's argmin moved by x, not x - 1"),
    Mutant(HUDSON, "2 * (idx // d - 1) * q", "(idx // d - 1) * q",
           "a quadratic row takes its base's argmin sheared by theta q, not 2 theta q"),
    Mutant(HUDSON, "(p, (q + idx) % d)", "(p, (q - idx) % d)",
           "basis row k takes |0>'s argmin moved by -k along q"),
    Mutant(HUDSON, "int(grid.T.argmin())", "int(grid.argmin())",
           "the first argmin read in (q, p) order, its coordinates swapped"),
    Mutant(HUDSON, "lemma4_violations += len(members) * int(violations[b])",
           "lemma4_violations += int(violations[b])",
           "lemma 4's count not weighted by the rows its base stands for"),
    Mutant(HUDSON, "sizes.get(int(size[b]), 0) + len(members)", "sizes.get(int(size[b]), 0) + 1",
           "lemma 5's support sizes not weighted by the rows their base stands for"),
    Mutant(HUDSON, "failures.add(len(checks) * len(members),", "failures.add(len(checks),",
           "a failed lemma check counted once per base, not once per row"),
    Mutant(HUDSON, "        if checks:", "        if True:",
           "a base with no failed lemma check walks its rows for messages it never yields"),
    Mutant(HUDSON, "positive = minimum >= -STABILIZER_NONNEG_TOL",
           "positive = minimum >= -10 * STABILIZER_NONNEG_TOL",
           "the positivity ceiling loosened tenfold"),
    Mutant(HUDSON, "guard_stable = guard_stable and bool(stable[b])", "guard_stable = True",
           "the support guard forced stable"),
    Mutant(HUDSON, "rows = stabilizer_rows(d, [0, d + 1])", "rows = stabilizer_rows(d, [0, d])",
           "base d + 1 changed to d, the uniform state"),
    Mutant(HUDSON, "(d + 1, range(d, d * (d + 1))", "(d, range(d, d * (d + 1))",
           "the quadratic base's line failure names stabilizer d"),
    Mutant(HUDSON, "if not deviation <= STABILIZER_NONNEG_TOL:", "if deviation > STABILIZER_NONNEG_TOL:",
           "a NaN line deviation passes the line check"),
    Mutant(HUDSON, "stabilizer_min = float(np.min(base_minima))", "stabilizer_min = float(min(base_minima))",
           "Python's min, which drops a NaN minimum of the second base"),
    Mutant(HUDSON, "stabilizer_line_deviation=float(np.max(deviations))",
           "stabilizer_line_deviation=float(max(deviations))",
           "Python's max, which drops a NaN deviation of the second base"),
    Mutant(HUDSON, "(not (size[b] == 1 or full),", "(not (size[b] == 1 or full or size[b] == d),",
           "equivalent: full is size[b] == d, so the added test never changes the condition",
           equivalent=True),
    # the float32 sample screen: _block_minima, _screen_bound's use, verify's stream loop
    Mutant(HUDSON, "np.flatnonzero(~certified & ~(minima < min(best, -tol)))",
           "np.flatnonzero(~certified & ~(minima < best))",
           "the screen's ceiling min(best, -tol) raised to best: a failing row below best is dropped"),
    Mutant(HUDSON, ".astype(np.float64) + beta)", ".astype(np.float64))",
           "the float32 minimum taken as a bound without beta(d)"),
    Mutant(HUDSON, "np.fmax.reduce", "np.maximum.reduce",
           "a NaN minimum becomes the stream's best"),
    Mutant(HUDSON, "rows[np.argmax(minima[rows])]", "rows[np.argmin(minima[rows])]",
           "the certify step takes the row of the smallest open bound, not the largest"),
    Mutant(HUDSON, "(0, 1, 2, 4, 8)", "(0, 8)",
           "the bound runs over one q range, the whole grid, not four"),
    Mutant(HUDSON, "nonneg = ~(minima < -tol)", "nonneg = minima >= -tol",
           "a NaN sample minimum passes"),
    # the point-mass step: single_point_infeasibility and verify's use of it
    Mutant(HUDSON, "d * row[0, 0, 0] < -POINT_MASS_TOL", "d * row[0, 0, 0] < POINT_MASS_TOL",
           "the minus dropped: a pairing below +POINT_MASS_TOL, not -POINT_MASS_TOL, certifies"),
    Mutant(HUDSON, "v[0, 1], v[0, -1] = 1 / math.sqrt(2), -1 / math.sqrt(2)",
           "v[0, 1], v[0, -1] = 1 / math.sqrt(2), 1 / math.sqrt(2)",
           "the witness (|1> + |-1>)/sqrt(2), which the parity fixes, so its pairing is +1"),
    Mutant(HUDSON, "row = wigner_rows(v, 0, 1)", "row = wigner_rows(v, 1, 2)",
           "the pairing read off the witness's row q = 1, not q = 0"),
    Mutant(HUDSON, "if not point_mass:", "if False:",
           "a point mass not certified infeasible adds no failure"),
    # the report's bookkeeping: the message cap, to_dict's nulls, an empty stream
    Mutant(HUDSON, "max(0, MAX_FAILURE_MESSAGES - len(self.messages))", "max(0, MAX_FAILURE_MESSAGES)",
           "each add keeps up to the cap afresh, so the kept messages are unbounded"),
    Mutant(HUDSON, "not math.isfinite(v)", "math.isnan(v)",
           "to_dict writes only NaN as null, so an all-NaN stream's -inf breaks strict JSON"),
    Mutant(HUDSON, "best if n else 0.0", "best",
           "a stream with no samples reports a max-minimum of -inf, not 0.0"),
    # the vector sampler: Floyd's pair, its rejection flags, PCG64's output and increment
    Mutant(HUDSON, "b = np.where(b == a, d - 1, b)", "b = np.where(b == a, d - 2, b)",
           "Floyd's step replaces a repeated b by d - 2, not d - 1"),
    Mutant(HUDSON, "~(ra | rb | rs)", "~(ra | rb)",
           "a pair whose shuffle draw reached Lemire's rejection test stays on the vector path"),
    Mutant(HUDSON, "64 - rot & 63", "63 - rot & 63",
           "XSL-RR rotates its left half by one bit too few"),
    Mutant(HUDSON, "inc = (w2 << 1 | w3 >> 63, w3 << 1 | 1)", "inc = (w2 << 1, w3 << 1 | 1)",
           "the increment (w2:w3) 2 + 1 drops the carry from the low word into the high"),
]


def _check_sites() -> list[str]:
    """A problem for each mutant whose old string does not occur exactly once."""
    problems = []
    for m in MUTANTS:
        count = (ROOT / m.file).read_text().count(m.old)
        if count != 1:
            problems.append(f"{m.file}: {m.old!r} occurs {count} times, expected once")
    return problems


def _fails(m: Mutant | None) -> bool:
    """Whether tests/test_hudson.py fails on a copy of the tree, with m applied
    unless it is None: its first classes, then the rest of it."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        if m is not None:
            target = tree / m.file
            target.write_text(target.read_text().replace(m.old, m.new))
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        classes = [f"{TESTS}::{name}" for name in FIRST_CLASSES]
        return any(subprocess.run(COMMAND + targets, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL).returncode != 0
                   for targets in (classes, [TESTS] + [f"--deselect={c}" for c in classes]))


def main() -> int:
    problems = _check_sites()
    for problem in problems:
        print(problem)
    if problems:
        return 1
    if _fails(None):
        print("tests/test_hudson.py fails on the unmutated tree")
        return 1
    survivors = []
    for m in MUTANTS:
        start = time.perf_counter()
        killed = _fails(m)
        verdict = "killed" if killed else "survived (equivalent)" if m.equivalent else "SURVIVED"
        print(f"{verdict:21} {time.perf_counter() - start:5.1f} s  {m.reason}", flush=True)
        if not killed and not m.equivalent:
            survivors.append(m)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed or equivalent")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
