"""Mutation gate for the stabilizer pass and the float32 sample screen of
verify_hudson: every listed mutant must be killed.

Usage:

    python bench/mutants.py

MUTANTS lists string mutations (file, old, new, reason) of the stabilizer
pass and of the float32 sample screen (_block_minima and the stream loop
that reads its minima) in src/phasespace/hudson.py. Each old string must
occur exactly once in its file, so that a mutation lands only where its
reason says; the script
checks this for every mutant before it runs any. For each mutant it copies
src/, tests/ and pyproject.toml of this checkout into a temporary directory,
applies the mutation to the copy, and there, with PYTHONPATH set to the
copy's src/, runs

    python -m pytest -x -q -p no:cacheprovider tests/test_hudson.py::<class> ...

on the FIRST_CLASSES (the stabilizer pass's fault injections, then the
screen's tests, then the slower stabilizer certificate), and then, if they
pass, the same command on the rest of tests/test_hudson.py (those classes
deselected). A mutant is killed when either run fails: together the two
runs are the whole file, so the verdict is the whole file's, reached sooner
for a mutant that the first classes kill. The same runs on the unmutated
copy come first and must pass, so that a broken environment does not read
as every mutant killed. The script prints one line per mutant and exits 1
if an old string does not occur exactly once, the unmutated copy fails, or
a mutant survives that is not marked equivalent; an equivalent mutant
gives, as its reason, why no test can kill it. The checkout itself is never
edited. On a 2-core machine a stabilizer mutant takes about 2 s, a screen
mutant 3-5 s, a survivor runs both, about 25 s, and the list takes about 2
minutes (6.7 minutes when every mutant ran the whole file first).
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
    "TestStabilizerFaultInjection", "TestFailingBaseAtScale", "TestFloat32Screen", "TestStabilizerCertificate",
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
