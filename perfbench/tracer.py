"""Span tracer for the phasespace benchmark.

The tracer wraps the public functions of each phasespace module in timing
wrappers that live in this file; nothing inside the package changes. Each
wrapper is installed at every module attribute that holds the original
object, so a caller that imported the name (``hudson.wigner_pure``,
``wigner.weyl``, ``clifford.sl2_decompose``) sees the wrapper too. Classes
are timed through their ``__init__``.

A span is (name, start, end, parent span, workload-call id). Spans are kept
in flat arrays in memory and written out once, at the end of the run.
``restore`` puts every patched attribute back and returns the ones it could
not restore (an empty list when the tracer left no trace).
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

ROOT_SPAN = "bench.call"
METAPLECTIC = "clifford.metaplectic"

# (module, attribute) pairs timed in a traced run. A pair whose attribute no
# longer exists is skipped, so its metrics read 0 calls.
FUNCTION_TARGETS = (
    ("cli", "main"),
    ("hudson", "verify_hudson"),
    ("hudson", "check_positivity"),
    ("hudson", "support"),
    ("hudson", "check_modulus_inequality"),
    ("hudson", "check_constant_modulus"),
    ("hudson", "haar_sample"),
    ("hudson", "two_point_sample"),
    ("hudson", "single_point_infeasibility"),
    ("wigner", "wigner_pure"),
    ("wigner", "self_correlation"),
    ("wigner", "characteristic"),
    ("wigner", "wigner_from_char"),
    ("wigner", "char_from_wigner"),
    ("wigner", "operator_from_char"),
    ("wigner", "metaplectic_image_grid"),
    ("qudit", "haar_random_state"),
    ("qudit", "weyl"),
    ("clifford", "enumerate_stabilizers"),
    ("clifford", "is_stabilizer"),
    ("clifford", "metaplectic"),
    ("zmod", "sl2_enumerate"),
    ("zmod", "sl2_decompose"),
    ("bochner", "has_nonneg_fourier"),
)
CLASS_TARGETS = (("wigner", "PhaseGrid"), ("qudit", "StateVector"))


def _package_modules(package: str) -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


class Tracer:
    """Records spans around the phasespace public functions while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.call = array("i")
        self._stack: list[int] = []
        self.calls = 0
        self._call_id = -1  # id of the workload call in progress, -1 between calls
        self._patches: list[tuple[object, str, object]] = []
        self._seen_symplectic: set = set()

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.call.append(self._call_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def run_call(self, fn, *args):
        """Run one workload call under a root span with the next call id."""
        self._call_id = self.calls
        self.calls += 1
        idx = self._open(self._id(ROOT_SPAN))
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self._call_id = -1

    def _wrap(self, fn, name: str):
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _wrap_metaplectic(self, fn):
        """Split metaplectic spans into the first call for each S (cold) and repeats (warm)."""
        cold, warm = self._id(METAPLECTIC + ".cold"), self._id(METAPLECTIC + ".warm")
        seen = self._seen_symplectic

        @functools.wraps(fn)
        def traced(S, *args, **kwargs):
            key = (S.dim.d, S.as_ints())
            idx = self._open(warm if key in seen else cold)
            seen.add(key)
            try:
                return fn(S, *args, **kwargs)
            finally:
                self._close(idx)

        return traced

    # -- patching ----------------------------------------------------------

    def install(self, package: str = "phasespace") -> None:
        modules = _package_modules(package)
        by_name = {m.__name__: m for m in modules}
        for modname, attr in FUNCTION_TARGETS:
            owner = by_name.get(f"{package}.{modname}")
            orig = getattr(owner, attr, None)
            if orig is None:
                continue
            name = f"{modname}.{attr}"
            wrapper = self._wrap_metaplectic(orig) if name == METAPLECTIC else self._wrap(orig, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._patches.append((module, key, orig))
                        setattr(module, key, wrapper)
        for modname, attr in CLASS_TARGETS:
            cls = getattr(by_name.get(f"{package}.{modname}"), attr, None)
            if cls is None:
                continue
            orig = cls.__dict__["__init__"]
            self._patches.append((cls, "__init__", orig))
            cls.__init__ = self._wrap(orig, f"{modname}.{attr}")

    def restore(self) -> list[str]:
        """Undo every patch; return the attributes that are not the original afterwards."""
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        stale = [f"{getattr(owner, '__name__', owner)}.{key}"
                 for owner, key, orig in self._patches if getattr(owner, key) is not orig]
        self._patches.clear()
        return stale

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "call": np.frombuffer(self.call, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the time covered by its direct children."""
    dur = spans["end"] - spans["start"]
    has_parent = spans["parent"] >= 0
    covered = np.bincount(spans["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered


def summarize(names: list[str], spans: dict[str, np.ndarray]) -> dict:
    """Per-name call counts and self seconds per workload call, plus span integrity.

    Returns {"calls": n workload calls, "per_name": {name: (calls, self_s)},
    "unattributed_ratio": root self time / root time, "problems": [...]}.
    """
    root = names.index(ROOT_SPAN)
    nid = spans["name_id"]
    dur = spans["end"] - spans["start"]
    own = self_times(spans)
    is_root = nid == root
    n_calls = int(is_root.sum())
    problems = []
    if np.any(own < -1e-9):
        problems.append(f"{int((own < -1e-9).sum())} spans have negative self time")
    if np.any(spans["call"] < 0):
        problems.append("spans recorded outside a workload call")
    # the named spans of one call must fit inside that call's wall time
    named = np.bincount(spans["call"][~is_root], weights=own[~is_root], minlength=n_calls)
    wall = np.zeros(n_calls)
    wall[spans["call"][is_root]] = dur[is_root]
    over = named[:n_calls] > wall + 1e-9
    if np.any(over):
        problems.append(f"{int(over.sum())} calls have span self times summing above their wall time")
    counts = np.bincount(nid, minlength=len(names))
    totals = np.bincount(nid, weights=own, minlength=len(names))
    per_name = {name: (counts[i] / n_calls, totals[i] / n_calls)
                for i, name in enumerate(names) if i != root}
    return {
        "calls": n_calls,
        "per_name": per_name,
        "unattributed_ratio": float(own[is_root].sum() / dur[is_root].sum()),
        "problems": problems,
    }
