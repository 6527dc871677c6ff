"""Self-tests of the benchmark: its correctness gate and its tracer.

Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
from tracer import Tracer, summarize
from workloads import WORKLOADS, VerifyWorkload

sys.path.insert(0, str(run.ROOT / "src"))


@pytest.fixture(scope="module")
def reference() -> dict:
    return json.loads((run.BENCH_DIR / "reference.json").read_text())["artifacts"]


def verify_context(tmp_path, reference, workload=WORKLOADS["verify-small"]):
    seed = json.loads((run.BENCH_DIR / "reference.json").read_text())["workload_seed"]
    return workload.prepare(run.fresh_import(), seed, str(tmp_path / "artifact.json"), reference)


class CorruptingVerify(VerifyWorkload):
    """verify-small whose artifact is edited after the call returns."""

    def __init__(self, edit) -> None:
        super().__init__("verify-small", (3, 5, 7), stream=0)
        self.edit = edit

    def read(self, ctx, cfg, rc):
        rc, text = super().read(ctx, cfg, rc)
        art = json.loads(text)
        self.edit(art)
        return rc, json.dumps(art, sort_keys=True)


@pytest.mark.parametrize(
    "edit",
    [
        lambda a: a.update(stabilizer_min_wigner=-0.01),
        lambda a: a.update(random_max_min_wigner=a["random_max_min_wigner"] + 1e-6),
        lambda a: a.update(overall_passed=False),
        lambda a: a.update(lemma5_support_sizes={"1": 3, "3": 8}),
        lambda a: a.update(stabilizer_count=13),
        lambda a: a.pop("two_point_max_min_wigner"),
    ],
    ids=["negative-stabilizer", "shifted-minimum", "not-passed", "support-sizes", "count", "missing"],
)
def test_corrupted_artifact_counts_as_failed(tmp_path, reference, edit):
    wl = CorruptingVerify(edit)
    ctx = verify_context(tmp_path, reference, wl)
    outcome = run.Run()
    run.call_and_check(wl, ctx, wl.config(ctx, 0), "call 0", outcome)
    assert (outcome.attempted, outcome.failed) == (1, 1)


def test_ulp_drift_passes_and_clean_calls_match_reference(tmp_path, reference):
    wl = CorruptingVerify(lambda a: a.update(stabilizer_min_wigner=a["stabilizer_min_wigner"] * (1 + 1e-12)))
    ctx = verify_context(tmp_path, reference, wl)
    outcome = run.Run()
    for i in range(3):
        cfg = wl.config(ctx, i)
        assert f"{cfg[0]}:{cfg[1]}" in reference
        run.call_and_check(wl, ctx, cfg, f"call {i}", outcome)
    assert (outcome.attempted, outcome.failed) == (3, 0), outcome.problems


def test_sweep_check_catches_a_wrong_grid():
    wl = WORKLOADS["covariance-sweep"]
    ctx = wl.prepare(run.fresh_import(), 1, "", {})
    raw = wl.call(ctx, 0)
    assert wl.check(ctx, 0, raw) == []
    S, images, char_route = raw
    img, amp, w, predicted, rows, nonneg = images[0]
    values = np.array(w.values)
    values[0, 0] += 1e-6
    wrong = type(w)(w.dim, values, w.kind)
    problems = wl.check(ctx, 0, (S, [(img, amp, wrong, predicted, rows, nonneg), images[1]], char_route))
    assert problems


def _attributes(ps) -> dict:
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if name == "phasespace" or name.startswith("phasespace."):
            snapshot.update({(name, k): v for k, v in vars(module).items()})
    for cls in (ps.wigner.PhaseGrid, ps.qudit.StateVector):
        snapshot[(cls.__name__, "__init__")] = cls.__dict__["__init__"]
    return snapshot


@pytest.mark.parametrize("name", ["verify-small", "covariance-sweep"])
def test_traced_call_restores_attributes_and_reproduces_output(tmp_path, reference, name):
    wl = WORKLOADS[name]
    ps = run.fresh_import()
    ctx = wl.prepare(ps, 1, str(tmp_path / "artifact.json"), reference)
    plain = [run.call_and_check(wl, ctx, wl.config(ctx, i), "plain", run.Run())[0] for i in range(2)]
    before = _attributes(ps)

    tracer = Tracer()
    tracer.install()
    assert ps.wigner.wigner_pure is not before[("phasespace.wigner", "wigner_pure")]
    outcome = run.Run()
    try:
        replay = [run.call_and_check(wl, ctx, wl.config(ctx, i), "traced", outcome, tracer)[0]
                  for i in range(2)]
    finally:
        stale = tracer.restore()

    assert stale == []
    after = _attributes(ps)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert replay == plain and outcome.failed == 0
    summary = summarize(tracer.names, tracer.arrays())
    assert summary["calls"] == 2 and summary["problems"] == []
    expected = "cli.main.calls" if name.startswith("verify") else "clifford.metaplectic.calls"
    assert run.layer_metric(summary["per_name"], expected) == 1.0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-small", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_summarize_flags_spans_that_overlap():
    names = ["bench.call", "wigner.wigner_pure"]
    spans = {
        "name_id": np.array([0, 1, 1], dtype=np.int32),
        "start": np.array([0.0, 0.0, 0.2]),
        "end": np.array([1.0, 0.8, 1.0]),
        "parent": np.array([-1, 0, 0], dtype=np.int32),
        "call": np.array([0, 0, 0], dtype=np.int32),
    }
    problems = summarize(names, spans)["problems"]
    assert any("negative self time" in p for p in problems)
    assert any("above their wall time" in p for p in problems)


def test_metric_names_and_units_match_benchmark_json():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {(m["name"], m["unit"]) for m in bench["end_to_end"]} == set(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, run.layer_unit(name)) for name in run.PER_LAYER
    ]
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
