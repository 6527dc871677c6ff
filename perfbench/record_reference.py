"""Record the reference verify artifacts for the default workload seed.

Run from the root of a checkout, at the commit whose outputs are the
reference:

    python3 perfbench/record_reference.py

It writes perfbench/reference.json: for every (d, per-call seed) that
verify-small and verify-large issue on the default seed, the artifact that
phasespace verify wrote, without duration_seconds. run.py compares every
call with a recorded artifact field by field.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEFAULT_SEED = 1


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import phasespace.cli
    from run import git_commit, source_digest
    from workloads import WORKLOADS

    artifacts = {}
    with tempfile.TemporaryDirectory(dir=BENCH_DIR) as tmp:
        for name in ("verify-small", "verify-large"):
            wl = WORKLOADS[name]
            ctx = wl.prepare(phasespace, DEFAULT_SEED, str(Path(tmp) / "artifact.json"), {})
            for d, s in wl.configs(DEFAULT_SEED):
                rc = wl.call(ctx, (d, s))
                _, text = wl.read(ctx, (d, s), rc)
                problems = wl.check(ctx, (d, s), (rc, text))
                if problems:
                    print(f"error: d={d} seed={s}: {problems}", file=sys.stderr)
                    return 1
                art = json.loads(text)
                del art["duration_seconds"]
                artifacts[f"{d}:{s}"] = art
                print(f"recorded d={d} seed={s}", file=sys.stderr)
    out = {
        "workload_seed": DEFAULT_SEED,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "artifacts": artifacts,
    }
    (BENCH_DIR / "reference.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
