"""Generate the exact-engine reference for the ``dense-hybrid`` workload.

Runs all 120 cells of the apache column of ``dense-latency-btb`` at quick
scale on the exact engine (serial, no stores) and writes their stats,
keyed by config digest, to ``perfbench/reference/dense_apache_quick.json``
together with the command and engine schema tag that produced them::

    python3 perfbench/make_reference.py

The benchmark only reads this file. Regenerate it only when a change is
meant to move simulated statistics; an engine change that keeps them
bit-identical leaves the reference valid even though its schema tag moves.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from pb_common import DENSE_REFERENCE_PATH, bootstrap  # noqa: E402


def main() -> int:
    bootstrap()
    from pb_workloads import DENSE_WORKLOAD, SCALE, dense_column

    from repro.runtime import SCHEMA_TAG, ExperimentRuntime

    jobs = dense_column()
    runtime = ExperimentRuntime(
        jobs=1, cache_dir=None, backend="serial", batch=False,
        batch_width=16, fidelity="exact", anchors="3x2", max_rel_err=0.10,
    )
    results = runtime.run_many(jobs)
    payload = {
        "command": "python3 perfbench/make_reference.py",
        "engine_schema": SCHEMA_TAG,
        "sweep": "dense-latency-btb",
        "workload": DENSE_WORKLOAD,
        "workload_scale": SCALE.workload_scale,
        "cells": {job.key[2]: result.raw for job, result in zip(jobs, results)},
    }
    DENSE_REFERENCE_PATH.parent.mkdir(parents=True, exist_ok=True)
    DENSE_REFERENCE_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(jobs)} cells to {DENSE_REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
