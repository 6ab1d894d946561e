"""Bench guard: the engine's run loop vs the reference loop, on the dense grid.

Runs one workload's full column of the ROADMAP's ``dense-latency-btb``
sweep at quick scale — 120 cells: 8 LLC latency points × 5 BTB sizes for
FDIP and Boomerang plus the 40 matched no-prefetch baselines — once
through the production :class:`~repro.core.engine.FrontEndEngine` and
once through the reference loop in ``tests/reference_engine.py``, which
ticks every stage every cycle. Both run in-process on the same loaded
workload, with no cache on either side, and the guard pins the speedup
of the production loop together with bit-identical stats.

The production loop calls a stage only on cycles its gate opens and
fast-forwards stretches where no stage can act (fill in flight, squash
shadow, dispatch data stall, BTB-miss probe), so its gain grows with the
idle share of a cell: high-latency points and no-prefetch baselines gain
most, latency-1 cells least. About 1.3× was measured on this column at
the time of writing; see docs/architecture.md. The floor below is set
with generous CI headroom: tripping it means the run loop *regressed*,
not that a runner was slow.

Besides the assertion, a run with ``--write-bench-results`` leaves
machine-readable numbers in ``benchmarks/results/BENCH_batched_grid.json``
(cells/sec per loop, wall-clock, speedup) — the CI benchmarks job passes
it and publishes them in its step summary. Without it the committed
payload is left alone.
"""

from __future__ import annotations

import pathlib
import sys
import time

from repro.core.engine import FrontEndEngine
from repro.experiments.common import get_scale
from repro.experiments.sweeps import get_sweep
from repro.workloads.workload import load_workload

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))
from reference_engine import reference_run  # noqa: E402

#: The measured column: one paper workload's slice of the dense grid.
WORKLOAD = "apache"

#: Anything above 1.0 means the production loop pays for its gates; the
#: gap to the measurement absorbs CI-runner noise.
SPEEDUP_FLOOR = 1.05


def _dense_column(workload: str) -> list:
    """The deduplicated dense-grid jobs for one workload, in grid order."""
    spec = get_sweep("dense-latency-btb")
    scale = get_scale("quick")
    seen, jobs = set(), []
    for job in spec.jobs(scale):
        if job.workload != workload or job.key in seen:
            continue
        seen.add(job.key)
        jobs.append(job)
    return jobs


def test_engine_loop_faster_than_reference(write_bench_payload):
    jobs = _dense_column(WORKLOAD)
    assert len(jobs) == 120  # 2 mechanisms x 8 latencies x 5 BTBs + 40 baselines
    scale = get_scale("quick")
    # Build the workload (CFG + columnar trace) once, outside both timings.
    workload = load_workload(WORKLOAD, scale=scale.workload_scale)

    start = time.perf_counter()
    reference = [reference_run(workload, job.config) for job in jobs]
    t_ref = time.perf_counter() - start

    start = time.perf_counter()
    production = [FrontEndEngine(workload, job.config).run() for job in jobs]
    t_prod = time.perf_counter() - start

    identical = production == reference
    speedup = t_ref / t_prod
    payload = {
        "sweep": "dense-latency-btb",
        "scale": "quick",
        "workload": WORKLOAD,
        "cells": len(jobs),
        "reference": {
            "seconds": round(t_ref, 2),
            "cells_per_sec": round(len(jobs) / t_ref, 2),
        },
        "engine": {
            "seconds": round(t_prod, 2),
            "cells_per_sec": round(len(jobs) / t_prod, 2),
        },
        "speedup": round(speedup, 3),
        "speedup_floor": SPEEDUP_FLOOR,
        "bit_identical": identical,
    }
    path = write_bench_payload("BENCH_batched_grid.json", payload)
    print(
        f"\n{WORKLOAD} dense column ({len(jobs)} cells): reference "
        f"{t_ref:.1f}s, engine {t_prod:.1f}s (speedup {speedup:.2f}x)"
        + (f" -> {path}" if path else "")
    )

    assert identical, "the engine diverged from the reference loop — never trade correctness"
    assert speedup >= SPEEDUP_FLOOR, (
        f"the engine's run loop regressed: {t_prod:.1f}s vs reference "
        f"{t_ref:.1f}s (speedup {speedup:.2f}x < floor {SPEEDUP_FLOOR}x)"
    )
