"""Tests of the benchmark itself: its checks can fail, its files agree.

Run with ``python3 -m pytest perfbench -q`` from the checkout root (with
``src`` importable, e.g. ``PYTHONPATH=src``).
"""

from __future__ import annotations

import copy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import pb_workloads as pw  # noqa: E402
from compare import verdict  # noqa: E402
from pb_common import (  # noqa: E402
    DENSE_REFERENCE_PATH,
    GOLDEN_PATH,
    REFERENCE_SAMPLES_PER_S,
    ReferenceClock,
    load_json,
    tail,
)

from repro.core.results import SimulationResult  # noqa: E402
from repro.runtime import ExperimentRuntime  # noqa: E402

SPEC = load_json(BENCH_DIR.parent / "BENCHMARK.json")


@pytest.fixture(scope="module")
def anchor_cell():
    """One exact dense-grid cell, simulated for real (about half a second)."""
    job = pw.dense_column()[0]
    runtime = ExperimentRuntime(
        jobs=1, cache_dir=None, backend="serial", batch=False,
        batch_width=16, fidelity="exact", anchors="3x2", max_rel_err=0.10,
    )
    return job, runtime.run_many([job])[0]


def test_perturbed_dense_reference_is_reported(anchor_cell):
    job, result = anchor_cell
    reference = load_json(DENSE_REFERENCE_PATH)["cells"]
    assert pw.check_dense([(job, result)], reference) == ([], 0.0)
    perturbed = copy.deepcopy(reference)
    perturbed[job.key[2]]["cycles"] += 1
    notes, _ = pw.check_dense([(job, result)], perturbed)
    assert len(notes) == 1 and "differ from reference" in notes[0]


def test_estimate_outside_its_bound_is_reported(anchor_cell):
    job, result = anchor_cell
    truth = result.raw
    estimate = SimulationResult(job.workload, job.config.mechanism, raw={
        "cycles": truth["cycles"] * 1.03,
        "retired_instrs": truth["retired_instrs"],
        "analytic": 1.0,
        "analytic_rel_err_bound": 0.05,
    })
    notes, err = pw.check_dense([(job, estimate)], {job.key[2]: truth})
    assert notes == [] and err == pytest.approx(0.03)
    estimate.raw["analytic_rel_err_bound"] = 0.02
    notes, _ = pw.check_dense([(job, estimate)], {job.key[2]: truth})
    assert len(notes) == 1 and "outside its bound" in notes[0]


def test_perturbed_golden_is_reported(anchor_cell):
    job, result = anchor_cell
    golden = load_json(GOLDEN_PATH)["stats"]
    baseline_job = pw.get_sweep("figure789-mechanisms").jobs(pw.SCALE)[0]
    cell = SimulationResult(baseline_job.workload, "none", raw=dict(golden[
        f"{baseline_job.workload}:{baseline_job.config.mechanism}"]))
    assert pw.check_paper([(baseline_job, cell)], golden) == []
    broken = copy.deepcopy(golden)
    broken[f"{baseline_job.workload}:{baseline_job.config.mechanism}"]["cycles"] += 1
    assert len(pw.check_paper([(baseline_job, cell)], broken)) == 1
    # A dense-grid cell is not a default config, so it never matches.
    assert len(pw.check_paper([(job, result)], golden)) == 1


def test_reference_covers_the_dense_column():
    reference = load_json(DENSE_REFERENCE_PATH)
    assert reference["workload_scale"] == pw.SCALE.workload_scale
    assert set(reference["cells"]) == {job.key[2] for job in pw.dense_column()}


def test_metric_lists_match_the_reasoning_file():
    reasons = load_json(BENCH_DIR / "metrics.json")
    assert [m["name"] for m in SPEC["per_layer"]] == list(reasons["per_layer"])
    assert [m["name"] for m in SPEC["end_to_end"]] == list(reasons["end_to_end"])
    assert [w["name"] for w in SPEC["workloads"]] == list(reasons["workloads"])
    assert set(pw.WORKLOADS) == set(reasons["workloads"])


def test_missing_cells_counts_only_table_cells():
    table = "### contour `x` — gmean\n| a | b |\n| --- | --- |\n| 1 | — |\n"
    assert pw.missing_cells(table) == 1


def test_tail_and_verdicts():
    assert tail(list(range(100))) == 89 and tail([3.0, 1.0, 2.0]) == 2.0
    steady = [1.0, 1.01, 0.99, 1.0, 1.0]
    assert verdict(steady, steady, "lower", 0.1) == "within bound"
    assert verdict(steady, [v * 1.3 for v in steady], "lower", 0.1) == "worse"
    assert verdict(steady, [0.5, 1.5, 1.0, 0.7, 1.3], "lower", 0.1) == "unresolved"


def test_reference_clock_integrates_host_speed():
    clock = ReferenceClock()
    fast, slow = 1.0 / REFERENCE_SAMPLES_PER_S, 2.0 / REFERENCE_SAMPLES_PER_S
    # One sample a second: at the reference rate for 10 s, then at half of it.
    clock.samples = [(float(i), i + (fast if i < 10 else slow)) for i in range(20)]
    # Sample time inside the interval is not counted; the rest counts at
    # the local rate, so a half-speed stretch reads half its host seconds.
    assert clock.seconds(0.5, 5.5) == pytest.approx(5.0 - 5 * fast)
    assert clock.seconds(12.0, 14.0) == pytest.approx((2.0 - 2 * slow) / 2)
    assert clock.seconds(8.0, 12.0) == pytest.approx(
        (2.0 - 2 * fast) + (2.0 - 2 * slow) / 2
    )


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
