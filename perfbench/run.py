"""Run one benchmark workload and print its result as one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` first repeats that untraced measurement, then runs the same
number of passes again with spans recorded at every layer boundary, and
reports the per-layer metrics (including ``trace.overhead_frac``, the
traced-vs-untraced pass time). Metric names and units come from
``BENCHMARK.json`` at the checkout root.

End-to-end times are reference seconds (:class:`pb_common.ReferenceClock`):
host seconds rescaled by a fixed calibration sample taken throughout the
run, so that the drifting speed of a shared host largely cancels. The run record
keeps the host-second figures beside them.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``. A full record — provenance, host calibration, seed, every
pass, any failure notes — is written under ``perfbench/out/runs/``, and
with ``--trace 1`` the spans under ``perfbench/out/traces/``. Nothing
else is written, and scratch stores are removed before exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from pb_common import (  # noqa: E402
    CHECKOUT,
    OUT_DIR,
    REFERENCE_SAMPLES_PER_S,
    BenchSetupError,
    ReferenceClock,
    bootstrap,
    calibrate,
    load_json,
    median,
    outputs_digest,
    peak_rss_mb,
    provenance,
)

WORKLOAD_NAMES = ("paper-grid", "dense-hybrid", "result-store")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def timed_passes(workload, tracer, seconds: float, count: int | None = None):
    """Whole passes until ``seconds`` have elapsed (or exactly ``count``).

    Returns the passes and each pass's host ``perf_counter`` interval.
    """
    passes, spans = [], []
    start = time.perf_counter()
    while True:
        with tracer.span("pass", "bench"):
            began = time.perf_counter()
            passes.append(workload.run_pass(tracer, len(passes)))
            spans.append((began, time.perf_counter()))
        if count is None and time.perf_counter() - start >= seconds:
            break
        if count is not None and len(passes) >= count:
            break
    return passes, spans


def measure(args: argparse.Namespace, spec: dict, scratch: Path, label: str) -> dict:
    """Set up, run the timed passes (and the traced run), return the record."""
    from pb_trace import NullTracer, Tracer
    import pb_workloads as pw

    calibration = calibrate()
    workload = pw.WORKLOADS[args.workload](args.seed, scratch)
    off = NullTracer()
    setup_spans = []
    traced: list = []
    clock = ReferenceClock().start()
    try:
        # A traced run reports no setup_s, so one untraced setup is enough.
        for rep in range(1 if args.trace else workload.setup_reps):
            # Collect the previous repetition's garbage first, so the peak
            # resident set does not depend on when the collector last ran.
            gc.collect()
            start = time.perf_counter()
            workload.setup(off, rep)
            setup_spans.append((start, time.perf_counter()))
        gc.collect()
        passes, walls = timed_passes(workload, off, args.seconds)
        rss = peak_rss_mb()
        if args.trace:
            tracer = Tracer()
            pw.install_wrappers(tracer)
            mech: dict[str, float] = {}
            try:
                with tracer.span("workload", "bench", args.workload) as root:
                    with tracer.span("setup", "bench"):
                        workload.setup(tracer, workload.setup_reps)
                    traced, traced_walls = timed_passes(
                        workload, tracer, args.seconds, count=len(passes)
                    )
                    if workload.profiles:
                        with tracer.span("mechanisms", "bench"):
                            mech = workload.mechanism_step(tracer)
            finally:
                tracer.restore()
    finally:
        clock.stop()

    def ref(spans: list[tuple[float, float]]) -> list[float]:
        return [clock.seconds(a, b) for a, b in spans]

    e2e = {
        "setup_s": median(ref(setup_spans)),
        "cells_per_s": median([p.cells / s for p in passes for s in ref(p.answers)]),
        "query_s": median([median(ref(p.queries)) for p in passes]),
        "peak_rss_mb": rss,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(calibration),
        "setup_s": ref(setup_spans),
        "setup_host_s": [b - a for a, b in setup_spans],
        "pass_wall_s": ref(walls),
        "pass_wall_host_s": [b - a for a, b in walls],
        "end_to_end": e2e,
        "host_end_to_end": {
            "setup_s": median([b - a for a, b in setup_spans]),
            "cells_per_s": median([p.cells / s for p in passes for s in p.answer_s]),
            "query_s": median([median([b - a for a, b in p.queries]) for p in passes]),
        },
        "clock": {
            "reference_samples_per_s": REFERENCE_SAMPLES_PER_S,
            "samples": len(clock.samples),
            "median_samples_per_s": clock.median_rate(),
        },
    }
    all_passes = list(passes)
    if args.trace:
        all_passes += traced
        layer = {pw.stage_metric(stage): 0.0 for stage in pw.STAGES}
        layer.update(mech)
        layer.update(pw.layer_metrics(tracer, workload, traced))
        layer.update(pw.trace_summary(tracer, root))
        layer["trace.overhead_frac"] = median(ref(traced_walls)) / median(ref(walls)) - 1.0
        layer["host.calib_kloops_per_s"] = calibration
        record["per_layer"] = layer
        record["traced_pass_wall_s"] = ref(traced_walls)
        trace_path = OUT_DIR / "traces" / f"{label}.json"
        tracer.dump(trace_path)
        record["trace_file"] = str(trace_path.relative_to(CHECKOUT))
        metrics, declared = layer, spec["per_layer"]
    else:
        metrics, declared = e2e, spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metric set differs from BENCHMARK.json: extra "
            f"{sorted(set(metrics) - set(units))}, missing "
            f"{sorted(set(units) - set(metrics))}"
        )
    # Host speed again at the end: a run whose two calibrations disagree
    # ran while the host's load changed, and compare.py says so.
    record["provenance"]["calibration_end_kloops_per_s"] = calibrate()
    record["attempted"] = sum(p.attempted for p in all_passes)
    record["failed"] = sum(p.failed for p in all_passes)
    record["notes"] = [note for p in all_passes for note in p.notes][:50]
    # One digest per distinct set of answers across passes (and, compared
    # across records, across seeds): exact outputs must collapse to one.
    for tier in ("outputs", "estimates"):
        record[f"{tier}_digests"] = sorted(
            {outputs_digest(getattr(p, tier)) for p in all_passes}
        )
    record["passes"] = [
        {k: v for k, v in vars(p).items() if k not in ("outputs", "estimates", "notes")}
        | {"answer_ref_s": ref(p.answers), "query_ref_s": ref(p.queries)}
        for p in all_passes
    ]
    record["result"] = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in sorted(metrics)
        },
    }
    return record


def run_label(args: argparse.Namespace) -> str:
    stamp = time.strftime("%Y%m%dT%H%M%S")
    return f"{args.workload}__seed{args.seed}__trace{args.trace}__{stamp}-{os.getpid()}"


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    try:
        bootstrap()
        spec = load_json(CHECKOUT / "BENCHMARK.json")
    except (BenchSetupError, OSError) as exc:
        print(f"perfbench: cannot run here: {exc}", file=sys.stderr)
        return 2
    label = run_label(args)
    scratch = OUT_DIR / "tmp" / label
    try:
        record = measure(args, spec, scratch, label)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    path = OUT_DIR / "runs" / f"{label}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    for note in record["notes"]:
        print(f"perfbench: FAILED {note}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
