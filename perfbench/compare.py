"""Compare two sets of benchmark runs, one row per workload and metric.

Usage::

    python3 perfbench/compare.py BASE NEW

``BASE`` and ``NEW`` are directories (or lists of files, comma-separated)
of run records written by ``run.py`` under ``perfbench/out/runs/``. Only
untraced records are compared. For every end-to-end metric of
``BENCHMARK.json`` and every workload present on both sides, the row gives
each side's median and quartiles and a verdict:

* ``unresolved`` — either side's quartile spread, as a share of its
  median, is wider than the metric's bound (unless every NEW run beats
  every BASE run, which is then reported ``within bound``);
* ``worse`` — NEW's median is worse than BASE's by more than the bound;
* ``within bound`` — otherwise.

Each side's median host calibration (a fixed pure-Python loop timed at
the start and end of every run) is printed first: when the two sides
differ by more than the tightest bound, the hosts ran at different
speeds. End-to-end times are reference seconds, which cancel most of a
difference in host speed but not all of it, so the verdicts may still
compare hosts as well as code.

Exit status is 1 when any row is ``worse``, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from pb_common import CHECKOUT, median, quartiles  # noqa: E402


def load_runs(spec: str) -> dict[str, list[dict]]:
    """Untraced run records by workload."""
    paths: list[Path] = []
    for part in spec.split(","):
        path = Path(part)
        paths.extend(sorted(path.glob("*.json")) if path.is_dir() else [path])
    runs: dict[str, list[dict]] = {}
    for path in paths:
        record = json.loads(path.read_text())
        if record.get("trace") == 0:
            runs.setdefault(record["workload"], []).append(record)
    return runs


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    if sign * (nm - bm) > bound * abs(bm):
        worse = "worse"
    else:
        worse = "within bound"
    spread = max((b3 - b1) / abs(bm) if bm else 0.0, (n3 - n1) / abs(nm) if nm else 0.0)
    if spread > bound:
        all_better = all(sign * (n - b) < 0 for n in new for b in base)
        return "within bound" if all_better else "unresolved"
    return worse


def compare(base: dict[str, list[dict]], new: dict[str, list[dict]], spec: dict) -> list[str]:
    def calibration(runs: dict[str, list[dict]]) -> float:
        return median([
            rate for records in runs.values() for r in records
            for key, rate in r["provenance"].items() if key.startswith("calibration")
        ])

    base_cal, new_cal = calibration(base), calibration(new)
    tightest = min(m["bound"] for m in spec["end_to_end"])
    note = "" if abs(new_cal / base_cal - 1.0) <= tightest else "  (host speeds differ)"
    rows = [
        f"host calibration kloop/s: base {base_cal:.0f}, new {new_cal:.0f}{note}",
        f"{'workload':<14} {'metric':<12} {'base q1/med/q3':>32} "
        f"{'new q1/med/q3':>32} {'bound':>6}  verdict"
    ]

    def fmt(values: list[float]) -> str:
        return "/".join(f"{x:.4g}" for x in quartiles(values))

    for workload in sorted(set(base) & set(new)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["end_to_end"][name] for r in base[workload]]
            n = [r["end_to_end"][name] for r in new[workload]]
            rows.append(
                f"{workload:<14} {name:<12} {fmt(b):>32} {fmt(n):>32} "
                f"{metric['bound']:>6.2f}  "
                f"{verdict(b, n, metric['better'], metric['bound'])}"
            )
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    rows = compare(load_runs(argv[0]), load_runs(argv[1]), spec)
    print("\n".join(rows))
    return 1 if any(row.endswith("worse") for row in rows[2:]) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
