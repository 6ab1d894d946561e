"""Shared plumbing for the repo benchmark: bootstrap, statistics, provenance.

Everything here is independent of which workload runs. The benchmark
lives beside the program it measures (``<checkout>/perfbench``) and
imports it from ``<checkout>/src``; :func:`bootstrap` makes that import
possible and strips every ``REPRO_*`` variable first, so the measured
configuration is exactly the explicit options each workload passes.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: The benchmark's own directory and the checkout it sits in.
BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
SRC_DIR = CHECKOUT / "src"

#: Everything a run writes goes under here (ignored by git).
OUT_DIR = BENCH_DIR / "out"

#: Committed correctness references.
GOLDEN_PATH = CHECKOUT / "tests" / "data" / "golden_quick.json"
DENSE_REFERENCE_PATH = BENCH_DIR / "reference" / "dense_apache_quick.json"


class BenchSetupError(RuntimeError):
    """The checkout cannot be benchmarked (program sources missing)."""


def bootstrap() -> None:
    """Make ``import repro`` resolve to this checkout's sources.

    Raises :class:`BenchSetupError` when the checkout holds no program
    (only the benchmark's own files), so the caller can exit non-zero
    without printing a result.
    """
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        raise BenchSetupError(f"no program sources under {SRC_DIR}")
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))


# ---------------------------------------------------------------------------
# Order statistics
# ---------------------------------------------------------------------------


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        value = values[0] if values else 0.0
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it.

    Below 21 samples that percentile is not above the median, so the
    median is reported instead.
    """
    if len(values) < 21:
        return median(values)
    return sorted(values)[len(values) - 11]


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Provenance and host calibration
# ---------------------------------------------------------------------------

#: Iterations of one calibration sample. The loop is fixed pure Python
#: (integer arithmetic, a branch, a list append) so its rate tracks the
#: interpreter speed of the host, which is what the simulator is bound by.
CALIBRATION_LOOPS = 200_000


def _calibration_loop(loops: int) -> None:
    acc: list[int] = []
    x = 1
    for i in range(loops):
        x = (x * 1103515245 + i) & 0xFFFF
        if x & 1:
            acc.append(x)


def _calibration_sample() -> float:
    start = time.perf_counter()
    _calibration_loop(CALIBRATION_LOOPS)
    elapsed = time.perf_counter() - start
    return CALIBRATION_LOOPS / elapsed / 1000.0


def calibrate(samples: int = 5) -> float:
    """Median calibration-loop rate, in thousands of loops per second."""
    return median([_calibration_sample() for _ in range(samples)])


#: The host speed reference seconds are expressed at: on a host whose
#: clock samples run at this rate, reference and host seconds agree.
REFERENCE_SAMPLES_PER_S = 1_500.0

#: One clock sample: :data:`SAMPLE_LOOPS` iterations of the calibration
#: loop, then :data:`SAMPLE_DECODES` ``json.loads`` of :data:`SAMPLE_DOC`
#: (about 0.7 ms at the reference speed). Of the mixes tried on the
#: benchmark's hosts, interpreter dispatch plus allocation-heavy decoding
#: tracked the simulator, the warm store reads and the warehouse queries
#: best taken together. A sample is taken every :data:`SAMPLE_EVERY_S`
#: host seconds.
SAMPLE_LOOPS = 3_750
SAMPLE_DECODES = 20
SAMPLE_DOC = json.dumps(
    {f"count_{i:02d}": i * 7919 for i in range(30)}
    | {f"ratio_{i:02d}": i / 7 for i in range(10)}
)
SAMPLE_EVERY_S = 0.05

#: A sample's local rate is the median over the samples started this close
#: to it, so one sample slowed by an interrupt does not set a rate.
RATE_WINDOW_S = 0.2


class ReferenceClock:
    """Host time re-expressed at a fixed host speed.

    The benchmark's hosts share their cores with other machines, and the
    speed of pure-Python code on them drifts by up to about 2x from one
    few-second stretch to the next (wall and process time alike, so the
    slowdown is the core's, not the scheduler's). While the clock is
    active, a timer signal takes a sample (see :data:`SAMPLE_LOOPS`) every
    :data:`SAMPLE_EVERY_S` seconds. An interval's reference seconds are
    its host seconds less the time those samples took inside it, at the
    host's local sample rate over :data:`REFERENCE_SAMPLES_PER_S`
    (:meth:`seconds`). A change to the program moves reference and host
    seconds alike; a change in the host's speed moves the sample rate with
    it and largely cancels.

    Intervals are converted with :meth:`seconds` after :meth:`stop`, when
    the samples on both sides of each are in.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._local: list[float] = []
        self._previous: object = None

    def start(self) -> "ReferenceClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        # Restart interrupted system calls instead of failing them.
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _sample(self, signum: int, frame: object) -> None:
        start = time.perf_counter()
        _calibration_loop(SAMPLE_LOOPS)
        for _ in range(SAMPLE_DECODES):
            json.loads(SAMPLE_DOC)
        self.samples.append((start, time.perf_counter()))

    def rates(self) -> list[float]:
        """Each sample's local rate (samples/s): the median over the samples
        started within :data:`RATE_WINDOW_S` of it."""
        if len(self._local) != len(self.samples):
            starts = [s for s, _ in self.samples]
            raw = [1.0 / (e - s) for s, e in self.samples]
            self._local = [
                median(raw[bisect.bisect_left(starts, s - RATE_WINDOW_S):
                           bisect.bisect_right(starts, s + RATE_WINDOW_S)])
                for s in starts
            ]
        return self._local

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of the host interval ``[start, end]``.

        The interval is cut at every sample; each piece not spent inside a
        sample counts at the local rate of the sample before it (the first
        sample's, for a piece before any). A long interval thus integrates
        the host's speed over time rather than taking one typical speed.
        """
        local = self.rates()
        if not local:
            raise RuntimeError("the reference clock took no samples")
        samples = self.samples
        j = bisect.bisect_right(samples, (start, math.inf)) - 1
        total, t = 0.0, start
        while t < end:
            piece_end = min(samples[j + 1][0] if j + 1 < len(samples) else math.inf, end)
            work_from = max(t, samples[j][1]) if j >= 0 else t
            if piece_end > work_from:
                total += (piece_end - work_from) * local[max(j, 0)]
            t, j = piece_end, j + 1
        return total / REFERENCE_SAMPLES_PER_S

    def median_rate(self) -> float:
        """Median local rate over the whole run (samples/s)."""
        return median(self.rates())


def source_commit() -> str:
    """The commit under test, or a digest of ``src/`` outside git."""
    if (CHECKOUT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=CHECKOUT,
                capture_output=True,
                text=True,
                timeout=10,
            )
        except (OSError, subprocess.SubprocessError):
            out = None
        if out is not None and out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted(SRC_DIR.rglob("*.py")):
        digest.update(str(path.relative_to(SRC_DIR)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(calibration_kloops_per_s: float) -> dict:
    """What every run record carries so two hosts compare as ratios."""
    return {
        "commit": source_commit(),
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count() or 1,
        "calibration_kloops_per_s": calibration_kloops_per_s,
    }


# ---------------------------------------------------------------------------
# Correctness references
# ---------------------------------------------------------------------------


def load_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def relative_cpi_error(estimate: dict, truth: dict) -> float:
    """|CPI_est - CPI_ref| / CPI_ref: the quantity the analytic bound covers."""
    cpi_true = truth["cycles"] / truth["retired_instrs"]
    cpi_est = estimate["cycles"] / estimate["retired_instrs"]
    return abs(cpi_est - cpi_true) / cpi_true


def outputs_digest(raws: dict[str, dict]) -> str:
    """Order-independent digest of every answered cell's stats."""
    blob = json.dumps(raws, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
