"""Per-stage cycle/time attribution for the engine (``--profile-stages``).

The sweeps CLI turns the process-wide profiler on
(:func:`enable`), the runtime's job executors consult it
(:func:`active`), and every *stage activation* is timed with
``perf_counter`` and accumulated per stage name. The engine's run loop
only calls a stage on cycles its gate opens and skips provably idle
stretches outright, so an activation is a *live call*: tick counts show
how often each stage actually acted, not how many cycles elapsed. The
profiler also records, outside the per-stage rows, how many cycles the
engine ran live, how many it fast-forwarded and in how many jumps; the
table prints them as a ``fast-forward:`` line.

Profiling never changes simulated results (the wrappers are pure
pass-throughs), but it does add per-call overhead, so wall-clock numbers
from a profiled run are for attribution, not for benchmarking.

The profiler is deliberately in-process state: the CLI forces the serial
backend while profiling, because pool/broker workers would accumulate
into their own processes and the data would never come back.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only (avoid import cycles)
    from ..config import SimConfig
    from ..workloads.workload import Workload
    from .results import SimulationResult

__all__ = [
    "StageProfiler",
    "active",
    "disable",
    "enable",
    "run_profiled_single",
]


class StageProfiler:
    """Accumulates ``(activations, seconds)`` per stage name.

    ``rows`` holds exactly the profiled stages' names; the engine's cycle
    counts (``live_cycles``, ``skipped_cycles``, ``fast_forwards``) are
    kept beside them, never as a row.
    """

    __slots__ = ("rows", "live_cycles", "skipped_cycles", "fast_forwards")

    def __init__(self) -> None:
        #: stage name -> [activations, seconds], insertion-ordered.
        self.rows: dict[str, list[float]] = {}
        self.live_cycles = 0
        self.skipped_cycles = 0
        self.fast_forwards = 0

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A pass-through wrapper timing every call of ``fn`` under ``name``.

        Multiple callables may share a name (the BPU's predict / probe /
        wrong-path walk entry points all attribute to the BPU stage);
        their counts and times pool into one row.
        """
        row = self.rows.setdefault(name, [0, 0.0])

        def timed(*args):  # type: ignore[no-untyped-def]
            start = perf_counter()
            out = fn(*args)
            row[0] += 1
            row[1] += perf_counter() - start
            return out

        return timed

    def record_cycles(self, live: int, skipped: int, jumps: int) -> None:
        """Add one run's live and fast-forwarded cycle counts."""
        self.live_cycles += live
        self.skipped_cycles += skipped
        self.fast_forwards += jumps

    def table(self) -> str:
        """The per-stage attribution table the CLI prints."""
        if not self.rows:
            return (
                "[profile-stages: nothing executed — every result was a "
                "cache hit]"
            )
        total = sum(row[1] for row in self.rows.values())
        lines = [
            "per-stage attribution (activations = live calls of the stage):",
            f"  {'stage':<16s} {'activations':>12s} {'seconds':>9s} {'share':>6s}",
        ]
        for name, (calls, seconds) in self.rows.items():
            share = seconds / total if total else 0.0
            lines.append(
                f"  {name:<16s} {int(calls):>12d} {seconds:>9.3f} {share:>6.1%}"
            )
        lines.append(f"  {'total':<16s} {'':>12s} {total:>9.3f}")
        cycles = self.live_cycles + self.skipped_cycles
        skipped_share = self.skipped_cycles / cycles if cycles else 0.0
        lines.append(
            f"fast-forward: {self.live_cycles} live cycles, "
            f"{self.skipped_cycles} skipped in {self.fast_forwards} jumps "
            f"({skipped_share:.1%} of {cycles} cycles skipped)"
        )
        return "\n".join(lines)


_ACTIVE: StageProfiler | None = None


def enable() -> StageProfiler:
    """Install (and return) a fresh process-wide profiler."""
    global _ACTIVE
    _ACTIVE = StageProfiler()
    return _ACTIVE


def active() -> StageProfiler | None:
    """The installed profiler, or ``None`` when profiling is off."""
    return _ACTIVE


def disable() -> None:
    """Remove the process-wide profiler (timing wrappers stop accruing)."""
    global _ACTIVE
    _ACTIVE = None


def run_profiled_single(
    workload: "Workload", config: "SimConfig", profiler: StageProfiler
) -> "SimulationResult":
    """One per-cell simulation with every stage call timed.

    Bit-identical to ``Simulator(workload, config).run()`` — the wrappers
    forward arguments and state untouched; only wall time is observed.
    """
    from .engine import FrontEndEngine
    from .results import SimulationResult

    raw = FrontEndEngine(workload, config).run(profiler=profiler)
    return SimulationResult(
        workload=workload.name, mechanism=config.mechanism, raw=raw
    )
