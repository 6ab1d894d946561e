"""Batched grid execution: many configs of one workload, one shared memo.

Dense sweep grids (8 LLC latencies x 5 BTB sizes x mechanisms, Figure 5's
`dense-latency-btb`) re-simulate the *same* workload trace once per cell.
:class:`BatchedEngine` runs N configurations (*lanes*) of one workload as
N :class:`~repro.core.engine.FrontEndEngine` runs that share one
:class:`~repro.core.engine.PredecodeMemo`: Boomerang's BTB-miss fill and
Confluence's fill-time block predecode are pure functions of
``(cfg, block, pc)``, so the first lane to predecode a block computes it
for all of them.

Everything else stays per lane: BTB content is timing-dependent (LRU,
wrong-path pollution) and the conditional predictor's update sequence is
BTB-dependent (misses skip the update), so lanes own full private
hardware blocks and run the engine's own loop. Every lane's stats dict
is therefore bit-identical to a fresh ``FrontEndEngine(workload,
config).run()`` — pinned by ``tests/test_batch.py``.

The runtime dispatches whole same-workload groups here as
:class:`~repro.runtime.runner.BatchJob` units when ``--batch`` /
``REPRO_BATCH`` is on; results fan back into the per-cell result cache
under unchanged per-cell config digests.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..config import SimConfig
from ..workloads.workload import Workload
from .engine import FrontEndEngine, PredecodeMemo
from .profiling import StageProfiler

__all__ = ["BatchedEngine"]


class BatchedEngine:
    """Simulate N configurations of one workload with a shared predecode memo.

    ``run()`` returns one stats dict per config, in config order, each
    bit-identical to ``FrontEndEngine(workload, config).run()``.
    """

    def __init__(
        self,
        workload: Workload,
        configs: Iterable[SimConfig],
        profiler: StageProfiler | None = None,
    ):
        self.workload = workload
        self.configs = tuple(configs)
        if not self.configs:
            raise ValueError("BatchedEngine needs at least one config")
        #: Optional ``--profile-stages`` collector handed to every lane.
        self.profiler = profiler
        memo = PredecodeMemo()
        self.lanes = [
            FrontEndEngine(workload, cfg, predecode=memo) for cfg in self.configs
        ]

    def run(self, max_instructions: int | None = None) -> list[dict[str, float]]:
        """Run every lane; one stats dict per config, in config order."""
        return [
            lane.run(max_instructions, profiler=self.profiler) for lane in self.lanes
        ]
