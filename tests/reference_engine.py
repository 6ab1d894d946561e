"""Reference run loop: every stage ticks every cycle (test oracle only).

This is the engine's original per-cycle loop, kept line for line so the
production :meth:`repro.core.engine.FrontEndEngine.run` — which gates
stage calls and fast-forwards idle stretches — can be checked against
it bit for bit. It borrows the production engine's construction (the
hardware blocks and the composed stage list, with the plain predecode
functions) and nothing of its loop.
"""

from __future__ import annotations

from repro.config import SimConfig
from repro.core.engine import _CYCLE_CAP_FACTOR, FrontEndEngine
from repro.core.results import aggregate_stage_counters
from repro.core.stages import PipelineState
from repro.errors import SimulationError
from repro.workloads.workload import Workload


def reference_run(
    workload: Workload, config: SimConfig, max_instructions: int | None = None
) -> dict[str, float]:
    """Simulate by ticking every stage every cycle; returns the stats."""
    engine = FrontEndEngine(workload, config)
    wl = workload
    n_records = len(wl.trace)
    total_instrs = wl.trace.n_instrs
    if max_instructions is not None:
        total_instrs = min(total_instrs, max_instructions)
    warmup_instrs = min(wl.warmup_instrs, total_instrs // 2)

    stages = engine.stages
    mem = engine.mem
    ftq = engine.ftq

    def collect(cycle: int) -> dict[str, float]:
        return aggregate_stage_counters(
            cycle, state.retired, stages, engine.btb, engine.btb_pf_buffer, ftq, mem
        )

    state = PipelineState(warmup_instrs=warmup_instrs, collect_counters=collect)

    cycle = 0
    cycle_cap = _CYCLE_CAP_FACTOR * max(total_instrs, 1)
    ticks = tuple(stage.tick for stage in stages)

    while state.retired < total_instrs:
        cycle += 1
        if cycle > cycle_cap:
            raise SimulationError(
                f"cycle cap exceeded ({cycle} cycles, {state.retired}/"
                f"{total_instrs} instructions) — engine livelock for "
                f"{config.mechanism}"
            )

        for tick in ticks:
            tick(state, cycle)

        # End-of-trace drain: if the BPU has consumed the whole trace and
        # everything younger has drained, stop (counts remaining retire).
        if (
            state.bpu_idx >= n_records
            and not state.wrong_path
            and ftq.empty
            and state.cur_entry is None
            and not state.decode_q
            and not state.rob
        ):
            break

    final = collect(cycle)
    base = state.warmup_snapshot or {k: 0 for k in final}
    stats = {k: final[k] - base.get(k, 0) for k in final}
    stats["warmup_instrs"] = float(base.get("retired_instrs", 0))
    stats["warmup_cycles"] = float(base.get("cycles", 0))
    stats["total_cycles"] = float(cycle)
    stats["llc_round_trip"] = float(mem.llc_round_trip)
    return stats
