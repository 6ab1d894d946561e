"""Cycle-level decoupled front-end engine.

This is the simulator behind every experiment: a trace-driven, cycle-by-
cycle model of the paper's core (Table I). The engine itself is thin —
it builds the hardware blocks, asks :mod:`repro.core.mechanisms` to
compose the mechanism's pipeline-stage list (:mod:`repro.core.stages`),
then runs that list over a shared :class:`~repro.core.stages.PipelineState`
in per-cycle order:

1. **fill arrivals** — completed L1-I fills install (prefetch buffer or
   L1-I); Confluence's variant predecodes arriving blocks into its BTB;
2. **squash** — a resolved mispredicted/missed branch flushes the FTQ,
   decode pipe and wrong-path ROB tail, restores the RAS and redirects the
   BPU (cause recorded: BTB miss vs. direction vs. target — Figure 7);
3. **retire** — up to commit-width instructions leave the ROB; retiring
   blocks feed temporal-stream prefetchers (PIF/SHIFT monitor the retire
   stream, which is why they lag on redirects — paper Section III-A);
4. **decode→ROB** — delivered groups enter the back end after the decode
   latency, subject to ROB occupancy;
5. **fetch** — up to fetch-width instructions drain from the FTQ head; a
   demand L1-I miss stalls fetch and is charged to the sequential /
   conditional / unconditional class of the block's entry edge (Figure 3);
6. **BPU** — one basic-block prediction per cycle; Boomerang's variant
   resolves detected BTB misses by stalling for a predecode fill, others
   degrade into a sequential run; wrong paths are really walked over the
   static CFG so wrong-path prefetches genuinely fill (or pollute) the
   prefetch buffer;
7. **prefetch issue** — one L1-I probe per cycle, honouring the priority
   mux: demand fetch > BTB miss probe > prefetch probe (paper Fig. 6).

The run loop does not call every stage every cycle. Two levers keep it
cheap while staying bit-identical to ticking the whole list each cycle
(the naive loop, kept as a test oracle in ``tests/reference_engine.py``):

* **fused gates** — the loop inlines each tick's own early-out guard
  (squash not due, ROB empty, decode head not ready, FTQ empty, BPU
  stalled …) and only *calls* a stage that can act this cycle. A
  gated-off tick is a no-op by that stage's own code; the two counters
  idle ticks do maintain (wrong-path cycles, fetch stall-class cycles)
  are accrued inline.
* **event-skip fast-forward** (:class:`_FastForward`) — after a live
  cycle the engine proves that no stage can act at ``cycle + 1``,
  computes the earliest cycle one can (fill arrival, squash, stall
  expiry, dispatch-stall expiry, prefetch-ready) and jumps there,
  bulk-accruing the per-cycle counters the skipped ticks would have
  incremented.

Engines of one workload may share a :class:`PredecodeMemo` for the pure
predecode functions. The remaining bookkeeping is run-scoped: the
warmup/measured-region split and the end-of-trace drain. Per-stage counters flatten into
the flat stats dict via :func:`repro.core.results.aggregate_stage_counters`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..branch.btb import BasicBlockBTB, BTBPrefetchBuffer
from ..branch.predictors import make_predictor
from ..branch.ras import ReturnAddressStack
from ..config import SimConfig
from ..errors import ConfigError, SimulationError
from ..frontend.ftq import FetchTargetQueue
from ..frontend.predecode import boomerang_fill, predecode_block
from ..memory.hierarchy import InstructionMemory
from ..workloads.workload import Workload
from .mechanisms import build_prefetcher, compose_stages, traits_for
from .results import aggregate_stage_counters
from .stages import (
    CAUSE_BTB,
    CAUSE_COND,
    CAUSE_NONE,
    CAUSE_TARGET,
    BPUStage,
    DecodeDispatch,
    FetchUnit,
    FillArrival,
    FTQScanPrefetchIssue,
    MissProbeBPU,
    PipelineState,
    PredecodeFillArrival,
    RetireUnit,
    SquashUnit,
    StageContext,
    StreamPrefetchIssue,
)
from .stages.state import CONDK, SEQ, UNCONDK

if TYPE_CHECKING:  # pragma: no cover - typing only (avoid import cycles)
    from .profiling import StageProfiler

__all__ = [
    "CAUSE_BTB",
    "CAUSE_COND",
    "CAUSE_NONE",
    "CAUSE_TARGET",
    "FrontEndEngine",
    "PredecodeMemo",
]

#: Hard per-run cycle budget (multiples of trace instructions).
_CYCLE_CAP_FACTOR = 400


class PredecodeMemo:
    """Memo for the pure predecode functions of one workload.

    ``boomerang_fill`` and ``predecode_block`` depend only on the static
    CFG and the probed address — never on timing or per-config state —
    and return immutable :class:`~repro.branch.btb.BTBEntry` values that
    consumers only iterate. A repeat probe of a block is therefore a dict
    hit, and engines of the same workload may share one memo.
    """

    __slots__ = ("_fill_memo", "_block_memo")

    def __init__(self) -> None:
        self._fill_memo: dict = {}
        self._block_memo: dict = {}

    def fill(self, cfg, block, miss_pc):
        """Memoized :func:`~repro.frontend.predecode.boomerang_fill`."""
        key = (block, miss_pc)
        hit = self._fill_memo.get(key)
        if hit is None:
            hit = boomerang_fill(cfg, block, miss_pc)
            self._fill_memo[key] = hit
        return hit

    def predecode(self, cfg, block):
        """Memoized :func:`~repro.frontend.predecode.predecode_block`."""
        hit = self._block_memo.get(block)
        if hit is None:
            hit = predecode_block(cfg, block)
            self._block_memo[block] = hit
        return hit


class _FastForward:
    """Event-skip oracle for one engine's pipeline.

    ``advance(state, cycle, cycle_cap)`` is called after a completed live
    cycle. It first checks whether any stage can *act* at ``cycle + 1``
    (exactly mirroring each stage's tick guards); if one can, it returns
    ``cycle`` unchanged and the loop runs the next cycle live. Otherwise
    it computes the earliest wake cycle from the pending-event bounds,
    bulk-accrues the counters the skipped idle ticks would have
    incremented, and returns ``wake - 1`` so the loop's ``cycle += 1``
    resumes live exactly at the wake cycle. Waking *early* is always safe
    — the live loop just proves inactivity again — so every bound is
    conservative.

    Soundness notes (why skipped cycles are provably no-ops):

    * Only the BPU arms squashes/misses, only fetch pops the FTQ or
      requests fills, only decode dispatches, only retire retires — and
      each is gated by the exact conditions re-checked here; none of the
      gating state changes during a window by construction.
    * ``rob_instrs + decode_instrs`` is invariant under decode dispatch,
      so a fetch blocked on ROB occupancy stays blocked until a retire
      (live) or a squash (bounded) changes it.
    * The warmup snapshot fires during the retire tick of the cycle the
      threshold is crossed, so it can never be pending after a completed
      cycle.
    * The prefetch-scan watermark is caught up after every live cycle
      (the scan stage runs after the BPU), and stream prefetchers only
      emit from fetch/retire hooks — both live-only.
    """

    __slots__ = (
        "bpu",
        "fetch",
        "arrivals",
        "ftq_entries",
        "ftq_depth",
        "n_records",
        "rob_size",
        "has_ftq_scan",
        "pf_queue",
        "skipped_cycles",
        "fast_forwards",
    )

    def __init__(self, engine: FrontEndEngine):
        stages = engine.stages
        self.bpu = stages[5]
        self.fetch = stages[4]
        self.arrivals = engine.mem._arrivals  # fill-arrival heap (read-only)
        self.ftq_entries = engine.ftq.entries
        self.ftq_depth = engine.ftq.depth
        self.n_records = self.bpu.n_records
        self.rob_size = self.fetch.rob_size
        self.has_ftq_scan = isinstance(stages[-1], FTQScanPrefetchIssue)
        self.pf_queue = engine._stream_queue
        self.skipped_cycles = 0
        self.fast_forwards = 0

    def advance(self, state: PipelineState, cycle: int, cycle_cap: int) -> int:
        nxt = cycle + 1

        # ---- can any stage act at nxt? (mirror of each tick's guards) ----
        rob = state.rob
        if rob and not rob[0][1]:
            return cycle  # retire drains a correct-path ROB head
        dsu = state.dispatch_stall_until
        rob_size = self.rob_size
        decode_q = state.decode_q
        if (
            decode_q
            and dsu <= nxt
            and decode_q[0][0] <= nxt
            and state.rob_instrs + decode_q[0][1] <= rob_size
        ):
            return cycle  # decode dispatches its head group
        ftq_entries = self.ftq_entries
        fetchable = state.cur_entry is not None or bool(ftq_entries)
        if (
            dsu <= nxt
            and state.fetch_ready <= nxt
            and fetchable
            and state.rob_instrs + state.decode_instrs < rob_size
        ):
            return cycle  # fetch drains the FTQ head
        bsu = state.bpu_stall_until
        bmiss = state.bmiss
        if (
            bmiss is None
            and bsu <= nxt
            and len(ftq_entries) < self.ftq_depth
            and (state.wrong_path or state.bpu_idx < self.n_records)
        ):
            return cycle  # BPU predicts / walks the wrong path
        if self.has_ftq_scan:
            if state.throttle_q:
                return cycle  # throttle block pre-empts the probe port
            if bmiss is None and state.probe_pos < len(state.probe_q):
                return cycle  # prefetch engine issues a queued probe
        pf_queue = self.pf_queue
        if pf_queue is not None and pf_queue and pf_queue[0][0] <= nxt:
            return cycle  # stream prefetcher has a probe-ready block

        # ---- nothing can: earliest cycle anything becomes possible ----
        wake = state.squash_at
        arrivals = self.arrivals
        if arrivals:
            head = arrivals[0][0]
            if head < wake:
                wake = head
        fr = state.fetch_ready
        if dsu > cycle:
            # Decode and fetch both sit behind the data stall, so its end
            # is their bound. The decode head's ready cycle is not: it may
            # lie in the past, which would wake every cycle of the stall.
            if dsu < wake:
                wake = dsu
        else:
            if cycle < fr < wake:
                wake = fr
            if decode_q and state.rob_instrs + decode_q[0][1] <= rob_size:
                head = decode_q[0][0]
                if head < wake:
                    wake = head
        if bmiss is not None:
            bound = bmiss[2] if bmiss[2] > bsu else bsu
            if bound < wake:
                wake = bound
        elif cycle < bsu < wake:
            wake = bsu
        if pf_queue is not None and pf_queue:
            head = pf_queue[0][0]
            if head < wake:
                wake = head

        last = wake - 1
        if last > cycle_cap:
            # A fully-dead pipeline (or a wake beyond the budget) jumps to
            # the cap; the live loop then raises the same livelock error
            # at cap + 1 that walking every cycle would reach.
            last = cycle_cap
        if last <= cycle:
            return cycle
        window = last - cycle
        self.skipped_cycles += window
        self.fast_forwards += 1

        # ---- bulk-accrue what the skipped idle ticks would have counted ----
        bpu = self.bpu
        if state.wrong_path:
            bpu.wp_cycles += window  # counted before every other BPU guard
        if bmiss is not None:
            # The probe state machine charges one stall cycle per tick it
            # runs (cycle >= bpu_stall_until), resolving only at the wake.
            lo = bsu if bsu > nxt else nxt
            if lo <= last:
                bpu.btb_miss_stall_cycles += last - lo + 1
        if dsu <= cycle:
            if fr > cycle:
                # Fetch charges the recorded entry class every stalled
                # cycle (wrong-path stalls record no class and charge
                # nothing, matching the live tick).
                cls = state.stall_cls
                fetch = self.fetch
                if cls == SEQ:
                    fetch.stall_seq += window
                elif cls == CONDK:
                    fetch.stall_cond += window
                elif cls == UNCONDK:
                    fetch.stall_uncond += window
            elif fetchable:
                # ROB/decode full: the live tick's only effect is clearing
                # the stall class before bailing out of the drain loop.
                state.stall_cls = -1
        return last


def _check_rob_fits_blocks(workload: Workload, config: SimConfig) -> None:
    """Reject a ROB that cannot hold the workload's longest basic block.

    A decode group is a whole basic block and dispatches only once the ROB
    has room for all of it, so a longer block could never enter an empty
    ROB: the run would spin to the cycle cap instead.
    """
    rob_size = config.core.rob_size
    longest = max(workload.cfg.blocks.values(), key=lambda blk: blk.n_instrs)
    if longest.n_instrs > rob_size:
        raise ConfigError(
            f"rob_size {rob_size} is smaller than the longest basic block of "
            f"workload {workload.name!r} ({longest.n_instrs} instructions at "
            f"{longest.start:#x}); a decode group is a whole block, so the "
            f"ROB needs rob_size >= {longest.n_instrs}"
        )


class FrontEndEngine:
    """One simulated core front-end + simplified back-end.

    ``predecode`` lets engines of one workload share a
    :class:`PredecodeMemo`; alone, an engine calls the predecode
    functions directly (a private memo saves no measurable time and
    holds megabytes). After ``run()``, ``live_cycles`` and
    ``skipped_cycles`` count the cycles the loop executed and skipped
    (they sum to ``total_cycles``), and ``fast_forwards`` the jumps; none
    of them is part of the stats.
    """

    def __init__(
        self,
        workload: Workload,
        config: SimConfig,
        predecode: PredecodeMemo | None = None,
    ):
        self.workload = workload
        self.config = config
        self.traits = traits_for(config.mechanism)
        _check_rob_fits_blocks(workload, config)

        self.mem = InstructionMemory(config.memory, perfect=config.perfect_l1i)
        self.btb = BasicBlockBTB(config.btb)
        self.btb_pf_buffer = BTBPrefetchBuffer(
            config.prefetch.btb_prefetch_buffer_entries
        )
        self.predictor = make_predictor(config.predictor)
        self.ras = ReturnAddressStack(config.core.ras_entries)
        self.ftq = FetchTargetQueue(config.core.ftq_depth)
        self.prefetcher = build_prefetcher(config, self.mem.llc_round_trip)

        self.stages = compose_stages(
            StageContext(
                workload=workload,
                config=config,
                mem=self.mem,
                btb=self.btb,
                btb_buf=self.btb_pf_buffer,
                predictor=self.predictor,
                ras=self.ras,
                ftq=self.ftq,
                prefetcher=self.prefetcher,
            )
        )
        stages = self.stages
        # The run loop hard-codes the composition spine every mechanism
        # shares (mechanisms.compose_stages): fill, squash, retire, decode,
        # fetch, BPU, then at most one prefetch-issue stage.
        tail_ok = len(stages) == 6 or (
            len(stages) == 7
            and isinstance(stages[6], FTQScanPrefetchIssue | StreamPrefetchIssue)
        )
        if not (
            tail_ok
            and isinstance(stages[0], FillArrival)
            and isinstance(stages[1], SquashUnit)
            and isinstance(stages[2], RetireUnit)
            and isinstance(stages[3], DecodeDispatch)
            and isinstance(stages[4], FetchUnit)
            and isinstance(stages[5], BPUStage)
        ):
            raise SimulationError(
                f"the engine does not understand the stage composition of "
                f"{config.mechanism!r}"
            )

        #: The stream prefetcher's ``(ready, block)`` queue the prefetch
        #: stage drains, when the composition ends in one.
        self._stream_queue = (
            self.prefetcher._queue
            if self.prefetcher is not None
            and isinstance(stages[-1], StreamPrefetchIssue)
            else None
        )

        if predecode is not None:
            if isinstance(stages[0], PredecodeFillArrival):
                stages[0]._predecode = predecode.predecode
            if isinstance(stages[5], MissProbeBPU):
                stages[5]._fill = predecode.fill

        self.live_cycles = 0
        self.skipped_cycles = 0
        self.fast_forwards = 0

    # ------------------------------------------------------------------ run

    def run(
        self,
        max_instructions: int | None = None,
        profiler: StageProfiler | None = None,
    ) -> dict[str, float]:
        """Simulate the workload's trace; returns the measured-region stats.

        Stage *effects* match ticking every stage every cycle — same state
        construction, same per-cycle stage order, same cycle cap and
        livelock error, same drain break, same warmup-subtracted stats —
        but each stage's tick is called only when its own early-out guard
        (inlined here, copied from the head of that tick) says it can act,
        and provably idle stretches are skipped by :class:`_FastForward`.
        With a ``profiler``, every stage call is timed (results stay
        bit-identical) and the live/skipped cycle counts are recorded.
        """
        wl = self.workload
        n_records = len(wl.trace)
        total_instrs = wl.trace.n_instrs
        if max_instructions is not None:
            total_instrs = min(total_instrs, max_instructions)
        warmup_instrs = min(wl.warmup_instrs, total_instrs // 2)

        stages = self.stages
        mem = self.mem
        ftq = self.ftq

        fill_tick = stages[0].tick
        squash_tick = stages[1].tick
        retire_tick = stages[2].tick
        decode_tick = stages[3].tick
        fetch = stages[4]
        fetch_drain = fetch.drain
        bpu = stages[5]
        bpu_probe = bpu._advance_miss_probe
        bpu_predict = bpu._predict
        bpu_walk = bpu._walk_wrong_path
        scan: Any = None
        scan_tick: Any = None
        stream_tick: Any = None
        pf_queue = self._stream_queue
        if pf_queue is not None:
            stream_tick = stages[6].tick
        elif len(stages) == 7:
            scan = stages[6]
            scan_tick = scan.tick

        if profiler is not None:
            # Timing wrappers are pure pass-throughs: results stay
            # bit-identical; every gated-in call attributes to its stage.
            fill_tick = profiler.wrap(stages[0].name, fill_tick)
            squash_tick = profiler.wrap(stages[1].name, squash_tick)
            retire_tick = profiler.wrap(stages[2].name, retire_tick)
            decode_tick = profiler.wrap(stages[3].name, decode_tick)
            fetch_drain = profiler.wrap(fetch.name, fetch_drain)
            bpu_probe = profiler.wrap(bpu.name, bpu_probe)
            bpu_predict = profiler.wrap(bpu.name, bpu_predict)
            bpu_walk = profiler.wrap(bpu.name, bpu_walk)
            if scan_tick is not None:
                scan_tick = profiler.wrap(scan.name, scan_tick)
            if stream_tick is not None:
                stream_tick = profiler.wrap(stages[6].name, stream_tick)

        def collect(cycle: int) -> dict[str, float]:
            return aggregate_stage_counters(
                cycle, state.retired, stages, self.btb, self.btb_pf_buffer, ftq, mem
            )

        state = PipelineState(warmup_instrs=warmup_instrs, collect_counters=collect)

        cycle = 0
        cycle_cap = _CYCLE_CAP_FACTOR * max(total_instrs, 1)
        ff = _FastForward(self)
        advance = ff.advance
        live = 0

        # Loop-stable objects (never rebound by any stage; deques mutate in
        # place, the squash flush uses clear()).
        arrivals = mem._arrivals
        ftq_entries = ftq.entries
        ftq_depth = ftq.depth
        rob = state.rob
        rob_size = fetch.rob_size

        while state.retired < total_instrs:
            cycle += 1
            if cycle > cycle_cap:
                raise SimulationError(
                    f"cycle cap exceeded ({cycle} cycles, {state.retired}/"
                    f"{total_instrs} instructions) — engine livelock for "
                    f"{self.config.mechanism}"
                )
            live += 1

            # 1. fill arrivals — due iff the earliest scheduled fill is ready.
            if arrivals and arrivals[0][0] <= cycle:
                fill_tick(state, cycle)
            # 2. squash — due iff the scheduled squash cycle arrived.
            if state.squash_at <= cycle:
                squash_tick(state, cycle)
            # 3. retire — ROB work, or the pending warmup-boundary snapshot
            #    (which only ever becomes due inside a retiring tick, except
            #    for a zero-instruction warmup at the very first cycle).
            if rob:
                retire_tick(state, cycle)
            elif state.warmup_snapshot is None and state.retired >= warmup_instrs:
                retire_tick(state, cycle)
            # 4+5. decode dispatch, then fetch; both sit behind the dispatch
            #      data-stall, re-read after decode (it may arm a new one).
            dsu = state.dispatch_stall_until
            if dsu <= cycle:
                decode_q = state.decode_q
                if (
                    decode_q
                    and decode_q[0][0] <= cycle
                    and state.rob_instrs + decode_q[0][1] <= rob_size
                ):
                    decode_tick(state, cycle)
                    dsu = state.dispatch_stall_until
                if dsu <= cycle:
                    if state.fetch_ready > cycle:
                        cls = state.stall_cls
                        if cls == SEQ:
                            fetch.stall_seq += 1
                        elif cls == CONDK:
                            fetch.stall_cond += 1
                        elif cls == UNCONDK:
                            fetch.stall_uncond += 1
                    elif state.cur_entry is not None or ftq_entries:
                        if state.rob_instrs + state.decode_instrs < rob_size:
                            fetch_drain(state, cycle)
                        else:
                            state.stall_cls = -1  # tick's only effect when full
            # 6. BPU — wrong-path cycles accrue before every other guard.
            wrong = state.wrong_path
            if wrong:
                bpu.wp_cycles += 1
            bpu_idle = True
            if state.bpu_stall_until <= cycle:
                if state.bmiss is not None:
                    bpu_probe(state, cycle)
                    # A still-pending probe is skippable stall time; a
                    # resolved one frees the BPU to act next cycle.
                    bpu_idle = state.bmiss is not None
                elif len(ftq_entries) < ftq_depth:
                    if not wrong and state.bpu_idx < n_records:
                        bpu_predict(state, cycle)
                        bpu_idle = False
                    elif wrong:
                        bpu_walk(state, cycle)
                        bpu_idle = False
            # 7. prefetch issue — new FTQ pushes to scan, or the probe mux
            #    has traffic (throttle blocks / queued probes / ready stream).
            if scan is not None:
                if (
                    ftq.pushed != scan._scan_mark
                    or state.throttle_q
                    or (state.bmiss is None and state.probe_pos < len(state.probe_q))
                ):
                    scan_tick(state, cycle)
            elif pf_queue is not None and pf_queue and pf_queue[0][0] <= cycle:
                stream_tick(state, cycle)

            # End-of-trace drain: if the BPU has consumed the whole trace and
            # everything younger has drained, stop (counts remaining retire).
            if (
                state.bpu_idx >= n_records
                and not state.wrong_path
                and not ftq_entries
                and state.cur_entry is None
                and not state.decode_q
                and not rob
            ):
                break

            # Fast-forward attempt, pre-gated on the two dominant rejects:
            # a BPU that just acted can almost always act again, and a
            # retiring ROB head keeps the cycle live. Skipping an attempt
            # is always safe — advance is purely an optimization. A run
            # whose last retire happened this cycle ends here, unskipped.
            if bpu_idle and (not rob or rob[0][1]) and state.retired < total_instrs:
                cycle = advance(state, cycle, cycle_cap)

        self.live_cycles = live
        self.skipped_cycles = ff.skipped_cycles
        self.fast_forwards = ff.fast_forwards
        if profiler is not None:
            profiler.record_cycles(live, ff.skipped_cycles, ff.fast_forwards)

        final = collect(cycle)
        # The hook closes over ``state``: unhook it so the finished engine
        # is freed with its last reference, not at the next cyclic GC.
        state.collect_counters = None
        base = state.warmup_snapshot or {k: 0 for k in final}
        stats = {k: final[k] - base.get(k, 0) for k in final}
        stats["warmup_instrs"] = float(base.get("retired_instrs", 0))
        stats["warmup_cycles"] = float(base.get("cycles", 0))
        stats["total_cycles"] = float(cycle)
        stats["llc_round_trip"] = float(mem.llc_round_trip)
        return stats
