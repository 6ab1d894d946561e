"""Functional tests for the cycle-level engine and simulator API."""

import gc
import weakref
from dataclasses import replace

import pytest

from repro import Simulator, make_config, run_mechanism
from repro.core.mechanisms import (
    FIGURE_MECHANISMS,
    MECHANISMS,
    SHALLOW_FTQ_DEPTH,
    build_prefetcher,
    make_config as mk,
    traits_for,
)
from repro.core.engine import FrontEndEngine
from repro.errors import ConfigError, UnknownMechanismError


class TestMechanismRegistry:
    def test_all_mechanisms_have_traits(self):
        for mech in MECHANISMS:
            traits = traits_for(mech)
            assert traits.name == mech

    def test_unknown_mechanism_raises(self):
        with pytest.raises(UnknownMechanismError):
            traits_for("magic")

    def test_decoupled_set(self):
        assert traits_for("fdip").decoupled
        assert traits_for("boomerang").decoupled
        assert not traits_for("none").decoupled
        assert not traits_for("confluence").decoupled

    def test_btb_prefill_assignment(self):
        assert traits_for("boomerang").btb_prefill == "boomerang"
        assert traits_for("confluence").btb_prefill == "confluence"
        assert traits_for("fdip").btb_prefill is None

    def test_confluence_gets_16k_btb(self):
        assert mk("confluence").btb.entries == 16384

    def test_coupled_mechanisms_get_shallow_ftq(self):
        assert mk("none").core.ftq_depth == SHALLOW_FTQ_DEPTH
        assert mk("boomerang").core.ftq_depth == 32

    def test_overrides_pass_through(self):
        cfg = mk("boomerang", perfect_l1i=True)
        assert cfg.perfect_l1i

    def test_build_prefetcher_kinds(self):
        assert build_prefetcher(mk("none"), 30) is None
        assert build_prefetcher(mk("fdip"), 30) is None  # FTQ-scan, not event-driven
        assert build_prefetcher(mk("next_line"), 30).name == "next_line"
        assert build_prefetcher(mk("dip"), 30).name == "dip"
        assert build_prefetcher(mk("pif"), 30).name == "pif"
        assert build_prefetcher(mk("shift"), 30).name == "shift"
        assert build_prefetcher(mk("confluence"), 30).name == "shift"

    def test_shift_redirect_delay_tracks_llc(self):
        pf = build_prefetcher(mk("shift"), 42)
        assert pf.redirect_delay == 42


class TestEngineBasics:
    def test_retires_whole_trace(self, small_workload, sim_cache):
        res = sim_cache.run(small_workload, "none")
        assert res.instructions > 0
        assert res.raw["retired_instrs"] + res.raw["warmup_instrs"] == pytest.approx(
            small_workload.trace.n_instrs
        )

    def test_deterministic(self, small_workload):
        a = Simulator(small_workload, make_config("boomerang")).run()
        b = Simulator(small_workload, make_config("boomerang")).run()
        assert a.raw == b.raw

    @pytest.mark.parametrize("mech", MECHANISMS)
    def test_every_mechanism_completes(self, mech, small_workload, sim_cache):
        res = sim_cache.run(small_workload, mech)
        assert res.cycles > 0
        assert 0 < res.ipc < 3.0

    def test_max_instructions_cap(self, small_workload):
        res = Simulator(small_workload, make_config("none")).run(max_instructions=5000)
        total = res.raw["retired_instrs"] + res.raw["warmup_instrs"]
        assert total <= 5200  # may overshoot by at most one basic block

    def test_warmup_excluded_from_measurement(self, small_workload, sim_cache):
        res = sim_cache.run(small_workload, "none")
        assert res.raw["warmup_instrs"] > 0
        assert res.raw["cycles"] < res.raw["total_cycles"]

    def test_run_mechanism_helper(self, small_workload):
        res = run_mechanism("next_line", small_workload)
        assert res.mechanism == "next_line"
        assert res.workload == small_workload.name


class TestEngineLifetime:
    @pytest.mark.parametrize("mech", ["fdip", "boomerang"])
    def test_finished_engine_is_freed_without_the_cyclic_gc(self, mech, small_workload):
        """No reference cycle holds a finished engine: its caches, BTB and
        predictor go with its last reference, not at a later cyclic GC
        (which let finished cells pile up in a grid's peak RSS)."""
        gc.disable()
        try:
            engine = FrontEndEngine(small_workload, make_config(mech))
            engine.run(2000)
            ref = weakref.ref(engine)
            del engine
            assert ref() is None
        finally:
            gc.enable()


class TestRobFitsBlocks:
    """A decode group is a whole basic block: a ROB smaller than the longest
    one could never dispatch it, so the engine refuses it up front instead
    of spinning to the cycle cap."""

    @staticmethod
    def _with_rob(rob_size):
        config = make_config("fdip")
        return replace(config, core=replace(config.core, rob_size=rob_size))

    def test_rob_smaller_than_longest_block_is_a_config_error(self, small_workload):
        longest = max(b.n_instrs for b in small_workload.cfg.blocks.values())
        with pytest.raises(ConfigError, match=rf"rob_size {longest - 1} .*\({longest} instructions"):
            FrontEndEngine(small_workload, self._with_rob(longest - 1))

    def test_rob_as_long_as_longest_block_runs(self, small_workload):
        longest = max(b.n_instrs for b in small_workload.cfg.blocks.values())
        stats = FrontEndEngine(small_workload, self._with_rob(longest)).run(2000)
        assert stats["retired_instrs"] + stats["warmup_instrs"] >= 2000


class TestPerfectModes:
    def test_perfect_l1i_has_no_stalls(self, small_workload, sim_cache):
        res = sim_cache.run(small_workload, "none", perfect_l1i=True)
        assert res.stall_cycles == 0
        assert res.raw["l1i_demand_misses"] == 0

    def test_perfect_btb_has_no_btb_squashes(self, small_workload, sim_cache):
        res = sim_cache.run(small_workload, "none", perfect_btb=True)
        assert res.squashes_btb == 0

    def test_perfect_l1i_is_faster(self, small_workload, sim_cache):
        base = sim_cache.run(small_workload, "none")
        perfect = sim_cache.run(small_workload, "none", perfect_l1i=True)
        assert perfect.ipc > base.ipc

    def test_perfect_both_is_fastest(self, small_workload, sim_cache):
        p1 = sim_cache.run(small_workload, "none", perfect_l1i=True)
        p2 = sim_cache.run(small_workload, "none", perfect_l1i=True, perfect_btb=True)
        assert p2.ipc >= p1.ipc


class TestSquashAccounting:
    def test_squash_causes_partition(self, small_workload, sim_cache):
        res = sim_cache.run(small_workload, "none")
        assert res.squashes_total == (
            res.raw["squash_btb"] + res.raw["squash_cond"] + res.raw["squash_target"]
        )

    def test_baseline_has_btb_squashes(self, small_oltp_workload, sim_cache):
        res = sim_cache.run(small_oltp_workload, "none")
        assert res.squashes_btb > 0

    def test_boomerang_eliminates_btb_squashes(self, small_oltp_workload, sim_cache):
        res = sim_cache.run(small_oltp_workload, "boomerang")
        assert res.squashes_btb == 0

    def test_boomerang_stalls_instead(self, small_oltp_workload, sim_cache):
        res = sim_cache.run(small_oltp_workload, "boomerang")
        assert res.raw["btb_miss_stall_cycles"] > 0
        assert res.raw["btb_pfb_inserts"] > 0

    def test_confluence_reduces_btb_squashes(self, small_oltp_workload, sim_cache):
        base = sim_cache.run(small_oltp_workload, "none")
        conf = sim_cache.run(small_oltp_workload, "confluence")
        assert conf.squashes_btb < base.squashes_btb * 0.5

    def test_oracle_predictor_removes_direction_squashes(self, small_workload, sim_cache):
        from repro.config import PredictorParams

        res = sim_cache.run(
            small_workload, "none", predictor=PredictorParams(kind="oracle")
        )
        assert res.raw["squash_cond"] == 0


class TestStallClassification:
    def test_stall_classes_partition_total(self, small_workload, sim_cache):
        res = sim_cache.run(small_workload, "none")
        assert res.stall_cycles == (
            res.raw["stall_seq"] + res.raw["stall_cond"] + res.raw["stall_uncond"]
        )

    def test_baseline_sequential_share_dominant(self, medium_workload, sim_cache):
        """Paper Figure 3: sequential misses dominate the baseline."""
        res = sim_cache.run(medium_workload, "none")
        kinds = res.stall_cycles_by_kind()
        seq = max(kinds.values())
        from repro.workloads.isa import EntryKind
        assert kinds[EntryKind.SEQUENTIAL] == seq

    def test_prefetching_reduces_stalls(self, small_workload, sim_cache):
        base = sim_cache.run(small_workload, "none")
        nl = sim_cache.run(small_workload, "next_line")
        assert nl.stall_cycles < base.stall_cycles


class TestBTBSizeEffects:
    def test_bigger_btb_fewer_squashes(self, medium_oltp_workload, sim_cache):
        from repro.config import BTBParams
        small = sim_cache.run(medium_oltp_workload, "none")
        big = sim_cache.run(
            medium_oltp_workload, "none", btb=BTBParams(entries=32768, assoc=4)
        )
        assert big.squashes_btb < small.squashes_btb

    def test_llc_latency_increases_stall_cost(self, small_workload):
        fast = Simulator(
            small_workload, make_config("none").with_llc_latency(5)
        ).run()
        slow = Simulator(
            small_workload, make_config("none").with_llc_latency(60)
        ).run()
        assert slow.stall_cycles > fast.stall_cycles
        assert slow.ipc < fast.ipc
