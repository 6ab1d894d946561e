"""Differential test: the production run loop against the reference loop.

:meth:`~repro.core.engine.FrontEndEngine.run` gates stage calls and
fast-forwards idle stretches; ``tests/reference_engine.py`` ticks every
stage every cycle. Both must produce bit-identical stats for any config.
Hypothesis draws the knobs that move the skip bounds — the dispatch data
stall (``data_stall_bb_frac``, ``data_stall_cycles``), decode latency,
ROB and FTQ size, LLC latency — plus mechanism, widths, latencies, BTB
size, predictor and the perfect-L1-I/BTB idealizations, over short traces
of every one of the 10 workload profiles.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_engine import reference_run
from repro.config import SimConfig
from repro.core.engine import FrontEndEngine
from repro.core.mechanisms import MECHANISMS, make_config
from repro.workloads.profiles import PROFILE_SETS
from repro.workloads.workload import load_workload

#: Every profile: the six paper workloads and the four extended ones.
PROFILES = tuple(profile.name for profile in PROFILE_SETS["all"])

#: Small traces; ``max_instructions`` then cuts each run shorter still.
SCALE = 0.05


@st.composite
def configs(draw: st.DrawFn) -> SimConfig:
    config = make_config(draw(st.sampled_from(MECHANISMS)))
    core = replace(
        config.core,
        fetch_width=draw(st.integers(1, 6)),
        commit_width=draw(st.integers(1, 6)),
        resolve_latency=draw(st.integers(1, 20)),
        predecode_latency=draw(st.integers(1, 6)),
        data_stall_bb_frac=draw(st.sampled_from((0.0, 0.1, 0.32, 0.7, 1.0))),
        data_stall_cycles=draw(st.integers(0, 60)),
        decode_latency=draw(st.integers(1, 12)),
        # A decode group is a whole basic block, so the engine refuses a
        # ROB smaller than the workload's longest block (24 instructions
        # on some profiles) with a ConfigError; the default is 128.
        rob_size=draw(st.integers(32, 192)),
        ftq_depth=draw(st.integers(1, 48)),
    )
    config = replace(
        config,
        core=core,
        prefetch=replace(config.prefetch, throttle_blocks=draw(st.integers(0, 4))),
        perfect_l1i=draw(st.booleans()),
        perfect_btb=draw(st.booleans()),
    )
    config = config.with_llc_latency(draw(st.integers(1, 90)))
    config = config.with_predictor(draw(st.sampled_from(("tage", "gshare", "oracle"))))
    return config.with_btb_entries(draw(st.sampled_from((256, 1024, 2048, 8192))))


@pytest.mark.parametrize("profile", PROFILES)
@settings(
    max_examples=10,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(config=configs(), max_instructions=st.integers(300, 5000))
def test_run_loop_matches_reference(
    profile: str, config: SimConfig, max_instructions: int
) -> None:
    workload = load_workload(profile, scale=SCALE)
    engine = FrontEndEngine(workload, config)
    got = engine.run(max_instructions)
    assert got == reference_run(workload, config, max_instructions)
    assert engine.live_cycles + engine.skipped_cycles == got["total_cycles"]


def test_dispatch_stall_is_skipped_in_one_jump() -> None:
    """A ready decode head blocked by the dispatch data stall must not wake
    the loop on every cycle of the stall: with every block stalling
    dispatch, most cycles are stall and must be fast-forwarded (about 6
    skipped per live cycle; waking on every stall cycle gave about 2)."""
    config = make_config("none")
    config = replace(
        config,
        core=replace(config.core, data_stall_bb_frac=1.0, data_stall_cycles=40),
    )
    workload = load_workload("apache", scale=SCALE)
    engine = FrontEndEngine(workload, config)
    stats = engine.run(3000)
    assert stats == reference_run(workload, config, 3000)
    assert engine.skipped_cycles > 4 * engine.live_cycles
