"""Metamorphic and conservation relations the model guarantees by construction.

Each relation holds for every workload and mechanism, not just the values
the golden files pin, so it is checked over all 10 profiles on short
traces. Every test states why its relation must hold.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.engine import FrontEndEngine
from repro.core.mechanisms import MECHANISMS, make_config
from repro.workloads.profiles import PROFILE_SETS
from repro.workloads.workload import load_workload

#: Every profile: the six paper workloads and the four extended ones.
PROFILES = tuple(profile.name for profile in PROFILE_SETS["all"])

#: Short traces; ``MAX_INSTRUCTIONS`` cuts each run shorter still.
SCALE = 0.05
MAX_INSTRUCTIONS = 3000


def _run(profile: str, config) -> tuple[FrontEndEngine, dict[str, float]]:
    engine = FrontEndEngine(load_workload(profile, scale=SCALE), config)
    return engine, engine.run(MAX_INSTRUCTIONS)


@pytest.mark.parametrize("mechanism", MECHANISMS)
@pytest.mark.parametrize("profile", PROFILES)
def test_perfect_l1i_records_no_demand_misses(profile: str, mechanism: str) -> None:
    """A perfect L1-I answers every demand access at once.

    ``InstructionMemory.demand_access`` returns before it can count a miss
    when ``perfect`` is set, whatever the mechanism fetches or prefetches.
    """
    config = replace(make_config(mechanism), perfect_l1i=True)
    _, stats = _run(profile, config)
    assert stats["l1i_demand_misses"] == 0


@pytest.mark.parametrize("profile", PROFILES)
def test_no_prefetch_mechanism_issues_no_prefetches(profile: str) -> None:
    """The ``none`` baseline never probes for a prefetch.

    Its composition has no prefetch-issue stage and no prefetcher, and its
    BPU is the conventional one, which has no BTB-miss probe: nothing on
    its path calls ``InstructionMemory.prefetch_probe``, the only place
    ``l1i_prefetches_issued`` is counted.
    """
    _, stats = _run(profile, make_config("none"))
    assert stats["l1i_prefetches_issued"] == 0


@pytest.mark.parametrize("mechanism", MECHANISMS)
@pytest.mark.parametrize("profile", PROFILES)
def test_every_cycle_is_live_or_skipped(profile: str, mechanism: str) -> None:
    """The run loop accounts for every simulated cycle exactly once.

    The cycle counter advances only by a live step (counted in
    ``live_cycles``) or by a fast-forward jump over a window it adds to
    ``skipped_cycles``, so the two sum to ``total_cycles``.
    """
    engine, stats = _run(profile, make_config(mechanism))
    assert engine.live_cycles + engine.skipped_cycles == stats["total_cycles"]
    assert engine.live_cycles > 0
