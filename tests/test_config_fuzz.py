"""Configuration fuzzing: random valid configs must simulate cleanly.

Hypothesis draws structurally-valid system configurations across the whole
feature matrix and runs a short trace through each; whatever the
combination, the accounting invariants must hold and nothing may raise.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    CacheConfig,
    CoreConfig,
    GatingConfig,
    PrefetcherConfig,
    SystemConfig,
)
from repro.sim.simulator import Simulator
from repro.workloads import generate_trace

_TRACE = generate_trace("gcc_like", 400, seed=31)
_HEAVY_TRACE = generate_trace("mcf_like", 400, seed=31)


@st.composite
def system_configs(draw):
    core = CoreConfig(
        issue_width=draw(st.sampled_from([1, 2, 4])),
        miss_window=draw(st.sampled_from([1, 2, 4])),
        mlp_overlap=draw(st.sampled_from([0.0, 0.3])),
        pipeline_depth=draw(st.sampled_from([8, 12, 20])),
    )
    l1_kib = draw(st.sampled_from([4, 16, 32]))
    l1 = CacheConfig(name="L1D", size_bytes=l1_kib * 1024, line_bytes=64,
                     associativity=draw(st.sampled_from([1, 2, 4])),
                     hit_latency_cycles=draw(st.sampled_from([1, 3])),
                     mshr_entries=draw(st.sampled_from([1, 4, 8])))
    l2 = CacheConfig(name="L2", size_bytes=draw(st.sampled_from([64, 256])) * 1024,
                     line_bytes=64, associativity=4,
                     hit_latency_cycles=draw(st.sampled_from([8, 16])),
                     mshr_entries=draw(st.sampled_from([2, 8])))
    gating = GatingConfig(
        policy=draw(st.sampled_from(
            ["never", "naive", "bet_guard", "mapg", "mapg_adaptive", "oracle"])),
        predictor=draw(st.sampled_from(["fixed", "ewma", "table"])),
        sleep_mode=draw(st.sampled_from(["full", "retention", "dual"])),
        early_wakeup=draw(st.booleans()),
        guard_margin_cycles=draw(st.sampled_from([0, 10, 40])),
        bet_scale=draw(st.sampled_from([0.5, 1.0, 4.0])),
        wake_scale=draw(st.sampled_from([0.5, 1.0, 2.0])),
    )
    prefetcher = PrefetcherConfig(
        enabled=draw(st.booleans()),
        degree=draw(st.sampled_from([1, 4])))
    return SystemConfig(core=core, l1=l1, l2=l2, gating=gating,
                        prefetcher=prefetcher,
                        technology=draw(st.sampled_from(
                            ["90nm", "65nm", "45nm", "32nm"])))


@given(config=system_configs(), heavy=st.booleans())
@settings(max_examples=40, deadline=None)
def test_any_valid_config_simulates_cleanly(config, heavy):
    simulator = Simulator(config, workload="fuzz")
    result = simulator.run(_HEAVY_TRACE if heavy else _TRACE)
    assert sum(result.state_cycles.values()) == result.total_cycles
    assert result.energy_j >= 0.0
    assert 0 <= result.penalty_cycles <= result.total_cycles
    assert result.instructions > 0
    # JSON round-trip of whatever config hypothesis built.
    assert SystemConfig.from_json(config.to_json()) == config
