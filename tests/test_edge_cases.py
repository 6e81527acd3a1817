"""Cross-module edge cases and failure injection.

These tests target the seams between modules: degenerate traces, extreme
configurations, mid-run state corruption, and boundary conditions that no
single module's unit tests cover.
"""

import pytest

from repro.config import CacheConfig, CoreConfig, GatingConfig, SystemConfig
from repro.errors import SimulationError
from repro.sim.runner import run_workload, with_policy
from repro.sim.simulator import Simulator
from repro.trace.format import ComputeBlock, MemoryAccess
from repro.workloads import generate_trace


def make_simulator(policy="mapg", **config_kwargs):
    return Simulator(SystemConfig(gating=GatingConfig(policy=policy),
                                  **config_kwargs))


class TestDegenerateTraces:
    def test_empty_trace(self):
        result = make_simulator().run([])
        assert result.total_cycles == 0
        assert result.energy_j == 0.0
        assert result.ipc == 0.0

    def test_single_compute_instruction(self):
        result = make_simulator().run([ComputeBlock(1)])
        assert result.total_cycles == 1
        assert result.instructions == 1

    def test_single_memory_access(self):
        result = make_simulator().run([MemoryAccess(0x0)])
        assert result.offchip_stalls == 1
        assert result.total_cycles > 100

    def test_all_accesses_same_line(self):
        """One miss then pure L1 hits: exactly one off-chip stall."""
        ops = [MemoryAccess(0x100)] + [ComputeBlock(10), MemoryAccess(0x100)] * 20
        result = make_simulator().run(ops)
        assert result.offchip_stalls == 1

    def test_huge_addresses(self):
        ops = [MemoryAccess((1 << 47) + 64 * i) for i in range(10)]
        result = make_simulator().run(ops)
        assert result.offchip_stalls >= 1

    def test_write_only_trace(self):
        ops = [MemoryAccess(0x1000 * i, is_write=True) for i in range(20)]
        result = make_simulator().run(ops)
        assert result.total_cycles > 0


class TestExtremeConfigurations:
    def test_wide_issue_core(self):
        config = SystemConfig(core=CoreConfig(issue_width=8))
        simulator = Simulator(config)
        result = simulator.run([ComputeBlock(800)])
        assert result.total_cycles == 100

    def test_full_mlp_overlap(self):
        config = SystemConfig(core=CoreConfig(mlp_overlap=1.0))
        simulator = Simulator(config)
        result = simulator.run([MemoryAccess(0x0), MemoryAccess(0x100000)])
        # Second stall collapses to the 1-cycle floor.
        assert result.offchip_stalls == 2

    def test_closed_page_dram_end_to_end(self):
        import dataclasses
        base = SystemConfig()
        config = base.replace(dram=dataclasses.replace(base.dram,
                                                       row_policy="closed"))
        result = Simulator(config).run(generate_trace("gcc_like", 500, seed=1))
        assert result.memory_counters.get("dram_row_hit", 0) == 0

    def test_tiny_caches_still_consistent(self):
        config = SystemConfig(
            l1=CacheConfig(name="L1D", size_bytes=128, line_bytes=64,
                           associativity=1, hit_latency_cycles=1, mshr_entries=1),
            l2=CacheConfig(name="L2", size_bytes=256, line_bytes=64,
                           associativity=2, hit_latency_cycles=4, mshr_entries=1))
        simulator = Simulator(config)
        result = simulator.run(generate_trace("gcc_like", 800, seed=1))
        assert sum(result.state_cycles.values()) == result.total_cycles

    def test_one_entry_mshr_serializes(self):
        config = SystemConfig(
            l1=CacheConfig(name="L1D", size_bytes=1024, line_bytes=64,
                           associativity=2, hit_latency_cycles=2, mshr_entries=1),
            l2=CacheConfig(name="L2", size_bytes=4096, line_bytes=64,
                           associativity=4, hit_latency_cycles=10, mshr_entries=1))
        result = Simulator(config).run(generate_trace("mcf_like", 500, seed=1))
        assert result.total_cycles > 0

    @pytest.mark.parametrize("technology", ["90nm", "65nm", "45nm", "32nm"])
    def test_every_node_end_to_end(self, technology):
        config = SystemConfig(technology=technology)
        result = Simulator(config).run(generate_trace("mcf_like", 300, seed=1))
        assert result.energy_j > 0.0


class TestFailureInjection:
    def test_cache_invalidation_mid_run_stays_consistent(self):
        """Dropping lines behind the simulator's back must not corrupt
        accounting — only change hit rates."""
        simulator = make_simulator()
        trace = generate_trace("gcc_like", 400, seed=1)
        segments = simulator.core.segments(trace)
        for index, segment in enumerate(segments):
            simulator.handle_segment(segment)
            if index == 20:
                simulator.hierarchy.l1.flush()
                simulator.hierarchy.l2.flush()
        result = simulator.result()
        assert sum(result.state_cycles.values()) == result.total_cycles

    def test_negative_stall_rejected_at_controller(self):
        simulator = make_simulator()
        with pytest.raises(SimulationError):
            simulator.controller.process_stall(pc=0, bank=0,
                                               actual_stall_cycles=-5)

    def test_result_before_any_segment(self):
        simulator = make_simulator()
        result = simulator.result()
        assert result.total_cycles == 0

    def test_dram_reset_mid_run_only_affects_timing(self):
        simulator = make_simulator()
        trace = generate_trace("mcf_like", 300, seed=1)
        for index, segment in enumerate(simulator.core.segments(trace)):
            simulator.handle_segment(segment)
            if index == 10:
                simulator.hierarchy.dram.reset_state()
        result = simulator.result()
        assert sum(result.state_cycles.values()) == result.total_cycles


class TestDeterminismAcrossPolicies:
    def test_policy_does_not_perturb_memory_behaviour(self):
        """Gating penalties shift timing, but demand misses are identical
        (same trace, same caches) across policies."""
        results = {}
        for policy in ("never", "naive", "mapg"):
            config = with_policy(SystemConfig(), policy)
            results[policy] = run_workload(config, "gcc_like", 1000, seed=5)
        misses = {p: r.memory_counters.get("l2_misses", 0)
                  for p, r in results.items()}
        assert len(set(misses.values())) == 1
