"""Tests for the end-to-end simulator and result objects."""

import dataclasses
import gc

import pytest

from repro.config import GatingConfig, PrefetcherConfig, SystemConfig
from repro.errors import SimulationError
from repro.sim.results import SimulationResult
from repro.sim.runner import run_workload
from repro.sim.simulator import Simulator, static_offchip_latency_cycles
from repro.trace.format import ComputeBlock, MemoryAccess
from repro.workloads.synthetic import generate_trace


def make_config(policy="mapg", **gating_kwargs):
    return SystemConfig(gating=GatingConfig(policy=policy, **gating_kwargs))


class TestStaticEstimate:
    def test_static_estimate_positive_and_plausible(self):
        estimate = static_offchip_latency_cycles(SystemConfig())
        assert 50 < estimate < 500

    def test_scales_with_dram_latency(self):
        config = SystemConfig()
        slow = config.replace(dram=config.dram.scaled(2.0))
        assert static_offchip_latency_cycles(slow) == pytest.approx(
            2 * static_offchip_latency_cycles(config), abs=2)


class TestCircuit:
    def test_equal_inputs_share_one_characterized_circuit(self):
        first = Simulator(make_config("mapg"), temperature_c=70.0)
        second = Simulator(make_config("never"), temperature_c=70.0)
        assert second.circuit is first.circuit

    def test_any_differing_input_characterizes_again(self):
        base = Simulator(make_config(), temperature_c=70.0).circuit
        config = make_config()
        others = [
            Simulator(config, temperature_c=71.0),
            Simulator(config.replace(technology="32nm"), temperature_c=70.0),
            Simulator(config.replace(core=dataclasses.replace(
                config.core, frequency_hz=1.5e9)), temperature_c=70.0),
            Simulator(config.replace(core=dataclasses.replace(
                config.core, pipeline_depth=9)), temperature_c=70.0),
        ]
        circuits = [sim.circuit for sim in others]
        assert all(circuit is not base for circuit in circuits)
        assert len({id(circuit) for circuit in circuits}) == len(circuits)


#: One cell per gating path, plus the prefetcher and the windowed core.
GC_CELLS = {
    "never": make_config("never"),
    "mapg": make_config("mapg"),
    "mapg_adaptive": make_config("mapg_adaptive"),
    "prefetch": make_config("mapg").replace(
        prefetcher=PrefetcherConfig(enabled=True, degree=4)),
    "windowed": make_config("mapg").replace(core=dataclasses.replace(
        SystemConfig().core, miss_window=4)),
}


class TestNoGarbageCycles:
    """A finished cell is freed by reference counting alone: the cyclic
    GC finds nothing it left behind (a simulator in a cycle keeps its
    tag arrays alive until the next collection)."""

    @pytest.mark.parametrize("engine", ("oracle", "fast"))
    @pytest.mark.parametrize("cell", sorted(GC_CELLS))
    def test_one_cell_leaves_no_cycle(self, cell, engine):
        def run():
            run_workload(GC_CELLS[cell], "mcf_like", 1500, seed=3,
                         warmup_ops=300, engine=engine)

        run()  # first use fills the process memos
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            run()
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


class TestRun:
    def test_pure_compute_trace(self):
        simulator = Simulator(make_config("never"))
        result = simulator.run([ComputeBlock(1000)])
        assert result.total_cycles == 1000
        assert result.instructions == 1000
        assert result.state_cycles == {"active": 1000}
        assert result.ipc == 1.0

    def test_ledger_covers_every_cycle(self):
        simulator = Simulator(make_config("mapg"))
        trace = generate_trace("gcc_like", 3000, seed=2)
        result = simulator.run(trace)
        assert sum(result.state_cycles.values()) == result.total_cycles

    def test_single_use(self):
        simulator = Simulator(make_config("never"))
        simulator.run([ComputeBlock(10)])
        with pytest.raises(SimulationError):
            simulator.run([ComputeBlock(10)])

    def test_never_policy_has_no_sleep_or_penalty(self):
        simulator = Simulator(make_config("never"))
        result = simulator.run(generate_trace("mcf_like", 2000, seed=1))
        assert result.penalty_cycles == 0
        assert result.sleep_fraction == 0.0
        assert result.event_count == 0

    def test_gating_policy_produces_sleep_on_memory_bound(self):
        simulator = Simulator(make_config("naive"))
        result = simulator.run(generate_trace("mcf_like", 2000, seed=1))
        assert result.sleep_fraction > 0.1
        assert result.event_count > 0
        assert result.penalty_cycles > 0

    def test_stall_histogram_collects_offchip_stalls(self):
        simulator = Simulator(make_config("never"))
        result = simulator.run(generate_trace("mcf_like", 1000, seed=1))
        assert simulator.stall_histogram.count == result.offchip_stalls

    def test_memory_counters_exported(self):
        simulator = Simulator(make_config("never"))
        result = simulator.run(generate_trace("gcc_like", 1000, seed=1))
        assert "l1_accesses" in result.memory_counters
        assert "dram_accesses" in result.memory_counters

    def test_single_offchip_access_tiling(self):
        """One miss: ACTIVE issue cycle + controller intervals, exactly."""
        simulator = Simulator(make_config("naive"))
        result = simulator.run([MemoryAccess(0x10000)])
        wake = simulator.analyzer.wake_cycles
        drain = simulator.analyzer.drain_cycles
        stall = result.total_cycles - 1 - result.penalty_cycles
        assert result.penalty_cycles == wake
        assert result.state_cycles["drain"] == drain
        assert result.state_cycles["sleep"] == stall - drain
        assert result.state_cycles["wake"] == wake
        assert result.state_cycles["active"] == 1


class TestResultObject:
    def test_performance_penalty_definition(self):
        result = SimulationResult(
            workload="w", policy="naive", instructions=100,
            total_cycles=1100, penalty_cycles=100, energy_j=1.0,
            event_energy_j=0.0, event_count=0)
        assert result.baseline_cycles == 1000
        assert result.performance_penalty == pytest.approx(0.1)

    def test_compare_same_workload(self):
        base = SimulationResult(
            workload="w", policy="never", instructions=100,
            total_cycles=1000, penalty_cycles=0, energy_j=2.0,
            event_energy_j=0.0, event_count=0)
        gated = SimulationResult(
            workload="w", policy="mapg", instructions=100,
            total_cycles=1020, penalty_cycles=20, energy_j=1.5,
            event_energy_j=0.0, event_count=5)
        delta = gated.compare(base)
        assert delta.energy_saving == pytest.approx(0.25)
        assert delta.performance_penalty == pytest.approx(0.02)
        assert delta.edp_ratio == pytest.approx((1.5 * 1020) / (2.0 * 1000))

    def test_compare_rejects_different_workloads(self):
        base = SimulationResult(
            workload="a", policy="never", instructions=1, total_cycles=1,
            penalty_cycles=0, energy_j=1.0, event_energy_j=0.0, event_count=0)
        other = SimulationResult(
            workload="b", policy="mapg", instructions=1, total_cycles=1,
            penalty_cycles=0, energy_j=1.0, event_energy_j=0.0, event_count=0)
        with pytest.raises(SimulationError):
            other.compare(base)

    def test_penalty_exceeding_total_rejected(self):
        with pytest.raises(SimulationError):
            SimulationResult(
                workload="w", policy="naive", instructions=1,
                total_cycles=10, penalty_cycles=11, energy_j=1.0,
                event_energy_j=0.0, event_count=0)

    def test_stall_fraction_counts_all_idle_states(self):
        result = SimulationResult(
            workload="w", policy="naive", instructions=1,
            total_cycles=100, penalty_cycles=0, energy_j=1.0,
            event_energy_j=0.0, event_count=0,
            state_cycles={"active": 40, "stall": 20, "sleep": 30,
                          "drain": 5, "wake": 5})
        assert result.stall_fraction == pytest.approx(0.6)
        assert result.sleep_fraction == pytest.approx(0.3)
