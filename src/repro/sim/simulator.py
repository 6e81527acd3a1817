"""The end-to-end simulator for one gated core domain.

``Simulator`` wires a :class:`~repro.cpu.core.Core` (trace replay + memory
timing) to a :class:`~repro.core.controller.MapgController` (gating
decisions) and an :class:`~repro.core.energy.EnergyLedger` (power
integration), then tiles every simulated cycle into exactly one power
state:

* busy segments           -> ACTIVE
* on-chip (L2-hit) stalls -> STALL  (clock gating only; below break-even)
* off-chip stalls         -> whatever the controller decided
                             (STALL, or DRAIN/SLEEP/WAKE/STALL tiling)

Gating penalties feed back into the core's clock (``Core.add_delay``) so
later DRAM accesses see true time.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.config import SystemConfig
from repro.core.breakeven import BreakEvenAnalyzer
from repro.core.controller import MapgController
from repro.core.energy import EnergyLedger
from repro.core.policies import make_policy
from repro.core.token import TokenArbiter
from repro.cpu.core import BusySegment, Core, Segment, StallSegment
from repro.cpu.window import make_core
from repro.errors import SimulationError
from repro.memory.dram import Dram
from repro.memory.hierarchy import MemoryHierarchy
from repro.obs.spans import NULL_RECORDER, NullRecorder
from repro.power.gating import GatingCircuit, SleepTransistorNetwork
from repro.power.model import CorePowerModel, PowerState
from repro.power.technology import TechnologyNode, get_technology
from repro.power.temperature import NOMINAL_TEMPERATURE_C
from repro.predict.table import make_predictor
from repro.sim.results import SimulationResult
from repro.stats import Histogram
from repro.units import NS, seconds_to_cycles_ceil


from dataclasses import dataclass, field
from typing import Dict, Tuple


@dataclass(frozen=True)
class GatingTraceEvent:
    """One off-chip stall as the gating controller handled it.

    The single per-stall instrumentation record, consumed by two sinks:
    with ``record_timeline=True`` the simulator keeps them on
    ``Simulator.timeline`` (the timeline example renders these as a text
    Gantt chart), and with a :class:`repro.obs.SpanRecorder` attached each
    event is rendered into cycle-timestamped spans on the per-core trace
    tracks (``coreN`` and ``coreN/gating``) for Perfetto export.
    """

    start_cycle: int
    stall_cycles: int
    pc: int
    dram_kind: str
    gated: bool
    aborted: bool
    mode: str
    reason: str
    predicted_cycles: int
    penalty_cycles: int
    intervals: Tuple[Tuple[str, int], ...] = field(default_factory=tuple)


def static_offchip_latency_cycles(config: SystemConfig) -> int:
    """The hard-wired "typical DRAM access" estimate, in core cycles.

    Closed-row access with no queueing: controller overhead + tRCD + tCAS +
    queue service + bus transfer, converted at the core clock.  This is the
    number the threshold policy compares against BET and the cold-start
    seed of every predictor.
    """
    dram = config.dram
    total_ns = (dram.controller_overhead_ns + dram.t_rcd_ns + dram.t_cas_ns
                + dram.queue_service_ns + dram.bus_transfer_ns)
    return seconds_to_cycles_ceil(total_ns * NS, config.core.frequency_hz)


# Characterizing the circuit runs two 80-step bisections; every input is
# frozen or a number, so each (node, temperature, clock, pipeline depth)
# is characterized once per process and its circuit shared.
_CIRCUITS: Dict[Tuple[TechnologyNode, float, float, int], GatingCircuit] = {}  # mapglint: declared-cache


def characterized_circuit(tech: TechnologyNode, temperature_c: float,
                          frequency_hz: float,
                          pipeline_depth: int) -> GatingCircuit:
    """The gating circuit of ``tech`` at one operating point, memoized."""
    key = (tech, temperature_c, frequency_hz, pipeline_depth)
    circuit = _CIRCUITS.get(key)
    if circuit is None:
        network = SleepTransistorNetwork(tech, temperature_c=temperature_c)
        circuit = network.characterize(frequency_hz, pipeline_depth)
        _CIRCUITS[key] = circuit
    return circuit


class Simulator:
    """One core domain: replay, gate, and account."""

    def __init__(self, config: SystemConfig, workload: str = "custom",
                 temperature_c: float = NOMINAL_TEMPERATURE_C,
                 shared_dram: Optional[Dram] = None,
                 token_arbiter: Optional[TokenArbiter] = None,
                 core_id: int = 0, record_timeline: bool = False,
                 recorder: Optional[NullRecorder] = None) -> None:
        self.config = config
        self.workload = workload
        self.core_id = core_id
        self._obs = recorder if recorder is not None else NULL_RECORDER
        tech = get_technology(config.technology)

        self.hierarchy = MemoryHierarchy(
            config.l1, config.l2, config.dram, config.core.frequency_hz,
            shared_dram=shared_dram,
            prefetcher_config=config.prefetcher, recorder=self._obs)
        self.core = make_core(config.core, self.hierarchy)

        # The circuit is characterized at the operating temperature, so the
        # controller's BET (and the rail-decay energetics) track how leaky
        # the silicon actually is — on cool silicon the BET grows and MAPG
        # correctly gates less (F10).
        self.circuit = characterized_circuit(
            tech, temperature_c, config.core.frequency_hz,
            config.core.pipeline_depth)
        self.power_model = CorePowerModel(self.circuit, temperature_c)
        self.analyzer = BreakEvenAnalyzer(self.circuit, config.gating)

        static_estimate = static_offchip_latency_cycles(config)
        predictor = make_predictor(config.gating, static_estimate)
        policy = make_policy(config.gating, self.analyzer, predictor, static_estimate)
        self.controller = MapgController(
            policy, self.analyzer, self.power_model,
            token_arbiter=token_arbiter, core_id=core_id,
            recorder=self._obs)

        self.ledger = EnergyLedger(self.power_model)
        self.stall_histogram = Histogram.exponential(
            low=4.0, factor=1.5, buckets=20, keep_samples=False)
        self._cycle = 0
        self._measure_start_cycle = 0
        self._measured_instructions_offset = 0.0
        self._finished = False
        self._record_timeline = record_timeline
        self.timeline: list = []  # GatingTraceEvent when recording is on
        # Per-core track names and pre-bound metric instruments, so the
        # instrumented hot path pays one `enabled` check and no registry
        # lookups (see docs/OBSERVABILITY.md for the span taxonomy).
        self._track_core = f"core{core_id}"
        self._track_gating = f"core{core_id}/gating"
        # Type-keyed segment dispatch (see handle_segment): subclasses are
        # resolved and memoized on first sight by _resolve_handler.
        self._segment_handlers: "dict[type, Callable[[Segment], int]]" = {
            BusySegment: self._handle_busy,
            StallSegment: self._handle_stall,
        }
        if self._obs.enabled:
            metrics = self._obs.metrics
            self._m_segments = metrics.counter(
                "sim.segments", help="segments processed")
            self._m_busy = metrics.counter(
                "sim.busy_cycles", help="cycles retiring instructions")
            self._m_onchip = metrics.counter(
                "sim.onchip_stall_cycles", help="on-chip (L2-hit) stall cycles")
            self._m_offchip = metrics.counter(
                "sim.offchip_stalls", help="off-chip stalls seen")
            self._m_gated = metrics.counter(
                "sim.gated_stalls", help="off-chip stalls the controller gated")
            self._m_penalty = metrics.counter(
                "sim.penalty_cycles", help="wakeup-overrun penalty cycles")

    @property
    def cycle(self) -> int:
        """Global (penalty-inclusive) simulation time."""
        return self._cycle

    # ---- segment processing ---------------------------------------------------

    def handle_segment(self, segment: Segment) -> int:
        """Charge one segment to the ledger; returns extra (penalty) cycles.

        Exposed separately so the multi-core scheduler can drive several
        simulators through one global-time merge.

        Dispatch is type-keyed (one dict probe on ``type(segment)``)
        rather than an ``isinstance`` chain — this is the innermost
        per-segment call of every simulation, and the handler table costs
        one hash lookup regardless of segment kind.
        """
        handler = self._segment_handlers.get(type(segment))
        if handler is None:
            handler = self._resolve_handler(segment)
        return handler(segment)

    def _resolve_handler(self, segment: Segment) -> "Callable[[Segment], int]":
        """Slow path: map a segment subclass to its handler, once per type."""
        if isinstance(segment, BusySegment):
            handler = self._handle_busy
        elif isinstance(segment, StallSegment):
            handler = self._handle_stall
        else:
            raise SimulationError(
                f"unknown segment type {type(segment).__name__}")
        self._segment_handlers[type(segment)] = handler
        return handler

    def _handle_busy(self, segment: BusySegment) -> int:
        """ACTIVE cycles: charge and advance; never a penalty."""
        cycles = segment.cycles
        self.ledger.add_interval(PowerState.ACTIVE, cycles)
        if self._obs.enabled:
            self._m_segments.inc()
            self._m_busy.inc(cycles)
            self._obs.span(self._track_core, "busy", self._cycle,
                           cycles, category="cpu")
        self._cycle += cycles
        return 0

    def _handle_stall(self, segment: StallSegment) -> int:
        """Tile one stall into power states via the gating controller."""
        cycles = segment.cycles
        if not segment.off_chip:
            self.ledger.add_interval(PowerState.STALL, cycles)
            if self._obs.enabled:
                self._m_segments.inc()
                self._m_onchip.inc(cycles)
                self._obs.span(self._track_core, "stall.onchip", self._cycle,
                               cycles, category="mem")
            self._cycle += cycles
            return 0

        start_cycle = self._cycle
        self.stall_histogram.observe(cycles)
        outcome = self.controller.process_stall(
            pc=segment.pc, bank=segment.bank,
            actual_stall_cycles=cycles, start_cycle=start_cycle,
            kind=segment.dram_kind or "",
            elapsed_cycles=segment.elapsed_cycles)
        if self._record_timeline or self._obs.enabled:
            event = GatingTraceEvent(
                start_cycle=start_cycle,
                stall_cycles=cycles,
                pc=segment.pc,
                dram_kind=segment.dram_kind or "",
                gated=outcome.gated,
                aborted=outcome.aborted,
                mode=outcome.decision.mode if outcome.gated else "",
                reason=outcome.decision.reason,
                predicted_cycles=outcome.decision.predicted_cycles,
                penalty_cycles=outcome.penalty_cycles,
                intervals=tuple((state.value, interval_cycles)
                                for state, interval_cycles in outcome.intervals),
            )
            if self._record_timeline:
                self.timeline.append(event)
            if self._obs.enabled:
                self._observe_stall(event)
        ledger = self.ledger
        for state, interval_cycles in outcome.intervals:
            ledger.add_interval(state, interval_cycles)
        if outcome.event_energy_j > 0.0:
            ledger.add_event(outcome.event_energy_j)
        self._cycle += outcome.total_cycles
        if outcome.penalty_cycles:
            self.core.add_delay(outcome.penalty_cycles)
        return outcome.penalty_cycles

    def _observe_stall(self, event: GatingTraceEvent) -> None:
        """Render one :class:`GatingTraceEvent` into spans and metrics."""
        self._m_segments.inc()
        self._m_offchip.inc()
        if event.gated and not event.aborted:
            self._m_gated.inc()
        if event.penalty_cycles:
            self._m_penalty.inc(event.penalty_cycles)
        total = sum(cycles for __, cycles in event.intervals)
        self._obs.span(
            self._track_core, "stall.offchip", event.start_cycle, total,
            category="gating",
            args={"pc": f"0x{event.pc:x}", "dram_kind": event.dram_kind,
                  "gated": event.gated, "aborted": event.aborted,
                  "mode": event.mode, "reason": event.reason,
                  "predicted_cycles": event.predicted_cycles,
                  "penalty_cycles": event.penalty_cycles})
        cursor = event.start_cycle
        for state, cycles in event.intervals:
            if cycles:
                self._obs.span(self._track_gating, state, cursor, cycles,
                               category="gating")
            cursor += cycles

    # ---- whole-trace run --------------------------------------------------------

    def warm_up(self, ops: Iterable) -> None:
        """Replay ``ops`` to warm caches/predictors, then reset measurements.

        Architectural state (cache contents, DRAM row buffers, predictor
        tables, the adaptive bias, the clock) carries over; every *metric*
        — the energy ledger, all counters, the stall histogram, prediction
        error statistics, and the timeline — restarts from zero.  Use this
        to exclude cold-start transients from short measured runs.
        """
        if self._finished:
            raise SimulationError("cannot warm up after the measured run")
        handle = self.handle_segment
        for segment in self.core.segments(ops):
            handle(segment)
        self.reset_measurements()

    def reset_measurements(self) -> None:
        """Zero every metric while keeping all architectural state."""
        from repro.stats import CounterSet, RunningMean

        self.ledger = EnergyLedger(self.power_model)
        self._measure_start_cycle = self._cycle
        self._measured_instructions_offset = self.core.counters.get("instructions")
        self.controller.counters = CounterSet()
        self.controller.prediction_error = RunningMean()
        self.controller.prediction_relative_error = RunningMean()
        self.stall_histogram = Histogram.exponential(
            low=4.0, factor=1.5, buckets=20, keep_samples=False)
        self.timeline = []
        # Warm-up spans would pollute the exported trace; drop them.  The
        # obs *metric* instruments are registry-lifetime and keep counting
        # (they describe the recorder's whole observation, not the
        # measured region — SimulationResult owns the measured metrics).
        if self._obs.enabled:
            self._obs.clear()
        # Memory-side counters restart too (tag/row state is untouched).
        self.hierarchy.counters = CounterSet()
        self.hierarchy.l1.counters = CounterSet()
        self.hierarchy.l2.counters = CounterSet()
        self.hierarchy.dram.counters = CounterSet()
        self.hierarchy.dram.latency_histogram = Histogram.exponential(
            low=10.0, factor=1.3, buckets=24, keep_samples=False)
        if self.hierarchy.prefetcher is not None:
            self.hierarchy.prefetcher.counters = CounterSet()

    def run(self, ops: Iterable) -> SimulationResult:
        """Replay ``ops`` to completion and return the measurements."""
        if self._finished:
            raise SimulationError("a Simulator instance runs exactly one trace")
        handle = self.handle_segment
        for segment in self.core.segments(ops):
            handle(segment)
        self._finished = True
        return self.result()

    def result(self) -> SimulationResult:
        """Snapshot the measurements accumulated since the last reset."""
        ledger = self.ledger
        controller = self.controller
        measured_cycles = self._cycle - self._measure_start_cycle
        if ledger.total_cycles != measured_cycles:
            raise SimulationError(
                f"energy ledger covers {ledger.total_cycles} cycles but "
                f"measured time is {measured_cycles} — accounting hole")
        memory_counters = dict(self.hierarchy.counters.as_dict())
        memory_counters.update(
            {f"l1_{k}": v for k, v in self.hierarchy.l1.counters.as_dict().items()})
        memory_counters.update(
            {f"l2_{k}": v for k, v in self.hierarchy.l2.counters.as_dict().items()})
        memory_counters.update(
            {f"dram_{k}": v for k, v in self.hierarchy.dram.counters.as_dict().items()})
        return SimulationResult(
            workload=self.workload,
            policy=self.config.gating.policy,
            instructions=int(self.core.counters.get("instructions")
                             - self._measured_instructions_offset),
            total_cycles=measured_cycles,
            penalty_cycles=int(controller.counters.get("penalty_cycles")),
            energy_j=ledger.total_energy_j,
            event_energy_j=ledger.event_energy_j,
            event_count=ledger.event_count,
            state_cycles=ledger.state_cycles(),
            state_energy_j=ledger.state_energy(),
            controller_counters=controller.counters.as_dict(),
            memory_counters=memory_counters,
            prediction_mae_cycles=controller.prediction_error.mean,
            prediction_mape=controller.prediction_relative_error.mean,
        )
