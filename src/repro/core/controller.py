"""The MAPG controller: policy + wakeup mechanics + energy accounting glue.

One controller instance manages one gated core domain.  For every off-chip
stall the simulator reports, the controller:

1. consults its :class:`~repro.core.policies.GatingPolicy`;
2. if gating, resolves the wakeup plan against the actual stall length
   (including the data-return fallback trigger and, in multi-core TAP mode,
   the token-arbiter delay);
3. returns a :class:`StallOutcome` whose interval list tiles the stall
   exactly — the simulator charges those intervals to the energy ledger;
4. feeds the measured latency back to the policy's predictor.

The controller never touches global simulation state; it is a pure
per-stall transducer, which is what makes it unit-testable against
hand-computed timelines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.breakeven import BreakEvenAnalyzer
from repro.core.policies import GatingDecision, GatingPolicy
from repro.core.token import TokenArbiter
from repro.core.wakeup import WakeupPlan, wakeup_timeline
from repro.errors import SimulationError
from repro.obs.spans import NULL_RECORDER, NullRecorder
from repro.power.model import CorePowerModel, PowerState
from repro.stats import CounterSet, RunningMean


@dataclass(frozen=True)
class StallOutcome:
    """Everything that happened during one off-chip stall.

    ``intervals`` tiles ``stall + penalty`` cycles exactly, in timeline
    order.  ``event_energy_j`` is the one-off gating cost (0 when ungated
    or aborted before the header switched).
    """

    gated: bool
    aborted: bool
    penalty_cycles: int
    event_energy_j: float
    decision: GatingDecision
    plan: Optional[WakeupPlan] = None
    intervals: Tuple[Tuple[PowerState, int], ...] = field(default_factory=tuple)

    @property
    def total_cycles(self) -> int:
        return sum(cycles for __, cycles in self.intervals)

    @property
    def sleep_cycles(self) -> int:
        return self.plan.sleep if self.plan is not None else 0


class MapgController:
    """Per-domain gating controller."""

    def __init__(self, policy: GatingPolicy, analyzer: BreakEvenAnalyzer,
                 power_model: CorePowerModel,
                 token_arbiter: Optional[TokenArbiter] = None,
                 core_id: int = 0,
                 recorder: Optional[NullRecorder] = None) -> None:
        self.policy = policy
        self.analyzer = analyzer
        self.power_model = power_model
        self.token_arbiter = token_arbiter
        self.core_id = core_id
        self.counters = CounterSet()
        self.prediction_error = RunningMean()
        self.prediction_relative_error = RunningMean()
        # Observability: decision instants land on a per-core controller
        # track (cycle-timestamped; see docs/OBSERVABILITY.md).
        self._obs = recorder if recorder is not None else NULL_RECORDER
        self._track = f"core{core_id}/controller"
        if self._obs.enabled:
            self._m_decisions = self._obs.metrics.counter(
                "controller.decisions", help="gating decisions taken")
            self._m_aborts = self._obs.metrics.counter(
                "controller.aborts", help="gates aborted during drain")

    def process_stall(self, pc: int, bank: int, actual_stall_cycles: int,
                      start_cycle: int = 0, kind: str = "",
                      elapsed_cycles: int = 0) -> StallOutcome:
        """Handle one off-chip stall beginning at ``start_cycle``.

        ``kind`` is the DRAM row-buffer outcome of the triggering access
        (exposed by the memory controller; empty when unknown).
        ``elapsed_cycles`` is how long the blocking access had already been
        in flight when the stall began — 0 on a blocking core, positive
        under MLP, where the policy subtracts it from its total-latency
        prediction to estimate the residual.
        """
        if actual_stall_cycles < 0:
            raise SimulationError(
                f"stall length must be >= 0, got {actual_stall_cycles}")
        if elapsed_cycles < 0:
            raise SimulationError(
                f"elapsed_cycles must be >= 0, got {elapsed_cycles}")
        self.counters.add("offchip_stalls")
        self.counters.add("offchip_stall_cycles", actual_stall_cycles)

        decision = self.policy.decide(pc, bank, actual_stall_cycles, kind,
                                      elapsed_cycles)
        self._record_prediction(decision, actual_stall_cycles)

        if not decision.gate:
            outcome = self._ungated_outcome(decision, actual_stall_cycles)
        else:
            outcome = self._gated_outcome(decision, actual_stall_cycles, start_cycle)

        if self._obs.enabled:
            self._m_decisions.inc()
            if outcome.aborted:
                self._m_aborts.inc()
            name = ("abort" if outcome.aborted
                    else f"gate.{decision.mode}" if outcome.gated else "skip")
            self._obs.instant(
                self._track, name, start_cycle,
                args={"reason": decision.reason,
                      "predicted_cycles": decision.predicted_cycles,
                      "actual_cycles": actual_stall_cycles})

        # Predictors learn the *total* latency of the blocking access.
        self.policy.observe(pc, bank, actual_stall_cycles + elapsed_cycles, kind)
        if outcome.gated and not outcome.aborted and outcome.plan is not None:
            self.policy.feedback(outcome.plan)
        self._verify_tiling(outcome, actual_stall_cycles)
        return outcome

    # ---- outcome construction ----------------------------------------------------

    def _ungated_outcome(self, decision: GatingDecision,
                         stall: int) -> StallOutcome:
        self.counters.add("ungated")
        intervals: Tuple[Tuple[PowerState, int], ...] = ()
        if stall > 0:
            intervals = ((PowerState.STALL, stall),)
        return StallOutcome(
            gated=False, aborted=False, penalty_cycles=0, event_energy_j=0.0,
            decision=decision, plan=None, intervals=intervals)

    def _gated_outcome(self, decision: GatingDecision, stall: int,
                       start_cycle: int) -> StallOutcome:
        drain = self.analyzer.drain_cycles
        wake = self.analyzer.wake_cycles_for(decision.mode)
        sleep_state = (PowerState.SLEEP_RETENTION
                       if decision.mode == "retention" else PowerState.SLEEP)

        token_delay = 0
        if self.token_arbiter is not None and stall > drain:
            # The wake trigger fires at the planned offset or data return.
            if decision.planned_wake_offset is None:
                trigger_offset = stall
            else:
                trigger_offset = min(decision.planned_wake_offset, stall)
            token_delay = self.token_arbiter.request(
                core_id=self.core_id,
                trigger_cycle=start_cycle + trigger_offset,
                hold_cycles=wake)
            if token_delay:
                self.counters.add("token_delays")
                self.counters.add("token_delay_cycles", token_delay)

        timeline = wakeup_timeline(stall, drain, wake,
                                   decision.planned_wake_offset, token_delay)
        drained, sleep, woke, idle_awake, penalty, token_wait = timeline
        # The outcome carries the realized plan (feedback() receives it).
        plan = WakeupPlan(*timeline)

        if woke == 0 and sleep == 0:
            # Abort: data returned during drain; the header never opened.
            self.counters.add("aborted")
            intervals: List[Tuple[PowerState, int]] = []
            if drained > 0:
                intervals.append((PowerState.DRAIN, drained))
            return StallOutcome(
                gated=True, aborted=True, penalty_cycles=0, event_energy_j=0.0,
                decision=decision, plan=plan, intervals=tuple(intervals))

        self.counters.add("gated")
        self.counters.add(f"gated_{decision.mode}")
        self.counters.add("sleep_cycles", sleep)
        self.counters.add("penalty_cycles", penalty)
        if idle_awake:
            self.counters.add("early_wake_idle_cycles", idle_awake)

        event_energy = self.power_model.gating_event_energy_j(
            sleep, mode=decision.mode)
        intervals = []
        if drained:
            intervals.append((PowerState.DRAIN, drained))
        sleep_proper = sleep - token_wait
        if sleep_proper:
            intervals.append((sleep_state, sleep_proper))
        if token_wait:
            # Token-blocked time is spent gated; bill it at sleep power but
            # keep it distinguishable for the F7 report.
            intervals.append((sleep_state, token_wait))
        if woke:
            intervals.append((PowerState.WAKE, woke))
        if idle_awake:
            intervals.append((PowerState.STALL, idle_awake))
        return StallOutcome(
            gated=True, aborted=False, penalty_cycles=penalty,
            event_energy_j=event_energy, decision=decision, plan=plan,
            intervals=tuple(intervals))

    # ---- bookkeeping ---------------------------------------------------------------

    def _record_prediction(self, decision: GatingDecision, actual: int) -> None:
        if decision.predicted_cycles <= 0:
            return
        error = abs(decision.predicted_cycles - actual)
        self.prediction_error.observe(error)
        self.prediction_relative_error.observe(error / max(1, actual))

    @staticmethod
    def _verify_tiling(outcome: StallOutcome, stall: int) -> None:
        expected = stall + outcome.penalty_cycles
        if outcome.total_cycles != expected:
            raise SimulationError(
                f"outcome intervals tile {outcome.total_cycles} cycles, "
                f"expected stall {stall} + penalty {outcome.penalty_cycles}")

    # ---- summary -------------------------------------------------------------------

    @property
    def gate_rate(self) -> float:
        """Fraction of off-chip stalls the controller actually gated."""
        return self.counters.ratio("gated", "offchip_stalls")

    @property
    def mean_absolute_prediction_error(self) -> float:
        return self.prediction_error.mean
