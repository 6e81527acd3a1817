"""Energy ledger: integrates power over the state-tiled time axis.

The ledger receives (state, cycles) intervals and per-event joule charges
from the controller and keeps running totals per state.  It is the single
source of truth for every energy number in the evaluation; the invariant
tests assert that its total cycle count equals the simulated execution time
so no cycle is ever double- or un-billed.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import SimulationError
from repro.power.model import CorePowerModel, PowerState
from repro.units import cycles_to_seconds


class EnergyLedger:
    """Accumulates interval and event energy for one gated domain."""

    def __init__(self, power_model: CorePowerModel) -> None:
        self.power_model = power_model
        self._state_cycles: Dict[PowerState, int] = {state: 0 for state in PowerState}
        self._state_energy_j: Dict[PowerState, float] = {state: 0.0 for state in PowerState}
        self._event_energy_j = 0.0
        self._event_count = 0

    def add_interval(self, state: PowerState, cycles: int) -> None:
        """Charge ``cycles`` of residency in ``state``."""
        if cycles < 0:
            raise SimulationError(f"interval cycles must be >= 0, got {cycles}")
        if cycles == 0:
            return
        self._state_cycles[state] += cycles
        self._state_energy_j[state] += self.power_model.interval_energy_j(state, cycles)

    def add_event(self, energy_j: float) -> None:
        """Charge a one-off event cost (header drive + rail recharge)."""
        if energy_j < 0.0:
            raise SimulationError(f"event energy must be >= 0, got {energy_j}")
        self._event_energy_j += energy_j
        self._event_count += 1

    # ---- batch integration (fast-path kernel) ----------------------------------

    def add_batch(self, state: PowerState, cycles: int, energy_j: float) -> None:
        """Charge a whole region's residency in ``state`` at once.

        The batched kernel (:mod:`repro.fastsim`) integrates interval energy
        in local accumulators using the exact per-interval formula
        (``state_power_w * cycles_to_seconds(interval)``, summed in event
        order) and deposits the region totals here in one call, so ledger
        bookkeeping stays inside this module.
        """
        if cycles < 0:
            raise SimulationError(f"batch cycles must be >= 0, got {cycles}")
        if energy_j < 0.0:
            raise SimulationError(f"batch energy must be >= 0, got {energy_j}")
        self._state_cycles[state] += cycles
        self._state_energy_j[state] += energy_j

    def add_events_batch(self, energy_j: float, count: int) -> None:
        """Charge ``count`` gating events totalling ``energy_j`` at once."""
        if count < 0:
            raise SimulationError(f"batch event count must be >= 0, got {count}")
        if energy_j < 0.0:
            raise SimulationError(f"event energy must be >= 0, got {energy_j}")
        self._event_energy_j += energy_j
        self._event_count += count

    # ---- queries ---------------------------------------------------------------

    @property
    def total_cycles(self) -> int:
        return sum(self._state_cycles.values())

    @property
    def background_energy_j(self) -> float:
        """Always-on (uncore) energy over the whole execution time."""
        seconds = cycles_to_seconds(self.total_cycles,
                                    self.power_model.circuit.frequency_hz)
        return self.power_model.background_power_w * seconds

    @property
    def total_energy_j(self) -> float:
        return (sum(self._state_energy_j.values()) + self._event_energy_j
                + self.background_energy_j)

    @property
    def event_energy_j(self) -> float:
        return self._event_energy_j

    @property
    def event_count(self) -> int:
        return self._event_count

    def cycles_in(self, state: PowerState) -> int:
        return self._state_cycles[state]

    def energy_in_j(self, state: PowerState) -> float:
        return self._state_energy_j[state]

    def state_cycles(self) -> Dict[str, int]:
        """Per-state cycle residency keyed by state value (for reports)."""
        return {state.value: cycles
                for state, cycles in self._state_cycles.items() if cycles}

    def state_energy(self) -> Dict[str, float]:
        """Per-state energy keyed by state value, plus the background draw."""
        energies = {state.value: energy
                    for state, energy in self._state_energy_j.items() if energy}
        background = self.background_energy_j
        if background:
            energies["background"] = background
        return energies

    def merge(self, other: "EnergyLedger") -> None:
        """Fold another domain's ledger into this one (multi-core totals)."""
        for state in PowerState:
            self._state_cycles[state] += other._state_cycles[state]
            self._state_energy_j[state] += other._state_energy_j[state]
        self._event_energy_j += other._event_energy_j
        self._event_count += other._event_count
