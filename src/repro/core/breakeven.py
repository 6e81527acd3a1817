"""Break-even decision mathematics.

The circuit model (``repro.power.gating``) answers "how long must the
domain *sleep* for gating to pay off" (the BET).  The controller needs a
slightly different question answered: "given a stall predicted to last D
cycles, should we gate?"  The two differ by the mechanics of a gating
event:

* the first ``drain`` cycles of the stall cannot be slept (pipeline drain);
* the last ``wake`` cycles cannot be slept either — they are spent
  recharging the rail (hidden under the stall by early wakeup, or exposed
  as a penalty without it);
* so the *achievable sleep* of a D-cycle stall is ``D - drain - wake``.

Gating is worthwhile when that achievable sleep clears the (scaled) BET
plus the policy's guard margin.  ``bet_scale`` and the margin come from
:class:`repro.config.GatingConfig`; the F3 sweep varies ``bet_scale`` to
trace the sensitivity curve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.config import GatingConfig
from repro.errors import ConfigError
from repro.power.gating import GatingCircuit


@dataclass(frozen=True)
class BreakEvenAnalyzer:
    """Pre-scaled gating thresholds for one (circuit, config) pair."""

    circuit: GatingCircuit
    config: GatingConfig
    # Per-mode memos of the scaled thresholds (circuit and config are
    # frozen): ``worthwhile`` asks for them at every off-chip stall of the
    # threshold and oracle policies.
    _bet_by_mode: Dict[str, int] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _wake_by_mode: Dict[str, int] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @property
    def bet_cycles(self) -> int:
        """Effective full-gate break-even sleep duration (config-scaled)."""
        return self.bet_cycles_for("full")

    @property
    def wake_cycles(self) -> int:
        """Effective full-gate wakeup latency (config-scaled)."""
        return self.wake_cycles_for("full")

    def bet_cycles_for(self, mode: str) -> int:
        """Break-even sleep duration of one sleep ``mode`` (config-scaled)."""
        cycles = self._bet_by_mode.get(mode)
        if cycles is None:
            if mode == "full":
                base = self.circuit.breakeven_cycles
            elif mode == "retention":
                base = self.circuit.retention_breakeven_cycles
            else:
                raise ConfigError(f"unknown sleep mode {mode!r}")
            cycles = max(1, int(round(base * self.config.bet_scale)))
            self._bet_by_mode[mode] = cycles
        return cycles

    def wake_cycles_for(self, mode: str) -> int:
        """Wakeup latency of one sleep ``mode`` (config-scaled)."""
        cycles = self._wake_by_mode.get(mode)
        if cycles is None:
            if mode == "full":
                base = self.circuit.wake_cycles
            elif mode == "retention":
                base = self.circuit.retention_wake_cycles
            else:
                raise ConfigError(f"unknown sleep mode {mode!r}")
            cycles = max(0, int(round(base * self.config.wake_scale)))
            self._wake_by_mode[mode] = cycles
        return cycles

    @property
    def drain_cycles(self) -> int:
        return self.circuit.drain_cycles

    @property
    def min_gateable_stall_cycles(self) -> int:
        """Shortest stall for which a full gate can possibly pay off."""
        return self.drain_cycles + self.wake_cycles + self.bet_cycles

    def achievable_sleep_cycles(self, stall_cycles: int,
                                mode: str = "full") -> int:
        """Sleep obtainable from a ``stall_cycles`` stall (>= 0)."""
        if stall_cycles < 0:
            raise ConfigError(f"stall_cycles must be >= 0, got {stall_cycles}")
        return max(0, stall_cycles - self.drain_cycles
                   - self.wake_cycles_for(mode))

    def worthwhile(self, predicted_stall_cycles: int,
                   apply_margin: bool = True, mode: str = "full") -> bool:
        """Gate if the predicted stall's achievable sleep clears BET (+margin)."""
        threshold = self.bet_cycles_for(mode)
        if apply_margin:
            threshold += self.config.guard_margin_cycles
        return self.achievable_sleep_cycles(
            predicted_stall_cycles, mode) >= threshold

    def net_saving_j(self, stall_cycles: int) -> float:
        """Net energy a perfectly-timed gating of this stall would win."""
        sleep = self.achievable_sleep_cycles(stall_cycles)
        if sleep <= 0:
            # No sleep happens, but drain+wake overheads would still be paid.
            return -self.circuit.overhead_energy_j(0)
        return self.circuit.net_saving_j(sleep)
