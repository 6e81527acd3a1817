"""Adaptive MAPG: feedback-controlled early-wake bias.

The stock :class:`~repro.core.policies.MapgPolicy` biases its wake timer
early by a *fixed* margin on confident gates.  That constant embodies a
trade-off — waking late exposes wake latency, waking early burns
idle-awake leakage — and the right operating point depends on the
workload's latency variance, which drifts across phases.

:class:`AdaptiveMapgPolicy` closes the loop: the controller reports each
gated stall's realized outcome (:class:`~repro.core.wakeup.WakeupPlan`)
back to the policy, which nudges a single bias register with an asymmetric
AIMD rule:

* a **late wake** (penalty > 0) is expensive -> additive increase;
* a comfortably **early wake** (idle-awake above a tolerance) is cheap but
  wasteful -> multiplicative decay.

The asymmetry mirrors the cost asymmetry, exactly like TCP's congestion
window mirrors the loss/underuse asymmetry.  Hardware cost: one small
register, an adder, and a shift.
"""

from __future__ import annotations

from repro.core.policies import MapgPolicy
from repro.core.wakeup import WakeupPlan
from repro.errors import ConfigError


class AdaptiveMapgPolicy(MapgPolicy):
    """MAPG with a run-time-adapted early-wake bias (policy ``mapg_adaptive``)."""

    # AIMD constants: additive increase per late wake, multiplicative decay
    # when wakes land comfortably early (idle-awake above the tolerance),
    # and the bias ceiling.
    _INCREASE_CYCLES = 4
    _DECAY = 0.85
    _IDLE_TOLERANCE_CYCLES = 24
    _BIAS_CAP_CYCLES = 96

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._bias_cycles = float(self.config.early_margin_cycles)

    @property
    def bias_cycles(self) -> int:
        """The current adapted early-wake bias, in cycles."""
        return self._early_margin_cycles()

    def _early_margin_cycles(self) -> int:
        return round(self._bias_cycles)

    def feedback(self, plan: WakeupPlan) -> None:
        """Adapt the bias from one gated stall's realized timeline."""
        if not isinstance(plan, WakeupPlan):
            raise ConfigError("feedback requires a realized WakeupPlan")
        self.adapt(plan.penalty, plan.idle_awake)

    def adapt(self, penalty: int, idle_awake: int) -> None:
        """The AIMD rule on one completed gate's penalty and idle-awake cycles.

        ``feedback`` wraps this; the fast kernel calls it directly.
        """
        if penalty > 0:
            self._bias_cycles = min(
                float(self._BIAS_CAP_CYCLES),
                self._bias_cycles + self._INCREASE_CYCLES)
        elif idle_awake > self._IDLE_TOLERANCE_CYCLES:
            self._bias_cycles *= self._DECAY
