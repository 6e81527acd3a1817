"""Wakeup scheduling: when to start recharging the rail, and what it costs.

The defining mechanism of MAPG is *early wakeup*: since the outstanding
memory access's completion time is largely predictable, the controller can
begin the wake sequence ``wake_cycles`` before the predicted data return so
the rail is up exactly when the data arrives.

Hardware always keeps a **fallback trigger**: if the data returns while the
domain is still asleep (the prediction overshot, or no early wakeup was
scheduled), the return itself starts the wake.  This bounds the worst-case
penalty of a bad prediction at exactly the naive policy's penalty,
``wake_cycles`` — early wakeup can only help, never hurt, performance.

The functions here are pure timing algebra, shared by every policy and
unit-testable in isolation:

* :func:`plan_wakeup` — decide the planned wake-start offset from the
  prediction (or None for return-triggered wake).
* :func:`resolve_wakeup` — given the *actual* stall length, resolve the
  plan into the realized timeline: sleep cycles, awake-idle cycles, and the
  visible penalty beyond the stall.  :func:`wakeup_timeline` is the same
  algebra returning a plain tuple, for the per-stall hot paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import SimulationError


@dataclass(frozen=True)
class WakeupPlan:
    """Realized timeline of one gated stall, all in cycles.

    Invariant: ``drain + sleep + wake + idle_awake == stall + penalty`` —
    the gated timeline exactly tiles the stall plus whatever it overran.

    ``token_wait`` (TAP) is the portion of ``sleep`` spent gated while
    waiting for a wake token — diagnostic, already included in ``sleep``
    (a token-blocked domain stays powered off; that is the point of TAP).
    """

    drain: int
    sleep: int
    wake: int
    idle_awake: int  # woke early, waiting for data with the rail up
    penalty: int     # cycles the stall end was pushed past the data return
    token_wait: int = 0

    def __post_init__(self) -> None:
        for label in ("drain", "sleep", "wake", "idle_awake", "penalty", "token_wait"):
            if getattr(self, label) < 0:
                raise SimulationError(f"{label} must be >= 0 in a WakeupPlan")
        if self.token_wait > self.sleep:
            raise SimulationError(
                f"token_wait ({self.token_wait}) cannot exceed sleep ({self.sleep})")

    @property
    def total(self) -> int:
        """Total cycles the stall occupies under this plan."""
        return self.drain + self.sleep + self.wake + self.idle_awake


def plan_wakeup(predicted_stall: int, drain: int, wake: int,
                early_wakeup: bool) -> Optional[int]:
    """Planned wake-start offset (cycles after stall start), or None.

    None means "no scheduled wake": the fallback (data-return) trigger will
    start the wake, costing the full ``wake`` latency after the return.
    The planned offset never precedes the end of drain.
    """
    if predicted_stall < 0 or drain < 0 or wake < 0:
        raise SimulationError("wakeup planning needs non-negative cycle counts")
    if not early_wakeup:
        return None
    return max(drain, predicted_stall - wake)


def wakeup_timeline(actual_stall: int, drain: int, wake: int,
                    planned_wake_offset: Optional[int],
                    token_delay: int = 0
                    ) -> Tuple[int, int, int, int, int, int]:
    """:func:`resolve_wakeup`'s algebra as a plain tuple.

    Returns ``(drain, sleep, wake, idle_awake, penalty, token_wait)`` —
    the :class:`WakeupPlan` fields in order — without building the plan.
    The controller and the fast kernel call this on every gated stall;
    the frozen, self-validating plan costs ~10x the arithmetic.
    """
    if actual_stall < 0 or drain < 0 or wake < 0 or token_delay < 0:
        raise SimulationError("wakeup resolution needs non-negative cycle counts")
    if planned_wake_offset is not None and planned_wake_offset < drain:
        raise SimulationError(
            f"planned wake offset {planned_wake_offset} precedes drain end {drain}")

    if actual_stall <= drain:
        # Abort: data arrived during drain; treat the whole stall as drain.
        return actual_stall, 0, 0, 0, 0, 0

    # The wake trigger fires at the planned offset or the data return,
    # whichever comes first (fallback trigger).
    if planned_wake_offset is None or planned_wake_offset > actual_stall:
        trigger = actual_stall
    else:
        trigger = planned_wake_offset
    wake_start = trigger + token_delay
    ready = wake_start + wake
    if ready >= actual_stall:
        return drain, wake_start - drain, wake, 0, ready - actual_stall, \
            token_delay
    return drain, wake_start - drain, wake, actual_stall - ready, 0, \
        token_delay


def resolve_wakeup(actual_stall: int, drain: int, wake: int,
                   planned_wake_offset: Optional[int],
                   token_delay: int = 0) -> WakeupPlan:
    """Resolve a gating attempt against the actual stall duration.

    ``token_delay`` (TAP) postpones the wake start after its trigger by up
    to that many cycles — it extends sleep, and may push the wake past the
    data return, adding penalty.

    Abort case: if the data returns before the drain completes
    (``actual_stall <= drain``), the domain never slept; the controller
    cancels gating and the core simply resumes.  We conservatively charge
    the full drain (the pipeline did drain) and no wake.
    """
    return WakeupPlan(*wakeup_timeline(actual_stall, drain, wake,
                                       planned_wake_offset, token_delay))
