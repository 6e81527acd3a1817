"""Cycle-accurate cross-check of the wakeup algebra.

``repro.core.wakeup.resolve_wakeup`` computes a gated stall's timeline
*algebraically*.  :func:`resolve_by_events` recomputes the same timeline
the way the hardware actually produces it — as a sequence of discrete
events on the :class:`~repro.events.EventQueue`:

* ``t = 0``        stall begins, drain starts
* ``t = drain``    drain completes; the domain sleeps (unless aborted)
* planned timer    wake starts (if scheduled and not already triggered)
* ``t = D``        data returns; the fallback trigger fires if the domain
                   is still asleep
* trigger + token  wake actually begins (token grant may defer it)
* wake start + w   domain ready; the stall ends at ``max(D, ready)``

The two implementations share no code, so agreement across randomized
inputs (``tests/test_crosscheck.py``) is genuine evidence the algebra is
right — the same role a SPICE-vs-analytic comparison plays for the circuit
model.
"""

from __future__ import annotations

from typing import Optional

from repro.core.wakeup import WakeupPlan
from repro.errors import SimulationError
from repro.events import EventQueue


class _DomainState:
    """Mutable event-driven state of one gated domain during one stall."""

    __slots__ = ("asleep", "wake_started", "wake_start_cycle",
                 "data_returned", "drain_done_cycle")

    def __init__(self) -> None:
        self.asleep = False
        self.wake_started = False
        self.wake_start_cycle: Optional[int] = None
        self.data_returned = False
        self.drain_done_cycle: Optional[int] = None


def resolve_by_events(actual_stall: int, drain: int, wake: int,
                      planned_wake_offset: Optional[int],
                      token_delay: int = 0) -> WakeupPlan:
    """Event-driven equivalent of :func:`repro.core.wakeup.resolve_wakeup`."""
    if actual_stall < 0 or drain < 0 or wake < 0 or token_delay < 0:
        raise SimulationError("cross-check needs non-negative cycle counts")
    if planned_wake_offset is not None and planned_wake_offset < drain:
        raise SimulationError("planned wake offset precedes drain end")

    # Abort: data returns while still draining — no sleep, no wake.
    if actual_stall <= drain:
        return WakeupPlan(drain=actual_stall, sleep=0, wake=0,
                          idle_awake=0, penalty=0)

    queue = EventQueue()
    state = _DomainState()

    def drain_done() -> None:
        state.drain_done_cycle = queue.now
        state.asleep = True

    def try_start_wake() -> None:
        if state.wake_started or not state.asleep:
            return
        state.wake_started = True
        state.wake_start_cycle = queue.now + token_delay

    def data_return() -> None:
        state.data_returned = True
        try_start_wake()  # fallback trigger

    queue.schedule(drain, drain_done)
    queue.schedule(actual_stall, data_return)
    if planned_wake_offset is not None:
        queue.schedule(planned_wake_offset, try_start_wake)
    queue.run()

    if not state.wake_started or state.wake_start_cycle is None:
        raise SimulationError("wake never started — event model bug")

    ready = state.wake_start_cycle + wake
    sleep = state.wake_start_cycle - drain
    penalty = max(0, ready - actual_stall)
    idle_awake = max(0, actual_stall - ready)
    # The wake trigger never precedes drain completion, so the sleep always
    # contains the whole token wait.
    return WakeupPlan(drain=drain, sleep=sleep, wake=wake,
                      idle_awake=idle_awake, penalty=penalty,
                      token_wait=token_delay)
