"""Windowed-MLP core: run past off-chip misses until the window fills.

The blocking :class:`~repro.cpu.core.Core` stalls on every off-chip miss —
the best case for MAPG, since every miss is a full-length gateable idle
period.  Real cores extract memory-level parallelism: an out-of-order
window lets execution continue past a miss, and the core only stalls when
``miss_window`` misses are outstanding (the ROB-full condition).

This model captures exactly that first-order effect:

* an off-chip miss *registers* its completion time and execution continues;
* when a new off-chip miss finds the window full, the core stalls until
  the **oldest** outstanding miss completes — that residual is the gateable
  stall, and it is shorter and less regular than a full miss latency;
* on-chip (L2-hit) latencies still stall briefly, as in the blocking core.

The F15 experiment uses this to quantify how MLP erodes MAPG's
opportunity — the honest sensitivity analysis of the paper's in-order
assumption.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Iterable, Iterator, Tuple

from repro.config import CoreConfig
from repro.cpu.core import BusySegment, Core, Segment, StallSegment
from repro.errors import SimulationError
from repro.memory.hierarchy import MemoryHierarchy
from repro.trace.format import ComputeBlock, MemoryAccess, TraceOp


class WindowedCore(Core):
    """A core that tolerates up to ``miss_window`` outstanding misses."""

    def __init__(self, config: CoreConfig, hierarchy: MemoryHierarchy) -> None:
        super().__init__(config, hierarchy)
        if config.miss_window < 1:
            raise SimulationError("miss_window must be >= 1")
        # Outstanding off-chip misses: (completion_cycle, issue_cycle,
        # pc, bank, kind), oldest first (completions are monotone per issue
        # order here).
        self._outstanding: Deque[Tuple[int, int, int, int, str]] = deque()

    def segments(self, ops: Iterable[TraceOp]) -> Iterator[Segment]:
        pending_busy = 0
        window = self.config.miss_window
        for op in ops:
            if isinstance(op, ComputeBlock):
                cycles = math.ceil(op.instructions / self.config.issue_width)
                pending_busy += cycles
                self._cycle += cycles
                self.counters.add("instructions", op.instructions)
                self.retire_completed(self._cycle)
                continue
            if not isinstance(op, MemoryAccess):
                raise SimulationError(f"unknown trace op {type(op).__name__}")

            pending_busy += 1
            self._cycle += 1
            self.counters.add("instructions")
            self.counters.add("memory_ops")
            self.retire_completed(self._cycle)

            # Pointer-chase dependence: this access's address comes from the
            # most recent load's data.  If that producer is still in flight,
            # the access cannot even issue — the core stalls for the
            # producer's residual, and no window width can hide it.
            if op.dependent and self._outstanding:
                completion, issue, producer_pc, producer_bank, producer_kind = \
                    self._outstanding[-1]
                residual = max(1, completion - self._cycle)
                self.counters.add("offchip_stalls")
                self.counters.add("offchip_stall_cycles", residual)
                self.counters.add("dependence_stalls")
                if pending_busy:
                    yield BusySegment(pending_busy)
                    pending_busy = 0
                yield StallSegment(
                    cycles=residual, off_chip=True, pc=producer_pc,
                    bank=producer_bank, dram_kind=producer_kind,
                    elapsed_cycles=max(0, self._cycle - issue))
                self._cycle += residual
                self.retire_completed(self._cycle)

            result = self.hierarchy.access(op.address, self._cycle,
                                           op.is_write, pc=op.pc)
            l1_latency = self.hierarchy.l1.config.hit_latency_cycles

            if result.level == "l1" and not result.merged:
                continue

            if not result.off_chip:
                stall_cycles = max(0, result.total_cycles - l1_latency)
                if stall_cycles == 0:
                    continue
                # A merged access with a long residual is a *dependent use*
                # of an in-flight off-chip miss — the load-to-use stall an
                # OoO core cannot hide.  It is off-chip idleness and thus
                # gateable; the blocking core never sees this case (its
                # merges have ~1-cycle residuals).
                dependent_use = (result.merged and stall_cycles >
                                 self.hierarchy.l2.config.hit_latency_cycles)
                if dependent_use:
                    self.counters.add("offchip_stalls")
                    self.counters.add("offchip_stall_cycles", stall_cycles)
                else:
                    self.counters.add("onchip_stalls")
                    self.counters.add("onchip_stall_cycles", stall_cycles)
                if pending_busy:
                    yield BusySegment(pending_busy)
                    pending_busy = 0
                elapsed = 0
                if dependent_use and result.in_flight_issue_cycle is not None:
                    elapsed = max(0, self._cycle - result.in_flight_issue_cycle)
                yield StallSegment(
                    cycles=stall_cycles, off_chip=dependent_use, pc=op.pc,
                    dram_kind="merged" if dependent_use else None,
                    merged=result.merged, elapsed_cycles=elapsed)
                self._cycle += stall_cycles
                self.retire_completed(self._cycle)
                continue

            # Off-chip miss: register it; stall only if the window is full.
            completion = self._cycle + max(0, result.total_cycles - l1_latency)
            __, bank, kind = (result.dram if result.dram is not None
                              else (0.0, -1, ""))
            if len(self._outstanding) < window:
                self._outstanding.append((completion, self._cycle, op.pc,
                                          bank, kind))
                self.counters.add("overlapped_misses")
                continue

            # Window full: stall until the oldest miss completes.
            new_miss_issue = self._cycle  # this access issued pre-stall
            oldest_completion, oldest_issue, oldest_pc, oldest_bank, \
                oldest_kind = self._outstanding.popleft()
            residual = max(1, oldest_completion - self._cycle)
            self.counters.add("offchip_stalls")
            self.counters.add("offchip_stall_cycles", residual)
            if pending_busy:
                yield BusySegment(pending_busy)
                pending_busy = 0
            yield StallSegment(cycles=residual, off_chip=True,
                               pc=oldest_pc, bank=oldest_bank,
                               dram_kind=oldest_kind, merged=False,
                               elapsed_cycles=max(0, self._cycle - oldest_issue))
            self._cycle += residual
            self.retire_completed(self._cycle)
            self._outstanding.append((completion, new_miss_issue, op.pc,
                                      bank, kind))
        if pending_busy:
            yield BusySegment(pending_busy)

    def retire_completed(self, cycle: int) -> None:
        """Drop outstanding misses whose data has returned by ``cycle``.

        The fast kernel calls this too, on this core's own deque.
        """
        outstanding = self._outstanding
        while outstanding and outstanding[0][0] <= cycle:
            outstanding.popleft()
            self.counters.add("hidden_misses")


def make_core(config: CoreConfig, hierarchy: MemoryHierarchy) -> Core:
    """Build the core model the configuration asks for."""
    if config.miss_window > 1:
        return WindowedCore(config, hierarchy)
    return Core(config, hierarchy)
