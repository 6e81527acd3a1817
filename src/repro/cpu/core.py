"""Trace-driven core timing model.

The core replays a trace against the memory hierarchy and emits a sequence
of **segments** — the exact granularity the MAPG controller acts on:

* :class:`BusySegment` — cycles spent retiring instructions (includes
  pipelined L1 hits).
* :class:`StallSegment` — cycles the pipeline is empty waiting on memory.
  ``off_chip`` marks DRAM-bound stalls, the only ones MAPG may gate;
  on-chip (L2-hit) stalls are far below break-even and only clock-gate.

Timing model:

* compute blocks retire at ``issue_width`` instructions per cycle;
* an L1 hit is fully pipelined (1 issue cycle, no stall);
* an L2 hit stalls for the L2 latency beyond the L1 lookup;
* an off-chip access stalls for the full remaining latency.  When
  ``mlp_overlap`` > 0 and the previous off-chip stall ended within
  ``MLP_WINDOW_CYCLES`` of this one's start, the stall shortens by that
  factor — a first-order stand-in for memory-level parallelism (two misses
  whose DRAM times overlap).

The core never decides anything about power: it reports what happened and
lets the simulator/controller tile the time axis into power states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union

from repro.config import CoreConfig
from repro.errors import SimulationError
from repro.memory.hierarchy import MemoryHierarchy
from repro.stats import CounterSet
from repro.trace.format import ComputeBlock, MemoryAccess, TraceOp

MLP_WINDOW_CYCLES = 8


@dataclass(frozen=True)
class BusySegment:
    """``cycles`` of uninterrupted instruction retirement."""

    cycles: int


@dataclass(frozen=True)
class StallSegment:
    """A pipeline stall of ``cycles`` waiting for one memory access.

    ``pc``/``bank`` feed the latency predictor; ``dram_kind`` is the DRAM
    row-buffer outcome (None for on-chip stalls); ``merged`` marks MSHR
    piggyback stalls, whose short residuals are the trap for naive gating.
    """

    cycles: int
    off_chip: bool
    pc: int = 0
    bank: int = -1
    dram_kind: Optional[str] = None
    merged: bool = False
    # Cycles the blocking access had already been in flight when this stall
    # began (0 when the core stalls at issue, as the blocking core does).
    # Hardware knows this — it is the age of the outstanding request — and
    # the MAPG policy subtracts it from its *total*-latency prediction to
    # estimate the residual.
    elapsed_cycles: int = 0


Segment = Union[BusySegment, StallSegment]


class Core:
    """One trace-driven core in front of a memory hierarchy."""

    def __init__(self, config: CoreConfig, hierarchy: MemoryHierarchy) -> None:
        self.config = config
        self.hierarchy = hierarchy
        self.counters = CounterSet()
        self._cycle = 0  # local completion time, pre-gating
        self._last_offchip_end = -10**18

    @property
    def cycle(self) -> int:
        """Core-local completion time of everything emitted so far."""
        return self._cycle

    def add_delay(self, cycles: int) -> None:
        """Push the core's clock forward by an externally-imposed delay.

        The simulator calls this with each gating penalty so that subsequent
        memory accesses carry timestamps that include the slowdown — DRAM
        bank state then evolves in true time, not gating-free time.
        """
        if cycles < 0:
            raise SimulationError(f"delay must be >= 0, got {cycles}")
        self._cycle += cycles

    def segments(self, ops: Iterable[TraceOp]) -> Iterator[Segment]:
        """Replay ``ops``, yielding busy/stall segments in program order.

        Loop invariants (issue width, L1 hit latency, the hierarchy and
        counter objects) are hoisted into locals — this loop runs once per
        trace op.  ``self._cycle`` stays an attribute access on purpose:
        the consumer calls :meth:`add_delay` *between* yields, so a local
        copy would go stale mid-replay.
        """
        pending_busy = 0
        issue_width = self.config.issue_width
        hierarchy = self.hierarchy
        l1_latency = hierarchy.l1.config.hit_latency_cycles
        counters_add = self.counters.add
        ceil = math.ceil
        for op in ops:
            if isinstance(op, ComputeBlock):
                cycles = ceil(op.instructions / issue_width)
                pending_busy += cycles
                self._cycle += cycles
                counters_add("instructions", op.instructions)
                continue
            if not isinstance(op, MemoryAccess):
                raise SimulationError(f"unknown trace op {type(op).__name__}")

            # The access issues after the accumulated busy run plus one cycle.
            pending_busy += 1
            self._cycle += 1
            counters_add("instructions")
            counters_add("memory_ops")

            result = hierarchy.access(op.address, self._cycle, op.is_write,
                                      pc=op.pc)

            if result.level == "l1" and not result.merged:
                # Pipelined L1 hit: no visible stall.
                continue

            stall_cycles = max(0, result.total_cycles - l1_latency)
            if stall_cycles == 0:
                continue

            if result.off_chip:
                stall_cycles = self._apply_mlp(stall_cycles)
                counters_add("offchip_stalls")
                counters_add("offchip_stall_cycles", stall_cycles)
            else:
                counters_add("onchip_stalls")
                counters_add("onchip_stall_cycles", stall_cycles)

            if pending_busy:
                yield BusySegment(pending_busy)
                pending_busy = 0
            __, bank, dram_kind = (result.dram if result.dram is not None
                                   else (0.0, -1, None))
            yield StallSegment(
                cycles=stall_cycles,
                off_chip=result.off_chip,
                pc=op.pc,
                bank=bank,
                dram_kind=dram_kind,
                merged=result.merged,
            )
            self._cycle += stall_cycles
            if result.off_chip:
                self._last_offchip_end = self._cycle
        if pending_busy:
            yield BusySegment(pending_busy)

    def _apply_mlp(self, stall_cycles: int) -> int:
        """Shorten back-to-back off-chip stalls by the MLP overlap factor."""
        overlap = self.config.mlp_overlap
        if overlap <= 0.0:
            return stall_cycles
        gap = self._cycle - self._last_offchip_end
        if gap > MLP_WINDOW_CYCLES:
            return stall_cycles
        reduced = int(round(stall_cycles * (1.0 - overlap)))
        return max(1, reduced)
