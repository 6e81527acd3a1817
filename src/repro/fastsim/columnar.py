"""Columnar trace representation for the batched execution kernel.

The oracle replays traces as tuples of per-op objects
(:class:`~repro.trace.format.ComputeBlock` /
:class:`~repro.trace.format.MemoryAccess`); attribute access and
``isinstance`` dispatch on those objects dominate the per-op cost.  This
module stores the same trace as parallel arrays keyed by *memory access*
— the only op kind at which memory-system state can change:

* ``addresses`` / ``pcs`` — ``array('q')`` per memory access,
* ``write_flags`` / ``dependent_flags`` — ``bytearray`` per memory access,
* ``block_instructions`` — one flat ``array('q')`` of every compute
  block's instruction count, in trace order,
* ``block_bounds`` — CSR-style bounds: the compute blocks *preceding*
  memory access ``i`` are ``block_instructions[bounds[i]:bounds[i+1]]``,
  and the trailing blocks after the last access are the final interval.

The kernel additionally needs each interval's *busy cycles*, which depend
on the core's issue width: the oracle charges ``ceil(instructions /
issue_width)`` **per block** (a sum of ceilings, not a ceiling of sums),
so :meth:`ColumnarTrace.busy_cycles_for` pre-folds each interval with
exactly that per-block ``math.ceil`` and memoizes per width.  Building a
``ColumnarTrace`` is a one-time linear pass; :meth:`ColumnarTrace.ops`
reconstructs the original op stream for the oracle.

:class:`ColumnarTraceStore` is the one trace memo, serving both engines:
the fast kernel replays its ``ColumnarTrace`` pairs directly and the
oracle replays their :meth:`~ColumnarTrace.ops`.  One generator pass
yields the warmup ops and *continues* into the measured ops, so a stored
pair is op-for-op identical to ``run_workload``'s streamed two-call
shape.  :class:`repro.exec.TraceStore` is the same store under the exec
layer's name.
"""

from __future__ import annotations

import math
from array import array
from collections import OrderedDict
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.errors import ConfigError, TraceError
from repro.trace.format import ComputeBlock, MemoryAccess, TraceOp
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import SyntheticTraceGenerator


class ColumnarTrace:
    """One trace region as parallel arrays, keyed by memory access."""

    __slots__ = ("addresses", "pcs", "write_flags", "dependent_flags",
                 "block_instructions", "block_bounds",
                 "num_memory_ops", "num_blocks", "num_ops",
                 "total_block_instructions", "_busy_by_width",
                 "_keys_by_geometry")

    def __init__(self, ops: Iterable[TraceOp]) -> None:
        addresses = array("q")
        pcs = array("q")
        write_flags = bytearray()
        dependent_flags = bytearray()
        block_instructions = array("q")
        block_bounds = array("q", [0])
        total_instr = 0
        for op in ops:
            if type(op) is ComputeBlock:
                block_instructions.append(op.instructions)
                total_instr += op.instructions
            elif type(op) is MemoryAccess:
                addresses.append(op.address)
                pcs.append(op.pc)
                write_flags.append(1 if op.is_write else 0)
                dependent_flags.append(1 if op.dependent else 0)
                block_bounds.append(len(block_instructions))
            else:
                raise TraceError(
                    f"unknown trace op type {type(op).__name__}")
        # Close the trailing interval (compute blocks after the last
        # memory access).
        block_bounds.append(len(block_instructions))
        self.addresses = addresses
        self.pcs = pcs
        self.write_flags = write_flags
        self.dependent_flags = dependent_flags
        self.block_instructions = block_instructions
        self.block_bounds = block_bounds
        self.num_memory_ops = len(addresses)
        self.num_blocks = len(block_instructions)
        self.num_ops = self.num_memory_ops + self.num_blocks
        self.total_block_instructions = total_instr
        self._busy_by_width: Dict[int, array] = {}
        self._keys_by_geometry: Dict[Tuple[int, int],
                                     Tuple[List[int], List[int],
                                           List[int]]] = {}

    def busy_cycles_for(self, issue_width: int) -> array:
        """Busy cycles per interval at ``issue_width``, memoized.

        Entry ``i`` (for ``i < num_memory_ops``) is the busy time of the
        compute blocks issued *before* memory access ``i``; the final
        entry is the trailing run after the last access.  Each block
        contributes ``math.ceil(instructions / issue_width)`` — the exact
        float-division ceiling the oracle core computes per block.
        """
        if issue_width < 1:
            raise ConfigError(
                f"issue_width must be >= 1, got {issue_width}")
        cached = self._busy_by_width.get(issue_width)
        if cached is not None:
            return cached
        ceil = math.ceil
        blocks = self.block_instructions
        bounds = self.block_bounds
        busy = array("q", bytes(8 * (len(bounds) - 1)))
        for interval in range(len(bounds) - 1):
            total = 0
            for index in range(bounds[interval], bounds[interval + 1]):
                total += ceil(blocks[index] / issue_width)
            busy[interval] = total
        self._busy_by_width[issue_width] = busy
        return busy

    def block_keys_for(self, offset_bits: int,
                       index_mask: int) -> Tuple[List[int], List[int],
                                                 List[int]]:
        """Per-access (block, set index, tag) lists for one cache geometry.

        Precomputed once per (offset_bits, index_mask) pair and memoized —
        the batched kernel's hottest per-access work is exactly these three
        integer ops, so folding them out of the loop (three plain list
        comprehensions) buys a measurable share of the speedup.
        """
        geometry = (offset_bits, index_mask)
        cached = self._keys_by_geometry.get(geometry)
        if cached is not None:
            return cached
        index_bits = index_mask.bit_length()
        blocks = [address >> offset_bits for address in self.addresses]
        keys = (blocks, [block & index_mask for block in blocks],
                [block >> index_bits for block in blocks])
        self._keys_by_geometry[geometry] = keys
        return keys

    def ops(self) -> Iterator[TraceOp]:
        """Reconstruct the original op stream (oracle-compatible)."""
        blocks = self.block_instructions
        bounds = self.block_bounds
        write_flags = self.write_flags
        dependent_flags = self.dependent_flags
        pcs = self.pcs
        for i, address in enumerate(self.addresses):
            for index in range(bounds[i], bounds[i + 1]):
                yield ComputeBlock(instructions=blocks[index])
            yield MemoryAccess(address=address, pc=pcs[i],
                               is_write=bool(write_flags[i]),
                               dependent=bool(dependent_flags[i]))
        for index in range(bounds[self.num_memory_ops],
                           bounds[self.num_memory_ops + 1]):
            yield ComputeBlock(instructions=blocks[index])


_TraceKey = Tuple[str, int, int, int]
_ColumnarPair = Tuple[ColumnarTrace, ColumnarTrace]

_EMPTY_TRACE = ColumnarTrace(())


class ColumnarTraceStore:
    """LRU-bounded memo of ``(warmup, measured)`` columnar trace pairs.

    Each ``(profile, seed, warmup_ops, num_ops)`` pair is generated once
    per store: one generator yields the warmup ops and then continues
    into the measured ops, so the phase schedule and RNG advance across
    the boundary exactly as a streamed run's do.  Bounded because a long
    sweep may touch many workloads; evicting means regenerating later.
    """

    def __init__(self, max_entries: int = 8) -> None:
        if max_entries < 1:
            raise ConfigError(
                f"{type(self).__name__} needs max_entries >= 1, "
                f"got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[_TraceKey, _ColumnarPair]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def traces(self, profile: str, num_ops: int, seed: int = 1,
               warmup_ops: int = 0) -> _ColumnarPair:
        """The (warmup, measured) columnar traces for one simulation cell."""
        trace_key: _TraceKey = (profile, seed, warmup_ops, num_ops)
        cached = self._entries.get(trace_key)
        if cached is not None:
            self.hits += 1
            self._entries.move_to_end(trace_key)
            return cached
        self.misses += 1
        generator = SyntheticTraceGenerator(get_profile(profile), seed=seed)
        pair: _ColumnarPair = (
            ColumnarTrace(generator.operations(warmup_ops)) if warmup_ops
            else _EMPTY_TRACE,
            ColumnarTrace(generator.operations(num_ops)),
        )
        self._entries[trace_key] = pair
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return pair


# Per-process memo of generated columnar traces, used by cells that are
# given no store: a pure function of the (profile, seed, warmup_ops,
# num_ops) key.  # mapglint: declared-cache
_SHARED_STORE = ColumnarTraceStore()


def shared_columnar_store() -> ColumnarTraceStore:
    """The per-process shared columnar trace store."""
    return _SHARED_STORE
