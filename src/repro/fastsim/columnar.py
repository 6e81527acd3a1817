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
exactly that per-block ``math.ceil`` and memoizes per width, and
:meth:`ColumnarTrace.busy_prefix_for` sums ``busy + 1`` over accesses, so
a run of accesses that cannot stall advances the clock in O(1).

L1 tag state does not depend on timing: a hit, a miss and its victim are
the same whether the access merges into an in-flight fill or not.
:meth:`ColumnarTrace.l1_pass` therefore runs every access through a
:class:`~repro.memory.cache.Cache` (the one implementation of the tag
rules) once per (geometry, write-back, starting state) and memoizes the
outcome as an :class:`L1Pass`: which accesses miss, each miss's dirty
victim, and the cache the region leaves behind, which keys the next
region's pass.  The kernel replays only the misses and the accesses
near in-flight fills.

The trace generator writes the arrays directly; building a
``ColumnarTrace`` from op objects (trace files) is a linear pass, and
:meth:`ColumnarTrace.ops` reconstructs the op stream for the oracle.

One memo of ``(warmup, measured)`` pairs per process serves both
engines, the oracle replaying their :meth:`~ColumnarTrace.ops`.  One
generator pass yields the warmup ops and *continues* into the measured
ops, so a pair is op-for-op identical to one generator's two-call
shape.  Every :class:`ColumnarTraceStore` (the shared one, each sweep's
:class:`repro.exec.TraceStore`) is a view of that memo with its own
hit and miss counts.
"""

from __future__ import annotations

import math
from array import array
from collections import OrderedDict
from itertools import accumulate
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.config import CacheConfig
from repro.errors import ConfigError, TraceError
from repro.memory.cache import Cache
from repro.trace.format import ComputeBlock, MemoryAccess, TraceOp
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import SyntheticTraceGenerator


_Columns = Tuple[array, array, bytearray, bytearray, array, array, int]


class L1Pass:
    """One region's L1 tag outcomes from one starting tag state.

    ``misses`` holds the indices of the accesses that miss the L1 tags,
    in order, closed by ``num_memory_ops`` as a sentinel; ``victims[k]``
    is miss ``k``'s dirty-victim address, -1 for none.  ``end`` is the
    :class:`~repro.memory.cache.Cache` that ran the region: its tag state
    is the one the region leaves, and its counters are the region's L1
    counts.  It is never mutated, and a pass compares by identity, so the
    pass itself keys the next region's pass.
    """

    __slots__ = ("misses", "victims", "end")

    def __init__(self, misses: array, victims: array, end: Cache) -> None:
        self.misses = misses
        self.victims = victims
        self.end = end


class ColumnarTrace:
    """One trace region as parallel arrays, keyed by memory access."""

    __slots__ = ("addresses", "pcs", "write_flags", "dependent_flags",
                 "block_instructions", "block_bounds",
                 "num_memory_ops", "num_blocks", "num_ops",
                 "total_block_instructions", "_busy_by_width",
                 "_blocks_by_offset", "_prefix_by_width", "_l1_passes")

    def __init__(self, ops: Iterable[TraceOp] = (),
                 columns: "Optional[_Columns]" = None) -> None:
        """Ingest ``ops``, or take ``columns`` as the trace generator
        writes them: the arrays below in slot order, then the total."""
        if columns is None:
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
            columns = (addresses, pcs, write_flags, dependent_flags,
                       block_instructions, block_bounds, total_instr)
        (self.addresses, self.pcs, self.write_flags, self.dependent_flags,
         self.block_instructions, self.block_bounds,
         self.total_block_instructions) = columns
        self.num_memory_ops = len(self.addresses)
        self.num_blocks = len(self.block_instructions)
        self.num_ops = self.num_memory_ops + self.num_blocks
        self._busy_by_width: Dict[int, array] = {}
        self._blocks_by_offset: Dict[int, List[int]] = {}
        self._prefix_by_width: Dict[int, array] = {}
        self._l1_passes: Dict[Tuple[int, int, int, bool, Optional[L1Pass]],
                              L1Pass] = {}

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

    def block_keys_for(self, offset_bits: int) -> List[int]:
        """Per-access line (block) numbers for one line size, memoized.

        The batched kernel keys its L1 MSHR by these; folding the shift
        out of the loop into one list comprehension per trace and line
        size saves it a per-access operation.
        """
        cached = self._blocks_by_offset.get(offset_bits)
        if cached is None:
            cached = [address >> offset_bits for address in self.addresses]
            self._blocks_by_offset[offset_bits] = cached
        return cached

    def busy_prefix_for(self, issue_width: int) -> array:
        """Running sums of ``busy + 1`` over accesses, memoized per width.

        Entry ``k`` is the cycles accesses ``0..k-1`` take when none of
        them stalls (each one's busy run plus its issue cycle), so
        ``prefix[j] - prefix[i]`` advances the clock over accesses
        ``i..j-1`` in one step.
        """
        cached = self._prefix_by_width.get(issue_width)
        if cached is None:
            busy = self.busy_cycles_for(issue_width)
            cached = array("q", accumulate(
                (busy[i] + 1 for i in range(self.num_memory_ops)),
                initial=0))
            self._prefix_by_width[issue_width] = cached
        return cached

    def l1_pass(self, config: CacheConfig, start: Optional[L1Pass]) -> L1Pass:
        """The L1 tag outcomes of this region, memoized.

        ``start`` is the pass of the region replayed before this one on
        the same cache (``None`` for empty tags).  A tag lookup's outcome
        does not depend on timing, so every cell replaying this region
        from that state with the same geometry shares one pass.
        """
        key = (config.line_bytes, config.num_sets, config.associativity,
               config.write_back, start)
        cached = self._l1_passes.get(key)
        if cached is None:
            cached = self._run_l1_pass(config, start)
            self._l1_passes[key] = cached
        return cached

    def _run_l1_pass(self, config: CacheConfig,
                     start: Optional[L1Pass]) -> L1Pass:
        """``Cache.access`` for every access, in order, from ``start``."""
        cache = Cache(config)
        if start is not None:
            cache.take_over(start.end)
            cache.reset_measurements()
        outcomes = list(map(cache.access, self.addresses, self.write_flags))
        misses = array("q", [i for i, (hit, __) in enumerate(outcomes)
                             if not hit])
        writebacks = [outcomes[i][1] for i in misses]
        victims = array("q", [-1 if address is None else address
                              for address in writebacks])
        misses.append(self.num_memory_ops)
        return L1Pass(misses, victims, cache)

    def drop_derived(self) -> None:
        """Forget every memoized derived column (rebuilt on next use)."""
        self._busy_by_width.clear()
        self._blocks_by_offset.clear()
        self._prefix_by_width.clear()
        self._l1_passes.clear()

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

# The per-process memo every store serves from: a pure function of the
# (profile, seed, warmup_ops, num_ops) key, LRU-bounded because a long
# sweep may touch many workloads (evicting means regenerating later).
_PAIRS: "OrderedDict[_TraceKey, _ColumnarPair]" = OrderedDict()  # mapglint: declared-cache
_MAX_PAIRS = 8


class ColumnarTraceStore:
    """A counted view of the per-process memo of ``(warmup, measured)``
    columnar trace pairs.

    Each ``(profile, seed, warmup_ops, num_ops)`` pair is generated once
    per process, whichever store asks first: one generator yields the
    warmup ops and then continues into the measured ops, so the phase
    schedule and RNG advance across the boundary exactly as a streamed
    run's do.  Each store counts its own ``hits`` (served from the memo)
    and ``misses`` (generated by this call).
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    def traces(self, profile: str, num_ops: int, seed: int = 1,
               warmup_ops: int = 0) -> _ColumnarPair:
        """The (warmup, measured) columnar traces for one simulation cell."""
        trace_key: _TraceKey = (profile, seed, warmup_ops, num_ops)
        pair = _PAIRS.get(trace_key)
        if pair is None:
            self.misses += 1
            generator = SyntheticTraceGenerator(get_profile(profile), seed=seed)
            pair = (generator.columns(warmup_ops), generator.columns(num_ops))
        else:
            self.hits += 1
        last = next(reversed(_PAIRS), None)
        if last is not None and last != trace_key:
            # The pair going idle keeps its columns, not its derived
            # caches (~2.5x the columns' size); they are rebuilt if needed.
            for trace in _PAIRS[last]:
                trace.drop_derived()
        _PAIRS[trace_key] = pair
        _PAIRS.move_to_end(trace_key)
        while len(_PAIRS) > _MAX_PAIRS:
            _PAIRS.popitem(last=False)
        return pair


# The store of cells run with no store of their own.  # mapglint: declared-cache
_SHARED_STORE = ColumnarTraceStore()


def shared_columnar_store() -> ColumnarTraceStore:
    """The per-process shared columnar trace store."""
    return _SHARED_STORE
