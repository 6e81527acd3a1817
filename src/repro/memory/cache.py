"""Set-associative cache with LRU replacement.

The cache tracks tag state only (no data payloads — the simulator never
needs values).  Stores are write-allocate; with ``config.write_back`` (the
default) a store hit marks the line dirty and evicting a dirty line
reports a write-back so the hierarchy can charge DRAM write traffic.
With ``write_back=False`` the cache is write-through: stores never dirty
a line, so evictions are free and the write traffic is charged at access
time by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.config import CacheConfig
from repro.stats import CounterSet


@dataclass(frozen=True)
class CacheAccessResult:
    """Outcome of one cache lookup.

    ``writeback_address`` is the byte address of an evicted dirty line (or
    None); it is only ever set on misses that allocated over a dirty victim.
    """

    hit: bool
    writeback_address: Optional[int] = None


class _Line:
    __slots__ = ("tag", "valid", "dirty")

    def __init__(self) -> None:
        self.tag = -1
        self.valid = False
        self.dirty = False


class Cache:
    """One level of a write-allocate set-associative cache.

    Write-back versus write-through is selected by ``config.write_back``.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._num_sets = config.num_sets
        self._ways = config.associativity
        self._offset_bits = config.line_bytes.bit_length() - 1
        self._index_mask = self._num_sets - 1
        # Per-set state is built on a set's first access (see _build_set);
        # None marks an untouched set, which holds no valid line.
        self._sets: List[Optional[List[_Line]]] = [None] * self._num_sets
        # LRU: per-set list of way indices, most-recent last.
        self._lru: Dict[int, List[int]] = {}
        self.counters = CounterSet()

    # ---- address mapping ---------------------------------------------------

    def line_address(self, address: int) -> int:
        """Byte address of the start of the line containing ``address``."""
        return (address >> self._offset_bits) << self._offset_bits

    def _index_and_tag(self, address: int) -> "tuple[int, int]":
        block = address >> self._offset_bits
        return block & self._index_mask, block >> (self._index_mask.bit_length())

    # ---- main operation ----------------------------------------------------

    def access(self, address: int, is_write: bool = False) -> CacheAccessResult:
        """Look up ``address``; on a miss, allocate the line (fill assumed).

        The caller is responsible for charging the miss latency; this method
        only updates tag/replacement state and returns hit/writeback facts.
        """
        index, tag = self._index_and_tag(address)
        lines = self._sets[index]
        if lines is None:
            lines = self._build_set(index)
        self.counters.add("accesses")
        if is_write:
            self.counters.add("writes")

        for way, line in enumerate(lines):
            if line.valid and line.tag == tag:
                self.counters.add("hits")
                if is_write and self.config.write_back:
                    line.dirty = True
                self._touch(index, way)
                return CacheAccessResult(hit=True)

        self.counters.add("misses")
        way = self._choose_victim(index, lines)
        victim = lines[way]
        writeback: Optional[int] = None
        if victim.valid and victim.dirty:
            self.counters.add("writebacks")
            victim_block = (victim.tag << self._index_mask.bit_length()) | index
            writeback = victim_block << self._offset_bits
        victim.tag = tag
        victim.valid = True
        victim.dirty = is_write and self.config.write_back
        self._touch(index, way)
        return CacheAccessResult(hit=False, writeback_address=writeback)

    def probe(self, address: int) -> bool:
        """Non-destructive lookup: True if the line is resident."""
        index, tag = self._index_and_tag(address)
        return any(line.valid and line.tag == tag
                   for line in self._sets[index] or ())

    def invalidate(self, address: int) -> bool:
        """Drop the line containing ``address`` if resident; True if dropped.

        Dirty data is discarded (used by failure-injection tests)."""
        index, tag = self._index_and_tag(address)
        for line in self._sets[index] or ():
            if line.valid and line.tag == tag:
                line.valid = False
                line.dirty = False
                return True
        return False

    def flush(self) -> List[int]:
        """Invalidate everything; returns addresses of dirty lines dropped."""
        dirty: List[int] = []
        for index, lines in enumerate(self._sets):
            for line in lines or ():
                if line.valid and line.dirty:
                    block = (line.tag << self._index_mask.bit_length()) | index
                    dirty.append(block << self._offset_bits)
                line.valid = False
                line.dirty = False
        return dirty

    def _build_set(self, index: int) -> List[_Line]:
        """Create set ``index``'s lines and replacement state (all invalid)."""
        lines = [_Line() for __ in range(self._ways)]
        self._sets[index] = lines
        self._lru[index] = list(range(self._ways))
        return lines

    # ---- replacement (LRU) -------------------------------------------------

    def _touch(self, index: int, way: int) -> None:
        order = self._lru[index]
        order.remove(way)
        order.append(way)

    def _choose_victim(self, index: int, lines: List[_Line]) -> int:
        # Prefer an invalid way; else the least recently used.
        for way, line in enumerate(lines):
            if not line.valid:
                return way
        return self._lru[index][0]

    # ---- statistics ----------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        return self.counters.ratio("hits", "accesses")

    def __repr__(self) -> str:
        cfg = self.config
        return (f"Cache({cfg.name}, {cfg.size_bytes // 1024} KiB, "
                f"{cfg.associativity}-way, {cfg.replacement})")
