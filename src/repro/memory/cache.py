"""Set-associative cache with LRU replacement.

The cache tracks tag state only (no data payloads — the simulator never
needs values).  Stores are write-allocate; with ``config.write_back`` (the
default) a store hit marks the line dirty and evicting a dirty line
reports a write-back so the hierarchy can charge DRAM write traffic.
With ``write_back=False`` the cache is write-through: stores never dirty
a line, so evictions are free and the write traffic is charged at access
time by the caller.

:class:`Cache` is the one implementation of these tag rules: the oracle's
hierarchy, the fast kernel's L2 accesses and its per-trace L1 pass all
call its ``access``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.config import CacheConfig
from repro.stats import CounterSet

# Counter slots, in the order ``Cache.counters`` lists them.
_COUNTER_NAMES = ("accesses", "writes", "hits", "misses", "writebacks")
_ACC, _WR, _HIT, _MISS, _WB = range(len(_COUNTER_NAMES))

_MISSING = object()


class Cache:
    """One level of a write-allocate set-associative cache.

    Write-back versus write-through is selected by ``config.write_back``.
    Each set is an insertion-ordered ``{tag: dirty}`` dict: the first key
    is the least recently used line (the victim), and a hit re-inserts
    its key at the tail.

    ``access(address, is_write=False)`` looks ``address`` up and, on a
    miss, allocates the line (fill assumed).  It returns ``(hit,
    writeback_address)``, the second being the byte address of an evicted
    dirty line or None (only ever set on a miss that allocated over a
    dirty victim).  The caller charges the latency.  ``access`` is a
    closure built per instance over the sets and the counter slots, so
    each call reads them as cheaply as locals.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._offset_bits = offset_bits = config.line_bytes.bit_length() - 1
        self._index_mask = index_mask = config.num_sets - 1
        self._index_bits = index_bits = index_mask.bit_length()
        ways = config.associativity
        write_back = config.write_back
        sets: List[Dict[int, bool]] = [{} for __ in range(config.num_sets)]
        self._sets = sets
        self._counts = counts = [0] * len(_COUNTER_NAMES)

        def access(address: int,
                   is_write: bool = False) -> Tuple[bool, Optional[int]]:
            block = address >> offset_bits
            index = block & index_mask
            tag = block >> index_bits
            lines = sets[index]
            counts[_ACC] += 1
            if is_write:
                counts[_WR] += 1
            dirty = lines.pop(tag, _MISSING)
            if dirty is not _MISSING:
                counts[_HIT] += 1
                lines[tag] = True if is_write and write_back else dirty
                return True, None
            counts[_MISS] += 1
            writeback = None
            if len(lines) >= ways:
                victim = next(iter(lines))
                if lines.pop(victim):
                    counts[_WB] += 1
                    writeback = (((victim << index_bits) | index)
                                 << offset_bits)
            lines[tag] = True if is_write and write_back else False
            return False, writeback

        self.access = access

    # ---- address mapping ---------------------------------------------------

    def line_address(self, address: int) -> int:
        """Byte address of the start of the line containing ``address``."""
        return (address >> self._offset_bits) << self._offset_bits

    # ---- state -------------------------------------------------------------

    def probe(self, address: int) -> bool:
        """Non-destructive lookup: True if the line is resident."""
        block = address >> self._offset_bits
        return (block >> self._index_bits) in self._sets[
            block & self._index_mask]

    def flush(self) -> List[int]:
        """Invalidate everything; returns addresses of dirty lines dropped."""
        dirty: List[int] = []
        for index, lines in enumerate(self._sets):
            for tag, line_dirty in lines.items():
                if line_dirty:
                    block = (tag << self._index_bits) | index
                    dirty.append(block << self._offset_bits)
            lines.clear()
        return dirty

    def take_over(self, region: "Cache") -> None:
        """Become the cache that ran ``region``'s accesses from this state.

        ``region`` is a cache of the same geometry that started from this
        cache's tags: its tag state is copied here and its counts are
        added to this cache's.  ``region`` itself is left as it is.
        """
        self._sets[:] = [dict(lines) for lines in region._sets]
        counts = self._counts
        for slot, count in enumerate(region._counts):
            counts[slot] += count

    # ---- statistics -------------------------------------------------------

    @property
    def counters(self) -> CounterSet:
        """Event counts since the last reset; a key is present iff nonzero."""
        counters = CounterSet()
        for name, count in zip(_COUNTER_NAMES, self._counts):
            if count:
                counters.add(name, count)
        return counters

    @property
    def hit_rate(self) -> float:
        """Fraction of counted accesses that hit."""
        return self.counters.ratio("hits", "accesses")

    def reset_measurements(self) -> None:
        """Zero the counters (not the tag state)."""
        self._counts[:] = [0] * len(_COUNTER_NAMES)

    def __repr__(self) -> str:
        cfg = self.config
        return (f"Cache({cfg.name}, {cfg.size_bytes // 1024} KiB, "
                f"{cfg.associativity}-way, {cfg.replacement})")
