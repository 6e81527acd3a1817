"""Two-level cache hierarchy in front of DRAM.

``MemoryHierarchy`` composes :class:`repro.memory.cache.Cache` (L1, L2),
:class:`repro.memory.mshr.Mshr` per level, and :class:`repro.memory.dram.Dram`
into a single call:

    result = hierarchy.access(address, cycle, is_write=False)

which returns the total access latency in **core cycles** and where the
request was satisfied.  Off-chip accesses (``result.off_chip``) are the
events the MAPG controller gates on.

Modeling choices (documented because they shape the evaluation):

* Misses to a line already in flight merge into the MSHR entry and pay only
  the residual latency — this creates the short-stall population that makes
  naive gating lose energy (F2).
* A full MSHR file stalls the request until the oldest fill returns.
* Dirty evictions issue DRAM writes that occupy the bank (raising later
  queue waits) but do not delay the triggering load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.config import CacheConfig, DramConfig
from repro.memory.cache import Cache
from repro.memory.dram import Dram
from repro.memory.mshr import Mshr
from repro.memory.prefetch import PrefetcherConfig, StridePrefetcher
from repro.obs.spans import NULL_RECORDER, NullRecorder
from repro.stats import CounterSet
from repro.units import NS, cycles_to_ns, seconds_to_cycles_ceil


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one hierarchy access.

    ``level`` is the furthest level that serviced the request: ``"l1"``,
    ``"l2"``, or ``"dram"``.  ``merged`` marks MSHR merges (the request
    piggybacked on an in-flight fill).  ``dram`` carries the DRAM's
    ``(latency_ns, bank, kind)`` when ``level == "dram"``.
    """

    total_cycles: int
    level: str
    merged: bool = False
    mshr_wait_cycles: int = 0
    dram: Optional[Tuple[float, int, str]] = None
    # For merged results: the cycle the in-flight miss originally issued
    # (lets callers compute how long the line has been outstanding).
    in_flight_issue_cycle: Optional[int] = None

    @property
    def off_chip(self) -> bool:
        """True when the request left the chip (the MAPG gating trigger)."""
        return self.level == "dram"


class MemoryHierarchy:
    """L1 -> L2 -> DRAM with per-level MSHRs and write-back traffic."""

    # Bound on the prefetched-line tracking set (useful-prefetch accounting).
    _PREFETCH_TRACK_LIMIT = 4096

    def __init__(self, l1_config: CacheConfig, l2_config: CacheConfig,
                 dram_config: DramConfig, frequency_hz: float,
                 shared_dram: "Dram | None" = None,
                 prefetcher_config: "PrefetcherConfig | None" = None,
                 recorder: "NullRecorder | None" = None) -> None:
        self.l1 = Cache(l1_config)
        self.l2 = Cache(l2_config)
        # Multi-core systems pass one Dram shared by all hierarchies so bank
        # contention couples the cores; single-core builds its own.
        self.dram = shared_dram if shared_dram is not None else Dram(dram_config)
        self.l1_mshr = Mshr(l1_config.mshr_entries)
        self.l2_mshr = Mshr(l2_config.mshr_entries)
        self._frequency_hz = frequency_hz
        self.counters = CounterSet()
        self.prefetcher: "StridePrefetcher | None" = None
        if prefetcher_config is not None and prefetcher_config.enabled:
            self.prefetcher = StridePrefetcher(prefetcher_config)
        self._prefetched_lines: "dict[int, None]" = {}
        # Observability: off-chip accesses become spans on the shared DRAM
        # track; the disabled default costs one attribute check per access.
        self._obs = recorder if recorder is not None else NULL_RECORDER
        if self._obs.enabled:
            self._m_accesses = self._obs.metrics.counter(
                "mem.accesses", help="hierarchy accesses serviced")
            self._m_dram = self._obs.metrics.counter(
                "mem.dram_accesses", help="demand accesses that left the chip")

    def _cycles_to_ns(self, cycles: int) -> float:
        return cycles_to_ns(cycles, self._frequency_hz)

    def _ns_to_cycles(self, ns: float) -> int:
        return seconds_to_cycles_ceil(ns * NS, self._frequency_hz)

    def access(self, address: int, cycle: int, is_write: bool = False,
               pc: int = 0) -> AccessResult:
        """Service one memory instruction issued at ``cycle``.

        ``pc`` identifies the static instruction; the stride prefetcher
        (when configured) trains on it.
        """
        self.counters.add("accesses")
        if self._obs.enabled:
            self._m_accesses.inc()
        line = self.l1.line_address(address)
        l1_lat = self.l1.config.hit_latency_cycles

        # L1 MSHR merge: the line is already being fetched into L1.
        in_flight = self.l1_mshr.lookup(line, cycle)
        if in_flight is not None:
            self.counters.add("l1_mshr_merges")
            total = l1_lat + in_flight.remaining(cycle)
            # The line will be resident when the fill lands; update tag state
            # so the post-fill world is consistent.
            self.l1.access(address, is_write)
            return AccessResult(total, level="l1", merged=True,
                                in_flight_issue_cycle=in_flight.issue_cycle)

        l1_hit, l1_writeback = self.l1.access(address, is_write)
        if l1_hit:
            return AccessResult(l1_lat, level="l1")

        # L1 miss: possibly wait for an MSHR slot, then go to L2.
        mshr_wait = self.l1_mshr.wait_for_free_slot(cycle)
        if mshr_wait:
            self.counters.add("l1_mshr_stalls")
        issue = cycle + mshr_wait
        below = self._access_l2(address, issue, is_write, pc=pc)
        total = mshr_wait + l1_lat + below.total_cycles
        self.l1_mshr.allocate(line, issue, cycle + total)
        if l1_writeback is not None:
            self._writeback(l1_writeback, issue, to_dram=False)
        if self._obs.enabled and below.level == "dram":
            self._m_dram.inc()
            __, bank, kind = (below.dram if below.dram is not None
                              else (0.0, -1, "dram"))
            self._obs.span(
                "dram", kind, cycle, total, category="mem",
                args={"bank": bank, "write": is_write,
                      "mshr_wait_cycles": mshr_wait + below.mshr_wait_cycles})
        return AccessResult(
            total, level=below.level, merged=below.merged,
            mshr_wait_cycles=mshr_wait + below.mshr_wait_cycles, dram=below.dram,
            in_flight_issue_cycle=below.in_flight_issue_cycle)

    def _access_l2(self, address: int, cycle: int, is_write: bool,
                   pc: int = 0) -> AccessResult:
        line = self.l2.line_address(address)
        l2_lat = self.l2.config.hit_latency_cycles
        if self.prefetcher is not None:
            self._run_prefetcher(pc, address, cycle)

        in_flight = self.l2_mshr.lookup(line, cycle)
        if in_flight is not None:
            self.counters.add("l2_mshr_merges")
            if self._prefetched_lines.pop(line, "absent") is None:
                self.counters.add("useful_prefetches")
                self.counters.add("late_prefetches")  # arrived mid-flight
            self.l2.access(address, is_write=False)
            return AccessResult(l2_lat + in_flight.remaining(cycle),
                                level="l2", merged=True,
                                in_flight_issue_cycle=in_flight.issue_cycle)

        l2_hit, l2_writeback = self.l2.access(address, is_write=False)
        if l2_hit:
            if self._prefetched_lines.pop(line, "absent") is None:
                self.counters.add("useful_prefetches")
            return AccessResult(l2_lat, level="l2")

        mshr_wait = self.l2_mshr.wait_for_free_slot(cycle)
        if mshr_wait:
            self.counters.add("l2_mshr_stalls")
        issue = cycle + mshr_wait
        dram_result = self.dram.access(address, self._cycles_to_ns(issue))
        dram_cycles = self._ns_to_cycles(dram_result[0])
        total = mshr_wait + l2_lat + dram_cycles
        self.l2_mshr.allocate(line, issue, cycle + total)
        if l2_writeback is not None:
            self._writeback(l2_writeback, issue, to_dram=True)
        return AccessResult(total, level="dram", mshr_wait_cycles=mshr_wait,
                            dram=dram_result)

    def _run_prefetcher(self, pc: int, address: int, cycle: int) -> None:
        """Train the stride prefetcher and launch its fills toward L2.

        Honest costs: prefetch fills occupy DRAM banks (raising later queue
        waits), take an MSHR slot (dropped when none is free — demands have
        priority), arrive after the full DRAM latency (a demand arriving
        earlier merges and pays the residual — the "late prefetch" case),
        and evict L2 lines through the normal replacement path (pollution).
        """
        for target in self.prefetcher.train(pc, address):
            line = self.l2.line_address(target)
            if self.l2.probe(line) or self.l2_mshr.lookup(line, cycle) is not None:
                self.counters.add("prefetch_redundant")
                continue
            if self.l2_mshr.wait_for_free_slot(cycle) > 0:
                self.counters.add("prefetch_dropped")
                continue
            latency_ns = self.dram.access(line, self._cycles_to_ns(cycle))[0]
            fill_cycle = cycle + self._ns_to_cycles(latency_ns)
            self.l2_mshr.allocate(line, cycle, fill_cycle)
            writeback = self.l2.access(line, is_write=False)[1]
            if writeback is not None:
                self.dram.access(writeback, self._cycles_to_ns(cycle),
                                 is_write=True)
            self.counters.add("prefetch_fills")
            if len(self._prefetched_lines) >= self._PREFETCH_TRACK_LIMIT:
                self._prefetched_lines.pop(next(iter(self._prefetched_lines)))
            self._prefetched_lines[line] = None

    def _writeback(self, address: int, cycle: int, to_dram: bool) -> None:
        """Install an evicted dirty line one level down (off the load's path)."""
        self.counters.add("writebacks")
        if not to_dram:
            # L1 victim lands in L2; a dirty L2 victim may cascade to DRAM.
            writeback = self.l2.access(address, is_write=True)[1]
            if writeback is not None:
                self._writeback(writeback, cycle, to_dram=True)
            return
        self.dram.access(address, self._cycles_to_ns(cycle), is_write=True)

    # ---- statistics ----------------------------------------------------------

    def mpki(self, instructions: int) -> float:
        """Off-chip misses per kilo-instruction (L2 demand misses)."""
        if instructions <= 0:
            return 0.0
        return self.l2.counters.get("misses") / instructions * 1000.0
