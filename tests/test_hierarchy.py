"""Tests for the L1/L2/DRAM hierarchy composition."""

import pytest

from repro.config import CacheConfig, DramConfig
from repro.memory.dram import Dram
from repro.memory.hierarchy import MemoryHierarchy

FREQ = 2e9


def make_hierarchy(l1_mshrs=4, l2_mshrs=4, shared_dram=None):
    l1 = CacheConfig(name="L1D", size_bytes=1024, line_bytes=64,
                     associativity=2, hit_latency_cycles=2, mshr_entries=l1_mshrs)
    l2 = CacheConfig(name="L2", size_bytes=4096, line_bytes=64,
                     associativity=4, hit_latency_cycles=10, mshr_entries=l2_mshrs)
    return MemoryHierarchy(l1, l2, DramConfig(refresh_latency_ns=0.0), FREQ,
                           shared_dram=shared_dram)


class TestLevels:
    def test_l1_hit(self):
        hierarchy = make_hierarchy()
        hierarchy.access(0x1000, cycle=0)
        result = hierarchy.access(0x1000, cycle=1000)
        assert result.level == "l1"
        assert result.total_cycles == 2
        assert not result.off_chip

    def test_first_touch_goes_to_dram(self):
        hierarchy = make_hierarchy()
        result = hierarchy.access(0x1000, cycle=0)
        assert result.level == "dram"
        assert result.off_chip
        assert result.dram is not None

    def test_l2_hit_after_l1_eviction(self):
        hierarchy = make_hierarchy()
        # L1: 1 KiB, 2-way, 8 sets; lines 0x0000 / 0x0200 / 0x0400 share set 0.
        hierarchy.access(0x0000, cycle=0)
        hierarchy.access(0x0200, cycle=1000)
        hierarchy.access(0x0400, cycle=2000)  # evicts 0x0000 from L1
        result = hierarchy.access(0x0000, cycle=3000)
        assert result.level == "l2"
        assert not result.off_chip
        assert result.total_cycles == 2 + 10

    def test_dram_latency_dominates(self):
        hierarchy = make_hierarchy()
        result = hierarchy.access(0x1000, cycle=0)
        # >= controller + tRCD + tCAS + service + bus at 2 GHz (~140 cycles).
        assert result.total_cycles > 100


class TestMshrMerging:
    def test_merge_pays_residual_latency(self):
        hierarchy = make_hierarchy()
        first = hierarchy.access(0x1000, cycle=0)
        # Second access to the same line 40 cycles later merges.
        second = hierarchy.access(0x1000, cycle=40)
        assert second.merged
        assert second.level == "l1"
        residual = first.total_cycles - 40
        assert second.total_cycles == pytest.approx(2 + residual, abs=1)

    def test_merge_cheaper_than_fresh_miss(self):
        hierarchy = make_hierarchy()
        first = hierarchy.access(0x1000, cycle=0)
        merged = hierarchy.access(0x1000, cycle=first.total_cycles // 2)
        assert merged.total_cycles < first.total_cycles

    def test_l1_mshr_full_stalls(self):
        hierarchy = make_hierarchy(l1_mshrs=1)
        hierarchy.access(0x1000, cycle=0)
        result = hierarchy.access(0x8000, cycle=1)  # different line, MSHR full
        assert result.mshr_wait_cycles > 0

    def test_counters_track_merges(self):
        hierarchy = make_hierarchy()
        hierarchy.access(0x1000, cycle=0)
        hierarchy.access(0x1000, cycle=10)
        assert hierarchy.counters.get("l1_mshr_merges") == 1


class TestWritebacks:
    def test_dirty_l1_eviction_counted(self):
        hierarchy = make_hierarchy()
        hierarchy.access(0x0000, cycle=0, is_write=True)
        hierarchy.access(0x0200, cycle=5000)
        hierarchy.access(0x0400, cycle=10_000)  # evicts dirty 0x0000
        assert hierarchy.counters.get("writebacks") >= 1

    def test_writeback_does_not_inflate_load_latency(self):
        clean = make_hierarchy()
        dirty = make_hierarchy()
        clean.access(0x0000, cycle=0, is_write=False)
        dirty.access(0x0000, cycle=0, is_write=True)
        for hierarchy in (clean, dirty):
            hierarchy.access(0x0200, cycle=50_000)
        lat_clean = clean.access(0x0400, cycle=100_000).total_cycles
        lat_dirty = dirty.access(0x0400, cycle=100_000).total_cycles
        assert lat_dirty == lat_clean


class TestSharedDram:
    def test_shared_dram_couples_bank_state(self):
        shared = Dram(DramConfig(refresh_latency_ns=0.0))
        hier_a = make_hierarchy(shared_dram=shared)
        hier_b = make_hierarchy(shared_dram=shared)
        hier_a.access(0x1000, cycle=0)
        # Same row from the other core: row buffer already open (row hit).
        result = hier_b.access(0x1000 + 0x40, cycle=10_000)
        assert result.dram is not None
        assert result.dram[2] == "row_hit"  # (latency_ns, bank, kind)

    def test_private_dram_by_default(self):
        hier_a = make_hierarchy()
        hier_b = make_hierarchy()
        assert hier_a.dram is not hier_b.dram


class TestStatistics:
    def test_mpki(self):
        hierarchy = make_hierarchy()
        hierarchy.access(0x1000, cycle=0)  # one L2 miss
        assert hierarchy.mpki(1000) == pytest.approx(1.0)

    def test_mpki_zero_instructions(self):
        assert make_hierarchy().mpki(0) == 0.0
