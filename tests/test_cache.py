"""Tests for the set-associative cache model."""

import tracemalloc

import pytest

from repro.config import CacheConfig, SystemConfig
from repro.memory.cache import Cache
from repro.sim.simulator import Simulator


def make_cache(sets=4, ways=2, line=64, **kwargs):
    size = sets * ways * line
    return Cache(CacheConfig(name="T", size_bytes=size, line_bytes=line,
                             associativity=ways, **kwargs))


class TestBasicHitMiss:
    def test_first_access_misses_second_hits(self):
        cache = make_cache()
        assert cache.access(0x1000) == (False, None)
        assert cache.access(0x1000) == (True, None)

    def test_same_line_different_offset_hits(self):
        cache = make_cache(line=64)
        cache.access(0x1000)
        assert cache.access(0x103F)[0]

    def test_adjacent_line_misses(self):
        cache = make_cache(line=64)
        cache.access(0x1000)
        assert not cache.access(0x1040)[0]

    def test_line_address(self):
        cache = make_cache(line=64)
        assert cache.line_address(0x1234) == 0x1200

    def test_counters(self):
        cache = make_cache()
        cache.access(0x0)
        cache.access(0x0)
        cache.access(0x40)
        assert cache.counters.get("accesses") == 3
        assert cache.counters.get("hits") == 1
        assert cache.counters.get("misses") == 2
        assert cache.hit_rate == pytest.approx(1 / 3)


class TestLru:
    def test_lru_evicts_least_recently_used(self):
        cache = make_cache(sets=1, ways=2)
        cache.access(0x000)   # way A
        cache.access(0x040)   # way B
        cache.access(0x000)   # touch A -> B is LRU
        cache.access(0x080)   # evicts B
        assert cache.probe(0x000)
        assert not cache.probe(0x040)

    def test_lru_full_set_cycles(self):
        cache = make_cache(sets=1, ways=4)
        for i in range(4):
            cache.access(i * 0x40)
        cache.access(4 * 0x40)  # evicts line 0
        assert not cache.probe(0x000)
        assert all(cache.probe(i * 0x40) for i in range(1, 5))


class TestWriteback:
    def test_dirty_eviction_reports_writeback_address(self):
        cache = make_cache(sets=1, ways=1)
        cache.access(0x000, is_write=True)
        hit, writeback = cache.access(0x040)
        assert not hit
        assert writeback == 0x000

    def test_clean_eviction_no_writeback(self):
        cache = make_cache(sets=1, ways=1)
        cache.access(0x000, is_write=False)
        assert cache.access(0x040)[1] is None

    def test_write_hit_marks_dirty(self):
        cache = make_cache(sets=1, ways=1)
        cache.access(0x000, is_write=False)
        cache.access(0x000, is_write=True)  # hit, marks dirty
        assert cache.access(0x040)[1] == 0x000

    def test_writeback_address_maps_to_same_set(self):
        cache = make_cache(sets=4, ways=1)
        address = 4 * 0x40 * 3 + 0x40  # set 1, some tag
        cache.access(address, is_write=True)
        conflicting = address + 4 * 0x40  # same set, different tag
        assert cache.access(conflicting)[1] == cache.line_address(address)


class TestMaintenance:
    def test_probe_does_not_update_state(self):
        cache = make_cache(sets=1, ways=2)
        cache.access(0x000)
        cache.access(0x040)
        cache.probe(0x000)  # must NOT refresh LRU position of line 0
        cache.access(0x080)
        assert not cache.probe(0x000)  # line 0 was still LRU

    def test_flush_returns_dirty_lines(self):
        cache = make_cache(sets=2, ways=2)
        cache.access(0x000, is_write=True)
        cache.access(0x040, is_write=False)
        dirty = cache.flush()
        assert dirty == [0x000]
        assert not cache.probe(0x000)
        assert not cache.probe(0x040)


class TestLazySets:
    def test_untouched_sets_are_empty(self):
        cache = make_cache(sets=4, ways=2)
        assert cache.probe(0x40) is False
        assert cache.flush() == []

    def test_flush_skips_untouched_sets(self):
        cache = make_cache(sets=4, ways=2)
        cache.access(0xC0, is_write=True)
        cache.access(0x40, is_write=True)
        assert cache.flush() == [0x40, 0xC0]

    def test_simulator_builds_no_tag_array_up_front(self):
        Simulator(SystemConfig())  # one-time module caches are not counted
        tracemalloc.start()
        try:
            simulator = Simulator(SystemConfig())
            allocated, __ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert simulator.hierarchy.l2.probe(0) is False
        assert allocated < 1 << 20


class TestGeometry:
    def test_distinct_sets_do_not_conflict(self):
        cache = make_cache(sets=4, ways=1)
        # Fill every set; none should evict another.
        for set_index in range(4):
            cache.access(set_index * 0x40)
        assert all(cache.probe(set_index * 0x40) for set_index in range(4))

    def test_single_set_cache(self):
        cache = make_cache(sets=1, ways=4)
        cache.access(0x0)
        assert cache.access(0x0)[0]

    def test_direct_mapped(self):
        cache = make_cache(sets=4, ways=1)
        cache.access(0x000)
        cache.access(0x400)  # same set (4 sets * 64 B span = 0x100... depends)
        # 4 sets of 64 B lines: set = (addr >> 6) & 3; 0x000 and 0x100 share set 0.
        cache2 = make_cache(sets=4, ways=1)
        cache2.access(0x000)
        cache2.access(0x100)
        assert not cache2.probe(0x000)
