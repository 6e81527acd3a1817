"""Tests for the set-associative cache model."""

import tracemalloc

import pytest

from repro.config import CacheConfig, SystemConfig
from repro.memory.cache import Cache
from repro.sim.simulator import Simulator


def make_cache(sets=4, ways=2, line=64, replacement="lru", **kwargs):
    size = sets * ways * line
    return Cache(CacheConfig(name="T", size_bytes=size, line_bytes=line,
                             associativity=ways, replacement=replacement,
                             **kwargs))


class TestBasicHitMiss:
    def test_first_access_misses_second_hits(self):
        cache = make_cache()
        assert not cache.access(0x1000).hit
        assert cache.access(0x1000).hit

    def test_same_line_different_offset_hits(self):
        cache = make_cache(line=64)
        cache.access(0x1000)
        assert cache.access(0x103F).hit

    def test_adjacent_line_misses(self):
        cache = make_cache(line=64)
        cache.access(0x1000)
        assert not cache.access(0x1040).hit

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


def writeback_sequence(replacement):
    """Writeback addresses of an all-write stream over 4 sets x 4 ways.

    Set 0 overflows, then the untouched set 3 fills and overflows, then
    set 0 again: each eviction's victim shows as its writeback address.
    Sets 1 and 2 are never touched.
    """
    cache = Cache(CacheConfig(name="T", size_bytes=4 * 4 * 64, line_bytes=64,
                              associativity=4, replacement=replacement),
                  seed=7)
    return [cache.access((tag * 4 + set_index) * 0x40,
                         is_write=True).writeback_address
            for set_index, tags in ((0, range(6)), (3, range(6)),
                                    (0, (1, 6, 7, 8)))
            for tag in tags]


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


class TestPlru:
    def test_plru_victim_is_not_most_recent(self):
        cache = make_cache(sets=1, ways=4, replacement="plru")
        for i in range(4):
            cache.access(i * 0x40)
        most_recent = 3 * 0x40
        cache.access(4 * 0x40)  # forces an eviction
        assert cache.probe(most_recent)

    def test_plru_victims_across_untouched_sets(self):
        assert writeback_sequence("plru") == [
            None, None, None, None, 0x0, 0x200, None, None, None, None,
            0xC0, 0x2C0, None, 0x300, 0x400, 0x500]

    def test_plru_hits_still_work(self):
        cache = make_cache(sets=2, ways=4, replacement="plru")
        cache.access(0x0)
        assert cache.access(0x0).hit


class TestRandom:
    def test_random_replacement_deterministic_with_seed(self):
        config = CacheConfig(name="T", size_bytes=512, line_bytes=64,
                             associativity=4, replacement="random")
        results_a = []
        results_b = []
        for results in (results_a, results_b):
            cache = Cache(config, seed=7)
            for i in range(20):
                results.append(cache.access(i * 0x40 % 0x400).hit)
        assert results_a == results_b

    def test_random_victims_across_untouched_sets(self):
        # Pins the victim ways and therefore the _rng draw sequence.
        assert writeback_sequence("random") == [
            None, None, None, None, 0x200, 0x100, None, None, None, None,
            0x3C0, 0xC0, 0x0, 0x100, 0x400, 0x600]


class TestWriteback:
    def test_dirty_eviction_reports_writeback_address(self):
        cache = make_cache(sets=1, ways=1)
        cache.access(0x000, is_write=True)
        result = cache.access(0x040)
        assert result.writeback_address == 0x000

    def test_clean_eviction_no_writeback(self):
        cache = make_cache(sets=1, ways=1)
        cache.access(0x000, is_write=False)
        result = cache.access(0x040)
        assert result.writeback_address is None

    def test_write_hit_marks_dirty(self):
        cache = make_cache(sets=1, ways=1)
        cache.access(0x000, is_write=False)
        cache.access(0x000, is_write=True)  # hit, marks dirty
        result = cache.access(0x040)
        assert result.writeback_address == 0x000

    def test_writeback_address_maps_to_same_set(self):
        cache = make_cache(sets=4, ways=1)
        address = 4 * 0x40 * 3 + 0x40  # set 1, some tag
        cache.access(address, is_write=True)
        conflicting = address + 4 * 0x40  # same set, different tag
        result = cache.access(conflicting)
        assert result.writeback_address == cache.line_address(address)


class TestMaintenance:
    def test_probe_does_not_update_state(self):
        cache = make_cache(sets=1, ways=2)
        cache.access(0x000)
        cache.access(0x040)
        cache.probe(0x000)  # must NOT refresh LRU position of line 0
        cache.access(0x080)
        assert not cache.probe(0x000)  # line 0 was still LRU

    def test_invalidate_drops_line(self):
        cache = make_cache()
        cache.access(0x1000)
        assert cache.invalidate(0x1000)
        assert not cache.probe(0x1000)

    def test_invalidate_missing_line_returns_false(self):
        assert not make_cache().invalidate(0x9000)

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
        assert cache.invalidate(0x40) is False
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
        assert cache.access(0x0).hit

    def test_direct_mapped(self):
        cache = make_cache(sets=4, ways=1)
        cache.access(0x000)
        cache.access(0x400)  # same set (4 sets * 64 B span = 0x100... depends)
        # 4 sets of 64 B lines: set = (addr >> 6) & 3; 0x000 and 0x100 share set 0.
        cache2 = make_cache(sets=4, ways=1)
        cache2.access(0x000)
        cache2.access(0x100)
        assert not cache2.probe(0x000)
