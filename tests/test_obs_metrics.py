"""Tests for the observability metrics primitives (repro.obs.metrics)."""

import threading

import pytest

from repro.errors import ReproError
from repro.obs import Counter, Histogram, MetricError, Registry
from repro.obs.metrics import Gauge, default_registry


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("events")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self):
        counter = Counter("events")
        with pytest.raises(MetricError):
            counter.inc(-1)

    def test_metric_error_is_repro_error(self):
        assert issubclass(MetricError, ReproError)

    def test_snapshot(self):
        counter = Counter("events")
        counter.inc(3)
        assert counter.snapshot() == {
            "name": "events", "kind": "counter", "value": 3,
        }


class TestGauge:
    def test_set_and_add_both_ways(self):
        gauge = Gauge("depth")
        gauge.set(10)
        gauge.add(-4)
        assert gauge.value == 6
        assert gauge.snapshot()["kind"] == "gauge"


class TestHistogram:
    def test_bucketing_with_under_and_overflow(self):
        hist = Histogram("lat", edges=[10, 100, 1000])
        for value in (5, 10, 50, 100, 5000):
            hist.observe(value)
        snap = hist.snapshot()
        # [<10, [10,100), [100,1000), >=1000]
        assert snap["buckets"] == [1, 2, 1, 1]
        assert snap["count"] == 5
        assert hist.mean == pytest.approx(5165 / 5)

    def test_bad_edges_rejected(self):
        with pytest.raises(MetricError):
            Histogram("h", edges=[1])
        with pytest.raises(MetricError):
            Histogram("h", edges=[5, 5, 10])

    def test_empty_histogram_mean_is_zero(self):
        assert Histogram("h", edges=[1, 2]).mean == 0.0


class TestRegistry:
    def test_get_or_create_shares_by_name(self):
        registry = Registry()
        first = registry.counter("a")
        second = registry.counter("a")
        assert first is second
        assert len(registry) == 1

    def test_kind_collision_is_an_error(self):
        registry = Registry()
        registry.counter("a")
        with pytest.raises(MetricError):
            registry.gauge("a")
        with pytest.raises(MetricError):
            registry.histogram("a", edges=[1, 2])

    def test_collect_is_sorted_by_name(self):
        registry = Registry()
        registry.counter("zeta").inc()
        registry.gauge("alpha").set(1)
        names = [snap["name"] for snap in registry.collect()]
        assert names == sorted(names)

    def test_contains_get_and_reset(self):
        registry = Registry()
        registry.counter("a")
        assert "a" in registry
        assert registry.get("a") is not None
        assert registry.get("missing") is None
        registry.reset()
        assert len(registry) == 0

    def test_default_registry_is_process_wide(self):
        assert default_registry() is default_registry()

    def test_get_or_create_is_thread_safe(self):
        # Unlocked get-then-create lets two threads each register "the"
        # instrument; counts then split across two objects and one
        # snapshot silently loses the other's increments.  Every thread
        # must get the identical object, every time.
        registry = Registry()
        workers = 8
        barrier = threading.Barrier(workers)
        created = []

        def create(name):
            barrier.wait()
            created.append(registry.counter(name))

        for round_no in range(20):
            created.clear()
            name = f"shared.{round_no}"
            threads = [threading.Thread(target=create, args=(name,))
                       for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len({id(metric) for metric in created}) == 1
            assert created[0] is registry.get(name)
