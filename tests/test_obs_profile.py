"""Tests for the self-profiling harness (repro.obs.profile).

This is host-side tooling — the one module allowed to read the wall
clock — so the tests assert structure and monotonicity, never absolute
times.
"""

from repro.obs import PROFILE_SCHEMA, SelfProfiler, peak_rss_bytes
from repro.obs.profile import StageTimer


class TestStageTimer:
    def test_events_per_sec_guards_zero_wall(self):
        timer = StageTimer("s")
        timer.add_events(100)
        assert timer.events_per_sec == 0.0
        timer.wall_s = 2.0
        assert timer.events_per_sec == 50.0

    def test_snapshot_keys(self):
        snap = StageTimer("s").snapshot()
        assert set(snap) == {"name", "wall_s", "events", "events_per_sec"}


class TestSelfProfiler:
    def test_stage_records_wall_time(self):
        profiler = SelfProfiler()
        with profiler.stage("work") as stage:
            stage.add_events(1000)
        report = profiler.report()
        assert report["schema"] == PROFILE_SCHEMA
        assert report["total_wall_s"] >= 0.0
        [stage_snap] = report["stages"]
        assert stage_snap["name"] == "work"
        assert stage_snap["events"] == 1000

    def test_repeated_stage_names_accumulate(self):
        profiler = SelfProfiler()
        for __ in range(3):
            with profiler.stage("loop") as stage:
                stage.add_events(10)
        report = profiler.report()
        assert len(report["stages"]) == 1
        assert report["stages"][0]["events"] == 30

    def test_stage_order_preserved(self):
        profiler = SelfProfiler()
        with profiler.stage("setup"):
            pass
        with profiler.stage("simulate"):
            pass
        assert [s["name"] for s in profiler.report()["stages"]] == \
            ["setup", "simulate"]

    def test_exception_still_charges_the_stage(self):
        profiler = SelfProfiler()
        try:
            with profiler.stage("broken"):
                raise ValueError("boom")
        except ValueError:
            pass
        assert profiler.report()["stages"][0]["wall_s"] >= 0.0

    def test_trace_malloc_peak(self):
        profiler = SelfProfiler(trace_malloc=True)
        with profiler.stage("alloc"):
            blob = ["x" * 100 for __ in range(1000)]
            del blob
        peak = profiler.report()["peak_traced_bytes"]
        assert peak is not None and peak > 0

    def test_without_trace_malloc_peak_is_none(self):
        profiler = SelfProfiler()
        with profiler.stage("s"):
            pass
        assert profiler.report()["peak_traced_bytes"] is None


class TestPeakRss:
    def test_positive_on_posix(self):
        rss = peak_rss_bytes()
        # None only on platforms without the resource module.
        if rss is not None:
            # A running CPython interpreter needs at least a few MiB.
            assert rss > 1_000_000
