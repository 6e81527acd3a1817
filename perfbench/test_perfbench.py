"""Tests of the benchmark itself.

Run from the repository root with ``PYTHONPATH=src python -m pytest
perfbench -q``; they sit outside the tier-1 ``testpaths``.  The last group
runs the benchmark end to end at ``--quick`` size (about half a minute).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracer


# ---- self time ------------------------------------------------------------------

def _fake_clock():
    now = [0]

    def work(units: int) -> None:
        now[0] += units
    return (lambda: now[0]), work


def test_self_time_of_nested_calls_and_generators():
    clock, work = _fake_clock()
    trace = tracer.Tracer(clock=clock)

    class Layer:
        def inner(self):
            work(5)

        def outer(self):
            work(10)
            self.inner()
            self.inner()

        def ops(self, count):
            for index in range(count):
                work(3)
                yield index

        def consume(self):
            for __ in self.ops(4):
                work(1)

    Layer.inner = tracer.wrap_call(trace, "inner", Layer.inner)
    Layer.outer = tracer.wrap_call(trace, "outer", Layer.outer)
    Layer.ops = tracer.wrap_generator(trace, "gen", Layer.ops)
    Layer.consume = tracer.wrap_call(trace, "consume", Layer.consume)
    Layer().outer()
    Layer().consume()

    # [calls, total, self]
    assert trace.totals["outer"] == [1, 20, 10]
    assert trace.totals["inner"] == [2, 10, 10]
    # Four items plus the next() that ends the generator.
    assert trace.totals["gen"] == [5, 12, 12]
    assert trace.totals["consume"] == [1, 16, 4]
    assert trace.counts["gen.items"] == 4
    assert [(name, dur, own, depth) for name, __, dur, own, depth
            in trace.spans] == [("inner", 5, 5, 1), ("inner", 5, 5, 1),
                                ("outer", 20, 10, 0), ("gen", 3, 3, 1),
                                ("gen", 3, 3, 1), ("gen", 3, 3, 1),
                                ("gen", 3, 3, 1), ("gen", 0, 0, 1),
                                ("consume", 16, 4, 0)]


def test_worker_coverage_and_pool_startup():
    def process(spans, totals=None):
        return {"spans": spans, "totals": totals or {}, "counts": {},
                "rss_kb": 2048}

    processes = {
        1: process([("exec.pool", 100, 10, 10, 1),
                    (tracer.REGION, 0, 1000, 900, 0)]),
        # Worker 2 starts 150 ns after the Pool() call and is busy 300 of
        # its 400 ns window; worker 3 is busy its whole 100 ns window.
        2: process([("exec.jobspec.execute", 250, 100, 100, 0),
                    ("exec.jobspec.execute", 450, 200, 200, 0)]),
        3: process([("exec.jobspec.execute", 600, 100, 100, 0)]),
    }
    metrics = tracer.layer_metrics(processes, parent_pid=1)
    assert metrics["exec.pool_startup_s"] == pytest.approx(150e-9)
    assert metrics["trace.coverage"] == pytest.approx(400 / 500)
    assert metrics["trace.other_s"] == pytest.approx(100e-9)
    # Busy time over two workers from the Pool() call to the last span.
    assert metrics["exec.worker_busy_ratio"] == pytest.approx(400 / (2 * 600))
    assert metrics["exec.worker_peak_rss_mb"] == 2
    assert metrics["exec.sweep_self_s"] == pytest.approx(900e-9)
    assert metrics["exec.cell_ms.samples"] == 3

    # A second pool, started at 800, whose one worker starts 50 ns later
    # and is busy 100 of the 150 ns from the Pool() call to its end.
    processes[1]["spans"].insert(1, ("exec.pool", 800, 10, 10, 1))
    processes[4] = process([("exec.jobspec.execute", 850, 100, 100, 0)])
    metrics = tracer.layer_metrics(processes, parent_pid=1)
    assert metrics["exec.pool_startup_s"] == pytest.approx(200e-9)
    assert metrics["exec.worker_busy_ratio"] == pytest.approx(
        500 / (2 * 600 + 150))


# ---- digest checks --------------------------------------------------------------

def _report(digests, labels=("a", "b", "c")):
    return {"labels": list(labels), "digests": digests, "traced": False,
            "wall_s": 2.0, "cells": len(labels), "instructions": 100,
            "setup_s": 0.2, "peak_rss_mb": 40.0,
            "simulated": {"mapg_saving_pct": 10.0, "mapg_penalty_pct": 0.1}}


def test_injected_digest_mismatch_is_named_and_counted():
    good = {"a": "1", "b": "2", "c": "3"}
    passes = [_report(dict(good)), _report({"a": "1", "b": "2"})]
    recorded = dict(good, b="injected")
    result = run.workload_result(passes, [("the recorded digests", recorded)],
                                 run.load_definitions())
    assert result["attempted"] == 6
    # b disagrees in both passes; c is missing from the second.
    assert result["failed"] == 3
    assert result["metrics"]["failed_frac"]["median"] == pytest.approx(0.5)
    assert result["mismatches"] == [
        "b: digest differs from the recorded digests", "c: no result"]


def test_a_pass_that_changes_between_repeats_fails():
    passes = [_report({"a": "1", "b": "2", "c": "3"}),
              _report({"a": "1", "b": "9", "c": "3"})]
    attempted, failed, named = run.check(passes, [])
    assert (attempted, failed) == (6, 1)
    assert named == ["b: digest differs from the first pass"]


# ---- compare --------------------------------------------------------------------

def test_relative_bound():
    before = [100.0, 101.0, 99.0]
    assert run.verdict(before, [95.0, 96.0, 94.0], "higher", 0.1) == "ok"
    assert run.verdict(before, [85.0, 86.0, 84.0], "higher", 0.1) == "regressed"
    assert run.verdict(before, [120.0, 121.0, 119.0], "higher", 0.1) == "better"
    assert run.verdict(before, [85.0, 86.0, 84.0], "lower", 0.1) == "better"


def test_spread_beyond_the_bound_is_unresolved():
    noisy = [100.0, 125.0, 90.0]
    assert run.verdict(noisy, [95.0, 96.0, 94.0], "higher", 0.1) == "unresolved"
    # Unless the median moved past the bound and every run of one side
    # beats every run of the other, in either direction.
    assert run.verdict(noisy, [130.0, 140.0, 150.0], "higher", 0.1) == "better"
    assert run.verdict(noisy, [60.0, 70.0, 80.0], "higher", 0.1) == "regressed"
    assert run.verdict([100.0, 101.0, 99.0], [50.0, 70.0, 40.0],
                       "higher", 0.25) == "regressed"
    assert run.verdict([100.0, 101.0, 99.0], [50.0, 70.0, 40.0],
                       "lower", 0.25) == "better"
    # Runs that are all worse, with the median within the bound, decide
    # nothing; runs that are all better are at least ok.
    assert run.verdict(noisy, [80.0, 85.0, 60.0], "higher", 0.25) == "unresolved"
    assert run.verdict(noisy, [126.0, 127.0, 128.0], "higher", 0.3) == "ok"


def test_absolute_floor():
    before, after = [0.20, 0.20, 0.21], [0.24, 0.24, 0.25]
    assert run.verdict(before, after, "lower", 0.1) == "regressed"
    assert run.verdict(before, after, "lower", 0.1, floor=0.05) == "ok"


def _document(**medians):
    metrics = {name: {"unit": "x", "runs": [value] * 3, "median": value,
                      "min": value, "max": value}
               for name, value in medians.items()}
    return {"workloads": {"figure-grid": {"metrics": metrics}}}


def test_exact_metrics_must_not_move():
    definitions = run.load_definitions()
    base = dict(cells_per_s=10.0, setup_s=0.2, failed_frac=0.0,
                mapg_saving_pct=11.75)
    lines, ok = run.compare(_document(**base), _document(**base), definitions)
    assert ok and all(" ok " in line for line in lines)
    moved = dict(base, mapg_saving_pct=11.76)
    lines, ok = run.compare(_document(**base), _document(**moved), definitions)
    assert not ok
    assert "figure-grid mapg_saving_pct differs 11.75 -> 11.76 x" in lines
    failing = dict(base, failed_frac=0.01)
    assert not run.compare(_document(**base), _document(**failing),
                           definitions)[1]


# ---- workload shapes ------------------------------------------------------------

@pytest.mark.parametrize("quick", [True, False])
def test_labels_are_unique_and_shared_cells_match(quick):
    import shapes

    labels = {workload: [cell.label for cell in shapes.cells(
                  shapes.build(workload, 11, quick))]
              for workload in run.WORKLOADS}
    for names in labels.values():
        assert len(set(names)) == len(names)
    # Every pooled sweep cell is also a serial one; the grids share seed 11.
    assert set(labels["sweep-pool"]) < set(labels["sweep-serial"])
    assert set(labels["figure-grid"]) < set(labels["grid-fast"])


def test_cells_reused_from_the_cache_are_not_executed():
    import shapes

    pooled = shapes.build("sweep-pool", 11, quick=True)
    # F4's default-DRAM never and mapg cells are F3's, already cached.
    assert [cell.label for cell, ran in zip(shapes.cells(pooled),
                                            shapes.executed("sweep-pool", pooled))
            if not ran] == ["F4/gcc_like/never/seed11/dram1",
                            "F4/gcc_like/mapg/seed11/dram1"]
    serial = shapes.build("sweep-serial", 11, quick=True)
    assert all(shapes.executed("sweep-serial", serial))


# ---- end to end -----------------------------------------------------------------

def _run(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def quick_document():
    proc = _run("--quick", "--trace")
    assert proc.returncode == 0, proc.stderr
    path = proc.stdout.strip().splitlines()[-1].split()[-1]
    with open(os.path.join(run.ROOT, path), encoding="utf-8") as handle:
        document = json.load(handle)
    yield path, document


def test_quick_run_emits_every_named_metric(quick_document):
    __, document = quick_document
    definitions = run.load_definitions()
    for workload in run.WORKLOADS:
        result = document["workloads"][workload]
        assert result["failed"] == 0
        names = [m["name"] for m in definitions["end_to_end"]]
        assert set(result["metrics"]) == set(names) | set(run.EXACT_METRICS)
        for name in names:
            assert len(result["metrics"][name]["runs"]) == run.REPEATS
        assert set(result["layers"]) == {m["name"]
                                         for m in definitions["per_layer"]}


def test_quick_run_layer_checks(quick_document):
    path, document = quick_document
    layers = {workload: {name: value["value"] for name, value
                         in document["workloads"][workload]["layers"].items()}
              for workload in run.WORKLOADS}
    assert layers["grid-fast"]["fastsim.kernel.fast_path_ratio"] == 1.0
    assert layers["figure-grid"]["exec.tracestore.hit_ratio"] == \
        pytest.approx(4 / 5)
    assert layers["sweep-pool"]["exec.cache.hit_ratio"] == \
        pytest.approx(2 / 20)
    for workload in run.WORKLOADS:
        assert layers[workload]["trace.coverage"] >= 0.9
    from repro.obs import validate_chrome_trace

    with open(os.path.join(run.ROOT, path[:-5] + "-sweep-pool.trace.json"),
              encoding="utf-8") as handle:
        assert validate_chrome_trace(json.load(handle)) == []


def test_traced_and_untraced_runs_give_identical_digests(quick_document):
    __, document = quick_document
    for workload in run.WORKLOADS:
        passes = document["workloads"][workload]["passes"]
        assert [p["traced"] for p in passes] == [False] * run.REPEATS + [True]
        assert len({p["digest_set"] for p in passes}) == 1


def test_single_workload_mode_prints_one_result_line():
    proc = _run("--quick", "--workload", "sweep-pool", "--seed", "3",
                "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {
        m["name"] for m in run.load_definitions()["per_layer"]}


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(run.DEFINITIONS, tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--quick", "--workload", "figure-grid", "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
