"""Gate logic of scripts/bench_perf.py, fed synthetic perfbench/1 documents.

Nothing here measures or spawns a process: the script is imported by path
and only its pure ``gate`` and ``comparable`` functions are called.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_perf.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("bench_perf", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_perf = _load_script()

# Medians from a --quick run on a 2-vCPU host.
CELLS_PER_S = {"figure-grid": 11.7, "grid-fast": 14.1, "sweep-serial": 19.8,
               "sweep-pool": 38.5}


def _document(quick=True, seed=11, **cells_per_s):
    rates = dict(CELLS_PER_S, **{k.replace("_", "-"): v
                                 for k, v in cells_per_s.items()})
    return {
        "schema": "perfbench/1", "quick": quick, "seed": seed,
        "workloads": {
            name: {"attempted": 40, "failed": 0,
                   "metrics": {"cells_per_s": {
                       "unit": "cells/s", "median": rate, "min": rate,
                       "max": rate, "runs": [rate]}}}
            for name, rate in rates.items()},
    }


def _cache(cold_s=1.1, warm_s=0.007, oracle_s=5.7, identical=True,
           oracle_identical=True):
    return {"cells": 9, "num_ops": 10_000, "cold_s": cold_s,
            "warm_s": warm_s, "oracle_s": oracle_s, "identical": identical,
            "oracle_identical": oracle_identical}


def _pool(pool_s=4.4, inline_s=5.9, cpus=2, pool_mode="pool",
          identical=True, speedups=None):
    if speedups is None:
        speedups = [inline_s / pool_s] * 3
    row = {"cells": 8, "num_ops": 187_500, "cpus": cpus,
           "pool_s": [pool_s] * 3, "pool_mode": pool_mode,
           "inline_s": [inline_s] * 3, "speedups": speedups,
           "identical": identical}
    if cpus < 2:
        row["floor_skipped"] = f"{cpus} CPU: the runner cannot start two workers"
    return row


class TestFloors:
    def test_realistic_run_passes(self):
        code, records, failures = bench_perf.gate(_document(), _cache(),
                                                  _pool())
        assert code == 0
        assert failures == []
        assert [r["name"] for r in records] == list(bench_perf.FLOORS)
        assert all(record["ok"] for record in records)

    @pytest.mark.parametrize("document,cache,breached", [
        (_document(figure_grid=0.12), _cache(), "figure-grid cells/s"),
        (_document(grid_fast=1.7), _cache(), "grid-fast cells/s"),
        (_document(), _cache(oracle_s=1.4), "fast / oracle speedup"),
        (_document(), _cache(), "pool / inline speedup"),
        (_document(), _cache(warm_s=0.035), "warm / cold cache speedup"),
    ])
    def test_each_breach_is_named_and_exits_1(self, document, cache,
                                              breached):
        pool = _pool(pool_s=6.5) if breached.startswith("pool") else _pool()
        code, records, failures = bench_perf.gate(document, cache, pool)
        assert code == 1
        assert [r["name"] for r in records if not r["ok"]] == [breached]
        assert len(failures) == 1 and failures[0].startswith(breached)

    def test_floors_keep_the_old_gates_strength(self):
        # Old CI bands in 30 000-op cells: oracle 3 876 ops/s, fast 51 639
        # ops/s, fast/oracle 1.33x, pool/serial 0.0185x (now a pool that
        # beats inline on the same cells), warm/cold 32x.
        # figure-grid runs the default engine, now the fast kernel.
        floors = bench_perf.FLOORS
        assert floors["figure-grid cells/s"] * 30_000 >= 3_876
        assert floors["figure-grid cells/s"] * 30_000 >= 51_639
        assert floors["grid-fast cells/s"] * 30_000 >= 51_639
        assert floors["fast / oracle speedup"] >= 1.33
        assert floors["pool / inline speedup"] >= 1.0
        assert floors["warm / cold cache speedup"] >= 32

    @pytest.mark.parametrize("speedups,ok", [
        ([0.9986, 1.30, 1.48], True),  # one pass slowed by a neighbour
        ([1.30, 0.9986, 0.95], False),
    ])
    def test_pool_floor_reads_the_median_pair(self, speedups, ok):
        code, records, __ = bench_perf.gate(_document(), _cache(),
                                            _pool(speedups=speedups))
        (record,) = [r for r in records if r["name"] == "pool / inline speedup"]
        assert record["observed"] == sorted(speedups)[1]
        assert (record["ok"], code) == (ok, 0 if ok else 1)

    def test_one_cpu_host_records_the_pool_row_without_its_floor(self):
        pool = _pool(pool_s=6.5, cpus=1, pool_mode="serial")
        code, records, failures = bench_perf.gate(_document(), _cache(), pool)
        assert code == 0 and failures == []
        (record,) = [r for r in records if r["name"] == "pool / inline speedup"]
        assert record["ok"] and "1 CPU" in record["skipped"]


class TestCorrectness:
    def test_failed_digest_check_exits_2(self):
        document = _document()
        document["workloads"]["grid-fast"]["failed"] = 3
        code, _, failures = bench_perf.gate(document, _cache(), _pool())
        assert code == 2
        assert failures == ["grid-fast: 3 of 40 cell checks failed"]

    def test_cold_warm_mismatch_exits_2(self):
        code, _, failures = bench_perf.gate(_document(),
                                            _cache(identical=False), _pool())
        assert code == 2
        assert "not byte-identical" in failures[0]

    def test_oracle_fast_mismatch_exits_2(self):
        code, _, failures = bench_perf.gate(_document(),
                                            _cache(oracle_identical=False),
                                            _pool())
        assert code == 2
        assert failures == [
            "oracle results are not byte-identical to the fast engine's"]

    def test_pool_inline_mismatch_exits_2(self):
        code, _, failures = bench_perf.gate(_document(), _cache(),
                                            _pool(identical=False))
        assert code == 2
        assert failures == ["pooled results are not byte-identical to inline"]

    def test_pool_row_that_ran_inline_exits_2(self):
        code, _, failures = bench_perf.gate(_document(), _cache(),
                                            _pool(pool_mode="serial"))
        assert code == 2
        assert failures == ["the pool row ran serial, not on a pool"]

    def test_correctness_outranks_a_floor_breach(self):
        document = _document(figure_grid=0.1)
        document["workloads"]["sweep-pool"]["failed"] = 1
        code, _, failures = bench_perf.gate(document, _cache(), _pool())
        assert code == 2
        assert len(failures) == 2


class TestComparable:
    def test_same_mode_and_seed_compare(self):
        assert bench_perf.comparable(_document(), _document()) is None

    def test_quick_vs_full_is_refused(self):
        reason = bench_perf.comparable(_document(quick=False), _document())
        assert reason is not None and "quick" in reason

    def test_seed_mismatch_is_refused(self):
        reason = bench_perf.comparable(_document(seed=12), _document())
        assert reason is not None and "seed" in reason

    def test_other_schema_is_refused(self):
        ledger = _document()
        ledger["schema"] = "mapg.bench-throughput/1"
        reason = bench_perf.comparable(ledger, _document())
        assert reason is not None and "schema" in reason
