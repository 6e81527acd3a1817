"""Tests for the parallel sweep engine: invariance, dedupe, memoization.

The load-bearing property is **worker-count invariance**: a sweep's
output must be byte-identical (as a sorted-key JSON dump) at any
``jobs`` setting, cold or warm cache.  The pool tests use tiny traces —
they exercise plumbing, not throughput.
"""

import dataclasses
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro.exec.engine as engine_module
import repro.fastsim.columnar as columnar_module
import repro.sim.runner as runner_module
from repro.config import PrefetcherConfig, SystemConfig
from repro.errors import ConfigError, ReproError, SweepError
from repro.exec import JobSpec, ResultCache, SweepRunner, result_to_dict
from repro.fastsim import ColumnarTraceStore, fallback_reasons
from repro.obs import SelfProfiler, SweepRecorder
from repro.sim.runner import (
    run_policy_comparison,
    run_seed_study,
    run_workload,
    with_policy,
)
from repro.sim.simulator import Simulator
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import SyntheticTraceGenerator


def canonical_bytes(value):
    """Sorted-key JSON of any nest of dicts/lists/SimulationResults."""
    def encode(obj):
        if hasattr(obj, "workload") and hasattr(obj, "energy_j"):
            return result_to_dict(obj)
        raise TypeError(f"not JSON-ready: {type(obj).__name__}")
    return json.dumps(value, sort_keys=True, default=encode,
                      separators=(",", ":")).encode("utf-8")


def tiny_specs(num_ops=250):
    config = SystemConfig()
    return [JobSpec(config=with_policy(config, policy), profile=profile,
                    num_ops=num_ops, seed=3)
            for profile in ("gcc_like", "mcf_like")
            for policy in ("never", "mapg")]


class TestSweepRunner:
    def test_results_in_input_order(self):
        specs = tiny_specs()
        results = SweepRunner().run(specs)
        assert [(r.workload, r.policy) for r in results] \
            == [(s.profile, s.config.gating.policy) for s in specs]

    def test_duplicates_simulated_once(self):
        specs = tiny_specs()
        runner = SweepRunner()
        results = runner.run(specs + specs)
        assert len(results) == 2 * len(specs)
        assert runner.executed == len(specs)
        assert results[: len(specs)] == results[len(specs):]

    def test_matches_direct_run_workload(self):
        spec = tiny_specs()[1]
        assert SweepRunner().run([spec])[0] == run_workload(
            spec.config, spec.profile, spec.num_ops, seed=spec.seed)

    def test_rejects_bad_jobs(self):
        with pytest.raises(ConfigError):
            SweepRunner(jobs=0)

    def test_runner_rejects_foreign_cache(self):
        with pytest.raises(ConfigError):
            run_policy_comparison(SystemConfig(), ["gcc_like"], ["never"],
                                  100, cache=object())

    def test_cache_hit_skips_execution(self, tmp_path):
        specs = tiny_specs(num_ops=150)
        cold = SweepRunner(cache=ResultCache(str(tmp_path)))
        first = cold.run(specs)
        warm = SweepRunner(cache=ResultCache(str(tmp_path)))
        second = warm.run(specs)
        assert warm.executed == 0
        assert warm.cache_hits == len(specs)
        assert canonical_bytes(first) == canonical_bytes(second)


class TestGracefulDegradation:
    """A failing cell may not take the sweep down with it (ERR01 fix).

    The poison passes ``JobSpec.__post_init__`` (any non-empty profile
    name does) and fails only inside ``execute`` when ``get_profile``
    rejects the unknown name — exactly the late-failure shape a pool
    worker used to re-raise at the join, discarding every in-flight
    cell.
    """

    def _specs_with_poison(self, total=20, num_ops=100):
        config = SystemConfig()
        specs = [JobSpec(config=with_policy(config, policy),
                         profile="gcc_like", num_ops=num_ops, seed=seed)
                 for policy in ("never", "mapg")
                 for seed in range(total // 2)]
        poison = JobSpec(config=config, profile="no_such_profile",
                         num_ops=num_ops, seed=3)
        return specs[: total - 1] + [poison], poison

    def test_poisoned_cell_leaves_nineteen_in_the_cache(self, tmp_path):
        specs, poison = self._specs_with_poison()
        cache = ResultCache(str(tmp_path))
        runner = SweepRunner(cache=cache)
        with pytest.raises(SweepError) as excinfo:
            runner.run(specs)
        # The aggregate failure names the poisoned cell by its spec key.
        assert poison.key in str(excinfo.value)
        assert excinfo.value.failures.keys() == {poison.key}
        assert isinstance(excinfo.value, ReproError)

        # Every healthy cell completed and landed in the cache: a rerun
        # without the poison is served entirely from disk.
        warm = SweepRunner(cache=ResultCache(str(tmp_path)))
        results = warm.run(specs[:-1])
        assert warm.executed == 0
        assert warm.cache_hits == 19
        assert len(results) == 19

    def test_pool_path_degrades_identically(self, tmp_path, forced_pool):
        specs, poison = self._specs_with_poison(total=4)
        cache = ResultCache(str(tmp_path))
        with pytest.raises(SweepError) as excinfo:
            SweepRunner(jobs=4, cache=cache).run(specs)
        assert poison.key in str(excinfo.value)
        assert any(forced_pool)

        warm = SweepRunner(cache=ResultCache(str(tmp_path)))
        warm.run(specs[:-1])
        assert warm.executed == 0 and warm.cache_hits == 3


class TestWorkerCountInvariance:
    def test_sweep_identical_serial_vs_parallel(self, forced_pool):
        specs = tiny_specs()
        serial = SweepRunner(jobs=1).run(specs)
        parallel = SweepRunner(jobs=4).run(specs)
        assert canonical_bytes(serial) == canonical_bytes(parallel)
        assert any(forced_pool)

    def test_policy_comparison_identical_cold_and_warm(self, tmp_path,
                                                       forced_pool):
        args = (SystemConfig(), ["gcc_like", "mcf_like"], ["never", "mapg"],
                250)
        serial_cold = run_policy_comparison(*args, seed=3)
        parallel_cold = run_policy_comparison(
            *args, seed=3, jobs=4, cache=ResultCache(str(tmp_path)))
        serial_warm = run_policy_comparison(
            *args, seed=3, jobs=1, cache=ResultCache(str(tmp_path)))
        parallel_warm = run_policy_comparison(
            *args, seed=3, jobs=4, cache=ResultCache(str(tmp_path)))
        reference = canonical_bytes(serial_cold)
        assert canonical_bytes(parallel_cold) == reference
        assert canonical_bytes(serial_warm) == reference
        assert canonical_bytes(parallel_warm) == reference
        assert any(forced_pool)  # the cold parallel run

    def test_seed_study_identical_serial_vs_parallel(self, forced_pool):
        config = with_policy(SystemConfig(), "mapg")
        serial = run_seed_study(config, "gcc_like", 250, (3, 5))
        parallel = run_seed_study(config, "gcc_like", 250, (3, 5), jobs=4)
        assert serial == parallel  # float tuples compare bit-exactly
        assert any(forced_pool)

    def test_pool_capped_at_cpu_count(self, monkeypatch, forced_pool):
        # jobs=64 on a 2-vCPU host used to spawn 64 interpreters.
        specs = tiny_specs()
        serial = SweepRunner(jobs=1).run(specs)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        recorder = SweepRecorder()
        parallel = SweepRunner(jobs=8, recorder=recorder).run(specs)
        dispatch = [event for event in recorder.events()
                    if event["event"] == "dispatch"]
        assert [(event["mode"], event["workers"]) for event in dispatch] \
            == [("pool", 2)]
        assert canonical_bytes(parallel) == canonical_bytes(serial)
        assert any(forced_pool)


class TestPoolReuse:
    """One spawn pool per process, kept across ``SweepRunner.run`` calls."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch, forced_pool):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        self.outcome_workers = forced_pool

    @staticmethod
    def pool_pids():
        return {child.pid for child in multiprocessing.active_children()}

    @staticmethod
    def pooled_run(specs, recorder=None):
        recorder = recorder if recorder is not None else SweepRecorder()
        results = SweepRunner(jobs=2, recorder=recorder).run(specs)
        return results, {int(pid) for pid in recorder.summary()["per_worker"]}

    def test_consecutive_runs_share_one_pool(self):
        specs = tiny_specs()
        serial = canonical_bytes(SweepRunner(jobs=1).run(specs))
        first, first_workers = self.pooled_run(specs)
        pool = self.pool_pids()
        second, second_workers = self.pooled_run(specs)
        assert canonical_bytes(first) == serial
        assert canonical_bytes(second) == serial
        # Either run may hand every tiny cell to one worker, so both are
        # checked against the pool the first run left behind.
        assert len(pool) == 2
        assert first_workers and first_workers <= pool
        assert second_workers and second_workers <= pool
        assert self.pool_pids() == pool
        assert all(self.outcome_workers)

    def test_failed_cell_keeps_the_pool(self):
        specs = tiny_specs()
        poison = JobSpec(config=SystemConfig(), profile="no_such_profile",
                         num_ops=100, seed=3)
        with pytest.raises(SweepError) as excinfo:
            self.pooled_run(specs + [poison])
        assert excinfo.value.failures.keys() == {poison.key}
        pool = self.pool_pids()
        results, workers = self.pooled_run(specs)
        assert canonical_bytes(results) \
            == canonical_bytes(SweepRunner(jobs=1).run(specs))
        assert workers and workers <= pool and self.pool_pids() == pool
        assert all(self.outcome_workers)

    def test_escaping_error_drops_the_pool(self):
        class BrokenRecorder(SweepRecorder):
            def cell_done(self, *args, **kwargs):
                raise RuntimeError("recorder broke")

        specs = tiny_specs()
        self.pooled_run(specs)
        old_pool = self.pool_pids()
        with pytest.raises(RuntimeError, match="recorder broke"):
            self.pooled_run(specs, recorder=BrokenRecorder())
        # The abandoned pool is gone: no worker of it is still alive.
        assert not self.pool_pids()
        results, workers = self.pooled_run(specs)
        assert workers and workers <= self.pool_pids()
        assert not workers & old_pool
        assert canonical_bytes(results) \
            == canonical_bytes(SweepRunner(jobs=1).run(specs))
        assert all(self.outcome_workers)

    def test_dead_worker_fails_its_cells_and_the_pool_is_rebuilt(self):
        # A worker killed mid-cell never returns its result.  The run must
        # fail the cells still in flight, not wait for them forever.
        specs = [JobSpec(config=with_policy(SystemConfig(), policy),
                         profile="mcf_like", num_ops=1_000_000, seed=5,
                         engine="oracle")
                 for policy in ("never", "mapg")]
        outcome = {}

        def sweep():
            try:
                SweepRunner(jobs=2).run(specs)
            except SweepError as exc:
                outcome["error"], outcome["at"] = exc, time.monotonic()

        engine_module._drop_pool()
        runner = threading.Thread(target=sweep, daemon=True)
        runner.start()
        deadline = time.monotonic() + 60
        while not engine_module._POOLS and time.monotonic() < deadline:
            time.sleep(0.01)
        pool, = engine_module._POOLS.values()
        time.sleep(2.0)  # both workers are inside their ~10 s cells
        killed_at = time.monotonic()
        os.kill(pool._pool[0].pid, signal.SIGKILL)
        runner.join(timeout=30)

        assert not runner.is_alive(), "the sweep hung on a dead worker"
        assert "error" in outcome, "the sweep finished despite the kill"
        assert outcome["at"] - killed_at < 5
        failures = outcome["error"].failures
        assert failures.keys() == {spec.key for spec in specs}
        assert all("exited with code -9" in error
                   for error in failures.values())
        assert not engine_module._POOLS  # dropped
        assert self.outcome_workers == [0, 0]  # both cells lost
        results, workers = self.pooled_run(tiny_specs())
        assert engine_module._POOLS[2] is not pool
        assert workers and workers <= self.pool_pids()
        assert canonical_bytes(results) \
            == canonical_bytes(SweepRunner(jobs=1).run(tiny_specs()))
        assert all(self.outcome_workers[2:])

    def test_interpreter_exits_cleanly_with_a_live_pool(self, tmp_path):
        # Spawn workers re-import __main__, so the sweep runs from a file,
        # which forces the pool for its two tiny cells and prints the
        # pids of the workers that ran them.
        script = tmp_path / "pooled_sweep.py"
        script.write_text(
            "import os\n"
            "import repro.exec.engine as engine\n"
            "from repro.config import SystemConfig\n"
            "from repro.exec import JobSpec, SweepRunner\n"
            "from repro.obs import SweepRecorder\n"
            "from repro.sim.runner import with_policy\n"
            "if __name__ == '__main__':\n"
            "    os.cpu_count = lambda: 2\n"
            "    engine._POOL_START_OPS = 0\n"
            "    specs = [JobSpec(config=with_policy(SystemConfig(), p),\n"
            "                     profile='gcc_like', num_ops=200, seed=3)\n"
            "             for p in ('never', 'mapg')]\n"
            "    recorder = SweepRecorder()\n"
            "    SweepRunner(jobs=2, recorder=recorder).run(specs)\n"
            "    SweepRunner(jobs=2).run(specs)\n"
            "    print(*recorder.summary()['per_worker'])\n",
            encoding="utf-8")
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        # ResourceWarning shows a pool still running at teardown.
        proc = subprocess.run(
            [sys.executable, "-W", "always::ResourceWarning", str(script)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stderr == ""
        workers = proc.stdout.split()
        assert workers and "0" not in workers


class TestPoolGate:
    """A cold pool is built only when the sweep's cells pay back its start."""

    @pytest.fixture(autouse=True)
    def cold_two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        engine_module._drop_pool()
        self.children = {child.pid
                         for child in multiprocessing.active_children()}

    @staticmethod
    def dispatched(specs):
        """(results, the dispatch event, worker pids) of one jobs=2 run."""
        recorder = SweepRecorder()
        results = SweepRunner(jobs=2, recorder=recorder).run(specs)
        dispatch, = [event for event in recorder.events()
                     if event["event"] == "dispatch"]
        return results, dispatch, {
            int(pid) for pid in recorder.summary()["per_worker"]}

    def no_child_started(self):
        return not engine_module._POOLS and {
            child.pid for child in multiprocessing.active_children()
        } <= self.children

    def test_cold_small_sweep_runs_inline(self):
        specs = tiny_specs()
        results, dispatch, workers = self.dispatched(specs)
        assert (dispatch["mode"], dispatch["workers"]) == ("serial", 1)
        assert dispatch["cost_ops"] == 4 * 250
        assert workers == {0}
        assert self.no_child_started()
        assert canonical_bytes(results) \
            == canonical_bytes(SweepRunner(jobs=1).run(specs))

    def test_sweep_above_the_threshold_builds_the_pool(self, monkeypatch):
        # Four 250-op kernel cells are 1000 op-equivalents: two workers
        # pay back a start-up of less than 500, and not one of 500.
        specs = tiny_specs()
        monkeypatch.setattr(engine_module, "_POOL_START_OPS", 500)
        __, dispatch, __ = self.dispatched(specs)
        assert dispatch["mode"] == "serial"
        assert self.no_child_started()
        monkeypatch.setattr(engine_module, "_POOL_START_OPS", 499)
        results, dispatch, workers = self.dispatched(specs)
        assert (dispatch["mode"], dispatch["workers"]) == ("pool", 2)
        assert list(engine_module._POOLS) == [2]
        assert workers and 0 not in workers
        assert canonical_bytes(results) \
            == canonical_bytes(SweepRunner(jobs=1).run(specs))

    @staticmethod
    def cost_specs():
        """A kernel cell, an oracle cell and a prefetching kernel cell."""
        config = SystemConfig()
        prefetching = config.replace(
            prefetcher=PrefetcherConfig(enabled=True, degree=4))
        # Job keys leave the engine out, so each cell has its own policy.
        return [JobSpec(config=with_policy(base, policy),
                        profile="gcc_like", num_ops=100, warmup_ops=20,
                        seed=3, engine=engine)
                for base, policy, engine in (
                    (config, "mapg", "fast"), (config, "never", "oracle"),
                    (prefetching, "mapg", "fast"))]

    def test_cost_counts_warmup_and_weighs_oracle_cells(self):
        specs = self.cost_specs()
        specs[2] = dataclasses.replace(specs[2], engine="oracle")
        __, dispatch, __ = self.dispatched(specs)
        assert dispatch["cost_ops"] \
            == 120 * (1 + 2 * engine_module._ORACLE_WEIGHT)

    def test_prefetcher_cells_cost_kernel_work(self):
        # The stride prefetcher runs on the kernel, so a prefetch sweep is
        # sized as kernel work when choosing between pool and inline.
        specs = self.cost_specs()
        assert not fallback_reasons(specs[2].config)
        __, dispatch, __ = self.dispatched(specs)
        assert dispatch["cost_ops"] \
            == 120 * (2 + engine_module._ORACLE_WEIGHT)

    def test_warm_pool_is_reused(self, monkeypatch):
        start = engine_module._POOL_START_OPS
        monkeypatch.setattr(engine_module, "_POOL_START_OPS", 0)
        self.dispatched(tiny_specs())
        pool = engine_module._POOLS[2]
        pids = {process.pid for process in pool._pool}
        monkeypatch.setattr(engine_module, "_POOL_START_OPS", start)
        specs = tiny_specs(num_ops=150)
        results, dispatch, workers = self.dispatched(specs)
        assert (dispatch["mode"], dispatch["workers"]) == ("pool", 2)
        assert dispatch["cost_ops"] <= 2 * start  # too small for a cold pool
        assert engine_module._POOLS[2] is pool
        assert workers and workers <= pids
        assert canonical_bytes(results) \
            == canonical_bytes(SweepRunner(jobs=1).run(specs))

    def test_one_cpu_never_spawns_a_one_worker_pool(self, monkeypatch,
                                                     forced_pool):
        # jobs=2 on a 1-CPU host used to start a pool of one worker.
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        specs = tiny_specs()
        results, dispatch, workers = self.dispatched(specs)
        assert (dispatch["mode"], dispatch["workers"]) == ("serial", 1)
        assert workers == {0} and not forced_pool
        assert self.no_child_started()
        assert canonical_bytes(results) \
            == canonical_bytes(SweepRunner(jobs=1).run(specs))


class _NoSimulation:
    """Stands in for either engine: takes its traces, simulates nothing."""

    def __init__(self, *args, **kwargs):
        pass

    def warm_up(self, trace):
        pass

    def run(self, trace):
        return None


class TestTraceMemoization:
    """One trace memo per process: every runner, store and cell reads it."""

    @pytest.fixture
    def generations(self, monkeypatch):
        """Record each trace generator built by the memo."""
        constructions = []
        real = columnar_module.SyntheticTraceGenerator

        def counting(profile, seed):
            constructions.append((profile.name, seed))
            return real(profile, seed=seed)

        monkeypatch.setattr(columnar_module, "SyntheticTraceGenerator",
                            counting)
        return constructions

    def comparisons(self, generations, engine):
        run_policy_comparison(SystemConfig(), ["gcc_like"],
                              ["never", "naive", "mapg"], 200, seed=3,
                              engine=engine)
        assert generations == [("gcc_like", 3)]

        generations.clear()
        run_policy_comparison(SystemConfig(), ["gcc_like", "mcf_like"],
                              ["never", "mapg"], 200, seed=3, engine=engine)
        assert generations == [("mcf_like", 3)]  # gcc_like is still held

    def test_trace_generated_once_per_workload(self, generations):
        # The old bug: run_policy_comparison used to regenerate the
        # identical trace once per *policy*.  Through the memo it is
        # generated once per (profile, seed) in the process.
        self.comparisons(generations, "oracle")

    def test_fast_engine_generates_once_per_workload(self, generations):
        # The fast engine replays the same memo's traces.
        self.comparisons(generations, "fast")

    def test_runs_and_cells_generate_once_per_process(self, generations):
        # Two runners and a run_workload cell on one key: one generation.
        config = SystemConfig()
        first, second = SweepRunner(jobs=1), SweepRunner(jobs=1)
        first.run([JobSpec(config=with_policy(config, policy),
                           profile="gcc_like", num_ops=200, seed=3)
                   for policy in ("never", "mapg")])
        second.run([JobSpec(config=with_policy(config, "naive"),
                            profile="gcc_like", num_ops=200, seed=3,
                            engine="oracle")])
        run_workload(with_policy(config, "bet_guard"), "gcc_like", 200,
                     seed=3)
        assert generations == [("gcc_like", 3)]
        # Each store keeps its own counts.
        assert (first.trace_store.misses, first.trace_store.hits) == (1, 1)
        assert (second.trace_store.misses, second.trace_store.hits) == (0, 1)

    def test_sweep_serial_generates_only_its_unique_traces(self,
                                                            monkeypatch):
        # The design-space figures' call sequence as `pytest benchmarks/`
        # makes it at 15 000 ops: F3 and F4 each one SweepRunner call on
        # gcc_like, then F11 and F15 one run_workload per cell.  Two
        # unique traces, so 30 000 generated ops.  Nothing is simulated.
        for engine in ("Simulator", "FastSimulator"):
            monkeypatch.setattr(runner_module, engine, _NoSimulation)
        generated = []
        real = SyntheticTraceGenerator.columns

        def counting(generator, num_ops):
            generated.append(num_ops)
            return real(generator, num_ops)

        monkeypatch.setattr(SyntheticTraceGenerator, "columns", counting)
        base = SystemConfig()
        ops = 15_000
        SweepRunner(jobs=1).run(
            [JobSpec(config=with_policy(base, "never"), profile="gcc_like",
                     num_ops=ops, seed=11)]
            + [JobSpec(config=with_policy(base, "mapg", bet_scale=scale),
                       profile="gcc_like", num_ops=ops, seed=11)
               for scale in (0.25, 1.0, 4.0)])
        SweepRunner(jobs=1).run(
            [JobSpec(config=with_policy(
                base.replace(dram=base.dram.scaled(scale)), policy),
                profile="gcc_like", num_ops=ops, seed=11)
             for scale in (0.5, 2.0) for policy in ("never", "mapg")])
        prefetching = base.replace(
            prefetcher=PrefetcherConfig(enabled=True, degree=4))
        for config in (base, prefetching):
            run_workload(with_policy(config, "mapg"), "gcc_like", ops,
                         seed=11)
        for window in (1, 4):
            config = base.replace(
                core=dataclasses.replace(base.core, miss_window=window))
            run_workload(with_policy(config, "mapg"), "libquantum_like",
                         ops, seed=11)
        assert sum(generated) == 2 * ops


class TestStreamingMemory:
    CELL = dict(num_ops=20_000, warmup_ops=1_000, seed=3)

    def materialized_run(self, config):
        """The cell with its trace built as op lists first: (result, peak)."""
        materialized = SelfProfiler(trace_malloc=True)
        with materialized.stage("materialized"):
            generator = SyntheticTraceGenerator(get_profile("gcc_like"),
                                                seed=self.CELL["seed"])
            warm = list(generator.operations(self.CELL["warmup_ops"]))
            measured = list(generator.operations(self.CELL["num_ops"]))
            simulator = Simulator(config, workload="gcc_like")
            simulator.warm_up(warm)
            reference = simulator.run(measured)
        return reference, materialized.report()["peak_traced_bytes"]

    def test_run_workload_streams_the_trace(self):
        # Regression guard for the satellite fix: run_workload must feed
        # the generator straight into the simulator.  Reference point: the
        # same cell with the trace materialized as lists first.  Python-
        # level peaks via tracemalloc; the materialized run's peak carries
        # the whole op list on top of the model state, so the streamed
        # peak must sit well below it.
        config = with_policy(SystemConfig(), "mapg")
        reference, peak_materialized = self.materialized_run(config)

        streamed = SelfProfiler(trace_malloc=True)
        with streamed.stage("streamed"):
            result = run_workload(config, "gcc_like", engine="oracle",
                                  **self.CELL)

        assert result == reference  # same cell, same numbers
        peak_streamed = streamed.report()["peak_traced_bytes"]
        assert peak_streamed < 0.75 * peak_materialized, (
            f"streamed peak {peak_streamed:,} B is not clearly below the "
            f"materialized peak {peak_materialized:,} B — is run_workload "
            f"building an op list again?")

    def test_fast_engine_stays_below_the_materialized_peak(self,
                                                          monkeypatch):
        # The fast engine holds the trace as columnar arrays, not op
        # lists.  A fresh store makes the run generate and ingest its
        # trace inside the measured window.
        store = ColumnarTraceStore()
        monkeypatch.setattr(runner_module, "shared_columnar_store",
                            lambda: store)
        config = with_policy(SystemConfig(), "mapg")
        reference, peak_materialized = self.materialized_run(config)

        columnar = SelfProfiler(trace_malloc=True)
        with columnar.stage("columnar"):
            result = run_workload(config, "gcc_like", engine="fast",
                                  **self.CELL)

        assert result == reference
        assert store.misses == 1
        peak_columnar = columnar.report()["peak_traced_bytes"]
        assert peak_columnar < 0.75 * peak_materialized, (
            f"fast-engine peak {peak_columnar:,} B is not clearly below "
            f"the materialized peak {peak_materialized:,} B — is the "
            f"columnar store holding op objects?")
