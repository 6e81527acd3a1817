"""Tests for the parallel sweep engine: invariance, dedupe, memoization.

The load-bearing property is **worker-count invariance**: a sweep's
output must be byte-identical (as a sorted-key JSON dump) at any
``jobs`` setting, cold or warm cache.  The pool tests use tiny traces —
they exercise plumbing, not throughput.
"""

import json
import os

import pytest

import repro.exec.tracestore as tracestore_module
from repro.config import SystemConfig
from repro.errors import ConfigError, ReproError, SweepError
from repro.exec import JobSpec, ResultCache, SweepRunner, result_to_dict
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

    def test_pool_path_degrades_identically(self, tmp_path):
        specs, poison = self._specs_with_poison(total=4)
        cache = ResultCache(str(tmp_path))
        with pytest.raises(SweepError) as excinfo:
            SweepRunner(jobs=4, cache=cache).run(specs)
        assert poison.key in str(excinfo.value)

        warm = SweepRunner(cache=ResultCache(str(tmp_path)))
        warm.run(specs[:-1])
        assert warm.executed == 0 and warm.cache_hits == 3


class TestWorkerCountInvariance:
    def test_sweep_identical_serial_vs_parallel(self):
        specs = tiny_specs()
        serial = SweepRunner(jobs=1).run(specs)
        parallel = SweepRunner(jobs=4).run(specs)
        assert canonical_bytes(serial) == canonical_bytes(parallel)

    def test_policy_comparison_identical_cold_and_warm(self, tmp_path):
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

    def test_seed_study_identical_serial_vs_parallel(self):
        config = with_policy(SystemConfig(), "mapg")
        serial = run_seed_study(config, "gcc_like", 250, (3, 5))
        parallel = run_seed_study(config, "gcc_like", 250, (3, 5), jobs=4)
        assert serial == parallel  # float tuples compare bit-exactly

    def test_pool_capped_at_cpu_count(self, monkeypatch):
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


class TestTraceMemoization:
    def test_trace_generated_once_per_workload(self, monkeypatch):
        # The satellite bug: run_policy_comparison used to regenerate the
        # identical trace once per *policy*.  Through the engine's
        # TraceStore it is generated once per (profile, seed).
        constructions = []
        real = tracestore_module.SyntheticTraceGenerator

        def counting(profile, seed):
            constructions.append((profile.name, seed))
            return real(profile, seed=seed)

        monkeypatch.setattr(tracestore_module, "SyntheticTraceGenerator",
                            counting)
        run_policy_comparison(SystemConfig(), ["gcc_like"],
                              ["never", "naive", "mapg"], 200, seed=3)
        assert constructions == [("gcc_like", 3)]

        constructions.clear()
        run_policy_comparison(SystemConfig(), ["gcc_like", "mcf_like"],
                              ["never", "mapg"], 200, seed=3)
        assert constructions == [("gcc_like", 3), ("mcf_like", 3)]


class TestStreamingMemory:
    def test_run_workload_streams_the_trace(self):
        # Regression guard for the satellite fix: run_workload must feed
        # the generator straight into the simulator.  Reference point: the
        # same cell with the trace materialized as lists first.  Python-
        # level peaks via tracemalloc; the materialized run's peak carries
        # the whole op list on top of the model state, so the streamed
        # peak must sit well below it.
        config = with_policy(SystemConfig(), "mapg")
        num_ops, warmup_ops, seed = 20_000, 1_000, 3

        materialized = SelfProfiler(trace_malloc=True)
        with materialized.stage("materialized"):
            generator = SyntheticTraceGenerator(get_profile("gcc_like"),
                                                seed=seed)
            warm = list(generator.operations(warmup_ops))
            measured = list(generator.operations(num_ops))
            simulator = Simulator(config, workload="gcc_like", seed=seed)
            simulator.warm_up(warm)
            reference = simulator.run(measured)

        streamed = SelfProfiler(trace_malloc=True)
        with streamed.stage("streamed"):
            result = run_workload(config, "gcc_like", num_ops, seed=seed,
                                  warmup_ops=warmup_ops)

        assert result == reference  # same cell, same numbers
        peak_streamed = streamed.report()["peak_traced_bytes"]
        peak_materialized = materialized.report()["peak_traced_bytes"]
        assert peak_streamed < 0.75 * peak_materialized, (
            f"streamed peak {peak_streamed:,} B is not clearly below the "
            f"materialized peak {peak_materialized:,} B — is run_workload "
            f"building an op list again?")
