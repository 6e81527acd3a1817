"""Kernel-vs-oracle parity: the fast engine's bit-identity contract.

``repro.fastsim`` promises results **byte-identical** to the event-driven
oracle — same energy ledger floats, same histogram moments, same
controller counters — not "close".  These tests sweep the whole workload
profile x policy matrix (cold and warmed up), push fast-engine cells
through the SweepRunner at ``jobs`` 1 and 4, fuzz randomized segment
traces, and fuzz the configuration itself: every ``SystemConfig`` leaf
that can vary is drawn at random, and every drawn cell must take the
fast path.  Generic policies are also run with the controller's
per-stall entry point disabled, since the kernel resolves their stalls
itself.  Each comparison is the canonical JSON of every
``SimulationResult`` field.  Any diff is a kernel bug by definition.
"""

import dataclasses
import json
import pathlib
import random

import pytest

from repro.config import (
    CacheConfig, CoreConfig, DramConfig, GatingConfig, PrefetcherConfig,
    SystemConfig)
from repro.core.adaptive import AdaptiveMapgPolicy
from repro.core.controller import MapgController
from repro.core.policies import GatingDecision, GatingPolicy, MapgPolicy
from repro.core.token import TokenArbiter
from repro.errors import ConfigError, SimulationError
from repro.exec import JobSpec, SweepRunner
from repro.fastsim import (
    ColumnarTrace, FastSimulator, fallback_reasons, shared_columnar_store,
    validate_engine)
from repro.memory.dram import Dram
from repro.power.technology import TECHNOLOGY_NODES
from repro.predict.table import HistoryTablePredictor
from repro.sim.runner import run_policy_comparison, run_workload, with_policy
from repro.sim import simulator as simulator_module
from repro.sim.simulator import Simulator
from repro.trace.format import ComputeBlock, MemoryAccess
from repro.units import GHZ
from repro.workloads import profile_names

POLICIES = ("never", "naive", "bet_guard", "mapg", "mapg_adaptive", "oracle")


def canonical(result):
    return json.dumps(dataclasses.asdict(result), sort_keys=True)


def assert_identical(config, profile, num_ops, seed=1, warmup_ops=0):
    oracle = run_workload(config, profile, num_ops, seed=seed,
                          warmup_ops=warmup_ops, engine="oracle")
    fast = run_workload(config, profile, num_ops, seed=seed,
                        warmup_ops=warmup_ops, engine="fast")
    assert canonical(fast) == canonical(oracle), \
        f"fast kernel diverged on {profile}/{config.gating.policy}"


class TestColdMatrix:
    @pytest.mark.parametrize("profile", profile_names())
    def test_every_profile_every_policy(self, profile):
        for policy in POLICIES:
            assert_identical(with_policy(SystemConfig(), policy),
                             profile, 1500, seed=11)


class TestWarmedUp:
    @pytest.mark.parametrize("profile", profile_names())
    def test_every_profile_with_warmup(self, profile):
        assert_identical(with_policy(SystemConfig(), "mapg"),
                         profile, 1200, seed=5, warmup_ops=400)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_every_policy_with_warmup(self, policy):
        assert_identical(with_policy(SystemConfig(), policy),
                         "mcf_like", 1200, seed=3, warmup_ops=400)

    @pytest.mark.parametrize("seed", (1, 2, 5, 11))
    def test_seeds(self, seed):
        assert_identical(with_policy(SystemConfig(), "mapg_adaptive"),
                         "gems_like", 1500, seed=seed, warmup_ops=200)

    def test_temperature_override(self):
        oracle = run_workload(with_policy(SystemConfig(), "mapg"),
                              "lbm_like", 1500, seed=9,
                              temperature_c=110.0, engine="oracle")
        fast = run_workload(with_policy(SystemConfig(), "mapg"),
                            "lbm_like", 1500, seed=9,
                            temperature_c=110.0, engine="fast")
        assert canonical(fast) == canonical(oracle)


class TestThroughSweepRunner:
    def _specs(self, engine):
        config = SystemConfig()
        return [JobSpec(config=with_policy(config, policy),
                        profile=profile, num_ops=1200, seed=7,
                        warmup_ops=warmup, engine=engine)
                for profile in ("mcf_like", "povray_like")
                for policy in ("never", "mapg")
                for warmup in (0, 300)]

    def test_serial_fast_equals_serial_oracle(self):
        oracle = SweepRunner(jobs=1).run(self._specs("oracle"))
        fast = SweepRunner(jobs=1).run(self._specs("fast"))
        assert [canonical(r) for r in fast] == \
            [canonical(r) for r in oracle]

    def test_parallel_fast_equals_serial_oracle(self, forced_pool):
        oracle = SweepRunner(jobs=1).run(self._specs("oracle"))
        fast = SweepRunner(jobs=4).run(self._specs("fast"))
        assert [canonical(r) for r in fast] == \
            [canonical(r) for r in oracle]
        assert all(forced_pool)


class TestRandomizedSegments:
    """Property-style: arbitrary compute/memory segment interleavings."""

    @staticmethod
    def _random_ops(rng, num_ops):
        ops = []
        pc = 0x1000
        for _ in range(num_ops):
            if rng.random() < 0.35:
                ops.append(ComputeBlock(instructions=rng.randint(1, 400)))
            else:
                pc += rng.choice((4, 4, 8, 64))
                ops.append(MemoryAccess(
                    address=rng.randrange(0, 1 << rng.randint(12, 27), 8),
                    pc=pc,
                    is_write=rng.random() < 0.3,
                    dependent=rng.random() < 0.6))
        return ops

    @pytest.mark.parametrize("case_seed", (101, 202, 303, 404, 505))
    def test_random_trace_parity(self, case_seed):
        rng = random.Random(case_seed)
        ops = self._random_ops(rng, 1500)
        policy = rng.choice(POLICIES)
        config = with_policy(SystemConfig(), policy)
        oracle_sim = Simulator(config, workload="fuzz")
        oracle = oracle_sim.run(iter(ops))
        fast_sim = FastSimulator(config, workload="fuzz")
        fast = fast_sim.run(ColumnarTrace(ops))
        assert canonical(fast) == canonical(oracle), \
            f"diverged on fuzz case {case_seed} ({policy})"
        # The kernel drives the hierarchy's own Dram: same counters, same
        # open rows, busy, activation and write-debt times per bank.
        assert dram_state(fast_sim.sim.hierarchy.dram) == \
            dram_state(oracle_sim.hierarchy.dram)


def dram_state(dram):
    """A Dram's counters and per-bank state, for equality checks."""
    return (dram.counters.as_dict(), dram._open_rows, dram._busy_until_ns,
            dram._activated_at_ns, dram._write_debt_ns)


class RecordingPolicy(GatingPolicy):
    """Gates by a pc hash (both depths, timer and return wakes); logs learning."""

    def __init__(self, analyzer):
        super().__init__(analyzer)
        self.calls = []

    def decide(self, pc, bank, actual_stall_cycles, kind="",
               elapsed_cycles=0):
        key = pc >> 2
        if key % 3 == 0:
            return GatingDecision(gate=False, predicted_cycles=key % 7)
        offset = None if key % 5 == 0 else \
            self.analyzer.drain_cycles + key % 97
        return GatingDecision(
            gate=True, planned_wake_offset=offset,
            predicted_cycles=key % 300,
            mode="full" if key % 2 else "retention")

    def observe(self, pc, bank, actual_stall_cycles, kind=""):
        self.calls.append(("observe", pc, bank, actual_stall_cycles, kind))

    def feedback(self, plan):
        self.calls.append(("feedback", dataclasses.asdict(plan)))


def fixed_plan_policy(offset_from_drain_end, mode):
    """A policy class gating every stall with one fixed wake plan."""

    class FixedPlanPolicy(GatingPolicy):
        def decide(self, pc, bank, actual_stall_cycles, kind="",
                   elapsed_cycles=0):
            return GatingDecision(
                gate=True, mode=mode, planned_wake_offset=(
                    self.analyzer.drain_cycles + offset_from_drain_end))

    return FixedPlanPolicy


class TestKernelResolvesEveryStall:
    """Every policy's off-chip stalls resolve inside the kernel.

    The fast engine consults the policy itself and never routes a stall
    through ``MapgController.process_stall``; these cells run the oracle
    normally, then the fast engine with that method made to raise.
    """

    CELLS = (("naive", {}), ("bet_guard", {}), ("oracle", {}),
             ("mapg", {"predictor": "ewma"}),
             ("mapg_adaptive", {"predictor": "last_value"}))

    @staticmethod
    def _forbid_controller(monkeypatch):
        def process_stall(self, *args, **kwargs):
            raise AssertionError("fast path called the controller per stall")
        monkeypatch.setattr(MapgController, "process_stall", process_stall)

    @staticmethod
    def _run(engine, policy_class=None, monkeypatch=None, config=None):
        """One warmed-up cell; ``policy_class`` replaces the built policy."""
        made = []
        if policy_class is not None:
            def make_policy(gating, analyzer, predictor, static_estimate):
                made.append(policy_class(analyzer))
                return made[-1]
            monkeypatch.setattr(simulator_module, "make_policy", make_policy)
        result = run_workload(config or SystemConfig(), "mcf_like", 1500,
                              seed=11, warmup_ops=300, engine=engine)
        return result, made

    @pytest.mark.parametrize("policy, overrides", CELLS,
                             ids=[name for name, __ in CELLS])
    def test_generic_policies_skip_the_controller(self, monkeypatch, policy,
                                                  overrides):
        config = with_policy(SystemConfig(), policy, **overrides)
        oracle, __ = self._run("oracle", config=config)
        self._forbid_controller(monkeypatch)
        fast, __ = self._run("fast", config=config)
        assert canonical(fast) == canonical(oracle)

    def test_observe_and_feedback_calls_match(self, monkeypatch):
        oracle, (oracle_policy,) = self._run(
            "oracle", RecordingPolicy, monkeypatch)
        self._forbid_controller(monkeypatch)
        fast, (fast_policy,) = self._run("fast", RecordingPolicy, monkeypatch)
        assert canonical(fast) == canonical(oracle)
        kinds = {call[0] for call in oracle_policy.calls}
        assert kinds == {"observe", "feedback"}
        assert fast_policy.calls == oracle_policy.calls

    @pytest.mark.parametrize("offset, mode, wake_scale, error, message", (
        (-1, "full", 1.0, SimulationError, "precedes drain end"),
        (0, "full", 0.0, SimulationError, "outcome intervals tile"),
        (0, "deep", 1.0, ConfigError, "unknown sleep mode"),
    ), ids=["offset-before-drain-end", "mis-tiled-abort", "unknown-mode"])
    def test_refused_plans_raise_alike_on_both_engines(
            self, monkeypatch, offset, mode, wake_scale, error, message):
        config = with_policy(SystemConfig(), "naive", wake_scale=wake_scale)
        policy_class = fixed_plan_policy(offset, mode)
        messages = []
        for engine in ("oracle", "fast"):
            if engine == "fast":
                self._forbid_controller(monkeypatch)
            with pytest.raises(error) as raised:
                self._run(engine, policy_class, monkeypatch, config)
            messages.append(str(raised.value))
        assert message in messages[0]
        assert messages[1] == messages[0]


WINDOWS = (2, 4, 8)
WINDOW_PROFILES = ("mcf_like", "milc_like", "libquantum_like")
#: The stall paths: never, MAPG's rule methods (plain and adaptive), and
#: a generic policy's own decide().
WINDOW_POLICIES = ("never", "mapg", "mapg_adaptive", "bet_guard")
BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


def core_state(core):
    """A WindowedCore's counters, outstanding misses and clock."""
    return core.counters.as_dict(), list(core._outstanding), core.cycle


def cache_state(hierarchy):
    """The L1's and L2's tags (per set, ``(tag, dirty)`` from least to
    most recently used) and counters: the kernel must leave on the
    hierarchy's caches exactly what the oracle leaves on its own."""
    return [([list(lines.items()) for lines in cache._sets],
             cache.counters.as_dict())
            for cache in (hierarchy.l1, hierarchy.l2)]


def with_window(config, window, **core):
    return config.replace(core=dataclasses.replace(
        config.core, miss_window=window, **core))


class TestWindowedCore:
    """``miss_window > 1``: WindowedCore's timing model on the kernel.

    mcf_like chases pointers (dependence stalls), milc_like and
    libquantum_like stream independent misses (window-full stalls and
    dependent uses of merged lines).
    """

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("profile", WINDOW_PROFILES)
    def test_every_policy_cold_and_warmed_up(self, profile, window):
        for policy in WINDOW_POLICIES:
            config = with_window(with_policy(SystemConfig(), policy), window)
            assert not fallback_reasons(config)
            for warmup in (0, 300):
                assert_identical(config, profile, 1200, seed=11,
                                 warmup_ops=warmup)

    def test_mlp_overlap_is_ignored_alike(self):
        # WindowedCore never applies the blocking core's MLP shortcut.
        config = with_window(with_policy(SystemConfig(), "mapg"), 4,
                             mlp_overlap=0.5)
        assert_identical(config, "milc_like", 1500, seed=3, warmup_ops=300)

    @pytest.mark.parametrize("window", WINDOWS)
    def test_core_counters_and_outstanding_misses_match(self, window):
        # Not part of SimulationResult: the overlap counters and the
        # outstanding-miss deque, at the warmup boundary and at the end.
        config = with_window(with_policy(SystemConfig(), "mapg"), window)
        warm, measured = shared_columnar_store().traces(
            "mcf_like", 1200, seed=5, warmup_ops=300)
        oracle = Simulator(config, workload="mcf_like")
        fast = FastSimulator(config, workload="mcf_like")
        oracle.warm_up(warm.ops())
        fast.warm_up(warm)
        assert core_state(fast.sim.core) == core_state(oracle.core)
        assert cache_state(fast.sim.hierarchy) == \
            cache_state(oracle.hierarchy)
        assert canonical(fast.run(measured)) == \
            canonical(oracle.run(measured.ops()))
        counters, __, __ = core_state(oracle.core)
        assert counters["overlapped_misses"] and counters["hidden_misses"] \
            and counters["dependence_stalls"]
        assert core_state(fast.sim.core) == core_state(oracle.core)
        assert cache_state(fast.sim.hierarchy) == \
            cache_state(oracle.hierarchy)

    @pytest.mark.parametrize("case_seed", range(12))
    def test_random_region_boundaries(self, case_seed):
        # Short random regions end in every state (a window-full stall's
        # new miss just registered, misses still in flight, trailing
        # compute or none); each boundary must leave the same core state.
        rng = random.Random(case_seed)
        config = with_window(with_policy(SystemConfig(), rng.choice(POLICIES)),
                             rng.choice(WINDOWS))
        warm = TestRandomizedSegments._random_ops(rng, rng.choice((1, 3, 40)))
        measured = TestRandomizedSegments._random_ops(rng, 400)
        oracle = Simulator(config, workload="fuzz")
        fast = FastSimulator(config, workload="fuzz")
        oracle.warm_up(iter(warm))
        fast.warm_up(ColumnarTrace(warm))
        assert core_state(fast.sim.core) == core_state(oracle.core)
        assert canonical(fast.run(ColumnarTrace(measured))) == \
            canonical(oracle.run(iter(measured)))
        assert core_state(fast.sim.core) == core_state(oracle.core)
        assert cache_state(fast.sim.hierarchy) == \
            cache_state(oracle.hierarchy)

    @pytest.mark.parametrize("trailing", (False, True))
    def test_window_full_stall_ending_a_region(self, trailing):
        # Two misses fill a 2-wide window; the third stalls on the oldest
        # past its own completion (naive gating adds the wake penalty).
        # The oracle registers that miss after its last retirement, so it
        # stays outstanding unless a trailing compute block retires it.
        ops = [MemoryAccess(address=address, pc=pc, is_write=True)
               for address, pc in ((7044912, 4160), (3648, 4224),
                                   (256600, 4228))]
        ops += [ComputeBlock(instructions=2)] * trailing
        config = with_window(with_policy(SystemConfig(), "naive"), 2)
        oracle = Simulator(config, workload="fuzz")
        fast = FastSimulator(config, workload="fuzz")
        oracle.warm_up(iter(ops))
        fast.warm_up(ColumnarTrace(ops))
        assert core_state(fast.sim.core) == core_state(oracle.core)
        __, outstanding, cycle = core_state(oracle.core)
        assert bool(outstanding) != trailing
        assert all(completion <= cycle for completion, *__ in outstanding)

    def test_f15_cells_take_the_fast_path(self, monkeypatch):
        monkeypatch.syspath_prepend(str(BENCHMARKS))
        import bench_f15_mlp

        windows = []

        def run_on_the_kernel(config, profile, num_ops, **kwargs):
            assert fallback_reasons(config) == [], config.core
            windows.append(config.core.miss_window)
            return run_workload(config, profile, 300, **kwargs)

        monkeypatch.setattr(bench_f15_mlp, "run_workload", run_on_the_kernel)
        bench_f15_mlp.build_report()
        assert sorted(set(windows)) == [1, 2, 4, 8]
        assert len(windows) == 2 * len(bench_f15_mlp.WINDOWS) \
            * len(bench_f15_mlp.WORKLOADS)


def with_prefetcher(config, degree=4):
    return config.replace(
        prefetcher=PrefetcherConfig(enabled=True, degree=degree))


def prefetcher_state(hierarchy):
    """The prefetcher's own counters and the tracked prefetched lines."""
    return (hierarchy.prefetcher.counters.as_dict(),
            list(hierarchy._prefetched_lines))


class TestPrefetcher:
    """The stride prefetcher on the kernel: trained by owner-call."""

    @staticmethod
    def late_prefetch_config(policy):
        # A streaming profile, degree 8, a slow DRAM and a windowed core:
        # demands reach lines whose prefetch is still in flight (L2 MSHR
        # merges, late prefetches), and a 4-entry L2 MSHR drops some.
        base = with_prefetcher(with_window(with_policy(SystemConfig(), policy),
                                           4), degree=8)
        return base.replace(
            dram=dataclasses.replace(base.dram, controller_overhead_ns=80.0),
            l2=dataclasses.replace(base.l2, mshr_entries=4))

    @pytest.mark.parametrize("policy", ("mapg", "bet_guard"))
    def test_late_prefetches_merge_alike(self, policy):
        config = self.late_prefetch_config(policy)
        assert not fallback_reasons(config)
        warm, measured = shared_columnar_store().traces(
            "lbm_like", 2000, seed=11, warmup_ops=300)
        oracle = Simulator(config, workload="lbm_like")
        fast = FastSimulator(config, workload="lbm_like")
        oracle.warm_up(warm.ops())
        fast.warm_up(warm)
        assert prefetcher_state(fast.sim.hierarchy) == \
            prefetcher_state(oracle.hierarchy)
        assert cache_state(fast.sim.hierarchy) == \
            cache_state(oracle.hierarchy)
        expected = oracle.run(measured.ops())
        assert canonical(fast.run(measured)) == canonical(expected)
        assert prefetcher_state(fast.sim.hierarchy) == \
            prefetcher_state(oracle.hierarchy)
        assert cache_state(fast.sim.hierarchy) == \
            cache_state(oracle.hierarchy)
        counters = expected.memory_counters
        for name in ("l2_mshr_merges", "late_prefetches", "prefetch_fills",
                     "prefetch_dropped", "prefetch_redundant"):
            assert counters.get(name, 0) > 0, name

    @pytest.mark.parametrize("profile", ("gcc_like", "libquantum_like"))
    def test_f11_cells_match_the_oracle(self, profile):
        for policy in ("never", "mapg"):
            config = with_prefetcher(with_policy(SystemConfig(), policy))
            assert_identical(config, profile, 3000, seed=11, warmup_ops=500)

    def test_f11_cells_take_the_fast_path(self, monkeypatch):
        monkeypatch.syspath_prepend(str(BENCHMARKS))
        import bench_f11_prefetch

        prefetching = []

        def run_on_the_kernel(config, profile, num_ops, **kwargs):
            assert fallback_reasons(config) == [], config.prefetcher
            prefetching.append(config.prefetcher.enabled)
            return run_workload(config, profile, 300, **kwargs)

        monkeypatch.setattr(bench_f11_prefetch, "run_workload",
                            run_on_the_kernel)
        bench_f11_prefetch.build_report()
        assert prefetching.count(True) == 2 * len(bench_f11_prefetch.WORKLOADS)


def with_l1(config, **l1):
    return config.replace(l1=dataclasses.replace(config.l1, **l1))


#: Cells whose L1 tag outcomes the kernel takes from the L1 pass: a
#: direct-mapped L1 on a windowed core (in-flight lines are evicted and
#: touched again), a write-through L1 (writes never dirty a line) and a
#: blocking core with MLP overlap (jumps over hits between shortened
#: stalls).
L1_CELLS = {
    "direct-mapped-windowed": with_window(
        with_l1(with_policy(SystemConfig(), "mapg"), associativity=1), 4),
    "write-through": with_l1(with_policy(SystemConfig(), "mapg_adaptive"),
                             write_back=False),
    "mlp-overlap": with_policy(SystemConfig(), "mapg").replace(
        core=dataclasses.replace(SystemConfig().core, mlp_overlap=0.5)),
}


class TestL1Pass:
    """The L1 tag outcomes come from one memoized pass per trace region."""

    @pytest.mark.parametrize("cell", sorted(L1_CELLS))
    @pytest.mark.parametrize("profile", ("mcf_like", "gcc_like",
                                         "milc_like"))
    def test_cells_match_the_oracle(self, cell, profile):
        for warmup in (0, 300):
            assert_identical(L1_CELLS[cell], profile, 1500, seed=7,
                             warmup_ops=warmup)

    def test_merge_on_a_tag_miss_counts_its_victim_without_writing_it(self):
        # A and B share a direct-mapped set.  B evicts the dirty in-flight
        # A (written back); A's return misses the tags and merges into its
        # own fill, evicting the dirty B, which is counted, not written.
        a, b = 0, 32 * 1024
        ops = [MemoryAccess(address=a, pc=0x40, is_write=True),
               MemoryAccess(address=b, pc=0x44, is_write=True),
               MemoryAccess(address=a, pc=0x48)]
        config = L1_CELLS["direct-mapped-windowed"]
        oracle = Simulator(config, workload="fuzz").run(iter(ops))
        fast = FastSimulator(config, workload="fuzz").run(ColumnarTrace(ops))
        assert canonical(fast) == canonical(oracle)
        counters = oracle.memory_counters
        assert (counters["l1_misses"], counters["l1_mshr_merges"],
                counters["l1_writebacks"], counters["writebacks"]) == \
            (3, 1, 2, 1)

    def test_window_full_stall_then_only_hits(self):
        # The third miss stalls on the oldest; a long compute run lets its
        # own fill complete, so the loop jumps over the closing hit to the
        # region's end and must register that miss on the way, as the
        # hit's issue does on the oracle, for the end to retire it.
        ops = [MemoryAccess(address=address, pc=pc)
               for address, pc in ((7044912, 4160), (3648, 4224),
                                   (256600, 4228))]
        ops += [ComputeBlock(instructions=4000),
                MemoryAccess(address=3648, pc=4232)]
        config = with_window(with_policy(SystemConfig(), "naive"), 2)
        oracle = Simulator(config, workload="fuzz")
        fast = FastSimulator(config, workload="fuzz")
        assert canonical(fast.run(ColumnarTrace(ops))) == \
            canonical(oracle.run(iter(ops)))
        assert core_state(fast.sim.core) == core_state(oracle.core)
        counters, outstanding, __ = core_state(oracle.core)
        assert counters["hidden_misses"] == 2 and not outstanding

    def test_run_on_a_trace_that_is_not_the_warmup_pair(self):
        config = with_window(with_policy(SystemConfig(), "mapg"), 2)
        store = shared_columnar_store()
        warm, __ = store.traces("gcc_like", 800, seed=3, warmup_ops=500)
        __, measured = store.traces("mcf_like", 1200, seed=4, warmup_ops=0)
        oracle = Simulator(config, workload="mix")
        fast = FastSimulator(config, workload="mix")
        oracle.warm_up(warm.ops())
        fast.warm_up(warm)
        assert canonical(fast.run(measured)) == \
            canonical(oracle.run(measured.ops()))

    def test_one_trace_after_different_warmups(self):
        # Both cells replay one measured region; its pass must start from
        # each cell's own L1 tags, not from whichever ran first.
        config = with_policy(SystemConfig(), "mapg")
        store = shared_columnar_store()
        __, measured = store.traces("gcc_like", 1500, seed=2)
        warmups = [store.traces(profile, 10, seed=2, warmup_ops=600)[0]
                   for profile in ("gcc_like", "povray_like")]
        results = []
        for warm in warmups:
            oracle = Simulator(config, workload="gcc_like")
            fast = FastSimulator(config, workload="gcc_like")
            oracle.warm_up(warm.ops())
            fast.warm_up(warm)
            assert cache_state(fast.sim.hierarchy) == \
                cache_state(oracle.hierarchy)
            expected = canonical(oracle.run(measured.ops()))
            assert canonical(fast.run(measured)) == expected
            assert cache_state(fast.sim.hierarchy) == \
                cache_state(oracle.hierarchy)
            results.append(expected)
        assert results[0] != results[1]

    @pytest.mark.parametrize("window", (1, 4))
    def test_regions_with_no_memory_ops(self, window):
        config = with_window(with_policy(SystemConfig(), "naive"), window)
        compute = [ComputeBlock(instructions=7), ComputeBlock(instructions=3)]
        mixed = TestRandomizedSegments._random_ops(random.Random(9), 200)
        for warm, measured in ((compute, mixed), (mixed, compute),
                               ([], compute)):
            oracle = Simulator(config, workload="fuzz")
            fast = FastSimulator(config, workload="fuzz")
            oracle.warm_up(iter(warm))
            fast.warm_up(ColumnarTrace(warm))
            assert canonical(fast.run(ColumnarTrace(measured))) == \
                canonical(oracle.run(iter(measured)))
            if window > 1:
                assert core_state(fast.sim.core) == core_state(oracle.core)

    def test_policy_comparison_runs_the_pass_once_per_trace(
            self, monkeypatch):
        runs = []
        real = ColumnarTrace._run_l1_pass

        def counted(trace, *args):
            runs.append(trace)
            return real(trace, *args)

        monkeypatch.setattr(ColumnarTrace, "_run_l1_pass", counted)
        run_policy_comparison(SystemConfig(), ("mcf_like", "gcc_like"),
                              ("never", "naive", "bet_guard", "mapg",
                               "oracle"), 1000, seed=5)
        assert len(runs) == 2 and runs[0] is not runs[1]


#: Every MAPG tunable at its one owner: ``(owner, attribute, patched value,
#: policies whose result the patch must change)``.  The fast kernel calls
#: the owners' rule methods, so a patch moves both engines alike.  The
#: table tolerance is a constructor default: ``make_predictor`` never
#: passes it.
TUNABLES = {
    "fallback-dev-fraction": (MapgPolicy, "_DEV_FRACTION", 0.4,
                              ("mapg", "mapg_adaptive")),
    "deviation-bias": (MapgPolicy, "_DEV_BIAS", 0.5,
                       ("mapg", "mapg_adaptive")),
    "global-alpha": (MapgPolicy, "_GLOBAL_ALPHA", 0.3,
                     ("mapg", "mapg_adaptive")),
    "aimd-increase": (AdaptiveMapgPolicy, "_INCREASE_CYCLES", 9,
                      ("mapg_adaptive",)),
    "aimd-decay": (AdaptiveMapgPolicy, "_DECAY", 0.5, ("mapg_adaptive",)),
    "aimd-idle-tolerance": (AdaptiveMapgPolicy, "_IDLE_TOLERANCE_CYCLES", 4,
                            ("mapg_adaptive",)),
    "aimd-cap": (AdaptiveMapgPolicy, "_BIAS_CAP_CYCLES", 10,
                 ("mapg_adaptive",)),
    "table-tolerance": (HistoryTablePredictor.__init__, "__defaults__",
                        (64, 0.3, 0.05, 200), ("mapg", "mapg_adaptive")),
}


class TestSingleOwner:
    """Each MAPG rule has one implementation, shared by both engines."""

    def test_table_tolerance_default_is_the_patched_slot(self):
        assert HistoryTablePredictor.__init__.__defaults__ == \
            (64, 0.3, 0.2, 200)

    @pytest.mark.parametrize("tunable", sorted(TUNABLES))
    def test_patching_the_owner_moves_both_engines(self, monkeypatch,
                                                   tunable):
        owner, attribute, value, affected = TUNABLES[tunable]
        cells = {policy: with_policy(SystemConfig(), policy)
                 for policy in ("mapg", "mapg_adaptive")}
        before = {policy: canonical(run_workload(
            config, "mcf_like", 1500, seed=3, engine="oracle"))
            for policy, config in cells.items()}
        monkeypatch.setattr(owner, attribute, value)
        for policy, config in cells.items():
            oracle = canonical(run_workload(config, "mcf_like", 1500, seed=3,
                                            engine="oracle"))
            fast = canonical(run_workload(config, "mcf_like", 1500, seed=3,
                                          engine="fast"))
            changed = oracle != before[policy]
            assert changed == (policy in affected), \
                f"patching {tunable}: {policy} changed={changed}"
            assert fast == oracle, \
                f"{tunable}: fast kernel diverged on {policy}"


class TestEngineContract:
    def test_validate_engine_rejects_unknown(self):
        with pytest.raises(ConfigError):
            validate_engine("warp")
        validate_engine("oracle")
        validate_engine("fast")

    def test_run_workload_rejects_unknown_engine(self):
        with pytest.raises(ConfigError):
            run_workload(SystemConfig(), "mcf_like", 100, engine="warp")

    def test_jobspec_rejects_unknown_engine(self):
        with pytest.raises(ConfigError):
            JobSpec(config=SystemConfig(), profile="mcf_like",
                    num_ops=100, engine="warp")

    def test_engine_excluded_from_job_key(self):
        # Bit-identity means the two engines' results are interchangeable,
        # so they deliberately share cache addresses.
        base = dict(config=SystemConfig(), profile="mcf_like", num_ops=100)
        assert JobSpec(engine="oracle", **base).key == \
            JobSpec(engine="fast", **base).key

    def test_engine_survives_payload_roundtrip(self):
        spec = JobSpec(config=SystemConfig(), profile="mcf_like",
                       num_ops=100, engine="fast")
        assert JobSpec.from_payload(spec.to_payload()).engine == "fast"


# ---- config fuzzing ----------------------------------------------------------

#: Leaves with one legal value, so there is nothing to draw.
FIXED_LEAVES = {
    "l1.replacement": "LRU is the only replacement policy",
    "l2.replacement": "LRU is the only replacement policy",
}

#: Leaves only ``run_multicore`` reads: it turns them into the shared DRAM
#: and TAP token arbiter the kernel refuses, so a single-core fast run can
#: never depend on them.
MULTI_CORE_LEAVES = {
    "num_cores": "run_multicore shares one DRAM across the cores",
    "token.enabled": "run_multicore builds the TAP token arbiter",
    "token.wake_tokens": "sizes the multi-core TAP token arbiter",
    "token.token_wait_limit_cycles": "bounds the multi-core TAP token wait",
}

#: Every other leaf: ``random_config`` draws each of them, but for
#: ``core.miss_window`` and ``prefetcher.enabled``, which ``fuzz_case``
#: draws last.
DRAWN_LEAVES = (
    "core.frequency_hz", "core.pipeline_depth", "core.issue_width",
    "core.mlp_overlap", "core.miss_window",
    *(f"{level}.{name}" for level in ("l1", "l2")
      for name in ("name", "size_bytes", "line_bytes", "associativity",
                   "hit_latency_cycles", "write_back", "mshr_entries")),
    "dram.channels", "dram.ranks_per_channel", "dram.banks_per_rank",
    "dram.row_bytes", "dram.t_cas_ns", "dram.t_rcd_ns", "dram.t_rp_ns",
    "dram.t_ras_ns", "dram.controller_overhead_ns", "dram.bus_transfer_ns",
    "dram.queue_service_ns", "dram.row_policy", "dram.refresh_interval_ns",
    "dram.refresh_latency_ns", "dram.write_buffer_per_bank",
    "gating.policy", "gating.predictor", "gating.guard_margin_cycles",
    "gating.early_wakeup", "gating.early_margin_cycles",
    "gating.min_confidence", "gating.bet_scale", "gating.wake_scale",
    "gating.sleep_mode",
    "prefetcher.enabled", "prefetcher.table_entries", "prefetcher.degree",
    "prefetcher.confirmations", "prefetcher.max_stride_bytes",
    "technology",
)

FUZZ_SEEDS = range(60)
FUZZ_OPS = 600


def config_leaves(obj, prefix=""):
    """``{dotted leaf name: value}`` over a (nested) config dataclass."""
    leaves = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            leaves.update(config_leaves(value, f"{prefix}{f.name}."))
        else:
            leaves[f"{prefix}{f.name}"] = value
    return leaves


def with_leaf(config, leaf, value):
    """``config`` with one dotted leaf replaced."""
    if "." not in leaf:
        return config.replace(**{leaf: value})
    section, name = leaf.split(".")
    return config.replace(**{section: dataclasses.replace(
        getattr(config, section), **{name: value})})


def random_cache(rng, name, line_bytes, sets, max_ways, latency, mshrs):
    ways = rng.randint(1, max_ways)
    return CacheConfig(
        name=name, size_bytes=rng.choice(sets) * ways * line_bytes,
        line_bytes=line_bytes, associativity=ways,
        hit_latency_cycles=rng.randint(*latency),
        write_back=rng.random() < 0.75, mshr_entries=rng.randint(*mshrs))


def random_config(rng):
    """One in-envelope ``SystemConfig`` with every drawn leaf randomized."""
    line_bytes = rng.choice((32, 64, 128))  # L1 and L2 must agree
    return SystemConfig(
        core=CoreConfig(
            frequency_hz=rng.choice((1.0, 1.6, 2.0, 2.5, 3.2)) * GHZ,
            pipeline_depth=rng.randint(5, 20),
            issue_width=rng.randint(1, 4),
            mlp_overlap=rng.choice((0.0, rng.uniform(0.0, 0.9)))),
        l1=random_cache(rng, rng.choice(("L1D", "dl1")), line_bytes,
                        (16, 32, 64, 128), 8, (1, 5), (1, 12)),
        l2=random_cache(rng, rng.choice(("L2", "ul2")), line_bytes,
                        (256, 512, 1024, 2048), 16, (8, 30), (1, 24)),
        dram=DramConfig(
            channels=rng.randint(1, 4),
            ranks_per_channel=rng.randint(1, 2),
            banks_per_rank=rng.randint(1, 16),
            row_bytes=rng.choice((1024, 2048, 4096, 8192, 16384)),
            t_cas_ns=rng.uniform(5.0, 25.0),
            t_rcd_ns=rng.uniform(5.0, 25.0),
            t_rp_ns=rng.uniform(5.0, 25.0),
            t_ras_ns=rng.uniform(20.0, 50.0),
            controller_overhead_ns=rng.uniform(0.0, 40.0),
            bus_transfer_ns=rng.uniform(0.0, 10.0),
            queue_service_ns=rng.uniform(0.0, 15.0),
            row_policy=rng.choice(("open", "closed")),
            refresh_interval_ns=rng.uniform(2000.0, 10000.0),
            refresh_latency_ns=rng.choice((0.0, rng.uniform(50.0, 350.0))),
            write_buffer_per_bank=rng.randint(0, 8)),
        gating=GatingConfig(
            policy=rng.choice(POLICIES),
            # "table" twice: it is the only predictor the kernel's MAPG
            # stall path takes (it calls the table's own lookup).
            predictor=rng.choice(("table", "table", "fixed", "last_value",
                                  "ewma", "oracle")),
            guard_margin_cycles=rng.randint(0, 40),
            early_wakeup=rng.random() < 0.7,
            early_margin_cycles=rng.randint(0, 30),
            min_confidence=rng.uniform(0.0, 1.0),
            bet_scale=rng.uniform(0.25, 4.0),
            wake_scale=rng.uniform(0.0, 3.0),
            sleep_mode=rng.choice(("full", "retention", "dual"))),
        prefetcher=PrefetcherConfig(
            enabled=False,
            table_entries=rng.randint(1, 64),
            degree=rng.randint(1, 4),
            confirmations=rng.randint(1, 4),
            max_stride_bytes=rng.choice((1024, 4096, 8192, 65536))),
        technology=rng.choice(sorted(TECHNOLOGY_NODES)))


def fuzz_case(seed):
    """``(config, profile, trace seed, warmup ops, temperature)`` for a seed."""
    rng = random.Random(seed)
    config = random_config(rng)
    case = (rng.choice(profile_names()), rng.randint(1, 10_000),
            rng.choice((0, rng.randint(50, 300))), rng.uniform(0.0, 120.0))
    # Drawn after every other value, so each seed keeps its earlier draws.
    config = with_leaf(config, "core.miss_window", rng.choice((1, 2, 4, 8)))
    config = with_leaf(config, "prefetcher.enabled", rng.random() < 0.5)
    return (config, *case)


class TestFuzzedConfigs:
    """Random in-envelope configurations: fast path taken, results equal."""

    def test_fuzzed_configs_match_the_oracle(self):
        modes = set()
        prefetching = []
        for seed in FUZZ_SEEDS:
            config, profile, trace_seed, warmup, temperature = fuzz_case(seed)
            oracle = run_workload(config, profile, FUZZ_OPS, seed=trace_seed,
                                  warmup_ops=warmup,
                                  temperature_c=temperature, engine="oracle")
            fast = FastSimulator(config, workload=profile,
                                 temperature_c=temperature)
            assert fast.used_fast_path, \
                f"fuzz seed {seed} fell back: {fast.fallback_reasons}"
            assert fallback_reasons(config) == fast.fallback_reasons
            modes.add(fast._stall_mode)
            warm_trace, trace = shared_columnar_store().traces(
                profile, FUZZ_OPS, seed=trace_seed, warmup_ops=warmup)
            if warmup:
                fast.warm_up(warm_trace)
            assert canonical(fast.run(trace)) == canonical(oracle), \
                f"fast kernel diverged on fuzz seed {seed} ({profile})"
            if config.prefetcher.enabled:
                prefetching.append((warmup, oracle.memory_counters))
        assert modes == {"never", "mapg", "generic"}
        # The prefetcher fills, its fills get used, and a warmed-up cell
        # pins the counter reset at the warmup boundary.
        assert any(c.get("prefetch_fills") for __, c in prefetching)
        assert any(c.get("useful_prefetches") for __, c in prefetching)
        assert any(warmup and c.get("prefetch_fills")
                   for warmup, c in prefetching)

    def test_policy_thresholds_are_the_smallest_worthwhile_stalls(self):
        # MapgPolicy folds analyzer.worthwhile into one precomputed
        # threshold per sleep mode; each must be the boundary it replaces.
        for seed in FUZZ_SEEDS:
            config, __, __, __, temperature = fuzz_case(seed)
            analyzer = Simulator(config, temperature_c=temperature).analyzer
            policy = MapgPolicy(analyzer, HistoryTablePredictor(),
                                config.gating, 200)
            for mode, threshold in (("full", policy._threshold_full),
                                    ("retention",
                                     policy._threshold_retention)):
                assert threshold >= 1
                assert analyzer.worthwhile(threshold, apply_margin=True,
                                           mode=mode), (seed, mode)
                assert not analyzer.worthwhile(
                    threshold - 1, apply_margin=True, mode=mode), (seed, mode)

    def test_every_config_leaf_is_drawn_or_refused(self):
        leaves = set(config_leaves(SystemConfig()))
        drawn = set(DRAWN_LEAVES)
        fixed = set(FIXED_LEAVES)
        multi_core = set(MULTI_CORE_LEAVES)
        assert len(drawn) == len(DRAWN_LEAVES)
        assert not drawn & fixed and not drawn & multi_core \
            and not fixed & multi_core
        assert drawn | fixed | multi_core == leaves
        assert all(FIXED_LEAVES.values())

    def test_every_drawn_leaf_varies(self):
        seen = {leaf: set() for leaf in DRAWN_LEAVES}
        for seed in FUZZ_SEEDS:
            values = config_leaves(fuzz_case(seed)[0])
            for leaf in DRAWN_LEAVES:
                seen[leaf].add(values[leaf])
        assert [leaf for leaf, values in seen.items() if len(values) < 2] \
            == []

    def test_multi_core_leaves_reach_the_kernel_only_as_refused_objects(self):
        assert all(MULTI_CORE_LEAVES.values())
        config = SystemConfig()
        shared = FastSimulator(config, shared_dram=Dram(config.dram))
        tap = FastSimulator(config, token_arbiter=TokenArbiter(config.token))
        assert shared.fallback_reasons and tap.fallback_reasons
        assert (fallback_reasons(config, shared_dram=Dram(config.dram)),
                fallback_reasons(config,
                                 token_arbiter=TokenArbiter(config.token))) \
            == (shared.fallback_reasons, tap.fallback_reasons)
