"""High-level experiment runners used by examples, benchmarks, and tests.

These functions own the repetitive wiring of the evaluation: build a
configuration variant, generate the workload trace, run the simulator,
and hand back result objects.  Every benchmark target in ``benchmarks/``
is a thin formatter over these.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # circularity guard: repro.exec executes via this layer
    from repro.exec import ResultCache, SweepRunner

from repro.config import SystemConfig
from repro.core.token import TokenArbiter
from repro.cpu.multicore import MultiCoreScheduler
from repro.errors import ConfigError
from repro.fastsim import (DEFAULT_ENGINE, ColumnarTraceStore, FastSimulator,
                           shared_columnar_store, validate_engine)
from repro.memory.dram import Dram
from repro.obs.spans import NullRecorder
from repro.sim.results import MulticoreResult, SimulationResult
from repro.sim.simulator import Simulator, static_offchip_latency_cycles
from repro.workloads.synthetic import generate_trace

__all__ = [
    "run_workload",
    "simulate_cell",
    "run_policy_comparison",
    "run_multicore",
    "run_seed_study",
    "SeedStudy",
    "static_offchip_latency_cycles",
    "with_policy",
]


def with_policy(config: SystemConfig, policy: str, **gating_overrides: object) -> SystemConfig:
    """A copy of ``config`` with the gating policy (and knobs) replaced."""
    gating = dataclasses.replace(config.gating, policy=policy, **gating_overrides)
    return config.replace(gating=gating)


def run_workload(config: SystemConfig, profile_name: str, num_ops: int,
                 seed: int = 1, temperature_c: Optional[float] = None,
                 warmup_ops: int = 0,
                 recorder: Optional[NullRecorder] = None,
                 engine: str = DEFAULT_ENGINE) -> SimulationResult:
    """Generate a trace for ``profile_name`` and run it through ``config``.

    ``warmup_ops`` extra ops are replayed first and excluded from every
    metric (caches, row buffers, and predictors stay warm into the
    measured region).  ``recorder`` (a :class:`repro.obs.SpanRecorder`)
    captures the cycle-timestamped timeline for Perfetto export; the
    default records nothing and costs nothing.

    ``engine`` selects the execution kernel: ``"fast"`` (the default) is
    the columnar batched kernel of :mod:`repro.fastsim`, ``"oracle"`` the
    reference event-driven simulator you ask for by name — bit-identical
    results by contract, the kernel several times faster on
    gating-eligible configs (unsupported ones, and any run with a
    recorder attached, transparently fall back to the oracle; see
    :func:`repro.fastsim.fallback_reasons`).  Unknown names raise
    :class:`~repro.errors.ConfigError`.

    Both engines take the trace from the per-process memo of columnar
    arrays (a few bytes per op); the oracle replays it one op object at a
    time, so no list of op objects is ever built.
    """
    return simulate_cell(config, profile_name, num_ops, seed=seed,
                         temperature_c=temperature_c, warmup_ops=warmup_ops,
                         recorder=recorder, engine=engine)


def simulate_cell(config: SystemConfig, profile_name: str, num_ops: int, *,
                  seed: int = 1, temperature_c: Optional[float] = None,
                  warmup_ops: int = 0,
                  recorder: Optional[NullRecorder] = None,
                  engine: str = DEFAULT_ENGINE,
                  trace_store: Optional[ColumnarTraceStore] = None
                  ) -> SimulationResult:
    """Run one single-core cell: the one place that picks the engine.

    Builds a :class:`~repro.fastsim.FastSimulator` (``engine="fast"``, the
    default) or an oracle :class:`~repro.sim.simulator.Simulator` and
    feeds it the (warmup, measured) traces from ``trace_store`` (a
    :class:`repro.fastsim.ColumnarTraceStore`, such as a sweep's
    :class:`repro.exec.TraceStore`; by default the per-process
    :func:`~repro.fastsim.shared_columnar_store`): the kernel replays the
    columnar pair, the oracle its ``ops()``.
    :func:`run_workload` and :meth:`repro.exec.JobSpec.execute` are thin
    calls to this; neither calls the other, so each cell is timed once.
    """
    validate_engine(engine)
    kwargs = {} if temperature_c is None else {"temperature_c": temperature_c}
    fast = engine == "fast"
    simulator: "Simulator | FastSimulator"
    if fast:
        simulator = FastSimulator(config, workload=profile_name, seed=seed,
                                  recorder=recorder, **kwargs)
    else:
        simulator = Simulator(config, workload=profile_name, seed=seed,
                              recorder=recorder, **kwargs)
    store = trace_store if trace_store is not None else shared_columnar_store()
    warm_trace, measured_trace = store.traces(
        profile_name, num_ops, seed=seed, warmup_ops=warmup_ops)
    if not fast:  # the oracle replays the same traces as op objects
        warm_trace, measured_trace = warm_trace.ops(), measured_trace.ops()
    if warmup_ops:
        simulator.warm_up(warm_trace)
    return simulator.run(measured_trace)


def run_policy_comparison(config: SystemConfig, profile_names: Sequence[str],
                          policies: Sequence[str], num_ops: int,
                          seed: int = 1, jobs: int = 1,
                          cache: "Optional[ResultCache]" = None,
                          engine: str = DEFAULT_ENGINE
                          ) -> Dict[str, Dict[str, SimulationResult]]:
    """The F2/T3 matrix: results[workload][policy].

    Every policy replays the *identical* trace (same profile, same seed),
    so differences are attributable to the policy alone — the trace is
    generated once per (profile, seed) and replayed per policy.

    Routed through :class:`repro.exec.SweepRunner`: ``jobs > 1`` fans the
    matrix over a process pool when its cells outweigh the pool's
    start-up, and ``cache`` (a
    :class:`repro.exec.ResultCache`) skips cells simulated before; the
    returned matrix is bit-identical at any ``jobs``/cache setting, and
    — by the fast kernel's parity contract — at any ``engine`` setting.
    """
    from repro.exec import SweepRunner
    from repro.exec.jobspec import JobSpec

    specs = [JobSpec(config=with_policy(config, policy),
                     profile=profile_name, num_ops=num_ops, seed=seed,
                     engine=engine)
             for profile_name in profile_names for policy in policies]
    flat = iter(_sweep_runner(jobs, cache).run(specs))
    results: Dict[str, Dict[str, SimulationResult]] = {}
    for profile_name in profile_names:
        results[profile_name] = {policy: next(flat) for policy in policies}
    return results


def run_seed_study(config: SystemConfig, profile_name: str, num_ops: int,
                   seeds: Sequence[int],
                   baseline_policy: str = "never", jobs: int = 1,
                   cache: "Optional[ResultCache]" = None,
                   engine: str = DEFAULT_ENGINE) -> "SeedStudy":
    """Replicate one (workload, policy) comparison across trace seeds.

    Every seed generates an independent trace instance of the same
    profile; the study reports the mean and population standard deviation
    of the energy saving and performance penalty vs the baseline policy —
    the error bars a reviewer asks for.

    Like :func:`run_policy_comparison`, the cells run through
    :class:`repro.exec.SweepRunner` (``jobs``/``cache`` behave the same).
    """
    from repro.exec.jobspec import JobSpec

    if not seeds:
        raise ConfigError("seed study needs at least one seed")
    specs: List[JobSpec] = []
    for seed in seeds:
        specs.append(JobSpec(config=with_policy(config, baseline_policy),
                             profile=profile_name, num_ops=num_ops, seed=seed,
                             engine=engine))
        specs.append(JobSpec(config=config, profile=profile_name,
                             num_ops=num_ops, seed=seed, engine=engine))
    flat = _sweep_runner(jobs, cache).run(specs)
    savings: List[float] = []
    penalties: List[float] = []
    for index in range(len(seeds)):
        baseline = flat[2 * index]
        result = flat[2 * index + 1]
        delta = result.compare(baseline)
        savings.append(delta.energy_saving)
        penalties.append(delta.performance_penalty)
    return SeedStudy(workload=profile_name, policy=config.gating.policy,
                     seeds=tuple(seeds), savings=tuple(savings),
                     penalties=tuple(penalties))


def _sweep_runner(jobs: int, cache: "Optional[ResultCache]") -> "SweepRunner":
    """Build the engine behind the runner facades (import kept lazy)."""
    from repro.exec import ResultCache, SweepRunner

    if cache is not None and not isinstance(cache, ResultCache):
        raise ConfigError(
            f"cache must be a repro.exec.ResultCache, got {type(cache).__name__}")
    return SweepRunner(jobs=jobs, cache=cache)


@dataclasses.dataclass(frozen=True)
class SeedStudy:
    """Replication statistics of one comparison across trace seeds."""

    workload: str
    policy: str
    seeds: "tuple[int, ...]"
    savings: "tuple[float, ...]"
    penalties: "tuple[float, ...]"

    @staticmethod
    def _mean(values: "tuple[float, ...]") -> float:
        return sum(values) / len(values)

    @staticmethod
    def _std(values: "tuple[float, ...]") -> float:
        mean = sum(values) / len(values)
        return (sum((v - mean) ** 2 for v in values) / len(values)) ** 0.5

    @property
    def mean_saving(self) -> float:
        return self._mean(self.savings)

    @property
    def std_saving(self) -> float:
        return self._std(self.savings)

    @property
    def mean_penalty(self) -> float:
        return self._mean(self.penalties)

    @property
    def std_penalty(self) -> float:
        return self._std(self.penalties)


def run_multicore(config: SystemConfig, profile_names: Sequence[str],
                  num_ops: int, seed: int = 1,
                  per_core_configs: Optional[Sequence[SystemConfig]] = None,
                  recorder: Optional[NullRecorder] = None
                  ) -> MulticoreResult:
    """Run one multiprogrammed mix (one profile per core) to completion.

    All cores share one DRAM (bank contention couples their timing) and,
    when ``config.token.enabled``, one TAP wake-token arbiter (F7).
    ``config.num_cores`` must equal ``len(profile_names)``.

    ``per_core_configs`` makes the chip heterogeneous (big.LITTLE-style):
    one :class:`SystemConfig` per core overriding the core/cache/gating
    side, while the shared resources — the DRAM and the token arbiter —
    always come from the top-level ``config`` (they are one physical
    device, so per-core DRAM or token settings would be contradictory).

    One ``recorder`` observes all cores: each simulator records onto its
    own ``coreN``/``coreN/gating``/``coreN/controller`` tracks, so the
    exported Perfetto trace shows one lane group per core plus the shared
    DRAM lane.
    """
    if len(profile_names) != config.num_cores:
        raise ConfigError(
            f"config.num_cores={config.num_cores} but "
            f"{len(profile_names)} workload profiles supplied")
    if per_core_configs is not None and \
            len(per_core_configs) != config.num_cores:
        raise ConfigError(
            f"config.num_cores={config.num_cores} but "
            f"{len(per_core_configs)} per-core configs supplied")

    shared_dram = Dram(config.dram)
    arbiter = TokenArbiter(config.token) if config.token.enabled else None

    simulators: List[Simulator] = []
    traces = []
    for core_id, profile_name in enumerate(profile_names):
        core_config = (per_core_configs[core_id]
                       if per_core_configs is not None else config)
        simulators.append(Simulator(
            core_config, workload=profile_name, shared_dram=shared_dram,
            token_arbiter=arbiter, core_id=core_id, seed=seed + core_id,
            recorder=recorder))
        traces.append(generate_trace(profile_name, num_ops, seed=seed + core_id))

    scheduler = MultiCoreScheduler([simulator.core for simulator in simulators])
    clocks = scheduler.run(
        traces, on_segment=lambda index, segment: simulators[index].handle_segment(segment))

    per_core = {index: simulator.result() for index, simulator in enumerate(simulators)}
    return MulticoreResult(
        workloads={index: name for index, name in enumerate(profile_names)},
        policy=config.gating.policy,
        num_cores=config.num_cores,
        wake_tokens=config.token.wake_tokens if arbiter is not None else 0,
        per_core=per_core,
        total_energy_j=sum(result.energy_j for result in per_core.values()),
        makespan_cycles=max(clocks.values()),
        token_counters=arbiter.counters.as_dict() if arbiter is not None else {},
    )
