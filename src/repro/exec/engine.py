"""The parallel sweep runner: cache, fan out, merge deterministically.

``SweepRunner.run`` takes a sequence of :class:`~repro.exec.jobspec.JobSpec`
cells and returns their results **in input order**, built in three steps:

1. **Cache probe** — every distinct spec is looked up in the
   :class:`~repro.exec.cache.ResultCache` (when one is attached); hits
   skip simulation entirely.
2. **Execution** — cache misses run either inline (``jobs=1``, sharing
   one :class:`~repro.exec.tracestore.TraceStore` so identical traces are
   generated once per process) or over a spawn-safe ``multiprocessing``
   pool of at most one worker per CPU.  Workers receive plain-dict
   payloads (no pickled code objects), rebuild the spec, and keep a
   module-level trace store of their own, so a worker simulating several
   policies of one workload also generates its trace once.  Both
   executors yield the same ``(key, result, worker)`` outcomes into one
   merge loop.
3. **Deterministic merge** — results are keyed by the spec's sha256 job
   key and emitted in the caller's spec order, so sweep output is
   byte-identical at any worker count and any completion order.

Nothing here reads the wall clock or draws randomness: scheduling order
cannot leak into results because every cell is hermetic by construction.
Sweep telemetry (``recorder=``) keeps that contract: every emission is
behind a single ``self._obs.enabled`` attribute check, all timestamps
live inside :mod:`repro.obs.sweep` (this module stays clock-free under
DET01), worker pids ride back beside results (never inside them), and
each cell's engine and fallback reasons are computed in the parent from
its spec — so output is byte-identical with the recorder attached or
not, at any ``jobs`` count.
"""

from __future__ import annotations

import multiprocessing
import os
from collections import OrderedDict
from contextlib import closing
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigError, SweepError
from repro.exec.cache import ResultCache, result_from_dict, result_to_dict
from repro.exec.jobspec import JobSpec
from repro.exec.tracestore import TraceStore
from repro.exec.version import simulation_version
from repro.fastsim import fallback_reasons
from repro.obs.sweep import NULL_SWEEP_RECORDER, NullSweepRecorder
from repro.sim.results import SimulationResult

# Workers are started fresh (never forked), so they inherit no parent state.
_START_METHOD = "spawn"

# One trace store per pool worker, lazily built on the first task so the
# parent never ships trace data across the process boundary.
_WORKER_STORE: Optional[TraceStore] = None  # mapglint: declared-cache

# (job key, result or error record, worker pid; 0 = the parent process)
_Outcome = Tuple[str, Any, int]


def _error_record(exc: Exception) -> Dict[str, str]:
    return {"__mapg_error__": f"{type(exc).__name__}: {exc}"}


def _execute_payload(item: "Tuple[str, Dict[str, Any]]"  # mapglint: error-boundary
                     ) -> _Outcome:
    """Pool worker: rebuild one spec, simulate it, return (key, result, pid).

    Module-level (not a closure) so it pickles under the ``spawn`` start
    method; the result travels back as a plain dict for the same reason.
    The worker's pid rides beside the result, never inside it, so sweep
    telemetry can attribute cells to workers while the pid cannot reach
    a :class:`~repro.sim.results.SimulationResult`; an unobserved parent
    ignores it.

    Nothing may escape a pool worker — an uncaught exception surfaces as
    a bare re-raise at the pool join and discards every in-flight cell —
    so any failure comes back as a ``__mapg_error__`` record under the
    same key, and the parent aggregates them into one
    :class:`~repro.errors.SweepError` after the surviving cells land.
    """
    global _WORKER_STORE
    if _WORKER_STORE is None:
        _WORKER_STORE = TraceStore()
    key, payload = item
    try:
        result = JobSpec.from_payload(payload).execute(
            trace_store=_WORKER_STORE)
    except Exception as exc:
        return key, _error_record(exc), os.getpid()
    return key, result_to_dict(result), os.getpid()


def _pool_outcomes(missing: "List[Tuple[str, JobSpec]]",
                   workers: int) -> Iterator[_Outcome]:
    """The pool executor: ``missing`` fanned over ``workers`` processes."""
    payloads = [(key, spec.to_payload()) for key, spec in missing]
    with multiprocessing.get_context(_START_METHOD).Pool(
            processes=workers) as pool:
        # The worker's only effect beyond its payload is os.getpid() for
        # the telemetry side channel; the pid never reaches a result.
        yield from pool.imap_unordered(  # mapglint: disable=PURE01
            _execute_payload, payloads, chunksize=1)


class SweepRunner:
    """Run many simulation cells: cached, parallel, deterministic.

    ``recorder`` accepts a :class:`~repro.obs.sweep.SweepRecorder`; the
    default is the shared :data:`~repro.obs.sweep.NULL_SWEEP_RECORDER`,
    so an unobserved sweep pays one attribute check per lifecycle site.
    """

    def __init__(self, jobs: int = 1, cache: Optional[ResultCache] = None,
                 recorder: Optional[NullSweepRecorder] = None) -> None:
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.trace_store = TraceStore()
        self._obs = recorder if recorder is not None else NULL_SWEEP_RECORDER
        self.executed = 0
        self.cache_hits = 0

    def run(self, specs: Sequence[JobSpec]) -> List[SimulationResult]:  # mapglint: error-boundary
        """Results for ``specs``, in input order; duplicates run once.

        Failures degrade gracefully: a failing cell never takes the
        sweep down with it.  Every other cell still completes and (when
        a cache is attached) lands in the cache; the failures are then
        re-raised together as one :class:`~repro.errors.SweepError`
        naming each failed cell by its spec key, so a 10^4-cell study
        loses only the broken cells — and only once.
        """
        unique: "OrderedDict[str, JobSpec]" = OrderedDict()
        for spec in specs:
            unique.setdefault(spec.key, spec)
        if self._obs.enabled:
            self._obs.sweep_begin(
                cells=len(specs), unique=len(unique), jobs=self.jobs,
                simulation_version=simulation_version(),
                cache_attached=self.cache is not None)
            for key, spec in unique.items():
                self._obs.cell_queued(key, profile=spec.profile,
                                      policy=spec.config.gating.policy,
                                      seed=spec.seed, num_ops=spec.num_ops,
                                      engine=spec.engine)

        results: Dict[str, SimulationResult] = {}
        if self.cache is not None:
            for key, spec in unique.items():
                cached = self.cache.load(spec)
                if cached is not None:
                    results[key] = cached
                    if self._obs.enabled:
                        self._obs.cell_cache_hit(key)
                elif self._obs.enabled:
                    self._obs.cell_cache_miss(key)
        self.cache_hits += len(results)

        # Deterministic dispatch order: cells sharing a trace first (so the
        # serial path's LRU trace store never thrashes), content key last —
        # the work list is identical however the caller ordered the sweep.
        missing = sorted(
            ((key, spec) for key, spec in unique.items()
             if key not in results),
            key=lambda item: (item[1].profile, item[1].seed,
                              item[1].warmup_ops, item[1].num_ops, item[0]))
        failures: Dict[str, str] = {}
        pooled = self.jobs > 1 and len(missing) > 1
        workers = min(self.jobs, len(missing), os.cpu_count() or 1) \
            if pooled else 1
        if missing and self._obs.enabled:
            self._obs.dispatch(cells=len(missing), workers=workers,
                               mode="pool" if pooled else "serial")
        outcomes = (_pool_outcomes(missing, workers) if pooled
                    else self._inline_outcomes(missing))
        with closing(outcomes):  # an escaping error still shuts the pool
            for key, outcome, worker in outcomes:
                if isinstance(outcome, dict):
                    error = outcome.get("__mapg_error__")
                    if error is not None:
                        failures[key] = error
                        if self._obs.enabled:
                            self._obs.cell_failed(key, error, worker=worker)
                        continue
                    outcome = result_from_dict(outcome)
                results[key] = outcome
                if self._obs.enabled:
                    spec = unique[key]
                    self._obs.cell_done(
                        key, worker=worker, engine=spec.engine,
                        fallback_reasons=(fallback_reasons(spec.config)
                                          if spec.engine == "fast" else ()))
        self.executed += len(missing)

        if self.cache is not None:
            for key, spec in missing:
                if key in results:
                    self.cache.store(spec, results[key])
        if self._obs.enabled:
            self._obs.sweep_end()
        if failures:
            raise SweepError(failures)
        return [results[spec.key] for spec in specs]

    def _inline_outcomes(self, missing: "List[Tuple[str, JobSpec]]"  # mapglint: error-boundary
                         ) -> Iterator[_Outcome]:
        """The in-process executor: the pool worker's outcomes, no pool.

        Results stay objects (no dict round trip), and ``cell_start`` is
        emitted right before each cell, so serial ``wall_s`` is exact.
        """
        for key, spec in missing:
            if self._obs.enabled:
                self._obs.cell_start(key)
            try:
                outcome: Any = spec.execute(trace_store=self.trace_store)
            except Exception as exc:
                outcome = _error_record(exc)
            yield key, outcome, 0

    def stats(self) -> Dict[str, int]:
        """Lifetime counters: cells executed vs served from the cache."""
        return {"executed": self.executed, "cache_hits": self.cache_hits}
