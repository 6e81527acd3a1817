"""The parallel sweep runner: cache, fan out, merge deterministically.

``SweepRunner.run`` takes a sequence of :class:`~repro.exec.jobspec.JobSpec`
cells and returns their results **in input order**, built in three steps:

1. **Cache probe** — every distinct spec is looked up in the
   :class:`~repro.exec.cache.ResultCache` (when one is attached); hits
   skip simulation entirely.
2. **Execution** — each cell on its spec's engine (the fast kernel
   unless the spec asks for the oracle); cache misses run either inline
   (through a :class:`~repro.exec.tracestore.TraceStore` over the
   process's trace memo, which generates each trace once per process
   for either engine) or over a spawn-safe ``multiprocessing`` pool of
   at most one worker per CPU, used only when it pays back its start-up:
   with two or more workers, and when an earlier run left it running or
   the cells' estimated inline cost (:func:`_serial_cost`, from the
   specs alone) outweighs a cold pool's start-up.
   The pool is one per process: built by the first pooled run, reused
   by every later one, rebuilt when a run needs another worker count,
   and terminated at interpreter exit (or at once, if a run is
   abandoned with cells in flight).
   Workers receive plain-dict payloads (no pickled code objects),
   rebuild the spec, and take traces from their process's trace memo,
   which outlives each run, so a worker simulating several policies of
   one workload — in one run or across runs — generates its trace once.
   A worker that dies mid-run fails the cells still in flight, and the
   next run rebuilds the pool.  Both executors yield the same ``(key,
   result, worker)`` outcomes into one merge loop, which stores each
   result in the cache as it lands.
3. **Deterministic merge** — results are keyed by the spec's sha256 job
   key and emitted in the caller's spec order, so sweep output is
   byte-identical at any worker count and any completion order.

Nothing here reads the wall clock or draws randomness: scheduling order
cannot leak into results because every cell is hermetic by construction.
Sweep telemetry (``recorder=``) keeps that contract: every emission is
behind a single ``self._obs.enabled`` attribute check, all timestamps
live inside :mod:`repro.obs.sweep` (this module stays clock-free under
DET01), worker pids ride back beside results (never inside them), and
each cell's engine is read in the parent from its spec — so output is
byte-identical with the recorder attached or not, at any ``jobs`` count.
"""

from __future__ import annotations

import atexit
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
from repro.obs.sweep import NULL_SWEEP_RECORDER, NullSweepRecorder
from repro.sim.results import SimulationResult

# Workers are started fresh (never forked), so they inherit no parent state.
_START_METHOD = "spawn"

# The parent's pool, kept across runs: {worker count: pool}, at most one
# entry.  It holds processes, not results, so it cannot change any output.
_POOLS: Dict[int, Any] = {}  # mapglint: declared-cache

# How long a pooled run waits for a result before checking its workers.
_POLL_S = 0.1

# What starting a cold pool costs, in fast-kernel op-equivalents (one
# measured or warmup op of a cell on the kernel).  Probe on a 2-vCPU host,
# Python 3.11, gcc_like cells at seed 11, one sweep call per fresh process,
# 3 runs each: 8 kernel cells of 45k ops ran in 0.42-0.46 s inline against
# 0.56-0.64 s on a cold Pool(2); at 60k ops 0.52-0.67 s against 0.59-0.80 s;
# at 90k ops 0.87-1.07 s against 0.83-0.86 s.  Break-even is ~500k ops at
# two workers, so the start-up is ~250k ops (0.2-0.3 s at 0.8-1.3 us/op).
# Re-probed once the kernel jumped over L1 hits (8 gcc_like cells across
# bet_scale, same method): 60k ops 0.46-0.58 s inline against 0.48-0.50 s
# pooled, 75k ops 0.68-0.89 s against 0.63-0.70 s, 90k ops 0.73-0.79 s
# against 0.68-0.77 s; break-even stayed within the probe's noise of ~500k.
_POOL_START_OPS = 250_000
# An oracle cell's cost per op, in kernel ops.  Same probe: 4 oracle cells
# broke even at 10k ops each (0.30-0.50 s inline against 0.46-0.60 s), and
# lost at 5k; with the memo warm, an oracle op cost 12.6 kernel ops.
_ORACLE_WEIGHT = 10

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
    key, payload = item
    try:
        result = JobSpec.from_payload(payload).execute()
    except Exception as exc:
        return key, _error_record(exc), os.getpid()
    return key, result_to_dict(result), os.getpid()


def _serial_cost(missing: "List[Tuple[str, JobSpec]]") -> int:
    """The cells' estimated inline cost, in fast-kernel op-equivalents.

    Each cell counts its measured and warmup ops; an oracle cell counts
    them ``_ORACLE_WEIGHT`` times.  Every sweep config is inside the fast
    kernel's envelope (its fallbacks come from constructor arguments a
    sweep never passes), so a cell's engine is the one its spec names.
    """
    return sum((spec.num_ops + spec.warmup_ops)
               * (_ORACLE_WEIGHT if spec.engine == "oracle" else 1)
               for __, spec in missing)


def _shared_pool(workers: int) -> Any:
    """The process's pool of ``workers`` spawn workers, built on first use.

    A different worker count terminates the current pool first, so the
    holder never keeps more than one.
    """
    pool = _POOLS.get(workers)
    if pool is None:
        _drop_pool()
        pool = multiprocessing.get_context(_START_METHOD).Pool(
            processes=workers)
        _POOLS[workers] = pool
    return pool


def _drop_pool() -> None:
    """Terminate the process's pool, if there is one."""
    for pool in _POOLS.values():
        pool.terminate()
        pool.join()
    _POOLS.clear()


# Terminate before interpreter teardown: a pool still running then warns
# from Pool.__del__, which can also raise once the modules it needs are gone.
atexit.register(_drop_pool)


def _pool_outcomes(missing: "List[Tuple[str, JobSpec]]",
                   workers: int) -> Iterator[_Outcome]:
    """The pool executor: ``missing`` fanned over ``workers`` processes.

    A worker that exits mid-run takes its cell with it, and the pool would
    wait for that result forever: so results are awaited in short polls,
    and once a worker of the run has exited the pool is dropped and every
    cell still in flight comes back as a failure."""
    payloads = [(key, spec.to_payload()) for key, spec in missing]
    pool = _shared_pool(workers)
    # CPython's Pool keeps its worker processes in ``_pool``.
    processes = [process for process in pool._pool
                 if process.exitcode is None]
    pending = dict(missing)
    try:
        # The worker's only effect beyond its payload is os.getpid() for
        # the telemetry side channel; the pid never reaches a result.
        results = pool.imap_unordered(  # mapglint: disable=PURE01
            _execute_payload, payloads, chunksize=1)
        while pending:
            try:
                outcome = results.next(timeout=_POLL_S)
            except multiprocessing.TimeoutError:
                dead = [process for process in processes
                        if process.exitcode is not None]
                if not dead:
                    continue
                _drop_pool()
                lost = {"__mapg_error__": (
                    f"pool worker {dead[0].pid} exited with code "
                    f"{dead[0].exitcode} while this cell was in flight")}
                for key in pending:
                    yield key, lost, 0
                return
            del pending[outcome[0]]
            yield outcome
    except BaseException:
        # Closed early (GeneratorExit) or broken: cells may still be in
        # flight, and they must not hold the next run's workers.
        _drop_pool()
        raise


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
        a cache is attached) lands in the cache as soon as it finishes,
        so the parent's writes overlap the cells still running and an
        abandoned sweep keeps what it finished; the failures are then
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
        workers = min(self.jobs, len(missing), os.cpu_count() or 1)
        cost = _serial_cost(missing)
        # w workers take about cost / w plus the start-up, so a cold pool
        # pays back only when cost * (w - 1) > start * w; a warm one has
        # paid already.  One worker is never faster than inline.
        pooled = workers > 1 and (
            workers in _POOLS
            or cost * (workers - 1) > _POOL_START_OPS * workers)
        if not pooled:
            workers = 1
        if missing and self._obs.enabled:
            self._obs.dispatch(cells=len(missing), workers=workers,
                               mode="pool" if pooled else "serial",
                               cost_ops=cost)
        outcomes = (_pool_outcomes(missing, workers) if pooled
                    else self._inline_outcomes(missing))
        with closing(outcomes):  # an escaping error drops the pool
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
                spec = unique[key]
                if self._obs.enabled:
                    self._obs.cell_done(key, worker=worker,
                                        engine=spec.engine)
                if self.cache is not None:
                    self.cache.store(spec, outcome)
        self.executed += len(missing)

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
