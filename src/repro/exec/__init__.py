"""Deterministic parallel experiment engine.

Every figure in the evaluation replays deterministic traces, so a
simulation cell — one ``(config, profile, seed, num_ops, warmup,
temperature)`` tuple — always produces the same
:class:`~repro.sim.results.SimulationResult`.  This package exploits that
twice:

* :class:`ResultCache` — a content-addressed store of finished results
  under ``.mapg-result-cache/``, keyed by the cell's :class:`JobSpec`
  digest *and* a digest of the simulation-package sources, so editing any
  model code invalidates every entry at once.
* :class:`SweepRunner` — fans cache-missing cells over a spawn-safe
  ``multiprocessing`` pool when they outweigh its start-up (else runs
  them inline) and merges results in deterministic job-key order, so
  sweep output is byte-identical at any worker count.

``run_policy_comparison`` / ``run_seed_study`` and the ``benchmarks/``
harness route through this engine; see docs/PERFORMANCE.md for the
architecture and the cache-invalidation rules.
"""

from repro.exec.cache import DEFAULT_CACHE_DIR, ResultCache, result_from_dict, result_to_dict
from repro.exec.engine import SweepRunner
from repro.exec.jobspec import JobSpec
from repro.exec.tracestore import TraceStore
from repro.exec.version import simulation_version

__all__ = [
    "DEFAULT_CACHE_DIR",
    "JobSpec",
    "ResultCache",
    "SweepRunner",
    "TraceStore",
    "result_from_dict",
    "result_to_dict",
    "simulation_version",
]
