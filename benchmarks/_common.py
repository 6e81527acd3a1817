"""Shared helpers for the benchmark harness.

Each ``bench_*.py`` regenerates one experiment from DESIGN.md's evaluation
plan.  The convention:

* the experiment body is a plain function returning an
  :class:`~repro.analysis.report.ExperimentReport`;
* the pytest-benchmark entry point runs it once (``pedantic`` with one
  round — these are *result* benches, not micro-benchmarks), then
  :func:`emit` prints the report and archives it under
  ``benchmarks/results/<id>.txt`` so EXPERIMENTS.md can quote it.

Workload lengths are chosen so the whole suite finishes in a few minutes
of pure Python; the shapes are stable well below these lengths.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from pathlib import Path

from repro.analysis.report import ExperimentReport
from repro.obs import SelfProfiler, environment_manifest

# Trace lengths used across benches (ops, not instructions).
FULL_OPS = 30_000
SWEEP_OPS = 15_000
MULTICORE_OPS = 6_000

# Execution-engine knobs.  The sweep benches route through
# repro.exec.SweepRunner; both knobs default to the plain serial,
# uncached path so a stock `pytest benchmarks/` still measures the
# simulator, not the cache.
#
# * MAPG_BENCH_JOBS=N   — fan cache-missing cells over up to N worker
#   processes.  A sweep builds the pool only when its cells' estimated
#   cost exceeds a cold pool's start-up (SweepRunner.run), or when an
#   earlier sweep left one running; the F3/F4 sweeps at SWEEP_OPS are
#   below that and run inline.
# * MAPG_BENCH_CACHE=1  — reuse results across runs via the default
#   content-addressed cache dir; any other non-empty value is used as the
#   cache directory itself.
# * MAPG_BENCH_TELEMETRY=<dir> — attach a SweepRecorder to every
#   run_sweep() call and write numbered sweep manifests + JSONL event
#   streams (sweep-0001.json, sweep-0001.events.jsonl, ...) under <dir>,
#   so a slow bench can be diagnosed cell by cell.
SWEEP_JOBS = int(os.environ.get("MAPG_BENCH_JOBS", "1"))

_TELEMETRY_DIR = os.environ.get("MAPG_BENCH_TELEMETRY", "")
_TELEMETRY_SEQ = 0


def sweep_cache():
    """The shared ResultCache requested via MAPG_BENCH_CACHE, or None."""
    setting = os.environ.get("MAPG_BENCH_CACHE", "")
    if not setting:
        return None
    from repro.exec import DEFAULT_CACHE_DIR, ResultCache

    return ResultCache(DEFAULT_CACHE_DIR if setting == "1" else setting)


def run_sweep(specs):
    """Run a list of JobSpecs through one SweepRunner wired to the knobs.

    For benches that sweep hand-built configs (F3/F4) rather than going
    through ``run_policy_comparison``; the shared runner means every cell
    of one workload reuses a single generated trace.  With
    ``MAPG_BENCH_TELEMETRY`` set, each call also leaves a numbered sweep
    manifest + event stream under that directory (results unchanged —
    the recorder only observes).
    """
    global _TELEMETRY_SEQ
    from repro.exec import SweepRunner

    recorder = None
    if _TELEMETRY_DIR:
        from repro.obs import SweepRecorder

        recorder = SweepRecorder()
    try:
        return SweepRunner(jobs=SWEEP_JOBS, cache=sweep_cache(),
                           recorder=recorder).run(specs)
    finally:
        if recorder is not None:
            from repro.obs import write_sweep_artifacts

            _TELEMETRY_SEQ += 1
            write_sweep_artifacts(
                recorder,
                Path(_TELEMETRY_DIR) / f"sweep-{_TELEMETRY_SEQ:04d}.json")

# The F2/T3 policy matrix: every profile under these policies.
POLICIES = ["never", "naive", "bet_guard", "mapg", "oracle"]


@functools.lru_cache(maxsize=None)
def policy_matrix():
    """The F2/T3 matrix, ``results[workload][policy]``, built once per process.

    F2 and T3 read the same cells (every profile x :data:`POLICIES`,
    ``FULL_OPS`` ops, seed 11), so a stock ``pytest benchmarks/``
    simulates them once.  Callers must not mutate the returned matrix.
    """
    from repro.config import SystemConfig
    from repro.sim.runner import run_policy_comparison
    from repro.workloads import profile_names

    return run_policy_comparison(
        SystemConfig(), profile_names(), POLICIES, FULL_OPS, seed=11,
        jobs=SWEEP_JOBS, cache=sweep_cache())


RESULTS_DIR = Path(__file__).parent / "results"

# Self-profile of the most recent run_once() call, attached to the JSON
# archive by the next emit().  Module-level because pytest-benchmark owns
# the call plumbing between the two.
_LAST_PROFILE = None


def emit(report: ExperimentReport) -> ExperimentReport:
    """Print a report to the live console and archive it to results/.

    Each experiment leaves three artifacts: the rendered table
    (``results/<id>.txt``, quoted by EXPERIMENTS.md), the raw rows
    (``results/<id>.csv``, for plotting scripts), and a self-describing
    JSON document (``results/<id>.json`` — rows plus the environment
    manifest and the run's self-profile, so a result can always be traced
    back to the code and machine that produced it).
    """
    global _LAST_PROFILE
    from repro.analysis.export import report_to_csv

    text = report.render()
    # Bypass pytest's capture so the rows appear in the benchmark log.
    sys.__stdout__.write("\n" + text + "\n")
    sys.__stdout__.flush()
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = report.experiment_id.lower()
    (RESULTS_DIR / f"{stem}.txt").write_text(text + "\n", encoding="utf-8")
    report_to_csv(report, RESULTS_DIR / f"{stem}.csv")
    payload = {
        "schema": "mapg.bench-result/1",
        "experiment_id": report.experiment_id,
        "caption": report.caption,
        "headers": list(report.headers),
        "rows": [[cell if isinstance(cell, (int, float)) else str(cell)
                  for cell in row] for row in report.rows],
        "notes": list(report.notes),
        "environment": environment_manifest(),
        "self_profile": _LAST_PROFILE,
    }
    (RESULTS_DIR / f"{stem}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    _LAST_PROFILE = None
    return report


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark and return its result.

    The call is self-profiled (wall time, peak RSS) and the report is
    stashed for the following :func:`emit` to archive alongside the rows.
    """
    global _LAST_PROFILE
    profiler = SelfProfiler()

    def profiled():
        with profiler.stage("experiment"):
            return fn()

    result = benchmark.pedantic(profiled, rounds=1, iterations=1)
    _LAST_PROFILE = profiler.report()
    return result
