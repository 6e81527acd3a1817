"""Sweep-scale telemetry: per-cell lifecycle events for ``SweepRunner``.

PR 3 made *single runs* observable; this module does the same for whole
sweeps.  A :class:`SweepRecorder` receives lifecycle callbacks from
:class:`repro.exec.engine.SweepRunner` — queued → cache probe →
hit/miss → dispatched → completed/failed — and turns them into three
artifacts:

* a **JSONL event stream** (schema ``mapg.sweep-events/1``): one line
  per lifecycle event, monotone ``t`` offsets in wall seconds since the
  recorder was built;
* a **sweep manifest** (schema ``mapg.sweep-manifest/1``): the spec-key
  list, the simulation-source digest, per-cell timing/source records,
  failure records from the :class:`~repro.errors.SweepError` path, and
  aggregate counters (hit rate, dedupe count, worker utilization,
  cells/sec, per-engine cell counts)
  next to the environment manifest;
* an optional **live progress/ETA line** for TTY runs.

The determinism contract mirrors :mod:`repro.obs.spans`: sweep *results*
are byte-identical with the recorder attached or not, at any ``--jobs``
count — the recorder only observes; nothing it produces may flow back
into a :class:`~repro.sim.results.SimulationResult` (OBS01 enforces
this).  Unlike spans, sweep telemetry is *about the host* (how long did
cells take, which worker ran them), so this module — like
:mod:`repro.obs.profile` — is on the DET01 wall-clock allowlist; its
event streams are intentionally not bit-reproducible, only its sweep
results are.

The disabled default is :data:`NULL_SWEEP_RECORDER`: ``enabled = False``
plus no-op methods, so an unobserved sweep pays one attribute check per
instrumentation site and allocates nothing.
"""

from __future__ import annotations

import json
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, TextIO, Tuple, Union

from repro.obs.manifest import environment_manifest
from repro.obs.runlog import JsonlWriter

PathLike = Union[str, Path]

SWEEP_EVENTS_SCHEMA = "mapg.sweep-events/1"
SWEEP_MANIFEST_SCHEMA = "mapg.sweep-manifest/1"

#: Every event type the recorder can emit, with the keys each must carry
#: (beyond the common ``event`` and ``t``).  The validator below checks
#: streams against this table — the same pattern as
#: :func:`repro.obs.perfetto.validate_chrome_trace`.
EVENT_REQUIRED_KEYS: Dict[str, Tuple[str, ...]] = {
    "sweep_begin": ("cells", "unique", "jobs", "simulation_version",
                    "cache"),
    "cell_queued": ("key", "profile", "policy", "seed", "num_ops"),
    "cache_hit": ("key",),
    "cache_miss": ("key",),
    "dispatch": ("cells", "workers", "mode", "cost_ops"),
    "cell_start": ("key",),
    "cell_done": ("key", "wall_s", "worker"),
    "cell_failed": ("key", "error", "worker"),
    "sweep_end": ("wall_s", "executed", "hits", "failed", "cells_per_sec"),
}
# ``cell_queued`` and ``cell_done`` additionally carry ``engine`` when
# the runner reports it.  Deliberately *not* a required key: streams
# recorded before the engine telemetry existed must keep validating.

#: Event types that reference a cell and therefore require the key to
#: have been announced by a prior ``cell_queued``.
_KEYED_EVENTS = frozenset({"cache_hit", "cache_miss", "cell_start",
                           "cell_done", "cell_failed"})


class NullSweepRecorder:
    """Disabled sweep recorder: one attribute check, no-ops, no state.

    Shared as the module-level :data:`NULL_SWEEP_RECORDER` singleton;
    :class:`~repro.exec.engine.SweepRunner` takes it as the default so
    sweep telemetry costs nothing until a real :class:`SweepRecorder`
    is wired in.
    """

    enabled = False

    def sweep_begin(self, cells: int, unique: int, jobs: int,
                    simulation_version: str, cache_attached: bool) -> None:
        """Record nothing."""

    def cell_queued(self, key: str, profile: str, policy: str, seed: int,
                    num_ops: int, engine: str) -> None:
        """Record nothing."""

    def cell_cache_hit(self, key: str) -> None:
        """Record nothing."""

    def cell_cache_miss(self, key: str) -> None:
        """Record nothing."""

    def dispatch(self, cells: int, workers: int, mode: str,
                 cost_ops: int) -> None:
        """Record nothing."""

    def cell_start(self, key: str) -> None:
        """Record nothing."""

    def cell_done(self, key: str, engine: str, worker: int = 0) -> None:
        """Record nothing."""

    def cell_failed(self, key: str, error: str, worker: int = 0) -> None:
        """Record nothing."""

    def sweep_end(self) -> None:
        """Record nothing."""


NULL_SWEEP_RECORDER = NullSweepRecorder()


class SweepRecorder(NullSweepRecorder):
    """In-memory buffer of sweep lifecycle events plus aggregates.

    One recorder observes one or more sequential ``SweepRunner.run``
    calls (counters accumulate; each run contributes one
    ``sweep_begin``/``sweep_end`` pair to the event stream).  All
    timestamps are wall-clock offsets since construction — this is host
    telemetry, deliberately outside the cycle domain.

    Per-cell ``wall_s`` semantics: on the serial path it is the exact
    cell execution time (``cell_start`` → ``cell_done``); on the pool
    path it is the completion offset since the batch dispatch — an upper
    bound, since workers pipeline cells.  Cache hits carry no ``wall_s``.

    ``progress`` may be a TTY stream (``sys.stderr``); a live
    ``done/total | hit/run/fail | cells/s | ETA`` line is rewritten in
    place as cells finish and finalized with a newline at ``sweep_end``.
    Non-TTY streams are ignored, so piping a sweep stays clean.
    """

    enabled = True

    def __init__(self, progress: Optional[TextIO] = None) -> None:
        self._t0 = time.perf_counter()
        self._events: List[Dict[str, Any]] = []
        self._cells: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        is_tty = getattr(progress, "isatty", None)
        self._progress = progress if (progress is not None and is_tty
                                      and is_tty()) else None
        self._progress_width = 0
        self.submitted = 0
        self.hits = 0
        self.misses = 0
        self.completed = 0
        self.failed = 0
        self.jobs = 1
        self.cache_attached = False
        self.simulation_version = ""
        self._wall_s = 0.0
        self._begin_t: Optional[float] = None
        self._dispatch_t: Optional[float] = None
        self._start_t: Dict[str, float] = {}
        self._engine_counts: Dict[str, int] = {"oracle": 0, "fast": 0}

    # -- internals ---------------------------------------------------------

    def _now(self) -> float:
        return time.perf_counter() - self._t0

    def _emit(self, event: str, **fields: Any) -> float:
        now = self._now()
        record: Dict[str, Any] = {"event": event, "t": round(now, 6)}
        record.update(fields)
        self._events.append(record)
        return now

    # -- lifecycle sinks (called by SweepRunner) ---------------------------

    def sweep_begin(self, cells: int, unique: int, jobs: int,
                    simulation_version: str, cache_attached: bool) -> None:
        """One ``run()`` call starts: ``cells`` specs, ``unique`` distinct."""
        self.submitted += cells
        self.jobs = jobs
        self.cache_attached = cache_attached
        self.simulation_version = simulation_version
        self._begin_t = self._emit(
            "sweep_begin", cells=cells, unique=unique, jobs=jobs,
            simulation_version=simulation_version, cache=cache_attached)

    def cell_queued(self, key: str, profile: str, policy: str, seed: int,
                    num_ops: int, engine: str) -> None:
        """Announce one distinct cell of the sweep (first-seen order).

        ``engine`` is the engine the spec names.
        """
        self._emit("cell_queued", key=key, profile=profile, policy=policy,
                   seed=seed, num_ops=num_ops, engine=engine)
        if key not in self._cells:
            self._cells[key] = {
                "profile": profile, "policy": policy, "seed": seed,
                "num_ops": num_ops, "source": "queued",
                "worker": None, "wall_s": None,
                "engine": engine,
            }

    def cell_cache_hit(self, key: str) -> None:
        """The cache probe found this cell; it will not execute."""
        self.hits += 1
        self._emit("cache_hit", key=key)
        record = self._cells.get(key)
        if record is not None:
            record["source"] = "cache"
        self._render_progress()

    def cell_cache_miss(self, key: str) -> None:
        """The cache probe missed; the cell joins the execution batch."""
        self.misses += 1
        self._emit("cache_miss", key=key)

    def dispatch(self, cells: int, workers: int, mode: str,
                 cost_ops: int) -> None:
        """The miss batch is handed to the serial loop or the pool.

        ``cost_ops`` is the batch's estimated inline cost in fast-kernel
        op-equivalents, the figure the runner weighed against a cold
        pool's start-up to choose ``mode``.
        """
        self._dispatch_t = self._emit("dispatch", cells=cells,
                                      workers=workers, mode=mode,
                                      cost_ops=cost_ops)

    def cell_start(self, key: str) -> None:
        """Serial path only: this cell starts executing right now."""
        self._start_t[key] = self._emit("cell_start", key=key)

    def cell_done(self, key: str, engine: str, worker: int = 0) -> None:
        """One cell finished; ``worker`` is 0 on the serial path.

        ``engine`` is the spec's engine, as the runner read it in the
        parent.
        """
        now = self._now()
        wall = self._cell_wall(key, now)
        self.completed += 1
        record = self._cells.get(key)
        self._engine_counts[engine] = self._engine_counts.get(engine, 0) + 1
        self._emit("cell_done", key=key, wall_s=round(wall, 6),
                   worker=worker, engine=engine)
        if record is not None:
            record.update(source="executed", worker=worker,
                          wall_s=round(wall, 6), engine=engine)
        self._render_progress()

    def cell_failed(self, key: str, error: str, worker: int = 0) -> None:
        """One cell raised; the failure record feeds the sweep manifest."""
        now = self._now()
        wall = self._cell_wall(key, now)
        self.failed += 1
        self._emit("cell_failed", key=key, error=error, worker=worker)
        record = self._cells.get(key)
        if record is not None:
            record.update(source="failed", worker=worker,
                          wall_s=round(wall, 6), error=error)
        self._render_progress()

    def sweep_end(self) -> None:
        """The ``run()`` call is over (reached even on the failure path)."""
        now = self._now()
        if self._begin_t is not None:
            self._wall_s += now - self._begin_t
            self._begin_t = None
        counters = self.summary()
        self._emit("sweep_end", wall_s=counters["wall_s"],
                   executed=self.completed, hits=self.hits,
                   failed=self.failed,
                   cells_per_sec=counters["cells_per_sec"])
        self._finish_progress()

    def _cell_wall(self, key: str, now: float) -> float:
        started = self._start_t.pop(key, None)
        if started is not None:
            return now - started
        if self._dispatch_t is not None:
            return now - self._dispatch_t
        return 0.0

    # -- progress ----------------------------------------------------------

    def _render_progress(self) -> None:
        if self._progress is None:
            return
        done = self.hits + self.completed + self.failed
        total = len(self._cells)
        origin = self._begin_t if self._begin_t is not None else 0.0
        elapsed = max(self._now() - origin, 1e-9)
        rate = done / elapsed
        remaining = max(total - done, 0)
        eta = remaining / rate if rate > 0 else 0.0
        line = (f"\rsweep {done}/{total} cells | {self.hits} hit "
                f"{self.completed} run {self.failed} fail | "
                f"{rate:.1f} cells/s | ETA {eta:.1f}s")
        self._progress_width = max(self._progress_width, len(line))
        self._progress.write(line.ljust(self._progress_width))
        self._progress.flush()

    def _finish_progress(self) -> None:
        if self._progress is None:
            return
        self._render_progress()
        self._progress.write("\n")
        self._progress.flush()

    # -- inspection / artifacts --------------------------------------------

    def events(self) -> Tuple[Dict[str, Any], ...]:
        """Every recorded event, in recording order."""
        return tuple(self._events)

    def summary(self) -> Dict[str, Any]:
        """Aggregate counters over everything recorded so far."""
        unique = len(self._cells)
        processed = self.hits + self.completed + self.failed
        per_worker: Dict[str, int] = {}
        for record in self._cells.values():
            if record["source"] in ("executed", "failed") and \
                    record["worker"] is not None:
                slot = str(record["worker"])
                per_worker[slot] = per_worker.get(slot, 0) + 1
        utilization = None
        if per_worker:
            counts = sorted(per_worker.values())
            utilization = round(
                (sum(counts) / len(counts)) / counts[-1], 6)
        wall = self._wall_s
        if self._begin_t is not None:  # mid-sweep snapshot (progress line)
            wall += self._now() - self._begin_t
        return {
            "submitted": self.submitted,
            "unique_cells": unique,
            "dedupe": self.submitted - unique,
            "hits": self.hits,
            "misses": self.misses,
            "executed": self.completed,
            "failed": self.failed,
            "hit_rate": round(self.hits / unique, 6) if unique else 0.0,
            "wall_s": round(wall, 6),
            "cells_per_sec": (round(processed / wall, 6)
                              if wall > 0 else 0.0),
            "jobs": self.jobs,
            "per_worker": per_worker,
            "worker_utilization": utilization,
            "engines": dict(self._engine_counts),
        }

    def manifest(self) -> Dict[str, Any]:
        """The sweep-level manifest: spec keys, per-cell records, counters."""
        failures = {key: record["error"]
                    for key, record in self._cells.items()
                    if record["source"] == "failed"}
        return {
            "schema": SWEEP_MANIFEST_SCHEMA,
            "simulation_version": self.simulation_version,
            "cache_attached": self.cache_attached,
            "jobs": self.jobs,
            "spec_keys": list(self._cells),
            "counters": self.summary(),
            "cells": {key: dict(record)
                      for key, record in self._cells.items()},
            "failures": failures,
            "environment": environment_manifest(),
        }


# ---- artifacts --------------------------------------------------------------


def sweep_artifact_paths(manifest_path: PathLike) -> Tuple[Path, Path]:
    """Sibling artifact paths for one ``--telemetry-out`` target.

    ``sweep.json`` -> (``sweep.json``, ``sweep.events.jsonl``) — the
    manifest and the JSONL event stream always travel together, the same
    convention as :func:`repro.obs.perfetto.artifact_paths`.
    """
    path = Path(manifest_path)
    stem = path.name[:-5] if path.name.endswith(".json") else path.name
    return path, path.with_name(stem + ".events.jsonl")


def write_sweep_artifacts(recorder: SweepRecorder,
                          manifest_path: PathLike) -> Tuple[Path, Path]:
    """Write the manifest + event stream next to ``manifest_path``.

    Returns ``(manifest_path, events_path)``.  The events file carries a
    schema header line so a consumer can sniff it without the manifest.
    """
    manifest_file, events_file = sweep_artifact_paths(manifest_path)
    manifest_file.parent.mkdir(parents=True, exist_ok=True)
    manifest_file.write_text(
        json.dumps(recorder.manifest(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    with JsonlWriter(events_file) as writer:
        writer.write({"record": "header", "schema": SWEEP_EVENTS_SCHEMA,
                      "simulation_version": recorder.simulation_version})
        for event in recorder.events():
            writer.write(event)
    return manifest_file, events_file


# ---- validators -------------------------------------------------------------


def validate_sweep_events(records: Sequence[Mapping[str, Any]]
                          ) -> List[str]:
    """Schema-check an event stream; returns problems (empty = ok).

    Accepts the in-memory ``recorder.events()`` tuple or the parsed
    JSONL file (whose leading header line is recognized and skipped).
    Checks: known event types, per-type required keys, numeric monotone
    ``t``, a leading ``sweep_begin``, a trailing ``sweep_end``, and that
    every keyed event names a previously queued cell.
    """
    problems: List[str] = []
    events = list(records)
    if events and events[0].get("record") == "header":
        if events[0].get("schema") != SWEEP_EVENTS_SCHEMA:
            problems.append(
                f"header schema {events[0].get('schema')!r} != "
                f"{SWEEP_EVENTS_SCHEMA!r}")
        events = events[1:]
    if not events:
        return ["event stream is empty"]
    if events[0].get("event") != "sweep_begin":
        problems.append("first event must be sweep_begin")
    if events[-1].get("event") != "sweep_end":
        problems.append("last event must be sweep_end")
    queued = set()
    last_t = None
    for index, event in enumerate(events):
        kind = event.get("event")
        if kind not in EVENT_REQUIRED_KEYS:
            problems.append(f"event {index} has unknown type {kind!r}")
            continue
        for key in EVENT_REQUIRED_KEYS[kind]:
            if key not in event:
                problems.append(
                    f"event {index} ({kind}) missing required key {key!r}")
        t = event.get("t")
        if not isinstance(t, (int, float)) or isinstance(t, bool) or t < 0:
            problems.append(f"event {index} ({kind}) t is not a "
                            f"non-negative number")
        elif last_t is not None and t < last_t:
            problems.append(f"event {index} ({kind}) t={t} goes backwards "
                            f"(previous {last_t})")
        else:
            last_t = t
        if kind == "cell_queued":
            queued.add(event.get("key"))
        elif kind in _KEYED_EVENTS and event.get("key") not in queued:
            problems.append(f"event {index} ({kind}) references key "
                            f"{event.get('key')!r} never announced by "
                            f"cell_queued")
    return problems


def validate_sweep_manifest(manifest: Mapping[str, Any]) -> List[str]:
    """Schema-check a sweep manifest; returns problems (empty = ok).

    Beyond key presence, the counters must *reconcile*: every unique
    cell is accounted for exactly once as a hit, an executed cell, or a
    failure, and the failure records agree with the per-cell sources.
    """
    problems: List[str] = []
    if manifest.get("schema") != SWEEP_MANIFEST_SCHEMA:
        return [f"schema {manifest.get('schema')!r} != "
                f"{SWEEP_MANIFEST_SCHEMA!r}"]
    for key in ("simulation_version", "cache_attached", "jobs", "spec_keys",
                "counters", "cells", "failures", "environment"):
        if key not in manifest:
            problems.append(f"manifest missing key {key!r}")
    spec_keys = manifest.get("spec_keys")
    cells = manifest.get("cells")
    counters = manifest.get("counters")
    failures = manifest.get("failures")
    if not isinstance(spec_keys, list) or not isinstance(cells, Mapping) \
            or not isinstance(counters, Mapping) \
            or not isinstance(failures, Mapping):
        problems.append("spec_keys/cells/counters/failures have wrong types")
        return problems
    if sorted(spec_keys) != sorted(cells):
        problems.append("cells dict does not cover spec_keys exactly")
    unique = counters.get("unique_cells")
    if unique != len(spec_keys):
        problems.append(f"counters.unique_cells {unique!r} != "
                        f"{len(spec_keys)} spec keys")
    hits = counters.get("hits", 0)
    executed = counters.get("executed", 0)
    failed = counters.get("failed", 0)
    if isinstance(unique, int) and hits + executed + failed != unique:
        problems.append(
            f"counters do not reconcile: hits {hits} + executed {executed} "
            f"+ failed {failed} != unique_cells {unique}")
    failed_cells = {key for key, record in cells.items()
                    if isinstance(record, Mapping)
                    and record.get("source") == "failed"}
    if failed_cells != set(failures):
        problems.append("failure records disagree with per-cell sources")
    if len(failed_cells) != failed:
        problems.append(f"counters.failed {failed} != "
                        f"{len(failed_cells)} failed cell records")
    problems.extend(_validate_engine_counters(counters, cells, executed))
    return problems


def _validate_engine_counters(counters: Mapping[str, Any],
                              cells: Mapping[str, Any],
                              executed: Any) -> List[str]:
    """Reconcile ``counters.engines`` with the cells.

    Only runs when the manifest carries an ``engines`` counter —
    manifests recorded before the engine telemetry existed validate
    unchanged.  Checks: the engine buckets sum to ``executed``, and the
    executed cells' recorded engines agree with the bucket counts.
    """
    engines = counters.get("engines")
    if engines is None:
        return []
    if not isinstance(engines, Mapping):
        return ["counters.engines is not a mapping"]
    problems: List[str] = []
    total = sum(value for value in engines.values()
                if isinstance(value, int) and not isinstance(value, bool))
    if total != executed:
        problems.append(f"counters.engines sum {total} != "
                        f"executed {executed}")
    recomputed: Dict[str, int] = {}
    for record in cells.values():
        if isinstance(record, Mapping) and record.get("source") == "executed":
            engine = record.get("engine")
            recomputed[engine] = recomputed.get(engine, 0) + 1
    declared = {key: value for key, value in engines.items() if value}
    if declared != recomputed:
        problems.append(
            f"per-cell engine records {recomputed!r} disagree with "
            f"counters.engines {declared!r}")
    return problems
