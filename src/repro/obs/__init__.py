"""Deterministic observability: metrics, spans, manifests, self-profiling.

The simulator's evidence layer (see ``docs/OBSERVABILITY.md``):

* :mod:`repro.obs.metrics`  — ``Counter`` / ``Gauge`` / ``Histogram`` in a
  ``Registry``; cycle-domain, never wall-clock.
* :mod:`repro.obs.spans`    — ``SpanRecorder`` buffers cycle-timestamped
  spans per track; ``NULL_RECORDER`` is the free disabled default.
* :mod:`repro.obs.perfetto` — Chrome trace-event / Perfetto JSON export
  (``python -m repro run ... --trace-out run.json``).
* :mod:`repro.obs.manifest` — run manifests tying every result to its
  config digest, seed, workload, git SHA, and package version.
* :mod:`repro.obs.runlog`   — structured JSONL logs.
* :mod:`repro.obs.profile`  — simulator self-profiling (events/sec, wall
  time per stage, peak RSS); wall-clock allowed (DET01 allowlist).
* :mod:`repro.obs.sweep`    — ``SweepRecorder`` sweep-scale telemetry:
  per-cell lifecycle events, JSONL event stream, sweep manifest, live
  progress; ``NULL_SWEEP_RECORDER`` is the free disabled default.
  Wall-clock allowed — host telemetry, outside the cycle domain.
"""

from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    build_manifest,
    config_digest,
    environment_manifest,
    read_manifest,
    write_manifest,
)
from repro.obs.metrics import Counter, Histogram, MetricError, Registry
from repro.obs.perfetto import (
    artifact_paths,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.profile import PROFILE_SCHEMA, SelfProfiler, peak_rss_bytes
from repro.obs.runlog import (
    JsonlWriter,
    metrics_to_jsonl,
    read_jsonl,
    write_jsonl,
)
from repro.obs.spans import NULL_RECORDER, NullRecorder, SpanRecorder
from repro.obs.sweep import (
    NULL_SWEEP_RECORDER,
    SWEEP_EVENTS_SCHEMA,
    SWEEP_MANIFEST_SCHEMA,
    NullSweepRecorder,
    SweepRecorder,
    sweep_artifact_paths,
    validate_sweep_events,
    validate_sweep_manifest,
    write_sweep_artifacts,
)

__all__ = [
    "MANIFEST_SCHEMA",
    "PROFILE_SCHEMA",
    "SWEEP_EVENTS_SCHEMA",
    "SWEEP_MANIFEST_SCHEMA",
    "Counter",
    "Histogram",
    "JsonlWriter",
    "MetricError",
    "NULL_RECORDER",
    "NULL_SWEEP_RECORDER",
    "NullRecorder",
    "NullSweepRecorder",
    "Registry",
    "SelfProfiler",
    "SpanRecorder",
    "SweepRecorder",
    "artifact_paths",
    "build_manifest",
    "config_digest",
    "environment_manifest",
    "metrics_to_jsonl",
    "peak_rss_bytes",
    "read_jsonl",
    "read_manifest",
    "sweep_artifact_paths",
    "to_chrome_trace",
    "validate_chrome_trace",
    "validate_sweep_events",
    "validate_sweep_manifest",
    "write_chrome_trace",
    "write_jsonl",
    "write_manifest",
]
