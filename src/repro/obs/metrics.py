"""Deterministic metrics primitives: counters, gauges, histograms, registry.

These are *observability* metrics — cheap named instruments the simulator
increments as events happen, collected into machine-readable snapshots
(JSONL, the run manifest, the bench harness).  They are deliberately
simpler than :mod:`repro.stats`: no percentile estimation, no merging —
just monotone counts, last-value gauges, and fixed-bucket histograms that
serialize to plain dicts.

Everything here is deterministic-safe: no instrument ever reads the wall
clock (DET01); "when" is always a caller-supplied cycle count.  The one
process-wide :class:`Registry` (``default_registry()``) exists so that
far-apart components can share instruments without threading a registry
handle through every constructor; tests that need isolation construct
their own ``Registry``.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ReproError


class MetricError(ReproError):
    """Raised on metric misuse (decremented counter, kind collision...)."""


class Counter:
    """A monotonically increasing count of events."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise MetricError(
                f"counter {self.name!r} is monotonic; cannot add {amount}")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> Dict[str, Any]:
        return {"name": self.name, "kind": self.kind, "value": self._value}


class Gauge:
    """A value that can move both ways (queue depth, current cycle...)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = value

    def add(self, amount: float) -> None:
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> Dict[str, Any]:
        return {"name": self.name, "kind": self.kind, "value": self._value}


class Histogram:
    """Fixed-bucket histogram with half-open ``[edge[i], edge[i+1])`` buckets.

    Values below the first edge land in the underflow bucket, values at or
    above the last edge in the overflow bucket — the same convention as
    :class:`repro.stats.Histogram`, but without sample retention.
    """

    kind = "histogram"

    def __init__(self, name: str, edges: Sequence[float], help: str = "") -> None:
        if len(edges) < 2:
            raise MetricError(f"histogram {name!r} needs at least two edges")
        ordered = list(edges)
        if any(b <= a for a, b in zip(ordered, ordered[1:])):
            raise MetricError(
                f"histogram {name!r} edges must be strictly increasing")
        self.name = name
        self.help = help
        self._edges: List[float] = ordered
        self._counts: List[int] = [0] * (len(ordered) + 1)
        self._n = 0
        self._sum = 0.0

    def observe(self, value: float) -> None:
        self._counts[bisect.bisect_right(self._edges, value)] += 1
        self._n += 1
        self._sum += value

    @property
    def count(self) -> int:
        return self._n

    @property
    def total(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._n if self._n else 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "count": self._n,
            "sum": self._sum,
            "edges": list(self._edges),
            "buckets": list(self._counts),
        }


class Registry:
    """Named instruments of one observation scope.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: asking twice
    for the same name returns the same instrument, asking with a different
    kind is an error — so two components can safely share a metric by name.

    Get-or-create is thread-safe: the daemon/watcher roadmap items put
    instrument creation on more than one thread, and an unlocked
    get-then-create lets two threads each create-and-register "the"
    instrument — counts then split across two objects and one snapshot
    silently loses the other's increments.  The lock covers only the
    creation path (double-checked: the common all-hits case takes the
    lock once per instrument lifetime); increments stay lock-free, as
    does the NULL_RECORDER fast path, so golden outputs are
    bit-identical.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, Any] = {}  # mapglint: guarded-by=self._lock

    def _get_or_create(self, cls: type, name: str, help: str,
                       **kwargs: Any) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = cls(name, help=help, **kwargs)
                    # A freshly created metric always passes the kind
                    # check below, so the raise cannot unwind past this
                    # registration.
                    self._metrics[name] = metric
        if not isinstance(metric, cls):
            raise MetricError(
                f"metric {name!r} already registered as "
                f"{metric.kind}, not {cls.kind}")  # type: ignore[attr-defined]
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, edges: Sequence[float],
                  help: str = "") -> Histogram:
        metric = self._get_or_create(Histogram, name, help, edges=edges)
        return metric

    def get(self, name: str) -> Optional[Any]:
        """The instrument registered under ``name``, or None."""
        return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def collect(self) -> List[Dict[str, Any]]:
        """Snapshot every instrument, sorted by name (deterministic)."""
        return [self._metrics[name].snapshot()
                for name in sorted(self._metrics)]

    def reset(self) -> None:
        """Drop every registered instrument (tests, measured-region resets)."""
        with self._lock:
            self._metrics.clear()


_DEFAULT_REGISTRY = Registry()


def default_registry() -> Registry:
    """The process-wide registry shared by components without a wired one."""
    return _DEFAULT_REGISTRY
