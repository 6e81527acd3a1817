"""repro.fastsim — the columnar batched simulation fast path.

Public surface:

* :class:`ColumnarTrace` / :class:`ColumnarTraceStore` — parallel-array
  trace representation and the one trace memo both engines replay from.
* :class:`FastSimulator` — the batched kernel, bit-identical to the
  oracle :class:`~repro.sim.simulator.Simulator` (falls back to it for
  unsupported configurations; :func:`fallback_reasons` says when).
* :data:`ENGINES` / :data:`DEFAULT_ENGINE` / :func:`validate_engine` —
  the engine-selection vocabulary shared by the CLI, the runner, and the
  exec layer.  The default is ``"fast"``; ``"oracle"`` is the reference
  simulator, run when asked for by name.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.fastsim.columnar import (ColumnarTrace, ColumnarTraceStore,
                                    shared_columnar_store)
from repro.fastsim.kernel import FastSimulator, fallback_reasons

ENGINES = ("oracle", "fast")
DEFAULT_ENGINE = "fast"


def validate_engine(engine: str) -> str:
    """Check an engine name, returning it; raises ConfigError otherwise."""
    if engine not in ENGINES:
        raise ConfigError(
            f"unknown engine {engine!r}; choose one of {', '.join(ENGINES)}")
    return engine


__all__ = [
    "ColumnarTrace",
    "ColumnarTraceStore",
    "DEFAULT_ENGINE",
    "ENGINES",
    "FastSimulator",
    "fallback_reasons",
    "shared_columnar_store",
    "validate_engine",
]
