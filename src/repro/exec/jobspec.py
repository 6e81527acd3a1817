"""Canonical description of one simulation cell, hashable to a stable key.

A :class:`JobSpec` pins everything that determines a
:class:`~repro.sim.results.SimulationResult`: the full system
configuration (via its sha256 digest from :mod:`repro.obs.manifest`), the
workload profile, the trace seed, the op counts, and the operating
temperature.  Two specs with equal keys produce bit-identical results by
the determinism discipline, which is what makes the key safe to use as a
cache address and as the deterministic merge order of parallel sweeps.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.fastsim import DEFAULT_ENGINE, validate_engine
from repro.obs.manifest import config_digest
from repro.sim.runner import simulate_cell

JOB_SCHEMA = "mapg.job-spec/1"


@dataclass(frozen=True)
class JobSpec:
    """One simulation cell: exactly the inputs of ``run_workload``."""

    config: SystemConfig
    profile: str
    num_ops: int
    seed: int = 1
    warmup_ops: int = 0
    temperature_c: Optional[float] = None
    engine: str = DEFAULT_ENGINE

    def __post_init__(self) -> None:
        if not self.profile:
            raise ConfigError("JobSpec needs a workload profile name")
        if self.num_ops < 0:
            raise ConfigError(f"num_ops must be >= 0, got {self.num_ops}")
        if self.warmup_ops < 0:
            raise ConfigError(
                f"warmup_ops must be >= 0, got {self.warmup_ops}")
        validate_engine(self.engine)

    def canonical(self) -> Dict[str, Any]:
        """The key-relevant content, JSON-ready and stably ordered.

        The configuration enters through its sha256 digest: any field
        change anywhere in the config tree changes the digest and
        therefore the job key.

        ``engine`` is deliberately **not** part of the key: the fast
        kernel's contract is bit-identical results (enforced by the
        fast/oracle parity suite), so oracle- and fast-engine runs of the
        same cell are the same result and may share cache entries.
        """
        return {
            "schema": JOB_SCHEMA,
            "config_digest": config_digest(self.config),
            "profile": self.profile,
            "num_ops": self.num_ops,
            "seed": self.seed,
            "warmup_ops": self.warmup_ops,
            "temperature_c": self.temperature_c,
        }

    @property
    def key(self) -> str:
        """Stable sha256 over the canonical form (code version excluded —
        the :class:`~repro.exec.cache.ResultCache` mixes that in),
        computed once per spec: a sweep reads it three times per cell."""
        key = self.__dict__.get("_key")
        if key is None:
            payload = json.dumps(self.canonical(), sort_keys=True,
                                 separators=(",", ":"))
            key = hashlib.sha256(payload.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_key", key)  # a memo, not a field
        return key

    def to_payload(self) -> Dict[str, Any]:
        """A picklable, spawn-safe wire form for pool workers."""
        return {
            "config": self.config.to_dict(),
            "profile": self.profile,
            "num_ops": self.num_ops,
            "seed": self.seed,
            "warmup_ops": self.warmup_ops,
            "temperature_c": self.temperature_c,
            "engine": self.engine,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "JobSpec":
        """Rebuild a spec from :meth:`to_payload` output (in a worker)."""
        return cls(
            config=SystemConfig.from_dict(payload["config"]),
            profile=payload["profile"],
            num_ops=payload["num_ops"],
            seed=payload["seed"],
            warmup_ops=payload["warmup_ops"],
            temperature_c=payload["temperature_c"],
            engine=payload.get("engine", DEFAULT_ENGINE),
        )

    def execute(self, trace_store: Optional[Any] = None) -> Any:
        """Run this cell and return its ``SimulationResult``.

        A thin call to :func:`repro.sim.runner.simulate_cell`, which says
        how ``engine`` and ``trace_store`` choose the trace source.
        """
        return simulate_cell(self.config, self.profile, self.num_ops,
                             seed=self.seed, warmup_ops=self.warmup_ops,
                             temperature_c=self.temperature_c,
                             engine=self.engine, trace_store=trace_store)
