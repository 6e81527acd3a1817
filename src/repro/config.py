"""Validated configuration objects for every subsystem.

One frozen dataclass per subsystem, aggregated into :class:`SystemConfig`.
All configs validate in ``__post_init__`` so that an invalid configuration
fails at construction time — never mid-simulation.  Every config round-trips
through plain dicts (:meth:`to_dict` / :meth:`from_dict`) and therefore
through JSON, which the benchmark harness uses to record the exact
configuration next to every result row.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from repro.errors import ConfigError
from repro.units import GHZ


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CoreConfig:
    """Parameters of one trace-driven core.

    The core retires one instruction per cycle when not stalled; cache hit
    latencies are charged as extra cycles on the access path.  ``mlp_overlap``
    models memory-level parallelism as a scalar shortening factor on
    back-to-back misses (blocking core only); ``miss_window > 1`` selects
    the structural windowed-MLP core instead, which supersedes
    ``mlp_overlap``.
    """

    frequency_hz: float = 2.0 * GHZ
    pipeline_depth: int = 12
    issue_width: int = 1
    mlp_overlap: float = 0.0
    # Outstanding off-chip misses the core can run past before stalling
    # (1 = blocking in-order; >1 selects the windowed-MLP core model).
    miss_window: int = 1

    def __post_init__(self) -> None:
        _require(self.frequency_hz > 0, f"frequency_hz must be > 0, got {self.frequency_hz}")
        _require(self.pipeline_depth >= 1, f"pipeline_depth must be >= 1, got {self.pipeline_depth}")
        _require(self.issue_width >= 1, f"issue_width must be >= 1, got {self.issue_width}")
        _require(0.0 <= self.mlp_overlap <= 1.0,
                 f"mlp_overlap must be in [0, 1], got {self.mlp_overlap}")
        _require(self.miss_window >= 1,
                 f"miss_window must be >= 1, got {self.miss_window}")

    @property
    def cycle_time_s(self) -> float:
        """Duration of one core clock cycle in seconds."""
        return 1.0 / self.frequency_hz


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    name: str = "L1D"
    size_bytes: int = 32 * 1024
    line_bytes: int = 64
    associativity: int = 8
    hit_latency_cycles: int = 3
    # LRU is the only policy; the key stays so saved configs still load.
    replacement: str = "lru"
    write_back: bool = True
    mshr_entries: int = 8

    def __post_init__(self) -> None:
        _require(bool(self.name), "cache name must be non-empty")
        _require(_is_power_of_two(self.line_bytes), f"line_bytes must be a power of two, got {self.line_bytes}")
        _require(self.size_bytes >= self.line_bytes,
                 f"size_bytes ({self.size_bytes}) must be >= line_bytes ({self.line_bytes})")
        _require(self.size_bytes % self.line_bytes == 0,
                 f"size_bytes must be a multiple of line_bytes")
        lines = self.size_bytes // self.line_bytes
        _require(self.associativity >= 1, f"associativity must be >= 1, got {self.associativity}")
        _require(lines % self.associativity == 0,
                 f"number of lines ({lines}) must be divisible by associativity ({self.associativity})")
        _require(_is_power_of_two(lines // self.associativity),
                 f"number of sets ({lines // self.associativity}) must be a power of two")
        _require(self.hit_latency_cycles >= 0,
                 f"hit_latency_cycles must be >= 0, got {self.hit_latency_cycles}")
        _require(self.replacement == "lru",
                 f"replacement must be 'lru', got {self.replacement!r}")
        _require(self.mshr_entries >= 1, f"mshr_entries must be >= 1, got {self.mshr_entries}")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // self.line_bytes // self.associativity


@dataclass(frozen=True)
class DramConfig:
    """Timing and organization of the off-chip DRAM.

    Timings are in **DRAM-bus nanoseconds** following DDR3-1600-like values;
    the memory controller converts to core cycles.  The row-buffer model
    distinguishes hits (tCAS), closed-row misses (tRCD + tCAS), and conflicts
    (tRP + tRCD + tCAS), plus a fixed controller/interconnect overhead.
    """

    channels: int = 1
    ranks_per_channel: int = 1
    banks_per_rank: int = 8
    row_bytes: int = 8 * 1024
    t_cas_ns: float = 13.75
    t_rcd_ns: float = 13.75
    t_rp_ns: float = 13.75
    t_ras_ns: float = 35.0
    controller_overhead_ns: float = 20.0
    bus_transfer_ns: float = 5.0
    queue_service_ns: float = 7.5
    row_policy: str = "open"  # "open" or "closed" page policy
    refresh_interval_ns: float = 7800.0
    refresh_latency_ns: float = 0.0  # 0 disables refresh modeling
    # Per-bank write buffering: writes are absorbed into a buffer and drain
    # during idle gaps (read-priority scheduling).  0 disables buffering —
    # writes then occupy the bank immediately, like reads.
    write_buffer_per_bank: int = 4

    def __post_init__(self) -> None:
        _require(self.channels >= 1, f"channels must be >= 1, got {self.channels}")
        _require(self.ranks_per_channel >= 1, "ranks_per_channel must be >= 1")
        _require(self.banks_per_rank >= 1, "banks_per_rank must be >= 1")
        _require(_is_power_of_two(self.row_bytes), f"row_bytes must be a power of two, got {self.row_bytes}")
        for label in ("t_cas_ns", "t_rcd_ns", "t_rp_ns", "t_ras_ns",
                      "controller_overhead_ns", "bus_transfer_ns", "queue_service_ns"):
            _require(getattr(self, label) >= 0.0, f"{label} must be >= 0")
        _require(self.row_policy in ("open", "closed"),
                 f"row_policy must be 'open' or 'closed', got {self.row_policy!r}")
        _require(self.refresh_interval_ns > 0.0, "refresh_interval_ns must be > 0")
        _require(self.refresh_latency_ns >= 0.0, "refresh_latency_ns must be >= 0")
        _require(self.write_buffer_per_bank >= 0,
                 "write_buffer_per_bank must be >= 0")

    @property
    def total_banks(self) -> int:
        return self.channels * self.ranks_per_channel * self.banks_per_rank

    def scaled(self, factor: float) -> "DramConfig":
        """Return a copy with all latency components scaled by ``factor``.

        Used by the F4 memory-latency sensitivity sweep.
        """
        _require(factor > 0.0, f"latency scale factor must be > 0, got {factor}")
        return dataclasses.replace(
            self,
            t_cas_ns=self.t_cas_ns * factor,
            t_rcd_ns=self.t_rcd_ns * factor,
            t_rp_ns=self.t_rp_ns * factor,
            t_ras_ns=self.t_ras_ns * factor,
            controller_overhead_ns=self.controller_overhead_ns * factor,
            bus_transfer_ns=self.bus_transfer_ns * factor,
            queue_service_ns=self.queue_service_ns * factor,
        )


@dataclass(frozen=True)
class GatingConfig:
    """Knobs of the MAPG controller (not the circuit — see power.gating).

    ``guard_margin_cycles`` is added on top of the break-even time before a
    gating decision is taken; it absorbs prediction error.  ``early_wakeup``
    enables just-in-time wakeup scheduled ``wake latency`` before the
    predicted data return; ``early_margin_cycles`` starts that wake a few
    cycles *earlier* still, trading a sliver of sleep for robustness against
    latency over-prediction (an unbiased predictor is late half the time —
    the margin biases the wake deliberately early, so a small prediction
    error costs idle-awake cycles instead of exposed wake latency).
    ``min_confidence`` gates the use of the latency predictor: below it,
    MAPG falls back to the conservative static estimate.
    """

    policy: str = "mapg"  # never | naive | bet_guard | mapg | mapg_adaptive | oracle
    predictor: str = "table"  # fixed | last_value | ewma | table | oracle
    guard_margin_cycles: int = 10
    early_wakeup: bool = True
    early_margin_cycles: int = 8
    min_confidence: float = 0.3
    bet_scale: float = 1.0  # multiplies the circuit-derived BET (F3 sweep)
    wake_scale: float = 1.0  # multiplies the circuit-derived wake latency (F5 sweep)
    # Sleep-mode selection (F12): "full" collapses the rail every time;
    # "retention" clamps it at the retention voltage every time (faster,
    # cheaper wake; continuous clamp power); "dual" lets MAPG pick — full
    # gate on confident long stalls, retention when the estimate is coarse.
    sleep_mode: str = "full"

    _POLICIES = ("never", "naive", "bet_guard", "mapg", "mapg_adaptive", "oracle")
    _PREDICTORS = ("fixed", "last_value", "ewma", "table", "oracle")
    _SLEEP_MODES = ("full", "retention", "dual")

    def __post_init__(self) -> None:
        _require(self.policy in self._POLICIES,
                 f"policy must be one of {self._POLICIES}, got {self.policy!r}")
        _require(self.predictor in self._PREDICTORS,
                 f"predictor must be one of {self._PREDICTORS}, got {self.predictor!r}")
        _require(self.guard_margin_cycles >= 0, "guard_margin_cycles must be >= 0")
        _require(self.early_margin_cycles >= 0, "early_margin_cycles must be >= 0")
        _require(0.0 <= self.min_confidence <= 1.0, "min_confidence must be in [0, 1]")
        _require(self.bet_scale > 0.0, "bet_scale must be > 0")
        _require(self.wake_scale >= 0.0, "wake_scale must be >= 0")
        _require(self.sleep_mode in self._SLEEP_MODES,
                 f"sleep_mode must be one of {self._SLEEP_MODES}, got {self.sleep_mode!r}")


@dataclass(frozen=True)
class TokenConfig:
    """Token-based adaptive power gating (TAP) arbitration for multi-core.

    ``wake_tokens`` bounds how many cores may be *waking up* simultaneously,
    which bounds the worst-case rush current on the shared power grid.
    """

    enabled: bool = False
    wake_tokens: int = 2
    token_wait_limit_cycles: int = 1000

    def __post_init__(self) -> None:
        _require(self.wake_tokens >= 1, "wake_tokens must be >= 1")
        _require(self.token_wait_limit_cycles >= 0, "token_wait_limit_cycles must be >= 0")


@dataclass(frozen=True)
class PrefetcherConfig:
    """Stride-prefetcher parameters (L2-side; see repro.memory.prefetch)."""

    enabled: bool = False
    table_entries: int = 32
    degree: int = 2            # prefetches issued per trained trigger
    confirmations: int = 2     # identical strides needed before issuing
    max_stride_bytes: int = 8 * 1024

    def __post_init__(self) -> None:
        _require(self.table_entries >= 1, "prefetcher table needs >= 1 entry")
        _require(self.degree >= 1, "prefetch degree must be >= 1")
        _require(self.confirmations >= 1, "confirmations must be >= 1")
        _require(self.max_stride_bytes >= 1, "max_stride_bytes must be >= 1")


@dataclass(frozen=True)
class SystemConfig:
    """Aggregate configuration of one simulated system."""

    core: CoreConfig = field(default_factory=CoreConfig)
    l1: CacheConfig = field(default_factory=lambda: CacheConfig(
        name="L1D", size_bytes=32 * 1024, associativity=8, hit_latency_cycles=3))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(
        name="L2", size_bytes=2 * 1024 * 1024, associativity=16, hit_latency_cycles=20,
        mshr_entries=16))
    dram: DramConfig = field(default_factory=DramConfig)
    gating: GatingConfig = field(default_factory=GatingConfig)
    token: TokenConfig = field(default_factory=TokenConfig)
    prefetcher: PrefetcherConfig = field(default_factory=PrefetcherConfig)
    technology: str = "45nm"
    num_cores: int = 1

    def __post_init__(self) -> None:
        _require(self.num_cores >= 1, f"num_cores must be >= 1, got {self.num_cores}")
        _require(self.l1.line_bytes == self.l2.line_bytes,
                 "L1 and L2 must use the same line size")
        _require(bool(self.technology), "technology name must be non-empty")

    # ---- dict / JSON round-trip -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SystemConfig":
        try:
            return cls(
                core=CoreConfig(**data.get("core", {})),
                l1=CacheConfig(**data.get("l1", {})),
                l2=CacheConfig(**data.get("l2", {})),
                dram=DramConfig(**data.get("dram", {})),
                gating=GatingConfig(**data.get("gating", {})),
                token=TokenConfig(**data.get("token", {})),
                prefetcher=PrefetcherConfig(**data.get("prefetcher", {})),
                technology=data.get("technology", "45nm"),
                num_cores=data.get("num_cores", 1),
            )
        except TypeError as exc:
            raise ConfigError(f"unknown or missing configuration field: {exc}") from exc

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SystemConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON configuration: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("JSON configuration must be an object")
        return cls.from_dict(data)

    def replace(self, **overrides: Any) -> "SystemConfig":
        """Functional update, mirroring ``dataclasses.replace``."""
        return dataclasses.replace(self, **overrides)


def default_config() -> SystemConfig:
    """The baseline single-core system used throughout the evaluation (T1)."""
    return SystemConfig()
