"""Gating policies: the decision logic compared in the evaluation (F2, T3).

Every policy answers the same question at the moment an off-chip stall
begins: *gate or not, and when should the wake start?*  The answer is a
:class:`GatingDecision`.  What distinguishes the policies is the
information they use:

* :class:`NeverPolicy` — baseline; never gates (pure clock gating).
* :class:`NaivePolicy` — gates on every off-chip stall, wake triggered by
  the data return.  The straw man that shows why MAPG needs a brain:
  it pays the full wake latency on every miss and loses energy on short
  (merged / row-hit) stalls.
* :class:`ThresholdPolicy` (``bet_guard``) — gates only when the *static*
  worst-typical latency estimate clears break-even; still wakes on return.
  This is the "BET check without prediction" middle ground.
* :class:`MapgPolicy` — the contribution.  Predicts the blocking access's
  total latency from a (pc, bank, row-outcome) table, falls back to
  learned per-outcome global registers below the confidence threshold,
  gates when the predicted stall clears break-even plus a guard margin,
  picks the sleep depth (full collapse vs retention clamp) when dual mode
  is on, and schedules a deliberately-early wake timer so the wake hides
  under the stall's tail.
* :class:`OraclePolicy` — upper bound; sees the actual duration, gates
  exactly when profitable, and times the wake perfectly.

(:class:`~repro.core.adaptive.AdaptiveMapgPolicy`, in its own module,
extends MapgPolicy with a feedback-adapted wake bias.)
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional

from repro.config import GatingConfig
from repro.core.breakeven import BreakEvenAnalyzer
from repro.core.wakeup import plan_wakeup
from repro.errors import ConfigError
from repro.predict.base import LatencyPredictor


@dataclass(frozen=True)
class GatingDecision:
    """Outcome of one policy consultation.

    ``planned_wake_offset`` is cycles after stall start at which the wake
    sequence begins, or None for a data-return-triggered wake.
    ``predicted_cycles`` records what the policy believed (for F6 accuracy
    accounting); ``reason`` is a short machine-greppable tag.
    """

    gate: bool
    planned_wake_offset: Optional[int] = None
    predicted_cycles: int = 0
    confidence: float = 0.0
    reason: str = ""
    mode: str = "full"  # "full" or "retention" (ignored when gate=False)


class GatingPolicy(abc.ABC):
    """Base class for gating decision logic."""

    def __init__(self, analyzer: BreakEvenAnalyzer) -> None:
        self.analyzer = analyzer

    @abc.abstractmethod
    def decide(self, pc: int, bank: int, actual_stall_cycles: int,
               kind: str = "", elapsed_cycles: int = 0) -> GatingDecision:
        """Decide for a stall beginning now.

        ``actual_stall_cycles`` is ground truth; only :class:`OraclePolicy`
        may read it — every other policy must decide from (pc, bank) and
        its own learned state, exactly as hardware would.
        """

    def observe(self, pc: int, bank: int, actual_stall_cycles: int,
                kind: str = "") -> None:
        """Learn the outcome (default: stateless, nothing to learn)."""

    def feedback(self, plan) -> None:
        """Receive the realized timeline of a gated stall (a WakeupPlan).

        Default: ignored.  Adaptive policies use this to close the loop on
        their wake-timing bias.
        """


class NeverPolicy(GatingPolicy):
    """Never gate; the clock-gated baseline every saving is measured against."""

    def decide(self, pc: int, bank: int, actual_stall_cycles: int,
               kind: str = "", elapsed_cycles: int = 0) -> GatingDecision:
        return GatingDecision(gate=False, reason="never")


class NaivePolicy(GatingPolicy):
    """Gate on every off-chip stall; wake on data return."""

    def decide(self, pc: int, bank: int, actual_stall_cycles: int,
               kind: str = "", elapsed_cycles: int = 0) -> GatingDecision:
        return GatingDecision(gate=True, planned_wake_offset=None, reason="naive")


class ThresholdPolicy(GatingPolicy):
    """Gate when the static latency estimate clears break-even; late wake.

    ``static_estimate_cycles`` should be the closed-row DRAM latency — the
    number a designer would hard-wire without a predictor.
    """

    def __init__(self, analyzer: BreakEvenAnalyzer, static_estimate_cycles: int) -> None:
        super().__init__(analyzer)
        if static_estimate_cycles < 0:
            raise ConfigError(
                f"static estimate must be >= 0, got {static_estimate_cycles}")
        self.static_estimate_cycles = static_estimate_cycles

    def decide(self, pc: int, bank: int, actual_stall_cycles: int,
               kind: str = "", elapsed_cycles: int = 0) -> GatingDecision:
        if self.analyzer.worthwhile(self.static_estimate_cycles, apply_margin=False):
            return GatingDecision(
                gate=True, planned_wake_offset=None,
                predicted_cycles=self.static_estimate_cycles,
                reason="threshold_static_ok")
        return GatingDecision(
            gate=False, predicted_cycles=self.static_estimate_cycles,
            reason="threshold_below_bet")


class MapgPolicy(GatingPolicy):
    """The MAPG policy: predicted-latency gating with early wakeup.

    Two-level estimation: the per-(pc, bank) predictor when its confidence
    clears ``min_confidence``, otherwise a *global* running mean of all
    observed off-chip stalls (one EWMA register in hardware), seeded with
    the static closed-row estimate.  The global mean tracks the workload's
    actual latency level, so even low-confidence gates schedule their wake
    near the right time instead of at a hard-wired constant.

    Wake timers are biased deliberately early: a late wake exposes the full
    wake latency, an early one only converts a few sleep cycles into
    idle-awake cycles.  Confident gates subtract the fixed
    ``early_margin_cycles``; fallback gates, whose estimate is coarser,
    subtract a multiple of the tracked mean absolute deviation (the
    TCP-RTO trick).  Fallback registers are kept per row-buffer outcome,
    since that outcome — which the memory controller knows — determines
    most of the latency.
    """

    def __init__(self, analyzer: BreakEvenAnalyzer, predictor: LatencyPredictor,
                 config: GatingConfig, static_estimate_cycles: int) -> None:
        super().__init__(analyzer)
        if static_estimate_cycles < 0:
            raise ConfigError(
                f"static estimate must be >= 0, got {static_estimate_cycles}")
        self.predictor = predictor
        self.config = config
        self.static_estimate_cycles = static_estimate_cycles
        # Per-row-buffer-outcome fallback registers (mean, deviation); the
        # "" key covers accesses whose outcome the controller didn't report.
        self._fallback: dict = {}
        # Decision inputs, read once (config and analyzer are frozen):
        # plan_gate runs at every off-chip stall on both engines.
        self._min_confidence = config.min_confidence
        self._early_margin = config.early_margin_cycles
        self._sleep_mode = config.sleep_mode
        self._early_wakeup = config.early_wakeup
        self._drain = analyzer.drain_cycles
        self._wake_full = analyzer.wake_cycles_for("full")
        self._wake_retention = analyzer.wake_cycles_for("retention")
        # The smallest stall analyzer.worthwhile(..., apply_margin=True)
        # accepts per mode: its achievable sleep D - drain - wake must
        # clear BET plus the guard margin.
        guard = analyzer.config.guard_margin_cycles
        self._threshold_full = (self._drain + self._wake_full
                                + analyzer.bet_cycles_for("full") + guard)
        self._threshold_retention = (
            self._drain + self._wake_retention
            + analyzer.bet_cycles_for("retention") + guard)

    # Global fallback registers: EWMA weight of the (mean, deviation)
    # pair, the deviation's cold-start fraction of the static estimate,
    # and how many deviations early a fallback gate wakes (the TCP-RTO
    # trick).
    _GLOBAL_ALPHA = 0.1
    _DEV_FRACTION = 0.25
    _DEV_BIAS = 1.5

    def _early_margin_cycles(self) -> int:
        """Early-wake bias for confident gates; adaptive subclasses override."""
        return self._early_margin

    def _fallback_registers(self, kind: str) -> "list[float]":
        registers = self._fallback.get(kind)
        if registers is None:
            registers = [float(self.static_estimate_cycles),
                         float(self.static_estimate_cycles)
                         * self._DEV_FRACTION]
            self._fallback[kind] = registers
        return registers

    def decide(self, pc: int, bank: int, actual_stall_cycles: int,
               kind: str = "", elapsed_cycles: int = 0) -> GatingDecision:
        prediction = self.predictor.predict(pc, bank, kind)
        mode, offset, estimate = self.plan_gate(
            prediction.latency_cycles, prediction.confidence, kind,
            elapsed_cycles)
        confident = prediction.confidence >= self._min_confidence
        if mode is None:
            return GatingDecision(
                gate=False, predicted_cycles=estimate,
                confidence=prediction.confidence,
                reason="mapg_below_bet" if confident else "mapg_fallback_below_bet")
        return GatingDecision(
            gate=True, planned_wake_offset=offset,
            predicted_cycles=estimate, confidence=prediction.confidence,
            reason="mapg_gate" if confident else "mapg_fallback_gate",
            mode=mode)

    def plan_gate(self, latency: int, confidence: float, kind: str,
                  elapsed: int = 0
                  ) -> "tuple[Optional[str], Optional[int], int]":
        """MAPG's rule for one stall: ``(mode, planned offset, estimate)``.

        ``latency``/``confidence`` are the predictor's total-latency
        estimate for the blocking access.  ``mode`` is the sleep mode to
        gate in, or None to stay awake; the planned offset is the wake
        timer (None for a data-return-triggered wake); ``estimate`` is the
        residual stall the decision was taken on.  ``decide`` wraps this;
        the fast kernel calls it directly.
        """
        # Predictors estimate the blocking access's *total* latency; the
        # residual stall is that minus how long the access has already been
        # in flight (0 on a blocking core; positive under MLP, where the
        # request's age is architecturally known).
        if confidence >= self._min_confidence:
            estimate = latency - elapsed
            if estimate < 0:
                estimate = 0
            wake_estimate = estimate - self._early_margin_cycles()
            confident = True
        else:
            registers = self._fallback.get(kind)
            if registers is None:
                registers = self._fallback_registers(kind)
            mean, deviation = registers
            estimate = round(mean) - elapsed
            if estimate < 0:
                estimate = 0
            wake_estimate = round(mean - elapsed - self._DEV_BIAS * deviation)
            confident = False

        # Sleep mode.  "full" only for estimates clearing the full-gate
        # threshold — and, in ``dual`` mode, only when the estimate is a
        # confident one (a coarse estimate risks the expensive full wake).
        # "retention" is the fallback depth: cheaper, faster wake, less
        # saving.  Whichever clears its threshold first wins.
        sleep_mode = self._sleep_mode
        full_ok = estimate >= self._threshold_full
        if sleep_mode == "full":
            mode = "full" if full_ok else None
        elif sleep_mode == "retention":
            mode = ("retention" if estimate >= self._threshold_retention
                    else None)
        elif full_ok and confident:
            mode = "full"
        elif estimate >= self._threshold_retention:
            mode = "retention"
        else:
            mode = "full" if full_ok else None
        if mode is None or not self._early_wakeup:
            return mode, None, estimate

        # Early wakeup is scheduled for every gate, from the best estimate
        # available — learned when confident, the fallback registers
        # otherwise.  A timer-started wake can only beat the return-triggered
        # fallback: if the estimate overshoots, the fallback bounds the loss
        # at the naive penalty; if it undershoots, the cost is idle-awake
        # cycles, which are far cheaper than exposed wake latency.  The early
        # margin deliberately biases the wake early for the same reason — an
        # unbiased predictor is late half the time.  This is plan_wakeup's
        # algebra on the clamped estimate, inline: the inputs are already
        # known to be non-negative.
        offset = (wake_estimate if wake_estimate > 0 else 0) - (
            self._wake_full if mode == "full" else self._wake_retention)
        if offset < self._drain:
            offset = self._drain
        return mode, offset, estimate

    def observe(self, pc: int, bank: int, actual_stall_cycles: int,
                kind: str = "") -> None:
        self.predictor.observe(pc, bank, actual_stall_cycles, kind)
        self.observe_fallback(kind, actual_stall_cycles)

    def observe_fallback(self, kind: str, actual_stall_cycles: int) -> None:
        """Train the ``kind`` fallback registers on one measured latency."""
        registers = self._fallback.get(kind)
        if registers is None:
            registers = self._fallback_registers(kind)
        error = actual_stall_cycles - registers[0]
        registers[0] += self._GLOBAL_ALPHA * error
        registers[1] += self._GLOBAL_ALPHA * (abs(error) - registers[1])


class OraclePolicy(GatingPolicy):
    """Perfect knowledge: gate iff profitable, wake timed exactly."""

    def decide(self, pc: int, bank: int, actual_stall_cycles: int,
               kind: str = "", elapsed_cycles: int = 0) -> GatingDecision:
        if not self.analyzer.worthwhile(actual_stall_cycles, apply_margin=False):
            return GatingDecision(
                gate=False, predicted_cycles=actual_stall_cycles,
                confidence=1.0, reason="oracle_below_bet")
        offset = plan_wakeup(
            predicted_stall=actual_stall_cycles,
            drain=self.analyzer.drain_cycles,
            wake=self.analyzer.wake_cycles,
            early_wakeup=True)
        return GatingDecision(
            gate=True, planned_wake_offset=offset,
            predicted_cycles=actual_stall_cycles, confidence=1.0,
            reason="oracle_gate")


def make_policy(config: GatingConfig, analyzer: BreakEvenAnalyzer,
                predictor: Optional[LatencyPredictor],
                static_estimate_cycles: int) -> GatingPolicy:
    """Instantiate the policy named by ``config.policy``.

    ``predictor`` is required only for ``"mapg"`` (None is accepted for the
    oracle-predictor variant, which behaves like :class:`OraclePolicy` with
    the guard margin applied).
    """
    name = config.policy
    if name == "never":
        return NeverPolicy(analyzer)
    if name == "naive":
        return NaivePolicy(analyzer)
    if name == "bet_guard":
        return ThresholdPolicy(analyzer, static_estimate_cycles)
    if name == "oracle":
        return OraclePolicy(analyzer)
    if name in ("mapg", "mapg_adaptive"):
        if predictor is None:
            # "mapg with oracle predictor" — perfect latency knowledge but
            # the real decision pipeline (margin, early wake plan).
            return OraclePolicy(analyzer)
        if name == "mapg_adaptive":
            from repro.core.adaptive import AdaptiveMapgPolicy
            return AdaptiveMapgPolicy(analyzer, predictor, config,
                                      static_estimate_cycles)
        return MapgPolicy(analyzer, predictor, config, static_estimate_cycles)
    raise ConfigError(f"unknown gating policy {name!r}")
