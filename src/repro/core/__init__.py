"""MAPG core: the power-gating controller, policies, and energy ledger.

This package is the paper's primary contribution.  Everything else in
``repro`` exists to feed it (workloads, memory timing, circuit
characterization) or to measure it (stats, analysis).
"""

from repro.core.adaptive import AdaptiveMapgPolicy
from repro.core.breakeven import BreakEvenAnalyzer
from repro.core.controller import MapgController, StallOutcome
from repro.core.energy import EnergyLedger
from repro.core.policies import (
    GatingDecision,
    GatingPolicy,
    MapgPolicy,
    NaivePolicy,
    NeverPolicy,
    OraclePolicy,
    ThresholdPolicy,
    make_policy,
)
from repro.core.state import PgState, PowerGateStateMachine
from repro.core.token import TokenArbiter
from repro.core.wakeup import (
    WakeupPlan, plan_wakeup, resolve_wakeup, wakeup_timeline)

__all__ = [
    "AdaptiveMapgPolicy",
    "BreakEvenAnalyzer",
    "MapgController",
    "StallOutcome",
    "EnergyLedger",
    "GatingDecision",
    "GatingPolicy",
    "MapgPolicy",
    "NaivePolicy",
    "NeverPolicy",
    "OraclePolicy",
    "ThresholdPolicy",
    "make_policy",
    "PgState",
    "PowerGateStateMachine",
    "TokenArbiter",
    "WakeupPlan",
    "plan_wakeup",
    "resolve_wakeup",
    "wakeup_timeline",
]
