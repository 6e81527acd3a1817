"""Built-in mapglint rules.

Importing this package registers every rule with the registry in
``repro.lint.base``.
"""

from __future__ import annotations

from repro.lint.rules.cache_soundness import CacheSoundnessRule
from repro.lint.rules.conc_race import SharedStateRaceRule
from repro.lint.rules.config_deadness import ConfigDeadnessRule
from repro.lint.rules.determinism import DeterminismRule
from repro.lint.rules.err_boundary import BoundaryEscapeRule
from repro.lint.rules.err_handlers import HandlerHygieneRule
from repro.lint.rules.err_hierarchy import HierarchyDisciplineRule
from repro.lint.rules.err_state import ExceptionUnsafeMutationRule
from repro.lint.rules.event_queue import EventQueueRule
from repro.lint.rules.float_equality import FloatEqualityRule
from repro.lint.rules.fsm_legality import FsmLegalityRule
from repro.lint.rules.interprocedural import InterproceduralUnitRule
from repro.lint.rules.ledger import EnergyLedgerRule
from repro.lint.rules.obs_neutrality import ObsNeutralityRule
from repro.lint.rules.picklable import PicklablePayloadRule
from repro.lint.rules.res_lifecycle import ResourceLifecycleRule
from repro.lint.rules.unit_safety import UnitSafetyRule
from repro.lint.rules.worker_purity import WorkerPurityRule

__all__ = [
    "BoundaryEscapeRule",
    "CacheSoundnessRule",
    "ConfigDeadnessRule",
    "ExceptionUnsafeMutationRule",
    "HandlerHygieneRule",
    "HierarchyDisciplineRule",
    "ResourceLifecycleRule",
    "SharedStateRaceRule",
    "DeterminismRule",
    "EnergyLedgerRule",
    "EventQueueRule",
    "FloatEqualityRule",
    "FsmLegalityRule",
    "InterproceduralUnitRule",
    "ObsNeutralityRule",
    "PicklablePayloadRule",
    "UnitSafetyRule",
    "WorkerPurityRule",
]
