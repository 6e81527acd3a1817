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
from repro.lint.rules.err_hierarchy import HierarchyDisciplineRule
from repro.lint.rules.float_equality import FloatEqualityRule
from repro.lint.rules.obs_neutrality import ObsNeutralityRule
from repro.lint.rules.unit_safety import UnitSafetyRule
from repro.lint.rules.worker_purity import WorkerPurityRule

__all__ = [
    "BoundaryEscapeRule",
    "CacheSoundnessRule",
    "ConfigDeadnessRule",
    "HierarchyDisciplineRule",
    "SharedStateRaceRule",
    "DeterminismRule",
    "FloatEqualityRule",
    "ObsNeutralityRule",
    "UnitSafetyRule",
    "WorkerPurityRule",
]
