"""mapglint — project-specific static analysis for the MAPG reproduction.

The Python runtime never checks the invariants this codebase's credibility
rests on: cycle-ints and SI-floats must only mix inside ``repro.units``,
every power-gate transition must be legal per ``repro.core.state``, and a
simulation must be bit-reproducible across runs.  ``repro.lint`` enforces
those conventions statically, in two phases: per-file AST rules, then
whole-program rules over a project symbol table and call graph with
dimension inference (see ``repro.lint.project``).

Per-file rules:

* **UNIT01** — unit safety: no arithmetic mixing cycle-suffixed and
  SI-suffixed identifiers outside ``repro/units.py``; no raw scale
  literals (``1e-9`` …) where the ``units`` constants belong.
* **DET01** — determinism: no module-level ``random``/``numpy.random``
  calls, no wall-clock reads in simulation code, no iteration over sets
  in ``repro/sim`` and ``repro/core``.
* **FSM01** — FSM legality: every ``(PgState.X, PgState.Y)`` pair written
  anywhere in the codebase must be a legal transition of the power-gate
  state machine.
* **FLT01** — float equality: no ``==``/``!=`` between float-typed
  expressions in energy/power code.

Whole-program rules:

* **UNIT02** — interprocedural unit safety: argument/parameter and
  return/use dimensions must agree across call boundaries.
* **LEDGER01** — energy-ledger conservation: ``EnergyLedger`` mutations
  must charge proven joules/cycles with a known component tag, through
  the ledger API only.
* **CFG01** — config deadness: ``SystemConfig``-tree dataclass fields
  must be read somewhere in src and numeric fields range-checked in
  ``__post_init__``.
* **EVT01** — event-queue misuse: scheduling times must be cycle counts
  and heap entries must carry a deterministic tie-break.
* **CACHE01 / PURE01 / OBS01 / PAR01** — effect rules over the inferred
  effect closure: cache-key soundness, pool-worker purity, observability
  neutrality, and picklable pool payloads.
* **CONC01** — shared-state races over the extracted concurrency model:
  guarded fields (the ``# mapglint: guarded-by=<lock>`` pragma) and
  unsynchronized writes reachable from a thread, task or pool worker.

Run it as ``python -m repro.lint [paths]`` or ``python -m repro lint``.
Per-file results are cached under ``.mapglint-cache/`` and recomputed in
parallel with ``--jobs``; ``--format sarif`` emits SARIF 2.1.0 for code
scanning, and ``--fix`` applies the mechanical rewrites.  Findings can be
suppressed per line with ``# mapglint: disable=RULE`` or grandfathered
through a baseline file (see ``docs/LINTING.md``).
"""

from __future__ import annotations

from repro.lint.base import (
    LintRule, ProjectRule, all_project_rules, all_rule_ids, all_rules,
    get_rule, register_project_rule, register_rule)
from repro.lint.baseline import Baseline
from repro.lint.cache import ResultCache, ruleset_version
from repro.lint.findings import Finding, Severity, format_json, format_text
from repro.lint.fixes import fix_files, fix_source
from repro.lint.runner import (
    LintReport, lint_files, lint_paths, run_project_rules)
from repro.lint.sarif import format_sarif, to_sarif

__all__ = [
    "Baseline",
    "Finding",
    "LintReport",
    "LintRule",
    "ProjectRule",
    "ResultCache",
    "Severity",
    "all_project_rules",
    "all_rule_ids",
    "all_rules",
    "fix_files",
    "fix_source",
    "format_json",
    "format_sarif",
    "format_text",
    "get_rule",
    "lint_files",
    "lint_paths",
    "register_project_rule",
    "register_rule",
    "ruleset_version",
    "run_project_rules",
    "to_sarif",
]
