"""mapglint — project-specific static analysis for the MAPG reproduction.

The Python runtime never checks some of the conventions this codebase's
credibility rests on: cycle-ints and SI-floats must only mix inside
``repro.units``, a simulation must be bit-reproducible across runs, and a
cached or pooled result must not depend on anything outside its payload.
``repro.lint`` enforces those conventions statically, in two phases:
per-file AST rules, then whole-program rules over a project symbol table,
call graph and per-function effect records (see ``repro.lint.project``).
Invariants the simulator checks while it runs (legal power-gate
transitions, energy-ledger conservation, event ordering) are pinned by the
runtime tests instead.

Per-file rules:

* **UNIT01** — unit safety: no arithmetic mixing cycle-suffixed and
  SI-suffixed identifiers outside ``repro/units.py``; no raw scale
  literals (``1e-9`` …) where the ``units`` constants belong.
* **DET01** — determinism: no module-level ``random``/``numpy.random``
  calls, no wall-clock reads in simulation code, no iteration over sets
  in ``repro/sim`` and ``repro/core``.
* **FLT01** — float equality: no ``==``/``!=`` between float-typed
  expressions in energy/power code.

Whole-program rules:

* **CFG01** — config deadness: ``SystemConfig``-tree dataclass fields
  must be read somewhere in src and numeric fields range-checked in
  ``__post_init__``.
* **CACHE01 / PURE01 / OBS01** — effect rules over the inferred effect
  closure: cache-key soundness, pool-worker purity, and observability
  neutrality.
* **CONC01** — shared-state races over the extracted concurrency model:
  guarded fields (the ``# mapglint: guarded-by=<lock>`` pragma) and
  unsynchronized writes reachable from a thread, task or pool worker.
* **ERR01 / ERR04** — error flow over the escaping-exception closure: no
  exception escapes a pool worker, CLI entry point or cache path, and
  library code raises ``ReproError`` subclasses.

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
