"""Two-phase rule execution.

Phase 1 is per file: parse, run every :class:`~repro.lint.base.LintRule`,
and extract the module's
:class:`~repro.lint.project.summary.ModuleSummary`.

Phase 2 merges all summaries into a
:class:`~repro.lint.project.graph.ProjectModel` and runs the whole-program
rules (CFG01, CACHE01, PURE01, OBS01, CONC01, ERR01, ERR04).  It needs no
ASTs, only a few dictionary passes over the summaries.

Per-line suppressions are applied inside phase 1 for file rules (the
``FileContext`` does it) and against the summaries' recorded pragma table
for project rules, so both paths honor the same ``# mapglint: disable``
comments.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

from repro.lint.base import (
    FileContext, all_project_rules, all_rules, parse_suppressions)
from repro.lint.findings import Finding, Severity
from repro.lint.project.graph import ProjectModel
from repro.lint.project.summary import ModuleSummary, extract_summary


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    parse_errors: List[Finding] = field(default_factory=list)

    @property
    def all_findings(self) -> List[Finding]:
        return sorted(self.parse_errors + self.findings)

    @property
    def ok(self) -> bool:
        return not self.findings and not self.parse_errors

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1


def collect_files(paths: Sequence[str]) -> List[str]:
    """Expand files and directories into a sorted list of ``.py`` files."""
    collected: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(d for d in dirs
                                 if d not in ("__pycache__", ".git"))
                for name in sorted(names):
                    if name.endswith(".py"):
                        collected.append(os.path.join(root, name))
        else:
            collected.append(path)
    # De-duplicate while preserving a deterministic order.
    return sorted(dict.fromkeys(collected))


def _run_file_rules(context: FileContext,
                    rule_ids: Optional[Iterable[str]]) -> List[Finding]:
    wanted = set(rule_ids) if rule_ids is not None else None
    findings: List[Finding] = []
    for rule_class in all_rules():
        if wanted is not None and rule_class.rule_id not in wanted:
            continue
        findings.extend(rule_class().check(context))
    return findings


def lint_source(path: str, source: str,
                rule_ids: Optional[Iterable[str]] = None) -> List[Finding]:
    """Run the per-file rules over one in-memory module.

    Project rules need the whole program and are not run here; use
    :func:`lint_files`/:func:`lint_paths` (or :func:`run_project_rules`
    with hand-built summaries) for those.
    """
    tree = ast.parse(source, filename=path)
    return _run_file_rules(FileContext(path, source, tree), rule_ids)


def run_project_rules(summaries: Sequence[ModuleSummary],
                      rule_ids: Optional[Iterable[str]] = None
                      ) -> List[Finding]:
    """Phase 2: whole-program rules over pre-built summaries."""
    wanted = set(rule_ids) if rule_ids is not None else None
    model = ProjectModel(summaries)
    findings: List[Finding] = []
    for rule_class in all_project_rules():
        if wanted is not None and rule_class.rule_id not in wanted:
            continue
        # check_project applies per-line suppressions itself (same filter
        # as LintRule.check), so every caller gets identical behavior.
        findings.extend(rule_class().check_project(model))
    return findings


def lint_files(files: Sequence[str],
               rule_ids: Optional[Iterable[str]] = None) -> LintReport:
    """Lint a list of files: phase 1 on each file, then phase 2."""
    report = LintReport()
    rule_ids = list(rule_ids) if rule_ids is not None else None
    raw: List[Finding] = []
    summaries: List[ModuleSummary] = []
    for path in files:
        norm = path.replace("\\", "/")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            report.parse_errors.append(Finding(
                path=norm, line=1, column=1, rule_id="IO",
                severity=Severity.ERROR, message=f"cannot read file: {exc}"))
            continue
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            report.parse_errors.append(Finding(
                path=norm, line=exc.lineno or 1,
                column=(exc.offset or 0) + 1, rule_id="SYNTAX",
                severity=Severity.ERROR,
                message=f"cannot parse file: {exc.msg}"))
            continue
        raw.extend(_run_file_rules(FileContext(path, source, tree),
                                   rule_ids))
        summaries.append(extract_summary(path, source, tree,
                                         parse_suppressions(source)))

    report.files_checked = len(summaries)
    if summaries:
        raw.extend(run_project_rules(summaries, rule_ids=rule_ids))
    report.findings = sorted(raw)
    return report


def lint_paths(paths: Sequence[str],
               rule_ids: Optional[Iterable[str]] = None) -> LintReport:
    """Lint files and/or directory trees (the main entry point)."""
    return lint_files(collect_files(paths), rule_ids=rule_ids)
