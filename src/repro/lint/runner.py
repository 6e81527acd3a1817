"""Two-phase rule execution with caching and a worker pool.

Phase 1 is per-file and embarrassingly parallel: parse, run every
:class:`~repro.lint.base.LintRule`, and extract the module's
:class:`~repro.lint.project.summary.ModuleSummary`.  Its results depend
only on the file's bytes and the linter's own source, so they are served
from :class:`~repro.lint.cache.ResultCache` when available and farmed out
to a ``multiprocessing`` pool (``--jobs``) only for the cache misses.

Phase 2 merges all summaries into a
:class:`~repro.lint.project.graph.ProjectModel` and runs the whole-program
rules (CFG01, CACHE01, PURE01, OBS01, CONC01, ERR01, ERR04).  It is
cheap — no ASTs, a few dictionary passes — and always runs in-process,
which is what makes a warm run nearly free: cache hits skip parsing
entirely and go straight here.

Per-line suppressions are applied inside phase 1 for file rules (the
``FileContext`` does it) and against the summaries' recorded pragma table
for project rules, so both paths honor the same ``# mapglint: disable``
comments.  The baseline filter runs last, over the merged finding list.
"""

from __future__ import annotations

import ast
import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.lint.base import (
    FileContext, all_project_rules, all_rules, parse_suppressions)
from repro.lint.baseline import Baseline
from repro.lint.cache import ResultCache
from repro.lint.findings import Finding, Severity
from repro.lint.project.graph import ProjectModel
from repro.lint.project.summary import ModuleSummary, extract_summary


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    stale_baseline: List[Tuple[str, str, str]] = field(default_factory=list)
    files_checked: int = 0
    parse_errors: List[Finding] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0

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


def lint_source(path: str, source: str,
                rule_ids: Optional[Iterable[str]] = None) -> List[Finding]:
    """Run the per-file rules over one in-memory module.

    Project rules need the whole program and are not run here; use
    :func:`lint_files`/:func:`lint_paths` (or :func:`run_project_rules`
    with hand-built summaries) for those.
    """
    tree = ast.parse(source, filename=path)
    context = FileContext(path, source, tree)
    wanted = set(rule_ids) if rule_ids is not None else None
    findings: List[Finding] = []
    for rule_class in all_rules():
        if wanted is not None and rule_class.rule_id not in wanted:
            continue
        findings.extend(rule_class().check(context))
    return findings


# One file's phase-1 outcome: (norm_path, findings, summary, error).
_Phase1Result = Tuple[str, List[Finding], Optional[ModuleSummary],
                      Optional[Finding]]


def _analyze_file(item: Tuple[str, str]) -> _Phase1Result:
    """Phase-1 worker: all file rules + summary extraction for one file.

    Module-level (not a closure) so the multiprocessing pool can pickle
    it; everything it returns is plain data.
    """
    path, source = item
    norm = path.replace("\\", "/")
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        error = Finding(
            path=norm, line=exc.lineno or 1, column=(exc.offset or 0) + 1,
            rule_id="SYNTAX", severity=Severity.ERROR,
            message=f"cannot parse file: {exc.msg}")
        return norm, [], None, error
    context = FileContext(path, source, tree)
    findings: List[Finding] = []
    for rule_class in all_rules():
        findings.extend(rule_class().check(context))
    summary = extract_summary(path, source, tree, parse_suppressions(source))
    return norm, findings, summary, None


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
               baseline: Optional[Baseline] = None,
               rule_ids: Optional[Iterable[str]] = None,
               jobs: int = 1,
               cache: Optional[ResultCache] = None) -> LintReport:
    """Lint a list of files: cache lookup, pooled phase 1, phase 2, baseline."""
    report = LintReport()
    wanted = set(rule_ids) if rule_ids is not None else None

    # Cache lookup; what misses goes to the workers.
    results: Dict[str, Tuple[List[Finding], ModuleSummary]] = {}
    pending: List[Tuple[str, str]] = []
    pending_keys: Dict[str, str] = {}
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
        if cache is not None:
            key = cache.key(source.encode("utf-8"))
            entry = cache.load(key)
            if entry is not None:
                results[norm] = entry
                continue
            pending_keys[norm] = key
        pending.append((path, source))

    # Phase 1 on the misses — pooled only when it can actually help.
    if jobs > 1 and len(pending) > 1:
        with multiprocessing.Pool(processes=min(jobs, len(pending))) as pool:
            outcomes = pool.map(_analyze_file, pending)
    else:
        outcomes = [_analyze_file(item) for item in pending]
    for norm, findings, summary, error in outcomes:
        if error is not None:
            report.parse_errors.append(error)
            continue
        assert summary is not None
        results[norm] = (findings, summary)
        if cache is not None and norm in pending_keys:
            cache.store(pending_keys[norm], findings, summary)

    report.files_checked = len(results)
    if cache is not None:
        report.cache_hits = cache.hits
        report.cache_misses = cache.misses

    # Cached entries hold *all* file-rule findings; subset at read time.
    raw: List[Finding] = []
    for norm in sorted(results):
        findings, _ = results[norm]
        raw.extend(f for f in findings
                   if wanted is None or f.rule_id in wanted)

    # Phase 2: whole-program rules over the merged summaries.
    summaries = [summary for _, summary in results.values()]
    if summaries:
        raw.extend(run_project_rules(summaries, rule_ids=rule_ids))

    if baseline is not None:
        report.findings, report.stale_baseline = baseline.filter(raw)
    else:
        report.findings = sorted(raw)
    return report


def lint_paths(paths: Sequence[str],
               baseline: Optional[Baseline] = None,
               rule_ids: Optional[Iterable[str]] = None,
               jobs: int = 1,
               cache: Optional[ResultCache] = None) -> LintReport:
    """Lint files and/or directory trees (the main entry point)."""
    return lint_files(collect_files(paths), baseline=baseline,
                      rule_ids=rule_ids, jobs=jobs, cache=cache)
