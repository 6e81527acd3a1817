"""Rule framework: file context, visitor base class, and the rule registry.

A rule is an :class:`ast.NodeVisitor` subclass with a ``rule_id``; it emits
:class:`~repro.lint.findings.Finding` objects through :meth:`LintRule.report`.
Per-line suppression (``# mapglint: disable=RULE``) is applied here so no
rule has to know about it.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, FrozenSet, List, Optional, Tuple, Type

from repro.lint.findings import Finding, Severity

_DISABLE_RE = re.compile(r"#\s*mapglint:\s*disable=([A-Za-z0-9_,\s]+)")
_SOURCE_LINE = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")


def split_source(source: str) -> List[str]:
    """``source`` split into lines the way the parser numbers them.

    Only ``\\r\\n``, ``\\n`` and ``\\r`` end a line (a form feed does not,
    unlike :meth:`str.splitlines`) and each line keeps its ending, exactly
    as ``ast.get_source_segment`` splits.  Every line number mapglint
    reads (pragmas, finding text, call-site text) comes from this split.
    """
    return _SOURCE_LINE.findall(source)


def source_lines(source: str) -> List[str]:
    """:func:`split_source` with each line's ending removed."""
    return [line.rstrip("\r\n") for line in split_source(source)]


def parse_suppressions(source: str) -> Dict[int, FrozenSet[str]]:
    """Per-line ``# mapglint: disable=RULE[,RULE…]`` pragmas of a module.

    Shared by :class:`FileContext` (per-file rules) and the project
    summaries (interprocedural rules), so both suppression paths agree.
    """
    suppressions: Dict[int, FrozenSet[str]] = {}
    for lineno, line in enumerate(source_lines(source), start=1):
        match = _DISABLE_RE.search(line)
        if match:
            rules = frozenset(
                part.strip().upper()
                for part in match.group(1).split(",") if part.strip())
            suppressions[lineno] = rules
    return suppressions


class FileContext:
    """Everything a rule needs to know about the file under analysis."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        # Normalized, forward-slash path used for scoping and reporting.
        self.norm_path = path.replace("\\", "/")
        self.source = source
        self.lines = source_lines(source)
        self.tree = tree
        self._suppressions = parse_suppressions(source)

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        rules = self._suppressions.get(line)
        if rules is None:
            return False
        return rule_id.upper() in rules or "ALL" in rules

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""

    def in_package(self, *fragments: str) -> bool:
        """Whether this file lives under one of the package directories.

        ``fragments`` are slash-separated path pieces such as
        ``"repro/sim"``; a file matches if the fragment appears as a
        directory component of its normalized path.
        """
        for fragment in fragments:
            if f"/{fragment}/" in f"/{self.norm_path}":
                return True
        return False

    def is_module(self, dotted_tail: str) -> bool:
        """Whether this file *is* the module whose path ends in ``dotted_tail``.

        ``dotted_tail`` is given as a path suffix, e.g. ``repro/units.py``.
        """
        return self.norm_path.endswith("/" + dotted_tail) or \
            self.norm_path == dotted_tail


class LintRule(ast.NodeVisitor):
    """Base class for mapglint rules.

    Subclasses set ``rule_id``, ``summary``, and ``default_severity``, then
    override ``visit_*`` methods and call :meth:`report` on violations.
    ``check`` returns the findings for one file, already filtered through
    per-line suppressions.
    """

    rule_id: str = ""
    summary: str = ""
    default_severity: Severity = Severity.ERROR

    def __init__(self) -> None:
        self.context: Optional[FileContext] = None
        self._findings: List[Finding] = []

    # -- hooks -------------------------------------------------------------

    def applies_to(self, context: FileContext) -> bool:
        """Override to scope a rule to (or away from) parts of the tree."""
        return True

    def check(self, context: FileContext) -> List[Finding]:
        """Run the rule over one parsed file and return its findings."""
        if not self.applies_to(context):
            return []
        self.context = context
        self._findings = []
        self.visit(context.tree)
        # Nested expressions can trigger the same finding twice (e.g. a
        # mixed BinOp inside a mixed BinOp); report each once.
        findings = [f for f in dict.fromkeys(self._findings)
                    if not context.is_suppressed(f.rule_id, f.line)]
        self.context = None
        return findings

    def report(self, node: ast.AST, message: str,
               severity: Optional[Severity] = None) -> None:
        assert self.context is not None
        line = getattr(node, "lineno", 1)
        column = getattr(node, "col_offset", 0) + 1
        self._findings.append(Finding(
            path=self.context.norm_path,
            line=line,
            column=column,
            rule_id=self.rule_id,
            severity=severity if severity is not None else self.default_severity,
            message=message,
            line_text=self.context.line_text(line)))


class ProjectRule:
    """Base class for whole-program ("project") rules.

    Unlike :class:`LintRule`, a project rule never sees an AST: it runs
    once per lint invocation against the merged
    :class:`~repro.lint.project.graph.ProjectModel` (phase 2) and reports
    findings anywhere in the project.  Per-line ``# mapglint: disable``
    suppressions are applied here in :meth:`check_project` — the exact
    filter :meth:`LintRule.check` applies for file rules — so every
    invocation path (the runner, direct rule calls, ``--rules`` subsets)
    honors them identically.
    """

    rule_id: str = ""
    summary: str = ""
    default_severity: Severity = Severity.ERROR

    def __init__(self) -> None:
        self._findings: List[Finding] = []

    def check_project(self, model: "object") -> List[Finding]:
        """Run the rule over the whole-program model; returns findings."""
        self._findings = []
        self.run(model)
        is_suppressed = getattr(model, "is_suppressed", None)
        findings = list(dict.fromkeys(self._findings))
        if is_suppressed is not None:
            findings = [f for f in findings
                        if not is_suppressed(f.path, f.rule_id, f.line)]
        return findings

    def run(self, model: "object") -> None:
        """Override: inspect the model and call :meth:`report`."""
        raise NotImplementedError

    def report(self, path: str, line: int, column: int, message: str,
               line_text: str = "",
               severity: Optional[Severity] = None) -> None:
        self._findings.append(Finding(
            path=path, line=line, column=column, rule_id=self.rule_id,
            severity=severity if severity is not None else self.default_severity,
            message=message, line_text=line_text))


_REGISTRY: Dict[str, Type[LintRule]] = {}
_PROJECT_REGISTRY: Dict[str, Type[ProjectRule]] = {}


def register_rule(rule_class: Type[LintRule]) -> Type[LintRule]:
    """Class decorator adding a per-file rule to the global registry."""
    if not rule_class.rule_id:
        raise ValueError(f"{rule_class.__name__} has no rule_id")
    if rule_class.rule_id in _REGISTRY or rule_class.rule_id in _PROJECT_REGISTRY:
        raise ValueError(f"duplicate rule id {rule_class.rule_id}")
    _REGISTRY[rule_class.rule_id] = rule_class
    return rule_class


def register_project_rule(rule_class: Type[ProjectRule]) -> Type[ProjectRule]:
    """Class decorator adding a whole-program rule to the registry."""
    if not rule_class.rule_id:
        raise ValueError(f"{rule_class.__name__} has no rule_id")
    if rule_class.rule_id in _REGISTRY or rule_class.rule_id in _PROJECT_REGISTRY:
        raise ValueError(f"duplicate rule id {rule_class.rule_id}")
    _PROJECT_REGISTRY[rule_class.rule_id] = rule_class
    return rule_class


def all_rules() -> Tuple[Type[LintRule], ...]:
    """Every registered per-file rule class, ordered by rule id."""
    import repro.lint.rules  # noqa: F401  (registers the built-in rules)

    return tuple(_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY))


def all_project_rules() -> Tuple[Type[ProjectRule], ...]:
    """Every registered whole-program rule class, ordered by rule id."""
    import repro.lint.rules  # noqa: F401

    return tuple(_PROJECT_REGISTRY[rule_id]
                 for rule_id in sorted(_PROJECT_REGISTRY))


def all_rule_ids() -> Tuple[str, ...]:
    """Ids of every registered rule, file-level and project-level."""
    import repro.lint.rules  # noqa: F401

    return tuple(sorted(set(_REGISTRY) | set(_PROJECT_REGISTRY)))


def get_rule(rule_id: str) -> "Type[LintRule] | Type[ProjectRule]":
    """Look up one registered rule class by its id (e.g. ``"UNIT01"``)."""
    import repro.lint.rules  # noqa: F401

    try:
        return _REGISTRY.get(rule_id) or _PROJECT_REGISTRY[rule_id]
    except KeyError:
        known = ", ".join(sorted(set(_REGISTRY) | set(_PROJECT_REGISTRY)))
        raise KeyError(f"unknown rule id {rule_id!r}; "
                       f"known: {known}") from None
