"""Phase 2 substrate: the whole-program model built from module summaries.

``ProjectModel`` merges every :class:`~repro.lint.project.summary.ModuleSummary`
into a project symbol table (functions by bare name, dataclasses, the union
of attribute reads over non-test sources) and a name-resolved call graph.
Project rules run against this model only — they never touch an AST.

Call resolution is by bare name against functions *defined in non-test
source*.  When several same-named functions exist (``access`` appears on
``Cache``, ``MemoryHierarchy``, and ``Dram``), the name is ambiguous: the
effect and error-flow closures follow a call only when its name resolves
to exactly one definition, rather than guess at which one runs.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.project.effects import EffectPropagator
from repro.lint.project.errflow import ErrorFlow
from repro.lint.project.summary import (
    CallSite, DataclassInfo, FunctionInfo, ModuleSummary)


def is_test_path(path: str) -> bool:
    """Whether a normalized path denotes test code (skipped by src rules)."""
    parts = path.replace("\\", "/").split("/")
    if any(part in ("tests", "test") for part in parts[:-1]):
        return True
    name = parts[-1]
    return name.startswith("test_") or name.endswith("_test.py")


def in_repro(path: str) -> bool:
    """Whether a normalized path lies inside a ``repro`` package tree."""
    return "repro" in path.replace("\\", "/").split("/")


class ProjectModel:
    """Symbol table + call graph over every linted module."""

    # Bare names too generic to resolve by name alone, whatever agreement
    # the candidates show (dunders, ubiquitous verbs, str methods).
    _UNRESOLVABLE = frozenset({
        "<module>", "__init__", "__post_init__", "__repr__", "__str__",
        "get", "set", "add", "update", "append", "extend", "pop", "items",
        "keys", "values", "copy", "run", "main", "join",
    })

    def __init__(self, summaries: Iterable[ModuleSummary]) -> None:
        self.summaries: List[ModuleSummary] = sorted(
            summaries, key=lambda s: s.path)
        self._by_path: Dict[str, ModuleSummary] = {
            summary.path: summary for summary in self.summaries}
        # Functions defined in non-test source, keyed by bare name.
        self.functions_by_name: Dict[str, List[FunctionInfo]] = {}
        # All dataclasses, keyed by class name, with their defining module.
        self.dataclasses: List[Tuple[str, DataclassInfo]] = []
        # Union of attribute reads over non-test source (excluding
        # __post_init__ bodies — see summary.py).
        self.src_attr_reads: Set[str] = set()
        # All functions (tests included), keyed by display qualname — the
        # effect engine anchors findings on definitions wherever they live.
        self.functions_by_qualname: Dict[str, FunctionInfo] = {}
        self._effects: Optional[EffectPropagator] = None
        self._errflow: Optional[ErrorFlow] = None
        for summary in self.summaries:
            test = is_test_path(summary.path)
            for info in summary.functions:
                self.functions_by_qualname[info.qualname] = info
                if not test and info.name != "<module>":
                    self.functions_by_name.setdefault(info.name, []).append(info)
            for dc_info in summary.dataclasses:
                self.dataclasses.append((summary.path, dc_info))
            if not test:
                self.src_attr_reads |= summary.attr_reads

    # ---- lookups ---------------------------------------------------------

    def summary_for(self, path: str) -> Optional[ModuleSummary]:
        return self._by_path.get(path)

    def is_suppressed(self, path: str, rule_id: str, line: int) -> bool:
        summary = self._by_path.get(path)
        return summary is not None and summary.is_suppressed(rule_id, line)

    def resolve(self, name: str) -> List[FunctionInfo]:
        """Candidate definitions for a bare callee name (may be empty)."""
        if name in self._UNRESOLVABLE:
            return []
        return self.functions_by_name.get(name, [])

    def effects(self) -> EffectPropagator:
        """The transitive effect closure, built once per model on demand."""
        if self._effects is None:
            self._effects = EffectPropagator(self)
        return self._effects

    def errflow(self) -> ErrorFlow:
        """The escaping-exception closure, built once per model on demand."""
        if self._errflow is None:
            self._errflow = ErrorFlow(self)
        return self._errflow

    # ---- call graph (exposed for tests and tooling) ----------------------

    def call_graph(self) -> Dict[str, Set[str]]:
        """Name-resolved edges: caller qualname -> set of callee qualnames."""
        edges: Dict[str, Set[str]] = {}
        for summary in self.summaries:
            for info in summary.functions:
                targets = edges.setdefault(info.qualname, set())
                for call in info.calls:
                    for callee in self.resolve(call.name):
                        targets.add(callee.qualname)
        return edges

    def callers_of(self, bare_name: str) -> List[Tuple[FunctionInfo, CallSite]]:
        """Every (caller, call site) pair invoking ``bare_name``."""
        found: List[Tuple[FunctionInfo, CallSite]] = []
        for summary in self.summaries:
            for info in summary.functions:
                for call in info.calls:
                    if call.name == bare_name:
                        found.append((info, call))
        return found
