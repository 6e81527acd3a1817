"""Phase 1 of the whole-program analyzer: per-file symbol extraction.

``extract_summary`` turns one parsed module into a :class:`ModuleSummary`
— a compact record of everything the interprocedural rules need from that
file: its functions and methods (with every call they make), its
dataclasses (fields and the names their ``__post_init__`` validates),
every attribute name the module reads, its effect record and its per-line
``# mapglint: disable`` pragmas.  Summaries carry no AST nodes, so phase 2
never re-parses anything.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.lint.base import split_source
from repro.lint.project.effects import (
    ModuleEffects, dotted_name, extract_module_effects, line_at)

@dataclass(frozen=True)
class CallSite:
    """One call expression, as seen from inside a function body."""

    name: str                  # bare callee name ("add_interval")
    receiver: str              # dotted receiver ("self.ledger"), may be ""
    line: int
    col: int
    line_text: str
    obs_guarded: bool = False  # under an ``enabled`` observability guard
    result_used: bool = True   # False for bare statement-expressions
    result_target: str = ""    # dotted assignment target, "" if none


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method with its call sites."""

    qualname: str              # "module.py::Class.method" (display/debug)
    name: str                  # bare name used for call resolution
    line: int
    is_method: bool
    calls: Tuple[CallSite, ...]


@dataclass(frozen=True)
class FieldInfo:
    """One dataclass field."""

    name: str
    annotation: str
    line: int
    line_text: str = ""


@dataclass(frozen=True)
class DataclassInfo:
    """One ``@dataclass`` definition with its validation footprint."""

    name: str
    line: int
    fields: Tuple[FieldInfo, ...]
    has_post_init: bool
    validated: FrozenSet[str]  # names touched (attr or string) in __post_init__


@dataclass
class ModuleSummary:
    """Everything phase 2 needs to know about one file."""

    path: str                                  # normalized, forward slashes
    functions: List[FunctionInfo] = field(default_factory=list)
    dataclasses: List[DataclassInfo] = field(default_factory=list)
    attr_reads: Set[str] = field(default_factory=set)
    suppressions: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    module_effects: Optional[ModuleEffects] = None

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        rules = self.suppressions.get(line)
        if rules is None:
            return False
        return rule_id.upper() in rules or "ALL" in rules


_DATACLASS_NAMES = ("dataclass",)


def _is_dataclass_decorator(node: ast.expr) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Name):
        return target.id in _DATACLASS_NAMES
    if isinstance(target, ast.Attribute):
        return target.attr in _DATACLASS_NAMES
    return False


def _decorator_names(func: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for dec in getattr(func, "decorator_list", []):
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, ast.Attribute):
            names.add(target.attr)
    return names


class _AttrReadCollector(ast.NodeVisitor):
    """Collects every attribute name a subtree reads (plus getattr strings)."""

    def __init__(self, into: Set[str]) -> None:
        self.into = into

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            self.into.add(node.attr)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and node.func.id in \
                ("getattr", "hasattr") and len(node.args) >= 2 and \
                isinstance(node.args[1], ast.Constant) and \
                isinstance(node.args[1].value, str):
            self.into.add(node.args[1].value)
        # Keyword arguments of dataclasses.replace(...) count as field uses.
        func_name = node.func.attr if isinstance(node.func, ast.Attribute) \
            else (node.func.id if isinstance(node.func, ast.Name) else "")
        if func_name == "replace":
            for keyword in node.keywords:
                if keyword.arg:
                    self.into.add(keyword.arg)
        self.generic_visit(node)


def _is_enabled_test(node: ast.AST) -> bool:
    """Whether a condition proves the observability fast-path is on:
    ``X.enabled``, a bare ``enabled``, or an ``and`` chain containing one."""
    if isinstance(node, ast.Attribute) and node.attr == "enabled":
        return True
    if isinstance(node, ast.Name) and node.id == "enabled":
        return True
    if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
        return any(_is_enabled_test(value) for value in node.values)
    return False


def _is_negative_enabled_guard(stmt: ast.stmt) -> bool:
    """``if not X.enabled: return`` — everything after it is guarded."""
    if not isinstance(stmt, ast.If) or stmt.orelse:
        return False
    test = stmt.test
    if not (isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not)
            and _is_enabled_test(test.operand)):
        return False
    return all(isinstance(sub, (ast.Return, ast.Continue, ast.Raise))
               for sub in stmt.body)


class _CallCollector:
    """Every call expression of one body, in one linear pass.

    A call is recorded after its callee and arguments, with whether it
    sits under an observability ``enabled`` guard (an ``if X.enabled:``
    body, or the rest of a block after ``if not X.enabled: return``),
    whether its value is used, and the dotted target it is assigned or
    returned to.  Every statement and expression kind is walked, except
    nested ``def``/``class`` bodies (each is summarized on its own) and
    annotations.
    """

    def __init__(self, lines: List[str]) -> None:
        self.lines = lines
        self.calls: List[CallSite] = []
        self._guard_depth = 0

    def block(self, stmts: Sequence[ast.stmt]) -> None:
        bumped = 0
        for stmt in stmts:
            self._stmt(stmt)
            if _is_negative_enabled_guard(stmt):
                self._guard_depth += 1
                bumped += 1
        self._guard_depth -= bumped

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return
        if isinstance(stmt, ast.Assign):
            target = dotted_name(stmt.targets[0]) \
                if len(stmt.targets) == 1 else ""
            self._expr(stmt.value, target=target)
            for node in stmt.targets:
                self._expr(node)
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            if stmt.value is not None:
                self._expr(stmt.value, target=dotted_name(stmt.target))
            self._expr(stmt.target)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._expr(stmt.value, target="<return>")
        elif isinstance(stmt, ast.Expr):
            self._expr(stmt.value, used=False)
        elif isinstance(stmt, ast.If):
            self._expr(stmt.test)
            guarded = _is_enabled_test(stmt.test)
            self._guard_depth += guarded
            self.block(stmt.body)
            self._guard_depth -= guarded
            self.block(stmt.orelse)
        else:
            self._fields(stmt)

    def _fields(self, node: ast.AST) -> None:
        """Walk a statement or clause (handler, ``case``, ``with`` item)
        field by field: statement lists as blocks, the rest as
        expressions or nested clauses."""
        for _, value in ast.iter_fields(node):
            if isinstance(value, list) and value and \
                    isinstance(value[0], ast.stmt):
                self.block(value)
                continue
            for item in value if isinstance(value, list) else [value]:
                if isinstance(item, ast.expr):
                    self._expr(item)
                elif isinstance(item, ast.AST):
                    self._fields(item)

    def _expr(self, node: ast.AST, used: bool = True,
              target: str = "") -> None:
        """Record the calls in ``node``; ``used``/``target`` describe how
        the top-level expression's value is consumed (nested calls are
        always used and have no target)."""
        if isinstance(node, ast.Call):
            self._call(node, used, target)
            return
        for child in ast.iter_child_nodes(node):
            self._expr(child)

    def _call(self, node: ast.Call, used: bool, target: str) -> None:
        func = node.func
        self._expr(func.value if isinstance(func, ast.Attribute) else func)
        for arg in node.args:
            self._expr(arg)
        for keyword in node.keywords:
            self._expr(keyword.value)
        if isinstance(func, ast.Name):
            name, receiver = func.id, ""
        elif isinstance(func, ast.Attribute):
            name, receiver = func.attr, dotted_name(func.value)
        else:
            return
        self.calls.append(CallSite(
            name=name, receiver=receiver, line=node.lineno,
            col=node.col_offset + 1,
            line_text=line_at(self.lines, node.lineno),
            obs_guarded=self._guard_depth > 0, result_used=used,
            result_target=target))


def _calls_in(lines: List[str], body: Sequence[ast.stmt]
              ) -> Tuple[CallSite, ...]:
    collector = _CallCollector(lines)
    collector.block(body)
    return tuple(collector.calls)


def _analyze_function(path: str, lines: List[str],
                      func: ast.AST, class_name: str = "") -> FunctionInfo:
    assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    decorators = _decorator_names(func)
    qual = f"{class_name}.{func.name}" if class_name else func.name
    return FunctionInfo(
        qualname=f"{path}::{qual}",
        name=func.name,
        line=func.lineno,
        is_method=bool(class_name) and "staticmethod" not in decorators,
        calls=_calls_in(lines, func.body),
    )


def _extract_dataclass(node: ast.ClassDef,
                       lines: List[str]) -> Optional[DataclassInfo]:
    if not any(_is_dataclass_decorator(dec) for dec in node.decorator_list):
        return None
    fields: List[FieldInfo] = []
    has_post_init = False
    validated: Set[str] = set()
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            annotation = ast.unparse(stmt.annotation) if stmt.annotation else ""
            if "ClassVar" in annotation:
                continue
            fields.append(FieldInfo(name=stmt.target.id,
                                    annotation=annotation,
                                    line=stmt.lineno,
                                    line_text=line_at(lines, stmt.lineno)))
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                stmt.name == "__post_init__":
            has_post_init = True
            _AttrReadCollector(validated).visit(stmt)
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    validated.add(sub.value)
    return DataclassInfo(
        name=node.name,
        line=node.lineno,
        fields=tuple(fields),
        has_post_init=has_post_init,
        validated=frozenset(validated),
    )


def extract_summary(path: str, source: str, tree: ast.Module,
                    suppressions: Dict[int, FrozenSet[str]]) -> ModuleSummary:
    """Build the :class:`ModuleSummary` for one parsed module."""
    norm = path.replace("\\", "/")
    lines = split_source(source)
    summary = ModuleSummary(path=norm, suppressions=dict(suppressions))

    # Attribute reads over the whole module, *excluding* __post_init__
    # bodies: a validation read is not a use (CFG01 needs to tell the two
    # apart).  Collected first over everything, then __post_init__ scans
    # land in DataclassInfo.validated instead.
    post_init_nodes: List[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                node.name == "__post_init__":
            post_init_nodes.append(node)
    excluded = set()
    for post_init in post_init_nodes:
        for sub in ast.walk(post_init):
            excluded.add(id(sub))

    collector = _AttrReadCollector(summary.attr_reads)
    for node in ast.walk(tree):
        if id(node) in excluded:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            summary.attr_reads.add(node.attr)
        elif isinstance(node, ast.Call):
            collector.visit_Call(node)  # getattr/replace strings only

    # Functions, methods, dataclasses.
    def walk_body(body: List[ast.stmt], class_name: str = "") -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                summary.functions.append(_analyze_function(
                    norm, lines, stmt, class_name=class_name))
                # Nested defs (rare) still contribute call sites.
                nested = [s for s in stmt.body
                          if isinstance(s, (ast.FunctionDef,
                                            ast.AsyncFunctionDef))]
                if nested:
                    walk_body(nested, class_name=class_name)
            elif isinstance(stmt, ast.ClassDef):
                info = _extract_dataclass(stmt, lines)
                if info is not None:
                    summary.dataclasses.append(info)
                walk_body(stmt.body, class_name=stmt.name)

    walk_body(tree.body)

    # Module-level call sites (constants computed at import time); the
    # walk skips the def and class bodies summarized above.
    module_calls = _calls_in(lines, tree.body)
    if module_calls:
        summary.functions.append(FunctionInfo(
            qualname=f"{norm}::<module>", name="<module>", line=1,
            is_method=False, calls=module_calls))

    summary.module_effects = extract_module_effects(norm, source, tree)

    return summary
