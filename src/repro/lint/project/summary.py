"""Phase 1 of the whole-program analyzer: per-file symbol extraction.

``extract_summary`` turns one parsed module into a :class:`ModuleSummary`
— a compact, picklable record of everything the interprocedural rules need
from that file: its functions and methods (with inferred parameter/return
dimensions and every call they make), its dataclasses (fields and the
names their ``__post_init__`` validates), every attribute name the module
reads, and its per-line ``# mapglint: disable`` pragmas.

Summaries are the unit of caching: because they carry no AST nodes, a warm
lint run deserializes them straight from ``.mapglint-cache/`` and goes
directly to phase 2 without re-parsing or re-inferring anything.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.lint.project.dimensions import (
    UNKNOWN, CallObservation, FunctionAnalyzer, dim_of_name, dotted_name)
from repro.lint.project.effects import (
    ModuleEffects, extract_module_effects, line_at, source_repr,
    split_source)

#: Bump when the summary layout changes so cached pickles are invalidated
#: even if the source of the lint package somehow hashes equal.
#: 4: ModuleEffects grew the concurrency model (spawn sites, lock ops,
#: guarded bindings, persistence writes) for the concurrency rules.
#: 5: ModuleEffects grew the error-flow model (raise sites, handler
#: spans, resource sites, exception classes) for ERR01–ERR04/RES01.
#: 6: ModuleTwinFacts joined the summary for the twin-drift rules.
#: 7: ModuleTwinFacts removed with the twin-drift rules.
SUMMARY_SCHEMA = 7


@dataclass(frozen=True)
class CallSite:
    """One call expression, as seen from inside a function body."""

    name: str                  # bare callee name ("add_interval")
    callee: str                # dotted spelling ("self.ledger.add_interval")
    receiver: str              # dotted receiver ("self.ledger"), may be ""
    line: int
    col: int
    line_text: str
    arg_dims: Tuple[str, ...]
    arg_reprs: Tuple[str, ...]
    arg_tuple_lens: Tuple[Optional[int], ...]
    kw_dims: Tuple[Tuple[str, str], ...]
    result_context: str        # dimension the result visibly flows into
    obs_guarded: bool = False  # under an ``enabled`` observability guard
    result_used: bool = True   # False for bare statement-expressions
    result_target: str = ""    # dotted assignment target, "" if none


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method: signature dimensions plus its call sites."""

    qualname: str              # "module.py::Class.method" (display/debug)
    name: str                  # bare name used for call resolution
    line: int
    is_method: bool
    params: Tuple[Tuple[str, str], ...]   # (name, dim), self/cls dropped
    return_dim: str
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


@dataclass(frozen=True)
class AttrWrite:
    """One attribute-assignment site (``obj.attr = ...`` / ``+=`` / ``[k] +=``)."""

    name: str                  # attribute being written ("_event_energy_j")
    receiver: str              # dotted receiver ("self.ledger"), may be ""
    line: int
    col: int
    line_text: str


@dataclass
class ModuleSummary:
    """Everything phase 2 needs to know about one file."""

    path: str                                  # normalized, forward slashes
    functions: List[FunctionInfo] = field(default_factory=list)
    dataclasses: List[DataclassInfo] = field(default_factory=list)
    attr_reads: Set[str] = field(default_factory=set)
    attr_writes: List[AttrWrite] = field(default_factory=list)
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


def _analyze_function(path: str, lines: List[str],
                      func: ast.AST, class_name: str = "") -> FunctionInfo:
    assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    calls: List[CallSite] = []

    def on_call(obs: CallObservation) -> None:
        node = obs.node
        calls.append(CallSite(
            name=obs.name,
            callee=_dotted_callee(node),
            receiver=obs.receiver,
            line=node.lineno,
            col=node.col_offset + 1,
            line_text=line_at(lines, node.lineno),
            arg_dims=tuple(obs.arg_dims),
            arg_reprs=tuple(source_repr(lines, arg) for arg in node.args),
            arg_tuple_lens=tuple(obs.arg_tuple_lens),
            kw_dims=tuple(sorted(obs.kw_dims.items())),
            result_context=obs.result_context,
            obs_guarded=obs.obs_guarded,
            result_used=obs.result_used,
            result_target=obs.result_target,
        ))

    decorators = _decorator_names(func)
    is_method = bool(class_name) and "staticmethod" not in decorators
    analyzer = FunctionAnalyzer(on_call=on_call)
    params, return_dim = analyzer.analyze(func, is_method=is_method)
    qual = f"{class_name}.{func.name}" if class_name else func.name
    return FunctionInfo(
        qualname=f"{path}::{qual}",
        name=func.name,
        line=func.lineno,
        is_method=is_method,
        params=tuple(params),
        return_dim=return_dim,
        calls=tuple(calls),
    )


def _dotted_callee(node: ast.Call) -> str:
    return dotted_name(node.func)


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
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                # Unwrap subscripts: ``obj._state_cycles[k] += n`` writes
                # the ``_state_cycles`` attribute.
                while isinstance(target, ast.Subscript):
                    target = target.value
                if isinstance(target, ast.Attribute):
                    summary.attr_writes.append(AttrWrite(
                        name=target.attr,
                        receiver=dotted_name(target.value),
                        line=target.lineno,
                        col=target.col_offset + 1,
                        line_text=line_at(lines, target.lineno)))

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

    # Module-level call sites (constants computed at import time).
    module_level = [stmt for stmt in tree.body
                    if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.Expr,
                                         ast.If, ast.For, ast.Try))]
    if module_level:
        wrapper = ast.FunctionDef(
            name="<module>", args=ast.arguments(
                posonlyargs=[], args=[], vararg=None, kwonlyargs=[],
                kw_defaults=[], kwarg=None, defaults=[]),
            body=module_level, decorator_list=[], returns=None,
            type_comment=None, lineno=1, col_offset=0)
        try:
            info = _analyze_function(norm, lines, wrapper)
        except (AttributeError, TypeError):  # defensive: odd module shapes
            info = None
        if info is not None and info.calls:
            summary.functions.append(FunctionInfo(
                qualname=f"{norm}::<module>", name="<module>", line=1,
                is_method=False, params=(), return_dim=UNKNOWN,
                calls=info.calls))

    summary.module_effects = extract_module_effects(norm, source, tree)

    return summary
