"""``--fix``: mechanical rewrites for the fixable rule patterns.

Only transformations with exactly one correct spelling are automated:

* **FLT01** — ``a == b`` between float-typed operands becomes
  ``math.isclose(a, b)`` (and ``!=`` becomes ``not math.isclose(a, b)``),
  inserting ``import math`` when the module lacks it.

* **UNIT01 scale literals** — ``x * 1e-9`` becomes ``x * NS`` when the
  surrounding expression proves *which* constant is meant: the other
  operand's (or the assignment target's) dimension picks between NS/NW/NJ.
  Frequency scales (``1e3``/``1e6``/``1e9``) are unambiguous.  A literal
  whose dimension can't be proven is left alone — a wrong constant is
  worse than a magic number.

Fixes are applied as source-text splices from the parsed AST's column
spans, bottom-up so earlier edits never shift later offsets, and the
result is re-parsed before writing: if the rewritten module no longer
parses (which would indicate a fixer bug, not a user error), the file is
left untouched.  Running ``--fix`` twice is a no-op by construction —
``math.isclose(a, b)`` contains no float equality and ``x * NS`` no raw
literal.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint.base import FileContext
from repro.lint.project.dimensions import (
    HERTZ, JOULES, SECONDS, WATTS, dim_of_name)
from repro.lint.rules.float_equality import _SCOPE as _FLT_SCOPE
from repro.lint.rules.float_equality import _is_floaty
from repro.lint.rules.unit_safety import _is_scale_literal

#: value -> dimension -> repro.units constant name.
_SCALE_BY_DIM: Dict[float, Dict[str, str]] = {
    1e-15: {SECONDS: "FS", JOULES: "FJ"},
    1e-12: {SECONDS: "PS", JOULES: "PJ"},
    1e-9: {SECONDS: "NS", WATTS: "NW", JOULES: "NJ"},
    1e-6: {SECONDS: "US", WATTS: "UW", JOULES: "UJ"},
    1e-3: {SECONDS: "MS", WATTS: "MW", JOULES: "MJ"},
    1e3: {HERTZ: "KHZ"},
    1e6: {HERTZ: "MHZ"},
    1e9: {HERTZ: "GHZ"},
}

# (line, col, end_line, end_col, replacement) in 0-based offsets.
_Edit = Tuple[int, int, int, int, str]


def _span(node: ast.AST) -> Optional[Tuple[int, int, int, int]]:
    end_line = getattr(node, "end_lineno", None)
    end_col = getattr(node, "end_col_offset", None)
    if end_line is None or end_col is None:
        return None
    return (node.lineno - 1, node.col_offset, end_line - 1, end_col)


def _segment(lines: List[str], span: Tuple[int, int, int, int]) -> str:
    line, col, end_line, end_col = span
    if line == end_line:
        return lines[line][col:end_col]
    parts = [lines[line][col:]]
    parts.extend(lines[line + 1:end_line])
    parts.append(lines[end_line][:end_col])
    return "\n".join(parts)


class _FixCollector(ast.NodeVisitor):
    """Walks one module collecting (edit, needed-import) pairs."""

    def __init__(self, context: FileContext) -> None:
        self.context = context
        self.lines = context.source.splitlines()
        self.edits: List[_Edit] = []
        self.needs_math = False
        self.needs_units: List[str] = []
        self._target_dim = "unknown"

    # -- FLT01: float equality -> math.isclose ----------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        if self.context.in_package(*_FLT_SCOPE) and len(node.ops) == 1 and \
                isinstance(node.ops[0], (ast.Eq, ast.NotEq)):
            left, right = node.left, node.comparators[0]
            if _is_floaty(left) or _is_floaty(right):
                span = _span(node)
                left_span = _span(left)
                right_span = _span(right)
                if span and left_span and right_span:
                    left_text = _segment(self.lines, left_span)
                    right_text = _segment(self.lines, right_span)
                    call = f"math.isclose({left_text}, {right_text})"
                    if isinstance(node.ops[0], ast.NotEq):
                        call = f"not {call}"
                    self.edits.append(span + (call,))
                    self.needs_math = True
                    return  # operands are rewritten wholesale; don't recurse
        self.generic_visit(node)

    # -- UNIT01: raw scale literal -> units constant -----------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        previous = self._target_dim
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            self._target_dim = dim_of_name(node.targets[0].id)
        self.generic_visit(node)
        self._target_dim = previous

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        previous = self._target_dim
        if isinstance(node.target, ast.Name):
            self._target_dim = dim_of_name(node.target.id)
        self.generic_visit(node)
        self._target_dim = previous

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, (ast.Mult, ast.Div)) and \
                not self.context.is_module("repro/units.py"):
            for operand, other in ((node.left, node.right),
                                   (node.right, node.left)):
                if _is_scale_literal(operand, self.context):
                    assert isinstance(operand, ast.Constant)
                    constant = self._pick_constant(operand.value, other)
                    span = _span(operand)
                    if constant and span:
                        self.edits.append(span + (constant,))
                        self.needs_units.append(constant)
        self.generic_visit(node)

    def _pick_constant(self, value: float, other: ast.AST) -> Optional[str]:
        by_dim = _SCALE_BY_DIM.get(value, {})
        if len(by_dim) == 1:
            return next(iter(by_dim.values()))
        other_dim = "unknown"
        if isinstance(other, ast.Name):
            other_dim = dim_of_name(other.id)
        elif isinstance(other, ast.Attribute):
            other_dim = dim_of_name(other.attr)
        if other_dim in by_dim:
            return by_dim[other_dim]
        return by_dim.get(self._target_dim)


def _apply_edits(source: str, edits: Sequence[_Edit]) -> str:
    lines = source.splitlines(keepends=True)
    for line, col, end_line, end_col, replacement in sorted(
            edits, key=lambda e: (e[0], e[1]), reverse=True):
        if line == end_line:
            text = lines[line]
            lines[line] = text[:col] + replacement + text[end_col:]
        else:
            first = lines[line][:col] + replacement
            tail = lines[end_line][end_col:]
            lines[line:end_line + 1] = [first + tail]
    return "".join(lines)


def _insert_imports(source: str, needs_math: bool,
                    needs_units: Sequence[str]) -> str:
    tree = ast.parse(source)
    have_math = False
    units_import: Optional[ast.ImportFrom] = None
    last_import_line = 0
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            have_math = have_math or any(
                alias.name == "math" for alias in stmt.names)
            last_import_line = max(last_import_line, stmt.lineno)
        elif isinstance(stmt, ast.ImportFrom):
            if stmt.module == "repro.units":
                units_import = stmt
            last_import_line = max(last_import_line,
                                   getattr(stmt, "end_lineno", stmt.lineno))
    wanted_units = sorted(set(needs_units))
    if units_import is not None and wanted_units:
        have = {alias.name for alias in units_import.names}
        wanted_units = [name for name in wanted_units if name not in have]

    lines = source.splitlines(keepends=True)
    additions: List[str] = []
    if needs_math and not have_math:
        additions.append("import math\n")
    if wanted_units:
        if units_import is not None:
            # Extend the existing import in place (single-line form only;
            # a parenthesized multi-line import just gets a second line).
            lineno = units_import.lineno - 1
            end = getattr(units_import, "end_lineno", units_import.lineno) - 1
            if lineno == end and wanted_units:
                text = lines[lineno].rstrip("\n")
                lines[lineno] = text + ", " + ", ".join(wanted_units) + "\n"
                wanted_units = []
        if wanted_units:
            additions.append(
                f"from repro.units import {', '.join(wanted_units)}\n")
    if additions:
        if last_import_line:
            insert_at = last_import_line
        else:
            # After a module docstring, before the first statement.
            insert_at = 0
            if tree.body and isinstance(tree.body[0], ast.Expr) and \
                    isinstance(tree.body[0].value, ast.Constant) and \
                    isinstance(tree.body[0].value.value, str):
                insert_at = getattr(tree.body[0], "end_lineno",
                                    tree.body[0].lineno)
        lines[insert_at:insert_at] = additions
    return "".join(lines)


def fix_source(path: str, source: str) -> Tuple[str, int]:
    """Rewritten source and number of edits (0 edits returns it unchanged)."""
    tree = ast.parse(source, filename=path)
    context = FileContext(path, source, tree)
    collector = _FixCollector(context)
    collector.visit(tree)
    if not collector.edits:
        return source, 0
    fixed = _apply_edits(source, collector.edits)
    fixed = _insert_imports(fixed, collector.needs_math,
                            collector.needs_units)
    ast.parse(fixed, filename=path)  # a fixer bug must not corrupt the file
    return fixed, len(collector.edits)


def fix_files(files: Sequence[str]) -> Dict[str, int]:
    """Apply fixes in place; returns ``{path: edit_count}`` for changed files."""
    changed: Dict[str, int] = {}
    for path in files:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            fixed, count = fix_source(path, source)
        except (OSError, SyntaxError):
            continue
        if count:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(fixed)
            changed[path.replace("\\", "/")] = count
    return changed
