"""ERR01 — exception escape at a process boundary.

Three places in this repo are *boundaries*: once an exception crosses
them, there is no caller left that can handle it well.

1. **Pool workers.**  An exception escaping a ``multiprocessing`` worker
   surfaces as a bare re-raise at the pool join in the parent — the
   sweep dies, every in-flight cell is discarded, and at the 10^4-cell
   scale of the roadmap's cross-product studies the failing cell is
   unidentifiable.  A worker must catch, wrap the failure with its spec
   key, and return a failure record.

2. **CLI entry points** (``main`` in a ``cli.py``/``__main__.py``).  An
   escaping exception means a raw traceback for the user instead of a
   one-line error and a nonzero exit.

3. **Cache ``store``/``load`` paths.**  A corrupt or stale entry must
   mean a *miss* (or a skipped store), never an abort: the cache is an
   optimization and may not change observable behavior.

The escaping sets come from phase 2's fixpoint
(:mod:`repro.lint.project.errflow`), so every finding names a real raise
statement and the real call chain it travels.  A boundary that handles
everything intentionally — by catching broadly and returning a failure
record — declares ``# mapglint: error-boundary`` on its definition line,
which exempts it from this rule.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.lint.base import ProjectRule, register_project_rule
from repro.lint.findings import Severity
from repro.lint.project.concurrency import concurrent_roots
from repro.lint.project.effects import format_chain
from repro.lint.project.graph import ProjectModel, in_repro, is_test_path
from repro.lint.project.summary import FunctionInfo


def cli_entry_points(model: ProjectModel) -> List[Tuple[str, FunctionInfo]]:
    """``(path, FunctionInfo)`` for every CLI ``main`` in repro source."""
    entries: List[Tuple[str, FunctionInfo]] = []
    for summary in model.summaries:
        if is_test_path(summary.path) or not in_repro(summary.path):
            continue
        filename = summary.path.rsplit("/", 1)[-1]
        if filename not in ("cli.py", "__main__.py"):
            continue
        for info in summary.functions:
            if info.name == "main":
                entries.append((summary.path, info))
    return entries


def cache_endpoints(model: ProjectModel) -> List[Tuple[str, FunctionInfo]]:
    """``(path, FunctionInfo)`` for every ``*Cache.store``/``load``."""
    endpoints: List[Tuple[str, FunctionInfo]] = []
    for summary in model.summaries:
        if is_test_path(summary.path) or not in_repro(summary.path):
            continue
        for info in summary.functions:
            qual = info.qualname.split("::", 1)[-1]
            if "." not in qual:
                continue
            class_name, method = qual.rsplit(".", 1)
            if class_name.endswith("Cache") and method in ("store", "load"):
                endpoints.append((summary.path, info))
    return endpoints


@register_project_rule
class BoundaryEscapeRule(ProjectRule):
    rule_id = "ERR01"
    summary = ("no exception may escape a process boundary: pool workers, "
               "CLI entry points, and cache store/load paths must catch "
               "what their call tree can raise (or declare "
               "'# mapglint: error-boundary' after handling it) — an "
               "escape kills the sweep, the user session, or turns a "
               "corrupt cache entry into an abort")
    default_severity = Severity.ERROR

    def run(self, model: "object") -> None:
        assert isinstance(model, ProjectModel)
        flow = model.errflow()
        reported = set()

        def check(boundary_qualname: str, path: str, line: int, col: int,
                  line_text: str, described: str, fix: str) -> None:
            if flow.is_boundary(boundary_qualname):
                return
            for escape in sorted(
                    flow.escaping(boundary_qualname),
                    key=lambda e: (e.exc_type, e.origin, e.site.line)):
                dedup = (boundary_qualname, escape.exc_type, escape.origin)
                if dedup in reported:
                    continue
                reported.add(dedup)
                chain = format_chain(flow.chain(boundary_qualname, escape))
                origin_path = escape.origin.split("::", 1)[0]
                self.report(
                    path, line, col,
                    f"{described} can leak {escape.exc_type} raised at "
                    f"{origin_path}:{escape.site.line} (via {chain}); "
                    f"{fix}, or declare '# mapglint: error-boundary' on "
                    f"the definition line once it handles everything",
                    line_text=line_text)

        for root in concurrent_roots(model):
            if root.kind != "pool":
                continue
            check(root.worker_qualname, root.path, root.line, root.col,
                  root.line_text,
                  f"pool submission runs '{root.worker_name}', which",
                  "an uncaught worker exception aborts the pool join and "
                  "discards every in-flight cell — catch inside the worker "
                  "and return a failure record naming the cell")

        for path, info in cli_entry_points(model):
            check(info.qualname, path, info.line, 1, "",
                  "CLI entry point 'main'",
                  "the user would see a raw traceback — catch ReproError "
                  "here, print one line to stderr, and exit nonzero")

        for path, info in cache_endpoints(model):
            qual = info.qualname.split("::", 1)[-1]
            check(info.qualname, path, info.line, 1, "",
                  f"cache path '{qual}'",
                  "a corrupt or stale entry must mean a miss, never an "
                  "abort — catch and fall back")
