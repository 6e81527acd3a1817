"""Shared substrate for CONC01: concurrent roots and guarded bindings.

CONC01 (shared-state race) reasons from two questions, answered here:

* **What are the concurrent roots?** Every spawn site (thread, timer,
  async task) and every pool submission whose worker resolves — by the
  project's agreement rule, to exactly one definition — is an entry
  point from which a second flow of control can reach shared state.

* **Which lock guards a symbol?** ``# mapglint: guarded-by=<lock>``
  bindings are per-module facts; :func:`binding_locks` looks them up in
  the module that *defines* the symbol (where phase 1 emitted the
  guarded-write effect), so a rule never has to rediscover the pragma.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterator, List

from repro.lint.project.graph import ProjectModel, in_repro, is_test_path


@dataclass(frozen=True)
class ConcurrentRoot:
    """One resolved concurrent entry point (spawn site or pool submission)."""

    kind: str                  # "thread" | "task" | "pool"
    api: str                   # "threading.Thread", "map", "submit", ...
    worker_name: str           # the bare worker name that resolved
    worker_qualname: str       # qualname of the resolved definition
    path: str                  # module containing the spawn/submission
    line: int
    col: int
    line_text: str = ""


def concurrent_roots(model: ProjectModel) -> List[ConcurrentRoot]:
    """Every spawn site and pool submission with a uniquely resolved worker.

    Only non-test ``repro`` source contributes roots; ambiguous or
    unresolvable workers contribute nothing (under-approximate, never
    guess — every reported spawn-to-access chain must be real).
    """
    roots: List[ConcurrentRoot] = []
    for summary in model.summaries:
        if is_test_path(summary.path) or not in_repro(summary.path):
            continue
        effects = summary.module_effects
        if effects is None:
            continue
        for spawn in effects.spawn_sites:
            if spawn.worker_kind != "name":
                continue
            candidates = model.resolve(spawn.worker_name)
            if len(candidates) != 1:
                continue
            roots.append(ConcurrentRoot(
                kind=spawn.kind, api=spawn.api,
                worker_name=spawn.worker_name,
                worker_qualname=candidates[0].qualname,
                path=summary.path, line=spawn.line, col=spawn.col,
                line_text=spawn.line_text))
        for submission in effects.pool_submissions:
            if submission.worker_kind != "name":
                continue
            candidates = model.resolve(submission.worker_name)
            if len(candidates) != 1:
                continue
            roots.append(ConcurrentRoot(
                kind="pool", api=submission.method,
                worker_name=submission.worker_name,
                worker_qualname=candidates[0].qualname,
                path=summary.path, line=submission.line,
                col=submission.col, line_text=submission.line_text))
    return roots


def binding_locks(model: ProjectModel, path: str,
                  symbol: str) -> FrozenSet[str]:
    """The lock spellings bound to ``symbol`` in the module at ``path``."""
    summary = model.summary_for(path)
    effects = getattr(summary, "module_effects", None)
    if effects is None:
        return frozenset()
    return frozenset(binding.lock for binding in effects.guarded_bindings
                     if binding.symbol == symbol)


def iter_module_effects(model: ProjectModel,
                        include_tests: bool = False) -> Iterator[tuple]:
    """``(summary, module_effects)`` for every in-scope source module."""
    for summary in model.summaries:
        if not in_repro(summary.path):
            continue
        if not include_tests and is_test_path(summary.path):
            continue
        effects = summary.module_effects
        if effects is not None:
            yield summary, effects
