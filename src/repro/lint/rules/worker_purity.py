"""PURE01 — pool-worker purity.

``SweepRunner`` promises byte-identical sweep output at any ``--jobs``
count and any task completion order.  That holds only if every function
handed to a ``multiprocessing`` pool — and everything it transitively
calls — is *pure beyond its payload*: no environment reads, no
filesystem, no global RNG, no wall clock, no process management, and no
reads or writes of post-import-mutable module globals.  An impure worker
makes results depend on which process ran which cell in which order,
which is exactly the nondeterminism the engine's merge step cannot undo.

The check is interprocedural: the worker's bare name is resolved to its
definition, and the effect engine's fixpoint closure
(:class:`~repro.lint.project.effects.EffectPropagator`) supplies every
effect reachable through unambiguously resolved calls, each reported with
the call chain that reaches it.  Declared caches
(``# mapglint: declared-cache``) are exempt by construction — they never
produce global effects in phase 1.  Ambiguous callee names contribute
nothing, per the project's agreement rule: the rule under-approximates
rather than guesses, so every reported chain is real.
"""

from __future__ import annotations

from repro.lint.base import ProjectRule, register_project_rule
from repro.lint.findings import Severity
from repro.lint.project.effects import IMPURE_KINDS, format_chain
from repro.lint.project.graph import ProjectModel, in_repro, is_test_path


@register_project_rule
class WorkerPurityRule(ProjectRule):
    rule_id = "PURE01"
    summary = ("functions submitted to a multiprocessing pool, and "
               "everything they transitively call, must be effect-free "
               "beyond their payload and declared caches")
    default_severity = Severity.ERROR

    def run(self, model: "object") -> None:
        assert isinstance(model, ProjectModel)
        for summary in model.summaries:
            if is_test_path(summary.path) or not in_repro(summary.path):
                continue
            effects = summary.module_effects
            if effects is None:
                continue
            for submission in effects.pool_submissions:
                self._check_submission(model, summary.path, submission)

    def _check_submission(self, model: ProjectModel, path: str,
                          submission) -> None:
        # The purity check needs a resolvable definition; lambdas,
        # bound methods and closures have none.
        if submission.worker_kind != "name":
            return
        candidates = model.resolve(submission.worker_name)
        if len(candidates) != 1:
            return  # unknown or ambiguous: skip rather than guess
        worker = candidates[0]
        propagator = model.effects()
        seen = set()
        reached = sorted(
            propagator.transitive(worker.qualname),
            key=lambda r: (r.origin, r.effect.kind, r.effect.line,
                           r.effect.col))
        for item in reached:
            effect = item.effect
            if effect.kind not in IMPURE_KINDS:
                continue
            dedup = (item.origin, effect.kind)
            if dedup in seen:
                continue
            seen.add(dedup)
            chain = format_chain(
                propagator.call_path(worker.qualname, item.origin))
            origin_path = item.origin.split("::", 1)[0]
            self.report(
                path, submission.line, submission.col,
                f"pool worker '{submission.worker_name}' is impure: "
                f"{effect.detail} (via {chain}, at "
                f"{origin_path}:{effect.line}); workers must be "
                f"effect-free beyond their payload and declared caches or "
                f"sweep output depends on worker scheduling",
                line_text=submission.line_text)
