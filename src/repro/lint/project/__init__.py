"""Whole-program analysis engine for mapglint.

Phase 1 (:mod:`repro.lint.project.summary`) turns each file into a
picklable :class:`~repro.lint.project.summary.ModuleSummary`; phase 2
(:mod:`repro.lint.project.graph`) merges the summaries into a
:class:`~repro.lint.project.graph.ProjectModel` that the interprocedural
rules consume.
"""

from __future__ import annotations

from repro.lint.project.graph import ProjectModel, in_repro, is_test_path
from repro.lint.project.summary import (
    CallSite, DataclassInfo, FieldInfo, FunctionInfo, ModuleSummary,
    extract_summary)

__all__ = [
    "CallSite",
    "DataclassInfo",
    "FieldInfo",
    "FunctionInfo",
    "ModuleSummary",
    "ProjectModel",
    "extract_summary",
    "in_repro",
    "is_test_path",
]
