"""Finding records and report formatting for mapglint."""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Iterable, List


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings are correctness hazards (unit mixing, stale-cache
    inputs); ``WARNING`` findings are determinism/robustness smells that
    are occasionally intentional.  Both fail the lint run — the
    distinction exists for reporting only.
    """

    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a specific source location."""

    path: str
    line: int
    column: int
    rule_id: str
    severity: Severity
    message: str
    line_text: str = ""

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.column}"

    def fingerprint(self) -> "tuple[str, str, str]":
        """Line-number-independent identity (the SARIF fingerprint).

        Keyed on (path, rule, stripped source line) so that a finding keeps
        its identity when unrelated edits shift line numbers, but loses it
        as soon as the offending line changes.
        """
        return (self.path, self.rule_id, self.line_text.strip())


def format_text(findings: Iterable[Finding]) -> str:
    """Human-readable report, one line per finding, sorted by location."""
    lines: List[str] = []
    for finding in sorted(findings):
        lines.append(f"{finding.location()}: {finding.severity.value} "
                     f"[{finding.rule_id}] {finding.message}")
        if finding.line_text.strip():
            lines.append(f"    {finding.line_text.strip()}")
    return "\n".join(lines)


def format_json(findings: Iterable[Finding]) -> str:
    """Machine-readable report: a JSON array of finding objects."""
    payload = [
        {
            "path": finding.path,
            "line": finding.line,
            "column": finding.column,
            "rule": finding.rule_id,
            "severity": finding.severity.value,
            "message": finding.message,
            "line_text": finding.line_text,
        }
        for finding in sorted(findings)
    ]
    return json.dumps(payload, indent=2)
