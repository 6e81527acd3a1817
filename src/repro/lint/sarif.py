"""SARIF 2.1.0 serialization of lint reports.

``--format sarif`` emits one run of the ``mapglint`` driver in the Static
Analysis Results Interchange Format so findings land in code-review UIs
(GitHub code scanning consumes the file directly via
``github/codeql-action/upload-sarif``).  The driver advertises *every*
enabled rule — not just those that fired — so a clean run still documents
what was checked, and each result carries a ``partialFingerprints`` entry
derived from the ``(path, rule, line-text)`` triple of
:meth:`~repro.lint.findings.Finding.fingerprint`, which keeps annotations
stable across unrelated edits that only shift line numbers.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List, Optional, Sequence

from repro.lint.base import all_project_rules, all_rules
from repro.lint.findings import Finding, Severity

SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json")
SARIF_VERSION = "2.1.0"
TOOL_NAME = "mapglint"
TOOL_VERSION = "2.0.0"
INFORMATION_URI = "docs/LINTING.md"

#: Pseudo-rules the runner synthesizes for unreadable / unparsable files.
_PSEUDO_RULES = {
    "SYNTAX": "file could not be parsed as Python",
    "IO": "file could not be read",
}


def _level(severity: Severity) -> str:
    return "error" if severity is Severity.ERROR else "warning"


def _fingerprint_hash(finding: Finding) -> str:
    path, rule_id, line_text = finding.fingerprint()
    digest = hashlib.sha256(
        f"{path}\x00{rule_id}\x00{line_text}".encode("utf-8"))
    return digest.hexdigest()[:32]


def _rule_descriptors(rule_ids: Optional[Iterable[str]],
                      extra_ids: Iterable[str]) -> List[Dict[str, object]]:
    wanted = set(rule_ids) if rule_ids is not None else None
    descriptors: List[Dict[str, object]] = []
    for rule_class in list(all_rules()) + list(all_project_rules()):
        if wanted is not None and rule_class.rule_id not in wanted:
            continue
        descriptors.append({
            "id": rule_class.rule_id,
            "name": rule_class.__name__,
            "shortDescription": {"text": rule_class.summary},
            "helpUri": INFORMATION_URI,
            "defaultConfiguration": {
                "level": _level(rule_class.default_severity)},
        })
    known = {d["id"] for d in descriptors}
    for rule_id in sorted(set(extra_ids) - known):
        descriptors.append({
            "id": rule_id,
            "name": rule_id.title(),
            "shortDescription": {
                "text": _PSEUDO_RULES.get(rule_id, rule_id)},
            "defaultConfiguration": {"level": "error"},
        })
    descriptors.sort(key=lambda d: str(d["id"]))
    return descriptors


def to_sarif(findings: Sequence[Finding],
             rule_ids: Optional[Iterable[str]] = None) -> Dict[str, object]:
    """Build the SARIF 2.1.0 log dict for one lint run.

    ``rule_ids`` is the enabled subset (``None`` = every registered rule);
    the driver's ``rules`` array lists all of them plus any pseudo-rules
    (``SYNTAX``, ``IO``) present in ``findings``.
    """
    descriptors = _rule_descriptors(rule_ids,
                                    extra_ids=(f.rule_id for f in findings))
    index_of = {d["id"]: i for i, d in enumerate(descriptors)}
    results: List[Dict[str, object]] = []
    for finding in findings:
        results.append({
            "ruleId": finding.rule_id,
            "ruleIndex": index_of.get(finding.rule_id, -1),
            "level": _level(finding.severity),
            "message": {"text": finding.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path,
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {
                        "startLine": finding.line,
                        "startColumn": max(finding.column, 1),
                    },
                },
            }],
            "partialFingerprints": {
                "mapglintFingerprint/v1": _fingerprint_hash(finding),
            },
        })
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": TOOL_NAME,
                    "version": TOOL_VERSION,
                    "informationUri": INFORMATION_URI,
                    "rules": descriptors,
                },
            },
            "columnKind": "utf16CodeUnits",
            "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
            "results": results,
        }],
    }


def format_sarif(findings: Sequence[Finding],
                 rule_ids: Optional[Iterable[str]] = None) -> str:
    """The SARIF log as pretty-printed JSON (what ``--format sarif`` prints)."""
    return json.dumps(to_sarif(findings, rule_ids=rule_ids),
                      indent=2, sort_keys=False)
