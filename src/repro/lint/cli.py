"""Command-line front end: ``python -m repro.lint [paths]``.

Exit codes: 0 = clean, 1 = findings, 2 = usage or I/O error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.lint.base import all_project_rules, all_rule_ids, all_rules
from repro.lint.findings import format_json, format_text
from repro.lint.runner import collect_files, lint_files
from repro.lint.sarif import format_sarif


def build_parser() -> argparse.ArgumentParser:
    """Construct the mapglint argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="mapglint: MAPG-specific static analysis "
                    "(unit safety, determinism, float equality, and "
                    "whole-program config/effect/concurrency/error-flow "
                    "checks)")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text", help="report format")
    parser.add_argument("--rules", metavar="IDS", default=None,
                        help="comma-separated subset of rules to run")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the registered rules and exit")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Lint CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_class in list(all_rules()) + list(all_project_rules()):
            scope = "project" if rule_class in all_project_rules() else "file"
            print(f"{rule_class.rule_id}  "
                  f"[{rule_class.default_severity.value}/{scope}]"
                  f"  {rule_class.summary}")
        return 0

    rule_ids = None
    if args.rules:
        rule_ids = [part.strip().upper() for part in args.rules.split(",")
                    if part.strip()]
        known = set(all_rule_ids())
        unknown = sorted(set(rule_ids) - known)
        if unknown:
            print(f"error: unknown rule(s): {', '.join(unknown)}; "
                  f"known: {', '.join(sorted(known))}", file=sys.stderr)
            return 2

    try:
        report = lint_files(collect_files(args.paths), rule_ids=rule_ids)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(format_json(report.all_findings))
    elif args.format == "sarif":
        print(format_sarif(report.all_findings, rule_ids=rule_ids))
    else:
        if report.all_findings:
            print(format_text(report.all_findings))
        summary = (f"{len(report.all_findings)} finding(s) in "
                   f"{report.files_checked} file(s)")
        print(summary if report.all_findings else f"clean: {summary}")
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
