"""Command-line front end: ``python -m repro.lint [paths]``.

Exit codes: 0 = clean (all findings baselined or none), 1 = findings,
2 = usage or I/O error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.errors import ReproError
from repro.lint.base import all_project_rules, all_rule_ids, all_rules
from repro.lint.baseline import Baseline
from repro.lint.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.lint.findings import format_json, format_text
from repro.lint.fixes import fix_files
from repro.lint.runner import collect_files, lint_files
from repro.lint.sarif import format_sarif


def build_parser() -> argparse.ArgumentParser:
    """Construct the mapglint argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="mapglint: MAPG-specific static analysis "
                    "(unit safety, determinism, FSM legality, float "
                    "equality, and whole-program unit/ledger/config/event/"
                    "effect/concurrency checks)")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text", help="report format")
    parser.add_argument("--baseline", metavar="FILE", default=None,
                        help="baseline file of grandfathered findings")
    parser.add_argument("--write-baseline", metavar="FILE", default=None,
                        help="write current findings to FILE and exit 0")
    parser.add_argument("--rules", metavar="IDS", default=None,
                        help="comma-separated subset of rules to run")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the registered rules and exit")
    parser.add_argument("--explain", metavar="RULE", default=None,
                        help="print one rule's documentation with a "
                             "minimal bad/good example and exit")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for per-file analysis "
                             "(default: 1)")
    parser.add_argument("--fix", action="store_true",
                        help="apply mechanical fixes (float equality -> "
                             "math.isclose, raw scale literals -> "
                             "repro.units constants, duplicated engine "
                             "constants -> their shared definition) "
                             "before linting")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the per-file result cache")
    parser.add_argument("--cache-dir", metavar="DIR",
                        default=DEFAULT_CACHE_DIR,
                        help=f"result cache directory "
                             f"(default: {DEFAULT_CACHE_DIR})")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Lint CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.explain:
        from repro.lint.explain import explain_rule

        try:
            print(explain_rule(args.explain))
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        return 0

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

    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2

    baseline = None
    if args.baseline and not args.write_baseline:
        try:
            baseline = Baseline.load(args.baseline)
        except (ReproError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    try:
        files = collect_files(args.paths)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.fix:
        changed = fix_files(files)
        total = sum(changed.values())
        for path in sorted(changed):
            print(f"fixed: {path} ({changed[path]} edit(s))")
        print(f"--fix applied {total} edit(s) in {len(changed)} file(s)")

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    try:
        report = lint_files(files, baseline=baseline, rule_ids=rule_ids,
                            jobs=args.jobs, cache=cache)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        Baseline.from_findings(report.findings).save(args.write_baseline)
        print(f"wrote {len(report.findings)} finding(s) to "
              f"{args.write_baseline}")
        return 0

    if args.format == "json":
        print(format_json(report.all_findings))
    elif args.format == "sarif":
        print(format_sarif(report.all_findings, rule_ids=rule_ids))
    else:
        if report.all_findings:
            print(format_text(report.all_findings))
        for path, rule, line_text in report.stale_baseline:
            print(f"note: stale baseline entry {path} [{rule}]: "
                  f"{line_text.strip()!r} no longer occurs", file=sys.stderr)
        summary = (f"{len(report.all_findings)} finding(s) in "
                   f"{report.files_checked} file(s)")
        if cache is not None:
            summary += (f" [cache: {report.cache_hits} hit(s), "
                        f"{report.cache_misses} miss(es)]")
        if baseline is not None:
            summary += f" (baseline: {len(baseline)} grandfathered)"
        print(summary if report.all_findings else f"clean: {summary}")
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
