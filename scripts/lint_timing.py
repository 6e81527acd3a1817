#!/usr/bin/env python3
"""Lint-performance gate: cold run under budget, warm cache actually warm.

Runs the full rule set over ``src`` and ``tests`` twice against a fresh
cache directory and enforces two bounds:

* the **cold** run (every file a cache miss) must finish within
  ``--cold-budget`` seconds (default 20), and
* the **warm** run (every file a cache hit) must be at least
  ``--min-speedup`` times faster (default 5x).

Both runs happen in-process so the comparison measures the analyzer, not
interpreter startup (which is identical for both and would dilute the
ratio).  Timing uses ``time.perf_counter`` — this script is tooling, not
simulation, so the wall clock is the right instrument (and ``# mapglint:
disable`` is therefore not needed: DET01 polices the ``repro/sim``,
``repro/core``, ``repro/cpu``, ``repro/memory``, and ``repro/obs``
packages, not ``scripts/``).

With ``--require-clean`` the gate additionally fails when the tree has any
lint findings at all — CI passes it so a regression in the rules or the
code cannot hide behind a green timing result.

Exit codes: 0 = both bounds hold, 1 = a bound failed, 2 = lint findings
prevented a clean measurement (only with ``--require-clean``).
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
import time
from typing import List, Optional, Sequence, Tuple

from repro.lint.cache import ResultCache
from repro.lint.runner import LintReport, lint_paths


def _timed_run(paths: Sequence[str], cache_dir: str,
               jobs: int) -> Tuple[float, LintReport, ResultCache]:
    cache = ResultCache(cache_dir)
    start = time.perf_counter()
    report = lint_paths(paths, cache=cache, jobs=jobs)
    return time.perf_counter() - start, report, cache


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Measure cold vs warm lint wall time; enforce the CI bounds."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=["src", "tests"])
    parser.add_argument("--cold-budget", type=float, default=20.0,
                        metavar="SECONDS")
    parser.add_argument("--min-speedup", type=float, default=5.0,
                        metavar="RATIO")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--require-clean", action="store_true",
                        help="also fail (exit 2) if the tree has findings")
    args = parser.parse_args(argv)

    cache_dir = tempfile.mkdtemp(prefix="mapglint-timing-")
    try:
        cold_s, cold_report, cold_cache = _timed_run(
            args.paths, cache_dir, args.jobs)
        warm_s, warm_report, warm_cache = _timed_run(
            args.paths, cache_dir, args.jobs)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    print(f"cold: {cold_s:.3f}s over {cold_report.files_checked} file(s) "
          f"({cold_cache.misses} miss(es))")
    print(f"warm: {warm_s:.3f}s "
          f"({warm_cache.hits} hit(s), {warm_cache.misses} miss(es))")
    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    print(f"speedup: {speedup:.1f}x "
          f"(required >= {args.min_speedup:.1f}x)")

    problems: List[str] = []
    if warm_cache.misses:
        problems.append(
            f"warm run had {warm_cache.misses} cache miss(es); "
            f"the cache key is unstable")
    if cold_s > args.cold_budget:
        problems.append(
            f"cold run took {cold_s:.1f}s > budget {args.cold_budget:.1f}s")
    if speedup < args.min_speedup:
        problems.append(
            f"warm speedup {speedup:.1f}x < required "
            f"{args.min_speedup:.1f}x")
    if cold_report.all_findings != warm_report.all_findings:
        problems.append("cold and warm runs disagree on findings")

    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    if not cold_report.ok:
        # Findings don't invalidate the timing, but surface them: the CI
        # lint step is the real gate, this one only measures — unless
        # --require-clean promotes them to a failure of their own.
        print(f"note: tree is not lint-clean "
              f"({len(cold_report.all_findings)} finding(s))",
              file=sys.stderr)
        if args.require_clean:
            print("FAIL: --require-clean set and findings present",
                  file=sys.stderr)
            return 2
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
