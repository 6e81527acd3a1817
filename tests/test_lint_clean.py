"""Tier-1 guard: the repository itself is mapglint-clean.

Runs the full rule set over ``src`` and ``tests`` (once per session, via
the ``repo_lint_report`` fixture) against the checked-in baseline (``lint-baseline.json``, currently empty — every historical
finding was fixed rather than grandfathered) and asserts a clean exit.
Also proves the CLI's failure mode: a seeded violation must make
``python -m repro.lint`` exit non-zero.
"""

import textwrap
import tokenize
from pathlib import Path

from repro.lint import Baseline, all_rule_ids
from repro.lint.base import parse_suppressions
from repro.lint.cli import main as lint_main

REPO_ROOT = Path(__file__).parent.parent
BASELINE = REPO_ROOT / "lint-baseline.json"


def test_repo_is_lint_clean(repo_lint_report):
    report = repo_lint_report
    assert report.files_checked > 100
    assert report.ok, "\n".join(
        f"{f.location()} [{f.rule_id}] {f.message}" for f in report.all_findings)


def test_checked_in_baseline_is_empty():
    """Ratchet: new findings must be fixed, not grandfathered.

    If a future PR genuinely must baseline a finding, it should delete
    this test in the same commit that documents why.
    """
    assert len(Baseline.load(str(BASELINE))) == 0


def test_no_stale_baseline_entries(repo_lint_report):
    assert repo_lint_report.stale_baseline == []


def test_every_disable_pragma_names_a_registered_rule():
    """A ``# mapglint: disable=`` comment whose rule is gone suppresses
    nothing, so it only misleads the reader of that line."""
    known = set(all_rule_ids()) | {"ALL"}
    stale = []
    for folder in ("src", "scripts", "benchmarks"):
        for path in sorted((REPO_ROOT / folder).rglob("*.py")):
            with path.open("rb") as handle:
                comments = [token for token in tokenize.tokenize(handle.readline)
                            if token.type == tokenize.COMMENT]
            for token in comments:
                for rules in parse_suppressions(token.string).values():
                    stale.extend(
                        f"{path.relative_to(REPO_ROOT)}:{token.start[0]} {rule}"
                        for rule in sorted(rules - known))
    assert stale == []


def test_seeded_violation_fails_cli(tmp_path, capsys):
    bad = tmp_path / "repro" / "sim" / "bad_module.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(textwrap.dedent("""\
        import random
        import time

        def jitter(stall_cycles, wake_s):
            start = time.time()
            total = stall_cycles + wake_s
            return total * random.random() - start
        """), encoding="utf-8")
    exit_code = lint_main([str(tmp_path)])
    output = capsys.readouterr().out
    assert exit_code == 1
    assert "UNIT01" in output
    assert "DET01" in output


def test_clean_tree_exits_zero(tmp_path, capsys):
    good = tmp_path / "repro" / "sim" / "good_module.py"
    good.parent.mkdir(parents=True)
    good.write_text(textwrap.dedent("""\
        import random

        def jitter(rng: random.Random, stall_cycles: int) -> int:
            return stall_cycles + rng.randrange(4)
        """), encoding="utf-8")
    exit_code = lint_main([str(tmp_path)])
    assert exit_code == 0
    assert "clean" in capsys.readouterr().out


def test_json_format(tmp_path, capsys):
    bad = tmp_path / "module.py"
    bad.write_text("total = stall_cycles + wake_s\n", encoding="utf-8")
    exit_code = lint_main([str(bad), "--format", "json"])
    assert exit_code == 1
    import json

    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["rule"] == "UNIT01"


def test_syntax_error_is_reported_not_raised(tmp_path, capsys):
    bad = tmp_path / "broken.py"
    bad.write_text("def oops(:\n", encoding="utf-8")
    exit_code = lint_main([str(bad)])
    assert exit_code == 1
    assert "SYNTAX" in capsys.readouterr().out
