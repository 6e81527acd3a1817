"""Documentation executable-ness: README code must actually run.

Extracts every fenced python block from README.md and executes it; a
drifting API breaks this test before it breaks a user.
"""

import re
from pathlib import Path

import pytest

README = Path(__file__).parent.parent / "README.md"


def python_blocks():
    text = README.read_text(encoding="utf-8")
    return re.findall(r"```python\n(.*?)```", text, re.S)


def test_readme_has_python_examples():
    assert len(python_blocks()) >= 1


@pytest.mark.parametrize("index,block", list(enumerate(python_blocks())))
def test_readme_python_blocks_execute(index, block):
    # Shrink any num_ops literals so the doc snippet runs fast under test.
    fast = re.sub(r"num_ops=\d[\d_]*", "num_ops=2_000", block)
    namespace: dict = {}
    exec(compile(fast, f"README.md#block{index}", "exec"), namespace)


def test_readme_mentions_every_top_level_doc():
    text = README.read_text(encoding="utf-8")
    for doc in ("DESIGN.md", "EXPERIMENTS.md"):
        assert doc in text


def test_linting_md_documents_every_rule():
    """docs/LINTING.md has a section per rule id, and only for rule ids.

    The explain table is pinned complete-by-registry elsewhere; this pin
    keeps the prose document from drifting behind the registry — a rule
    that CI enforces but the docs never mention is unreviewable, and a
    section for a retired rule documents a check that no longer runs.
    """
    from repro.lint import all_rule_ids

    text = (Path(__file__).parent.parent / "docs" / "LINTING.md") \
        .read_text(encoding="utf-8")
    headings = set(re.findall(r"^### ([A-Z]+\d+) ", text, re.M))
    registered = set(all_rule_ids())
    missing = sorted(registered - headings)
    assert not missing, f"rules undocumented in docs/LINTING.md: {missing}"
    stale = sorted(headings - registered)
    assert not stale, f"docs/LINTING.md documents unregistered rules: {stale}"


def test_linting_md_documents_the_pragmas():
    text = (Path(__file__).parent.parent / "docs" / "LINTING.md") \
        .read_text(encoding="utf-8")
    for pragma in ("mapglint: disable=", "mapglint: declared-cache",
                   "mapglint: guarded-by=", "mapglint: error-boundary"):
        assert pragma in text, f"pragma '{pragma}' undocumented"


def test_experiment_ids_in_experiments_md_resolve_to_results():
    """Every ledger row's id has an archived result (after a bench run)."""
    results_dir = Path(__file__).parent.parent / "benchmarks" / "results"
    if not results_dir.exists():
        pytest.skip("benchmarks not yet run in this checkout")
    ledger = (Path(__file__).parent.parent / "EXPERIMENTS.md").read_text()
    ids = set(re.findall(r"^\| (T\d+|F\d+) \|", ledger, re.M))
    missing = [i for i in sorted(ids)
               if not (results_dir / f"{i.lower()}.txt").exists()]
    assert not missing, f"ledger rows without archived results: {missing}"
