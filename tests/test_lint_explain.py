"""``--explain RULE``: per-rule documentation with bad/good examples."""

import pytest

from repro.lint.base import all_rule_ids
from repro.lint.cli import main as lint_main
from repro.lint.explain import _EXAMPLES, explain_rule


class TestExplainRule:
    def test_every_registered_rule_has_an_example(self):
        assert set(_EXAMPLES) == set(all_rule_ids())

    @pytest.mark.parametrize("rule_id", all_rule_ids())
    def test_explanation_is_complete(self, rule_id):
        text = explain_rule(rule_id)
        assert text.startswith(rule_id)
        assert "bad:" in text and "good:" in text
        # The prose comes from the rule's own doc, not just the summary.
        assert len(text.splitlines()) > 8

    def test_lookup_is_case_insensitive(self):
        assert explain_rule("cache01") == explain_rule("CACHE01")

    def test_unknown_rule_raises_with_inventory(self):
        with pytest.raises(KeyError, match="CACHE01"):
            explain_rule("NOPE01")


class TestExplainCli:
    def test_explain_prints_and_exits_zero(self, capsys):
        assert lint_main(["--explain", "PURE01"]) == 0
        out = capsys.readouterr().out
        assert "PURE01" in out and "_SEEN" in out

    def test_unknown_rule_is_a_usage_error(self, capsys):
        assert lint_main(["--explain", "NOPE01"]) == 2
        assert "unknown rule" in capsys.readouterr().err
