"""SARIF 2.1.0 output: schema shape, rule inventory, and CLI integration."""

import json
import textwrap

from repro.lint import all_rule_ids, to_sarif
from repro.lint.cli import main as lint_main
from repro.lint.findings import Finding, Severity

FINDING = Finding(path="src/repro/sim/x.py", line=7, column=3,
                  rule_id="UNIT01", severity=Severity.ERROR,
                  message="mixing", line_text="a_cycles + b_s")


class TestSarifShape:
    def test_top_level_envelope(self):
        log = to_sarif([FINDING])
        assert log["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in log["$schema"]
        assert len(log["runs"]) == 1

    def test_driver_lists_every_enabled_rule(self):
        log = to_sarif([])
        rules = log["runs"][0]["tool"]["driver"]["rules"]
        assert [r["id"] for r in rules] == list(all_rule_ids())
        for rule in rules:
            assert rule["shortDescription"]["text"]
            assert rule["defaultConfiguration"]["level"] in ("error", "warning")

    def test_effect_rules_are_in_the_inventory(self):
        # The registry drives the driver block, but the effect and
        # concurrency rules are load-bearing for code scanning: pin them
        # by name.
        pinned = {"CACHE01", "PURE01", "OBS01", "CONC01", "ERR01", "ERR04"}
        log = to_sarif([])
        ids = {r["id"] for r in log["runs"][0]["tool"]["driver"]["rules"]}
        assert pinned <= ids
        assert pinned <= set(all_rule_ids())

    def test_rule_subset_restricts_the_inventory(self):
        log = to_sarif([], rule_ids=["OBS01", "CFG01"])
        rules = log["runs"][0]["tool"]["driver"]["rules"]
        assert [r["id"] for r in rules] == ["CFG01", "OBS01"]

    def test_result_shape_and_rule_index(self):
        log = to_sarif([FINDING])
        run = log["runs"][0]
        (result,) = run["results"]
        assert result["ruleId"] == "UNIT01"
        rules = run["tool"]["driver"]["rules"]
        assert rules[result["ruleIndex"]]["id"] == "UNIT01"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/repro/sim/x.py"
        assert location["region"] == {"startLine": 7, "startColumn": 3}
        assert result["level"] == "error"
        assert result["partialFingerprints"]["mapglintFingerprint/v1"]

    def test_fingerprint_is_line_number_stable(self):
        moved = Finding(path=FINDING.path, line=99, column=1,
                        rule_id=FINDING.rule_id, severity=FINDING.severity,
                        message=FINDING.message, line_text=FINDING.line_text)
        first = to_sarif([FINDING])["runs"][0]["results"][0]
        second = to_sarif([moved])["runs"][0]["results"][0]
        assert first["partialFingerprints"] == second["partialFingerprints"]

    def test_pseudo_rules_appear_when_present(self):
        syntax = Finding(path="x.py", line=1, column=1, rule_id="SYNTAX",
                         severity=Severity.ERROR, message="cannot parse")
        log = to_sarif([syntax])
        rules = log["runs"][0]["tool"]["driver"]["rules"]
        assert any(r["id"] == "SYNTAX" for r in rules)


class TestSarifCli:
    def test_format_sarif_round_trips_through_json(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(textwrap.dedent("""\
            def f(stall_cycles, wake_s):
                return stall_cycles + wake_s
            """), encoding="utf-8")
        exit_code = lint_main([str(tmp_path), "--format", "sarif"])
        log = json.loads(capsys.readouterr().out)
        assert exit_code == 1
        assert log["version"] == "2.1.0"
        assert any(result["ruleId"] == "UNIT01"
                   for result in log["runs"][0]["results"])

    def test_clean_run_still_documents_the_rules(self, tmp_path, capsys):
        good = tmp_path / "repro" / "ok.py"
        good.parent.mkdir(parents=True)
        good.write_text("VALUE = 1\n", encoding="utf-8")
        exit_code = lint_main([str(tmp_path), "--format", "sarif"])
        log = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert log["runs"][0]["results"] == []
        assert [r["id"] for r in log["runs"][0]["tool"]["driver"]["rules"]] \
            == list(all_rule_ids())
