"""mapglint coverage of ``repro/fastsim`` — the batched kernel's scope.

The fast kernel's whole contract is bit-identity with the oracle, so the
determinism/unit/observability rules must police it exactly as they do
the simulator proper.  Each extended rule gets one seeded defect placed
at a ``repro/fastsim`` path that the rule must flag, one equivalent
clean snippet it must pass, and the real package must come out clean of
the shared whole-tree lint.
"""

import ast
import textwrap

from repro.lint import run_project_rules
from repro.lint.base import parse_suppressions
from repro.lint.project import extract_summary
from repro.lint.runner import lint_source


def run_lint(source, path="src/repro/fastsim/kernel.py", rules=None):
    return lint_source(path, textwrap.dedent(source), rule_ids=rules)


def findings_for(modules, rule_id):
    summaries = []
    for path, source in modules.items():
        source = textwrap.dedent(source)
        summaries.append(extract_summary(path, source, ast.parse(source),
                                         parse_suppressions(source)))
    return run_project_rules(summaries, rule_ids=[rule_id])


class TestDet01CoversFastsim:
    def test_wall_clock_read_in_kernel_flagged(self):
        findings = run_lint("""
            import time

            def replay(trace):
                started = time.perf_counter()
                return started
        """, rules=["DET01"])
        assert [f.rule_id for f in findings] == ["DET01"]

    def test_set_iteration_in_kernel_flagged(self):
        findings = run_lint("""
            def drain(pending):
                for line in set(pending):
                    yield line
        """, rules=["DET01"])
        assert [f.rule_id for f in findings] == ["DET01"]

    def test_sorted_iteration_passes(self):
        findings = run_lint("""
            def drain(pending):
                for line in sorted(pending):
                    yield line
        """, rules=["DET01"])
        assert findings == []


class TestUnit02CoversFastsim:
    LIB = """
        def wake_penalty(t_access_s):
            return t_access_s * 2.0
    """

    def test_dimension_mismatch_at_kernel_call_site_flagged(self):
        findings = findings_for({
            "repro/power/lib.py": self.LIB,
            "repro/fastsim/kernel.py": """
                def charge(stall_cycles):
                    return wake_penalty(stall_cycles)
            """,
        }, "UNIT02")
        (finding,) = findings
        assert finding.rule_id == "UNIT02"
        assert finding.path == "repro/fastsim/kernel.py"

    def test_matching_dimension_passes(self):
        findings = findings_for({
            "repro/power/lib.py": self.LIB,
            "repro/fastsim/kernel.py": """
                def charge(stall_s):
                    return wake_penalty(stall_s)
            """,
        }, "UNIT02")
        assert findings == []


class TestObs01CoversFastsim:
    def test_unguarded_emission_in_kernel_flagged(self):
        findings = findings_for({"repro/fastsim/kernel.py": """
            class FastSim:
                def flush(self, recorder):
                    recorder.instant("core0", "batch", 0)
        """}, "OBS01")
        (finding,) = findings
        assert "unguarded" in finding.message

    def test_guarded_emission_passes(self):
        findings = findings_for({"repro/fastsim/kernel.py": """
            class FastSim:
                def flush(self):
                    if self._obs.enabled:
                        self._obs.instant("core0", "batch", 0)
        """}, "OBS01")
        assert findings == []


class TestRealPackageIsClean:
    def test_fastsim_lints_clean(self, repo_lint_report):
        assert [f for f in repo_lint_report.all_findings
                if "/repro/fastsim/" in f.path.replace("\\", "/")] == []
