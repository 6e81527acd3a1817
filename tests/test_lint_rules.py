"""Unit tests for the mapglint rules on synthetic snippets.

Each rule gets at least one known-bad snippet it must flag and one
known-good snippet it must stay silent on; the suppression pragma is
exercised on the same snippets.
"""

import textwrap

import pytest

from repro.lint import Severity, all_rules, get_rule
from repro.lint.runner import lint_source


def run_lint(source, path="src/repro/somewhere/module.py", rules=None):
    return lint_source(path, textwrap.dedent(source), rule_ids=rules)


def rule_ids(findings):
    return sorted({f.rule_id for f in findings})


class TestRegistry:
    def test_all_three_file_rules_registered(self):
        assert [r.rule_id for r in all_rules()] == \
            ["DET01", "FLT01", "UNIT01"]

    def test_get_rule(self):
        assert get_rule("UNIT01").rule_id == "UNIT01"
        with pytest.raises(KeyError):
            get_rule("NOPE99")


class TestUnit01Mixing:
    def test_flags_cycle_si_addition(self):
        findings = run_lint("total = stall_cycles + wake_s\n")
        assert rule_ids(findings) == ["UNIT01"]
        assert findings[0].severity is Severity.ERROR

    def test_flags_cycle_si_division(self):
        findings = run_lint("seconds = total_cycles / frequency_hz\n")
        assert rule_ids(findings) == ["UNIT01"]

    def test_flags_cycle_si_comparison(self):
        findings = run_lint("ok = sleep_cycles > breakeven_s\n")
        assert rule_ids(findings) == ["UNIT01"]

    def test_flags_mixing_through_nesting(self):
        findings = run_lint("x = energy_j * (2 * stall_cycles)\n")
        assert rule_ids(findings) == ["UNIT01"]

    def test_silent_on_same_family(self):
        assert run_lint("total = stall_cycles + wake_cycles\n") == []
        assert run_lint("energy_j = power_w * elapsed_s\n") == []

    def test_silent_on_unsuffixed_names(self):
        assert run_lint("x = count + duration\n") == []

    def test_units_module_is_exempt(self):
        source = "seconds = total_cycles / frequency_hz\n"
        assert run_lint(source, path="src/repro/units.py") == []
        # ... but only that module, not anything named similarly.
        assert run_lint(source, path="src/repro/sim/units_helper.py") != []


class TestUnit01ScaleLiterals:
    def test_flags_scale_literal_in_multiplication(self):
        findings = run_lint("seconds = total_ns * 1e-9\n")
        assert rule_ids(findings) == ["UNIT01"]
        assert "NS" in findings[0].message

    def test_flags_scale_literal_in_division(self):
        findings = run_lint("nanos = elapsed / 1e-9\n")
        assert rule_ids(findings) == ["UNIT01"]

    def test_silent_on_epsilon_comparison(self):
        assert run_lint("done = mean_gap < 1e-9\n") == []

    def test_silent_on_epsilon_subtraction(self):
        assert run_lint("import math\nn = math.ceil(groups - 1e-9)\n") == []

    def test_silent_on_plain_decimal_spelling(self):
        # misses-per-kilo-instruction: same value as 1e3, different intent.
        assert run_lint("mpki = misses / instructions * 1000.0\n") == []

    def test_silent_on_non_scale_value(self):
        assert run_lint("stall = latency * 85e-9\n") == []


class TestDet01Rng:
    def test_flags_global_random_call(self):
        findings = run_lint("import random\nx = random.random()\n")
        assert rule_ids(findings) == ["DET01"]

    def test_flags_global_random_seed(self):
        findings = run_lint("import random\nrandom.seed(42)\n")
        assert rule_ids(findings) == ["DET01"]

    def test_flags_numpy_global_rng(self):
        findings = run_lint("import numpy as np\nx = np.random.rand(4)\n")
        assert rule_ids(findings) == ["DET01"]

    def test_silent_on_seeded_instance(self):
        source = """\
        import random
        rng = random.Random(7)
        x = rng.random()
        """
        assert run_lint(source) == []

    def test_silent_on_numpy_default_rng(self):
        source = """\
        import numpy as np
        rng = np.random.default_rng(7)
        x = rng.normal()
        """
        assert run_lint(source) == []


class TestDet01WallClock:
    def test_flags_time_time_in_sim_code(self):
        source = "import time\nstart = time.time()\n"
        findings = run_lint(source, path="src/repro/sim/simulator.py")
        assert rule_ids(findings) == ["DET01"]

    def test_flags_datetime_now_in_core_code(self):
        source = "from datetime import datetime\nt = datetime.now()\n"
        findings = run_lint(source, path="src/repro/core/controller.py")
        assert rule_ids(findings) == ["DET01"]

    def test_silent_outside_sim_code(self):
        source = "import time\nstart = time.time()\n"
        assert run_lint(source, path="src/repro/analysis/report.py") == []

    def test_flags_wall_clock_in_exec_engine(self):
        # repro/exec is in DET01 scope: wall-clock reads could leak host
        # time into scheduling, which must stay content-addressed.
        source = "import time\nstart = time.perf_counter()\n"
        findings = run_lint(source, path="src/repro/exec/engine.py")
        assert rule_ids(findings) == ["DET01"]

    def test_silent_in_allowlisted_obs_modules(self):
        # The self-profiler and the sweep telemetry measure the host on
        # purpose; they are the only obs/exec modules allowed
        # perf_counter et al.
        source = "import time\nstart = time.perf_counter()\n"
        for module in ("src/repro/obs/profile.py", "src/repro/obs/sweep.py"):
            assert run_lint(source, path=module) == []

    def test_other_obs_modules_stay_clock_free(self):
        source = "import time\nstart = time.perf_counter()\n"
        findings = run_lint(source, path="src/repro/obs/spans.py")
        assert rule_ids(findings) == ["DET01"]


class TestDet01SetIteration:
    def test_flags_set_iteration_in_exec_code(self):
        source = "for key in set(pending):\n    dispatch(key)\n"
        findings = run_lint(source, path="src/repro/exec/engine.py")
        assert rule_ids(findings) == ["DET01"]

    def test_flags_for_over_set_literal(self):
        source = "for name in {'a', 'b'}:\n    print(name)\n"
        findings = run_lint(source, path="src/repro/core/policies.py")
        assert rule_ids(findings) == ["DET01"]

    def test_flags_comprehension_over_set_call(self):
        source = "out = [x for x in set(items)]\n"
        findings = run_lint(source, path="src/repro/sim/runner.py")
        assert rule_ids(findings) == ["DET01"]

    def test_silent_on_sorted_set(self):
        source = "for x in sorted(set(items)):\n    print(x)\n"
        assert run_lint(source, path="src/repro/sim/runner.py") == []

    def test_silent_outside_scoped_packages(self):
        source = "for name in {'a', 'b'}:\n    print(name)\n"
        assert run_lint(source, path="src/repro/analysis/report.py") == []


class TestFlt01:
    def test_flags_float_literal_equality(self):
        source = "same = leakage == 0.0\n"
        findings = run_lint(source, path="src/repro/power/model.py")
        assert rule_ids(findings) == ["FLT01"]
        assert findings[0].severity is Severity.WARNING

    def test_flags_si_identifier_inequality(self):
        source = "changed = energy_j != baseline_j\n"
        findings = run_lint(source, path="src/repro/core/energy.py")
        assert rule_ids(findings) == ["FLT01"]

    def test_silent_on_int_equality(self):
        source = "done = count == 0\n"
        assert run_lint(source, path="src/repro/power/model.py") == []

    def test_silent_on_float_ordering(self):
        source = "won = saving_j > 0.0\n"
        assert run_lint(source, path="src/repro/power/model.py") == []

    def test_silent_outside_energy_code(self):
        source = "same = value == 0.0\n"
        assert run_lint(source, path="src/repro/trace/io.py") == []


class TestSuppression:
    def test_disable_pragma_silences_named_rule(self):
        source = "total = stall_cycles + wake_s  # mapglint: disable=UNIT01\n"
        assert run_lint(source) == []

    def test_disable_all(self):
        source = "total = stall_cycles + wake_s  # mapglint: disable=all\n"
        assert run_lint(source) == []

    def test_disable_other_rule_does_not_silence(self):
        source = "total = stall_cycles + wake_s  # mapglint: disable=DET01\n"
        assert rule_ids(run_lint(source)) == ["UNIT01"]
