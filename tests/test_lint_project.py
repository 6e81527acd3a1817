"""The whole-program analyzer: summaries, call graph, inference, and rules.

Synthetic modules are laid out under ``repro/...`` paths (a tmp-dir
``repro`` tree is *not* a test path — only ``tests``/``test`` directory
components and ``test_*.py`` filenames are), which is how these tests get
the project rules to treat them as source.
"""

import ast
import textwrap
from pathlib import Path

from repro.lint import lint_paths, run_project_rules
from repro.lint.base import parse_suppressions
from repro.lint.project import (
    CYCLES, HERTZ, JOULES, NUM, SECONDS, UNKNOWN, WATTS,
    FunctionAnalyzer, ProjectModel, extract_summary, is_test_path)
from repro.lint.project.effects import line_at, source_repr, split_source


def summarize(path, source):
    source = textwrap.dedent(source)
    return extract_summary(path, source, ast.parse(source),
                           parse_suppressions(source))


def model_of(modules):
    return ProjectModel([summarize(path, src) for path, src in modules.items()])


def findings_for(modules, rule_id):
    summaries = [summarize(path, src) for path, src in modules.items()]
    return run_project_rules(summaries, rule_ids=[rule_id])


def analyze(source):
    tree = ast.parse(textwrap.dedent(source))
    return FunctionAnalyzer().analyze(tree.body[0])


class TestTestPathDetection:
    def test_tests_directory_and_filenames(self):
        assert is_test_path("tests/test_foo.py")
        assert is_test_path("pkg/test/helper.py")
        assert is_test_path("pkg/test_helper.py")
        assert is_test_path("pkg/helper_test.py")

    def test_tmp_repro_tree_is_source(self):
        # pytest tmp dirs contain the test's *name* as a component, which
        # must not trip the exemption — seeded-bug regressions depend on it.
        assert not is_test_path(
            "/tmp/pytest-of-x/pytest-0/test_seeded0/repro/sim/driver.py")


class TestSummaryExtraction:
    def test_function_signature_dimensions(self):
        summary = summarize("repro/sim/mod.py", """
            def wake(latency_cycles, t_access_s, plain):
                return latency_cycles
        """)
        (func,) = summary.functions
        assert func.params == (("latency_cycles", CYCLES),
                               ("t_access_s", SECONDS),
                               ("plain", UNKNOWN))
        assert func.return_dim == CYCLES
        assert not func.is_method

    def test_method_drops_self_and_records_calls(self):
        summary = summarize("repro/sim/mod.py", """
            class Gate:
                def decide(self, stall_cycles):
                    self.ledger.add_event(stall_cycles)
        """)
        (method,) = summary.functions
        assert method.is_method
        assert method.params == (("stall_cycles", CYCLES),)
        (call,) = method.calls
        assert call.name == "add_event"
        assert call.receiver == "self.ledger"
        assert call.arg_dims == (CYCLES,)

    def test_dataclass_fields_and_post_init_validation(self):
        summary = summarize("repro/config.py", """
            from dataclasses import dataclass
            from typing import ClassVar

            @dataclass(frozen=True)
            class Knobs:
                depth: int = 4
                scale: float = 1.0
                label: ClassVar[str] = "x"

                def __post_init__(self):
                    if self.depth < 1:
                        raise ValueError("depth")
        """)
        (info,) = summary.dataclasses
        assert [f.name for f in info.fields] == ["depth", "scale"]
        assert info.has_post_init
        assert "depth" in info.validated
        assert "scale" not in info.validated

    def test_attr_reads_exclude_post_init_but_count_getattr(self):
        summary = summarize("repro/config.py", """
            from dataclasses import dataclass

            @dataclass
            class Cfg:
                depth: int = 1

                def __post_init__(self):
                    assert self.depth >= 1

            def use(cfg):
                return getattr(cfg, "width")
        """)
        assert "width" in summary.attr_reads
        assert "depth" not in summary.attr_reads

    def test_attr_writes_unwrap_subscripts(self):
        summary = summarize("repro/sim/mod.py", """
            def bump(ledger, state, n_cycles):
                ledger._state_cycles[state] += n_cycles
        """)
        (write,) = summary.attr_writes
        assert write.name == "_state_cycles"
        assert write.receiver == "ledger"

    def test_module_level_calls_recorded(self):
        summary = summarize("repro/sim/mod.py", """
            import math
            limit_s = math.sqrt(4.0)
        """)
        pseudo = [f for f in summary.functions if f.name == "<module>"]
        assert pseudo and pseudo[0].calls[0].name == "sqrt"

    def test_call_text_matches_get_source_segment(self):
        # Phase 1 splits each module once instead of calling
        # ast.get_source_segment per argument; the text it slices must
        # stay the same across line-ending styles, form feeds (which
        # end a line for str.splitlines but not for the parser) and
        # non-ASCII text (column offsets count UTF-8 bytes).
        source = ("x = 1\r\n\x0cdef f(a):\r"
                  "    return g(a, 'é', [a,\n          a])\n"
                  "y = g(f(1), \"ü\")")
        lines = split_source(source)
        assert [line_at(lines, n) for n in range(1, 6)] == [
            "x = 1", "\x0cdef f(a):", "    return g(a, 'é', [a,",
            "          a])", 'y = g(f(1), "ü")']
        calls = [node for node in ast.walk(ast.parse(source))
                 if isinstance(node, ast.Call)]
        args = [arg for call in calls for arg in call.args]
        assert len(args) == 6
        for node in calls + args:
            expected = " ".join(ast.get_source_segment(source, node).split())
            assert source_repr(lines, node, limit=1000) == expected


class TestProjectModel:
    def test_agreement_across_same_named_definitions(self):
        model = model_of({
            "repro/a.py": """
                def cost(t_access_s):
                    return t_access_s
            """,
            "repro/b.py": """
                def cost(t_access_s):
                    return t_access_s * 2.0
            """,
        })
        assert model.agreed_param_dim("cost", 0) == ("t_access_s", SECONDS)

    def test_disagreement_means_unresolvable(self):
        model = model_of({
            "repro/a.py": "def cost(t_access_s):\n    return t_access_s\n",
            "repro/b.py": "def cost(n_cycles):\n    return n_cycles\n",
        })
        assert model.agreed_param_dim("cost", 0) is None

    def test_generic_names_never_resolve(self):
        model = model_of({
            "repro/a.py": "def get(x_cycles):\n    return x_cycles\n",
        })
        assert model.resolve("get") == []

    def test_test_definitions_do_not_pollute_the_symbol_table(self):
        model = model_of({
            "tests/test_a.py": "def cost(n_cycles):\n    return n_cycles\n",
            "repro/b.py": "def cost(t_s):\n    return t_s\n",
        })
        assert model.agreed_param_dim("cost", 0) == ("t_s", SECONDS)

    def test_call_graph_edges(self):
        model = model_of({
            "repro/a.py": """
                def leaf(n_cycles):
                    return n_cycles

                def caller(m_cycles):
                    return leaf(m_cycles)
            """,
        })
        edges = model.call_graph()
        assert edges["repro/a.py::caller"] == {"repro/a.py::leaf"}


class TestDimensionInference:
    def test_physical_arithmetic(self):
        _, dim = analyze("""
            def f(power_w, dt_s):
                return power_w * dt_s
        """)
        assert dim == JOULES
        _, dim = analyze("""
            def f(energy_j, dt_s):
                return energy_j / dt_s
        """)
        assert dim == WATTS
        _, dim = analyze("""
            def f(n_cycles, freq_hz):
                return n_cycles / freq_hz
        """)
        assert dim == SECONDS
        _, dim = analyze("""
            def f(dt_s, freq_hz):
                return dt_s * freq_hz
        """)
        assert dim == CYCLES

    def test_dimensionless_is_transparent(self):
        _, dim = analyze("""
            def f(energy_j):
                return energy_j * 2
        """)
        assert dim == JOULES

    def test_units_helpers_and_constants(self):
        _, dim = analyze("""
            def f(dt_s, freq_hz):
                return seconds_to_cycles_ceil(dt_s, freq_hz)
        """)
        assert dim == CYCLES
        _, dim = analyze("""
            def f():
                t = 13.75 * NS
                return t
        """)
        assert dim == SECONDS

    def test_branch_join(self):
        _, dim = analyze("""
            def f(flag, a_s, b_s, c_j):
                if flag:
                    x = a_s
                else:
                    x = b_s
                return x
        """)
        assert dim == SECONDS
        _, dim = analyze("""
            def f(flag, a_s, c_j):
                return a_s if flag else c_j
        """)
        assert dim == UNKNOWN

    def test_target_suffix_seeds_when_inference_is_blind(self):
        _, dim = analyze("""
            def f(v):
                leak_w = v * 0.1
                return leak_w
        """)
        assert dim == WATTS

    def test_range_loop_variable_is_dimensionless(self):
        analyzer = FunctionAnalyzer()
        tree = ast.parse(textwrap.dedent("""
            def f(n):
                for i in range(n):
                    pass
        """))
        analyzer.analyze(tree.body[0])
        assert analyzer.env["i"] == NUM

    def test_hertz_from_reciprocal_seconds(self):
        _, dim = analyze("""
            def f(cycle_time_s):
                return 1.0 / cycle_time_s
        """)
        assert dim == HERTZ


class TestUnit02:
    LIB = """
        def wake_penalty(t_access_s):
            return t_access_s * 2.0
    """

    def test_fires_on_positional_mismatch(self):
        findings = findings_for({
            "repro/power/lib.py": self.LIB,
            "repro/sim/use.py": """
                def drive(latency_cycles):
                    return wake_penalty(latency_cycles)
            """,
        }, "UNIT02")
        (finding,) = findings
        assert finding.rule_id == "UNIT02"
        assert "t_access_s" in finding.message
        assert finding.path == "repro/sim/use.py"

    def test_fires_on_keyword_mismatch(self):
        findings = findings_for({
            "repro/power/lib.py": self.LIB,
            "repro/sim/use.py": """
                def drive(latency_cycles):
                    return wake_penalty(t_access_s=latency_cycles)
            """,
        }, "UNIT02")
        assert len(findings) == 1

    def test_fires_on_return_use_mismatch(self):
        findings = findings_for({
            "repro/power/lib.py": """
                def leakage_power(v):
                    leak_w = v * 0.1
                    return leak_w
            """,
            "repro/sim/use.py": """
                def drive():
                    total_j = leakage_power(1.0)
                    return total_j
            """,
        }, "UNIT02")
        (finding,) = findings
        assert "'w'" in finding.message and "'j'" in finding.message

    def test_silent_on_unknown_dimension(self):
        findings = findings_for({
            "repro/power/lib.py": self.LIB,
            "repro/sim/use.py": """
                def drive(value):
                    return wake_penalty(value)
            """,
        }, "UNIT02")
        assert findings == []

    def test_silent_when_candidates_disagree(self):
        findings = findings_for({
            "repro/power/a.py": "def cost(t_s):\n    return t_s\n",
            "repro/power/b.py": "def cost(n_cycles):\n    return n_cycles\n",
            "repro/sim/use.py": """
                def drive(latency_cycles):
                    return cost(latency_cycles)
            """,
        }, "UNIT02")
        assert findings == []

    def test_silent_in_test_files(self):
        findings = findings_for({
            "repro/power/lib.py": self.LIB,
            "tests/test_use.py": """
                def test_drive():
                    assert wake_penalty(5) == 10.0
            """,
        }, "UNIT02")
        assert findings == []

    def test_pragma_suppression(self):
        findings = findings_for({
            "repro/power/lib.py": self.LIB,
            "repro/sim/use.py": """
                def drive(latency_cycles):
                    return wake_penalty(latency_cycles)  # mapglint: disable=UNIT02
            """,
        }, "UNIT02")
        assert findings == []


class TestLedger01:
    def test_add_event_requires_proven_joules(self):
        findings = findings_for({
            "repro/sim/use.py": """
                def charge(ledger, amount):
                    ledger.add_event(amount)
            """,
        }, "LEDGER01")
        (finding,) = findings
        assert "joules" in finding.message

    def test_add_event_accepts_suffix_and_product(self):
        findings = findings_for({
            "repro/sim/use.py": """
                def charge(ledger, wake_energy_j, power_w, dt_s):
                    ledger.add_event(wake_energy_j)
                    ledger.add_event(power_w * dt_s)
            """,
        }, "LEDGER01")
        assert findings == []

    def test_add_interval_requires_cycles_and_tag(self):
        findings = findings_for({
            "repro/sim/use.py": """
                def book(ledger, dt_s, bucket):
                    ledger.add_interval(bucket, dt_s)
            """,
        }, "LEDGER01")
        assert len(findings) == 2  # non-cycles residency + unknown tag
        messages = " ".join(f.message for f in findings)
        assert "cycles" in messages and "tag" in messages

    def test_add_interval_accepts_powerstate_and_cycles(self):
        findings = findings_for({
            "repro/sim/use.py": """
                def book(ledger, idle_cycles):
                    ledger.add_interval(PowerState.SLEEP, idle_cycles)
            """,
        }, "LEDGER01")
        assert findings == []

    def test_internal_writes_flagged_outside_owner(self):
        findings = findings_for({
            "repro/sim/use.py": """
                def cheat(ledger):
                    ledger._event_energy_j = 0.0
            """,
        }, "LEDGER01")
        (finding,) = findings
        assert "_event_energy_j" in finding.message

    def test_owner_module_may_write_internals(self):
        findings = findings_for({
            "repro/core/energy.py": """
                class EnergyLedger:
                    def reset(self):
                        self._event_energy_j = 0.0
            """,
        }, "LEDGER01")
        assert findings == []


class TestCfg01:
    def test_dead_field_fires(self):
        findings = findings_for({
            "repro/config.py": """
                from dataclasses import dataclass

                @dataclass(frozen=True)
                class CacheConfig:
                    unused_knob: bool = True
            """,
        }, "CFG01")
        (finding,) = findings
        assert "unused_knob" in finding.message

    def test_read_field_is_silent(self):
        findings = findings_for({
            "repro/config.py": """
                from dataclasses import dataclass

                @dataclass(frozen=True)
                class CacheConfig:
                    used_knob: bool = True
            """,
            "repro/memory/cache.py": """
                def build(config):
                    return config.used_knob
            """,
        }, "CFG01")
        assert findings == []

    def test_unvalidated_numeric_field_warns(self):
        findings = findings_for({
            "repro/config.py": """
                from dataclasses import dataclass

                @dataclass(frozen=True)
                class CoreConfig:
                    depth: int = 4
                    width: int = 2

                    def __post_init__(self):
                        if self.depth < 1:
                            raise ValueError("depth")
            """,
            "repro/sim/core.py": """
                def build(config):
                    return config.depth + config.width
            """,
        }, "CFG01")
        (finding,) = findings
        assert "width" in finding.message
        assert finding.severity.value == "warning"

    def test_dataclasses_outside_config_module_are_exempt(self):
        findings = findings_for({
            "repro/stats.py": """
                from dataclasses import dataclass

                @dataclass
                class Row:
                    never_read_anywhere: int = 0
            """,
        }, "CFG01")
        assert findings == []


class TestEvt01:
    def test_seconds_schedule_fires(self):
        findings = findings_for({
            "repro/sim/use.py": """
                def kick(queue, delay_s, cb):
                    queue.schedule(delay_s, cb)
            """,
        }, "EVT01")
        (finding,) = findings
        assert "cycles" in finding.message

    def test_cycles_and_unknown_schedules_are_silent(self):
        findings = findings_for({
            "repro/sim/use.py": """
                def kick(queue, delay_cycles, delay, cb):
                    queue.schedule(delay_cycles, cb)
                    queue.schedule_at(delay, cb)
                    queue.schedule(5, cb)
            """,
        }, "EVT01")
        assert findings == []

    def test_heappush_with_callback_payload_fires(self):
        findings = findings_for({
            "repro/sim/use.py": """
                import heapq

                def push(heap, when_cycles, callback):
                    heapq.heappush(heap, (when_cycles, callback))
            """,
        }, "EVT01")
        (finding,) = findings
        assert "tie-break" in finding.message or "sequence" in finding.message

    def test_heappush_with_integer_tiebreak_is_silent(self):
        # The multicore scheduler's (clock, core_index) entries are a
        # legitimate deterministic tie-break and must not be flagged.
        findings = findings_for({
            "repro/cpu/multicore.py": """
                import heapq

                def push(heap, clocks, index):
                    heapq.heappush(heap, (clocks[index], index))
            """,
        }, "EVT01")
        assert findings == []

    def test_direct_heap_write_fires(self):
        findings = findings_for({
            "repro/sim/use.py": """
                def clobber(queue):
                    queue._heap = []
            """,
        }, "EVT01")
        (finding,) = findings
        assert "_heap" in finding.message

    def test_owner_module_is_exempt(self):
        findings = findings_for({
            "repro/events.py": """
                import heapq

                class EventQueue:
                    def reset(self):
                        self._heap = []
            """,
        }, "EVT01")
        assert findings == []


class TestSeededRegression:
    def test_latency_cycles_into_t_access_s_is_caught(self, tmp_path):
        """The acceptance-criteria bug: cycles passed where DRAM seconds
        are expected, across a module boundary, found by the full runner."""
        dram = tmp_path / "repro" / "memory" / "dram.py"
        driver = tmp_path / "repro" / "sim" / "driver.py"
        dram.parent.mkdir(parents=True)
        driver.parent.mkdir(parents=True)
        dram.write_text(textwrap.dedent("""\
            def dram_access_energy(t_access_s):
                return t_access_s * 0.5
            """), encoding="utf-8")
        driver.write_text(textwrap.dedent("""\
            def drive(latency_cycles):
                return dram_access_energy(latency_cycles)
            """), encoding="utf-8")
        report = lint_paths([str(tmp_path)], rule_ids=["UNIT02"])
        assert not report.ok
        (finding,) = report.findings
        assert finding.rule_id == "UNIT02"
        assert "latency_cycles" in finding.message
        assert "t_access_s" in finding.message
        assert Path(finding.path).name == "driver.py"
