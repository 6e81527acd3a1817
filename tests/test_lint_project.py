"""The whole-program analyzer: summaries, call graph, and rules.

Synthetic modules are laid out under ``repro/...`` paths (a tmp-dir
``repro`` tree is *not* a test path — only ``tests``/``test`` directory
components and ``test_*.py`` filenames are), which is how these tests get
the project rules to treat them as source.
"""

import ast
import textwrap

from repro.lint import run_project_rules
from repro.lint.base import parse_suppressions
from repro.lint.project import ProjectModel, extract_summary, is_test_path
from repro.lint.project.effects import line_at, split_source


def summarize(path, source):
    source = textwrap.dedent(source)
    return extract_summary(path, source, ast.parse(source),
                           parse_suppressions(source))


def model_of(modules):
    return ProjectModel([summarize(path, src) for path, src in modules.items()])


def findings_for(modules, rule_id):
    summaries = [summarize(path, src) for path, src in modules.items()]
    return run_project_rules(summaries, rule_ids=[rule_id])


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
    def test_method_drops_self_and_records_calls(self):
        summary = summarize("repro/sim/mod.py", """
            class Gate:
                def decide(self, stall_cycles):
                    self.ledger.add_event(stall_cycles)
        """)
        (method,) = summary.functions
        assert method.is_method
        (call,) = method.calls
        assert call.name == "add_event"
        assert call.receiver == "self.ledger"

    def test_each_call_site_recorded_once_after_its_arguments(self):
        summary = summarize("repro/sim/mod.py", """
            def step(recorder, x):
                lo, hi = min(x), max(x)
                if recorder.enabled:
                    recorder.instant("core0", g(x))
                return h(x)
        """)
        (func,) = summary.functions
        assert [(c.name, c.obs_guarded, c.result_used, c.result_target)
                for c in func.calls] == [
            ("min", False, True, ""), ("max", False, True, ""),
            ("g", True, True, ""), ("instant", True, False, ""),
            ("h", False, True, "<return>")]

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

    def test_module_level_calls_recorded(self):
        summary = summarize("repro/sim/mod.py", """
            import math
            limit_s = math.sqrt(4.0)
        """)
        pseudo = [f for f in summary.functions if f.name == "<module>"]
        assert pseudo and pseudo[0].calls[0].name == "sqrt"

    def test_every_module_level_statement_kind_is_walked(self):
        summary = summarize("repro/sim/mod.py", """
            with open_log() as log:
                emit(log)
            while ready():
                limit_s += step()
            assert check(), describe()

            def helper():
                return hidden()
        """)
        (pseudo,) = [f for f in summary.functions if f.name == "<module>"]
        assert [call.name for call in pseudo.calls] == [
            "open_log", "emit", "ready", "step", "check", "describe"]

    def test_call_text_matches_get_source_segment(self):
        # Phase 1 splits each module once and slices call-site line text
        # from the result; its line numbering must match the parser's
        # across line-ending styles and form feeds (which end a line for
        # str.splitlines but not for the parser).
        source = ("x = 1\r\n\x0cdef f(a):\r"
                  "    return g(a, 'é', [a,\n          a])\n"
                  "y = g(f(1), \"ü\")")
        lines = split_source(source)
        assert [line_at(lines, n) for n in range(1, 6)] == [
            "x = 1", "\x0cdef f(a):", "    return g(a, 'é', [a,",
            "          a])", 'y = g(f(1), "ü")']


class TestProjectModel:
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
        assert [info.qualname for info in model.resolve("cost")] == [
            "repro/b.py::cost"]

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
