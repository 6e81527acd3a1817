"""Effect inference, propagation, and the CACHE01/PURE01/OBS01 rules.

Synthetic modules live under ``repro/...`` paths (a tmp-dir ``repro``
tree is *not* a test path), mirroring test_lint_project.py; the seeded
defects in :class:`TestSeededDefects` run through the full
``lint_paths`` pipeline.
"""

import ast
import textwrap

import repro.lint.cache as cache_module
from repro.lint.base import all_project_rules, parse_suppressions
from repro.lint.cache import ResultCache
from repro.lint.project import ProjectModel, extract_summary
from repro.lint.project.effects import (
    CLOCK, ENV, FS, GLOBAL_READ, GLOBAL_WRITE, PROCESS, RNG,
    EffectPropagator, extract_module_effects, format_chain)
from repro.lint.runner import lint_paths, run_project_rules


def summarize(path, source):
    source = textwrap.dedent(source)
    return extract_summary(path, source, ast.parse(source),
                           parse_suppressions(source))


def effects_of(path, source):
    source = textwrap.dedent(source)
    return extract_module_effects(path, source, ast.parse(source))


def model_of(modules):
    return ProjectModel(
        [summarize(path, src) for path, src in modules.items()])


def findings_for(modules, rule_id):
    summaries = [summarize(path, src) for path, src in modules.items()]
    return run_project_rules(summaries, rule_ids=[rule_id])


def kinds_of(module_effects, func_name):
    for info in module_effects.functions:
        if info.name == func_name:
            return {effect.kind for effect in info.effects}
    return set()


class TestEffectExtraction:
    def test_env_fs_rng_clock_process(self):
        effects = effects_of("repro/sim/mod.py", """
            import os, time, random, shutil, subprocess

            def everything(path):
                mode = os.environ.get("MODE")
                os.getenv("OTHER")
                open(path).read()
                shutil.copy(path, path)
                random.random()
                time.time()
                subprocess.run(["ls"])
                return mode
        """)
        kinds = kinds_of(effects, "everything")
        assert {ENV, FS, RNG, CLOCK, PROCESS} <= kinds

    def test_pathlib_distinctive_methods_only(self):
        # path.replace("\\\\", "/") is a *string* method everywhere in this
        # repo; generic names must never count as filesystem access.
        effects = effects_of("repro/sim/mod.py", """
            def strings(path):
                a = path.replace("x", "y")
                b = path.rename("z")
                return a, b

            def io(path):
                return path.read_text()
        """)
        assert kinds_of(effects, "strings") == set()
        assert kinds_of(effects, "io") == {FS}

    def test_mutable_global_write_and_read(self):
        effects = effects_of("repro/sim/mod.py", """
            _SEEN = {}

            def record(key, value):
                _SEEN[key] = value

            def peek(key):
                return _SEEN.get(key)
        """)
        assert "_SEEN" in effects.mutable_globals
        assert "_SEEN" in effects.mutated_globals
        assert GLOBAL_WRITE in kinds_of(effects, "record")
        assert GLOBAL_READ in kinds_of(effects, "peek")

    def test_global_rebind_via_global_statement(self):
        effects = effects_of("repro/sim/mod.py", """
            _MEMO = None

            def get_memo():
                global _MEMO
                if _MEMO is None:
                    _MEMO = compute()
                return _MEMO
        """)
        assert GLOBAL_WRITE in kinds_of(effects, "get_memo")

    def test_unmutated_registry_is_not_an_effect(self):
        # Import-time-only registries (PROFILES-style) are covered by the
        # source digest; reading them must be effect-free.
        effects = effects_of("repro/workloads/profiles.py", """
            PROFILES = {name: name.upper() for name in ("a", "b")}

            def get_profile(name):
                return PROFILES[name]
        """)
        assert kinds_of(effects, "get_profile") == set()

    def test_declared_cache_pragma_exempts(self):
        effects = effects_of("repro/exec/mod.py", """
            _STORE = None  # mapglint: declared-cache

            def get_store():
                global _STORE
                if _STORE is None:
                    _STORE = object()
                return _STORE
        """)
        assert "_STORE" in effects.declared_caches
        assert kinds_of(effects, "get_store") == set()

    def test_local_shadowing_is_not_a_global_effect(self):
        effects = effects_of("repro/sim/mod.py", """
            _TABLE = {}

            def mutate():
                _TABLE["x"] = 1

            def local_only():
                _TABLE = {}
                _TABLE["x"] = 1
                return _TABLE
        """)
        assert GLOBAL_WRITE in kinds_of(effects, "mutate")
        assert kinds_of(effects, "local_only") == set()

    def test_module_level_env_read_recorded(self):
        effects = effects_of("repro/sim/mod.py", """
            import os

            DEBUG = os.environ.get("DEBUG", "")
        """)
        assert ENV in kinds_of(effects, "<module>")

    def test_class_level_mutable_attr(self):
        effects = effects_of("repro/sim/mod.py", """
            class Thing:
                shared_cache = {}
                limit = 4

                def __init__(self):
                    self.mine = {}
        """)
        (attr,) = effects.class_mutable_attrs
        assert (attr.class_name, attr.attr) == ("Thing", "shared_cache")

    def test_pool_submission_shapes(self):
        effects = effects_of("repro/exec/mod.py", """
            import multiprocessing

            def by_name(pool, items):
                return pool.imap_unordered(work, items)

            def by_lambda(pool, items):
                return pool.map(lambda x: x, items)

            def by_method(self_pool, items):
                return self_pool.apply_async(items.do, (1,))

            def by_process(items):
                multiprocessing.Process(target=work, args=(items,))

            def closure_worker(pool, items):
                def inner(x):
                    return x
                return pool.map(inner, items)
        """)
        named = {sub.worker_name for sub in effects.pool_submissions
                 if sub.worker_kind == "name"}
        assert {"work", "inner"} <= named
        assert any(sub.worker_kind == "lambda" and sub.method == "map"
                   for sub in effects.pool_submissions)
        process = [sub for sub in effects.pool_submissions
                   if sub.method == "Process"]
        assert process and process[0].worker_name == "work"

class TestEffectPropagation:
    def test_transitive_closure_through_unique_calls(self):
        model = model_of({"repro/exec/mod.py": """
            import time

            def leaf():
                return time.time()

            def middle():
                return leaf()

            def top():
                return middle()
        """})
        propagator = model.effects()
        reached = propagator.transitive("repro/exec/mod.py::top")
        assert {item.effect.kind for item in reached} == {CLOCK}
        (item,) = list(reached)
        chain = propagator.call_path("repro/exec/mod.py::top", item.origin)
        assert format_chain(chain) == "top -> middle -> leaf"

    def test_cycles_reach_fixpoint(self):
        model = model_of({"repro/exec/mod.py": """
            import random

            def ping(n):
                random.random()
                return pong(n - 1)

            def pong(n):
                return ping(n) if n else 0
        """})
        propagator = model.effects()
        for name in ("ping", "pong"):
            kinds = {item.effect.kind for item in
                     propagator.transitive(f"repro/exec/mod.py::{name}")}
            assert kinds == {RNG}

    def test_ambiguous_names_contribute_nothing(self):
        model = model_of({"repro/exec/a.py": """
            import time

            def helper():
                return time.time()
        """, "repro/exec/b.py": """
            def helper():
                return 1
        """, "repro/exec/c.py": """
            def caller():
                return helper()
        """})
        reached = model.effects().transitive("repro/exec/c.py::caller")
        assert reached == frozenset()

    def test_effect_propagator_is_importable_standalone(self):
        model = model_of({"repro/exec/mod.py": "def f():\n    return 1\n"})
        assert isinstance(EffectPropagator(model), EffectPropagator)


class TestCacheSoundnessRule:
    def test_env_read_in_simulator_flagged(self):
        findings = findings_for({"repro/sim/driver.py": """
            import os

            def pick_mode():
                return os.environ.get("MAPG_MODE", "fixed")
        """}, "CACHE01")
        assert findings and all(f.rule_id == "CACHE01" for f in findings)

    def test_mutable_global_accumulator_flagged(self):
        findings = findings_for({"repro/sim/driver.py": """
            _RESULTS = []

            def record(value):
                _RESULTS.append(value)
        """}, "CACHE01")
        assert any("'_RESULTS'" in f.message for f in findings)

    def test_class_level_cache_flagged(self):
        findings = findings_for({"repro/memory/banks.py": """
            class Bank:
                _lookup_cache = {}
        """}, "CACHE01")
        assert any("_lookup_cache" in f.message for f in findings)

    def test_declared_cache_and_import_time_init_pass(self):
        findings = findings_for({"repro/sim/driver.py": """
            _STORE = None  # mapglint: declared-cache
            TABLE = {k: k for k in ("a", "b")}

            def get_store():
                global _STORE
                if _STORE is None:
                    _STORE = object()
                return _STORE

            def lookup(k):
                return TABLE[k]
        """}, "CACHE01")
        assert findings == []

    def test_lint_package_and_tests_out_of_scope(self):
        findings = findings_for({"repro/lint/tool.py": """
            import os

            def flag():
                return os.environ.get("COLOR")
        """, "tests/test_env.py": """
            import os

            def test_env():
                assert os.environ.get("HOME")
        """}, "CACHE01")
        assert findings == []


class TestWorkerPurityRule:
    IMPURE = {"repro/exec/launcher.py": """
        _TOTALS = []

        def _accumulate(item):
            _TOTALS.append(item)
            return item

        def fan_out(pool, items):
            return pool.map(_accumulate, items)
    """}

    def test_global_accumulator_in_worker_flagged(self):
        # append() both reads and mutates _TOTALS: one finding per kind.
        findings = findings_for(self.IMPURE, "PURE01")
        assert findings
        for finding in findings:
            assert finding.rule_id == "PURE01"
            assert "_accumulate" in finding.message
            assert "pool.map" in finding.line_text

    def test_transitive_effect_reported_with_chain(self):
        findings = findings_for({"repro/exec/launcher.py": """
            import time

            def _leaf():
                return time.time()

            def _worker(item):
                return (_leaf(), item)

            def fan_out(pool, items):
                return pool.map(_worker, items)
        """}, "PURE01")
        (finding,) = findings
        assert "_worker -> _leaf" in finding.message
        assert "wall clock" in finding.message

    def test_pure_worker_and_declared_cache_pass(self):
        findings = findings_for({"repro/exec/launcher.py": """
            _STORE = None  # mapglint: declared-cache

            def _worker(item):
                global _STORE
                if _STORE is None:
                    _STORE = {}
                return item * 2

            def fan_out(pool, items):
                return pool.map(_worker, items)
        """}, "PURE01")
        assert findings == []

    def test_ambiguous_worker_name_is_skipped(self):
        findings = findings_for({"repro/exec/a.py": """
            import time

            def work(x):
                return time.time()
        """, "repro/exec/b.py": """
            def work(x):
                return x
        """, "repro/exec/launcher.py": """
            def fan_out(pool, items):
                return pool.map(work, items)
        """}, "PURE01")
        assert findings == []


class TestObsNeutralityRule:
    def test_unguarded_recorder_call_flagged(self):
        findings = findings_for({"repro/sim/mysim.py": """
            class Sim:
                def step(self, recorder):
                    recorder.instant("core0", "tick", 0)
        """}, "OBS01")
        (finding,) = findings
        assert "unguarded" in finding.message

    def test_guarded_emission_passes(self):
        findings = findings_for({"repro/sim/mysim.py": """
            class Sim:
                def step(self):
                    if self._obs.enabled:
                        self._obs.instant("core0", "tick", 0)

                def tiled(self):
                    if self._obs.enabled and self.deep:
                        self._obs.span("core0", "busy", 0, 1)

                def early(self):
                    if not self._obs.enabled:
                        return
                    self._obs.sample("core0", "n", 1)
        """}, "OBS01")
        assert findings == []

    def test_private_helper_with_all_guarded_callers_exempt(self):
        findings = findings_for({"repro/sim/mysim.py": """
            class Sim:
                def _emit(self, event):
                    self._obs.span("core0", "stall", 0, 1)

                def step(self, event):
                    if self._obs.enabled:
                        self._emit(event)
        """}, "OBS01")
        assert findings == []

    def test_private_helper_with_unguarded_caller_flagged(self):
        findings = findings_for({"repro/sim/mysim.py": """
            class Sim:
                def _emit(self, event):
                    self._obs.span("core0", "stall", 0, 1)

                def step(self, event):
                    self._emit(event)
        """}, "OBS01")
        assert any("unguarded" in f.message for f in findings)

    def test_obs_value_into_simulation_state_flagged(self):
        findings = findings_for({"repro/sim/mysim.py": """
            class Sim:
                def step(self):
                    if self._obs.enabled:
                        self.budget = self._obs.sample("core0", "n", 1)
        """}, "OBS01")
        (finding,) = findings
        assert "flow into simulation state" in finding.message

    def test_counter_prebinding_is_allowed_flow(self):
        findings = findings_for({"repro/sim/mysim.py": """
            class Sim:
                def attach(self):
                    if self._obs.enabled:
                        metrics = self._obs.metrics
                        self._m_hits = metrics.counter("sim.hits")
        """}, "OBS01")
        assert findings == []

    def test_non_obs_receivers_untouched(self):
        # Simulation-owned histograms/predictors share method names with
        # the metrics API; the receiver convention must tell them apart.
        findings = findings_for({"repro/sim/mysim.py": """
            class Sim:
                def step(self, cycles):
                    self.stall_histogram.observe(cycles)
                    self.policy.observe(1, 2, cycles, "read")
                    self.counters.add("x", 1.0)
        """}, "OBS01")
        assert findings == []

    def test_repro_obs_itself_out_of_scope(self):
        findings = findings_for({"repro/obs/spans.py": """
            class SpanRecorder:
                def span(self, track, name, start, dur):
                    self.recorder.instant(track, name, start)
        """}, "OBS01")
        assert findings == []


class TestProjectRuleSuppression:
    SOURCE = {"repro/sim/mysim.py": """
        class Sim:
            def step(self, recorder):
                recorder.instant("core0", "tick", 0)  # mapglint: disable=OBS01
    """}

    def test_suppression_honored_via_runner(self):
        assert findings_for(self.SOURCE, "OBS01") == []

    def test_suppression_honored_by_direct_check_project(self):
        # The regression: every invocation path — not just the runner —
        # must filter call-site-anchored project findings identically.
        model = model_of(self.SOURCE)
        for rule_class in all_project_rules():
            assert [f for f in rule_class().check_project(model)
                    if f.rule_id == "OBS01"] == []

    def test_unsuppressed_twin_still_fires(self):
        findings = findings_for({"repro/sim/mysim.py": """
            class Sim:
                def step(self, recorder):
                    recorder.instant("core0", "tick", 0)
        """}, "OBS01")
        assert len(findings) == 1


class TestEffectSchemaCacheKey:
    def test_effect_schema_bump_invalidates_cache(self, tmp_path,
                                                  monkeypatch):
        module = tmp_path / "repro" / "sim" / "mod.py"
        module.parent.mkdir(parents=True)
        module.write_text("def f(n):\n    return n\n", encoding="utf-8")
        cache_dir = str(tmp_path / "cache")
        lint_paths([str(tmp_path / "repro")], cache=ResultCache(cache_dir))

        warm = ResultCache(cache_dir)
        lint_paths([str(tmp_path / "repro")], cache=warm)
        assert warm.hits == 1 and warm.misses == 0

        monkeypatch.setattr(cache_module, "EFFECT_SCHEMA", 999_999)
        monkeypatch.setattr(cache_module, "_ruleset_version", None)
        bumped = ResultCache(cache_dir)
        lint_paths([str(tmp_path / "repro")], cache=bumped)
        assert bumped.misses == 1 and bumped.hits == 0


class TestSeededDefects:
    """Full-pipeline seeded defects, one per rule."""

    def _tree(self, tmp_path, rel, body):
        target = tmp_path
        for part in rel.split("/"):
            target = target / part
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(body), encoding="utf-8")
        return target

    def test_seeded_env_read_in_simulator_caught(self, tmp_path):
        self._tree(tmp_path, "repro/sim/driver.py", """
            import os

            def gate_mode():
                return os.environ.get("MAPG_GATE", "fixed")
        """)
        report = lint_paths([str(tmp_path)], rule_ids=["CACHE01"])
        assert any(f.rule_id == "CACHE01" for f in report.findings)

    def test_seeded_global_accumulator_worker_caught(self, tmp_path):
        self._tree(tmp_path, "repro/exec/launcher.py", """
            _SEEN = []

            def _worker(item):
                _SEEN.append(item)
                return item

            def fan_out(pool, items):
                return pool.map(_worker, items)
        """)
        report = lint_paths([str(tmp_path)], rule_ids=["PURE01"])
        assert any(f.rule_id == "PURE01" for f in report.findings)

    def test_seeded_unguarded_recorder_call_caught(self, tmp_path):
        self._tree(tmp_path, "repro/sim/mysim.py", """
            class Sim:
                def step(self, recorder):
                    recorder.instant("core0", "tick", 0)
        """)
        report = lint_paths([str(tmp_path)], rule_ids=["OBS01"])
        assert any(f.rule_id == "OBS01" for f in report.findings)

    def test_seeded_sweep_telemetry_leak_into_result_caught(self, tmp_path):
        # The PR-8 defect shape: a sweep-telemetry aggregate (cells/sec)
        # read off the recorder and folded into a SimulationResult field.
        # The assignment to a non-obs-named target is the tell.
        self._tree(tmp_path, "repro/exec/myengine.py", """
            class Runner:
                def finish(self, result, recorder):
                    rate = recorder.summary()
                    result.energy_j = result.energy_j + rate["cells_per_sec"]
                    return result
        """)
        report = lint_paths([str(tmp_path)], rule_ids=["OBS01"])
        assert any(f.rule_id == "OBS01" and "rate" in f.message
                   for f in report.findings)

    def test_seeded_unguarded_sweep_lifecycle_emission_caught(self, tmp_path):
        # The sweep lifecycle sinks joined _EMISSION_METHODS in PR 8:
        # an engine emitting cell_cache_hit outside the enabled guard
        # must be flagged like any metrics emission.
        self._tree(tmp_path, "repro/exec/myengine.py", """
            class Runner:
                def probe(self, key, recorder):
                    recorder.cell_cache_hit(key)
        """)
        report = lint_paths([str(tmp_path)], rule_ids=["OBS01"])
        assert any(f.rule_id == "OBS01" and "cell_cache_hit" in f.message
                   for f in report.findings)
