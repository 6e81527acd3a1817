"""Concurrency model extraction and the CONC01 shared-state race rule.

Synthetic modules live under ``repro/...`` paths (a tmp-dir ``repro``
tree is *not* a test path), mirroring test_lint_effects.py; the seeded
defect in :class:`TestSeededDefects` drives the rule through the full
``lint_paths`` pipeline and assert the spawn-to-access chain survives to
the finding text.
"""

import ast
import textwrap

from repro.lint.base import parse_suppressions
from repro.lint.project import ProjectModel, extract_summary
from repro.lint.project.concurrency import concurrent_roots
from repro.lint.project.effects import (
    GUARDED_WRITE, SHARED_WRITE, extract_module_effects,
    is_lock_name, parse_guarded_pragmas)
from repro.lint.runner import lint_paths, run_project_rules


def summarize(path, source):
    source = textwrap.dedent(source)
    return extract_summary(path, source, ast.parse(source),
                           parse_suppressions(source))


def effects_of(path, source):
    source = textwrap.dedent(source)
    return extract_module_effects(path, source, ast.parse(source))


def findings_for(modules, rule_id):
    summaries = [summarize(path, src) for path, src in modules.items()]
    return run_project_rules(summaries, rule_ids=[rule_id])


def kinds_of(module_effects, func_name):
    for info in module_effects.functions:
        if info.name == func_name:
            return {effect.kind for effect in info.effects}
    return set()


class TestConcurrencyExtraction:
    def test_thread_and_task_spawn_sites(self):
        effects = effects_of("repro/obs/daemon.py", """
            import asyncio, threading

            def start(loop):
                thread = threading.Thread(target=_watch)
                thread.start()
                loop.create_task(_poll())

            def _watch():
                pass

            async def _poll():
                pass
        """)
        sites = {(s.kind, s.api, s.worker_name) for s in effects.spawn_sites}
        assert ("thread", "threading.Thread", "_watch") in sites
        assert ("task", "loop.create_task", "_poll") in sites

    def test_guarded_bindings(self):
        effects = effects_of("repro/obs/shared.py", """
            import threading

            _LOCK = threading.Lock()
            _STATE = {}  # mapglint: guarded-by=_LOCK

            class Holder:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._table = {}  # mapglint: guarded-by=self._lock
        """)
        bound = {(b.symbol, b.lock, b.scope)
                 for b in effects.guarded_bindings}
        assert ("_STATE", "_LOCK", "global") in bound
        assert ("_table", "self._lock", "attr") in bound

    def test_guarded_write_carries_locks_held(self):
        effects = effects_of("repro/obs/shared.py", """
            import threading

            _LOCK = threading.Lock()
            _STATE = {}  # mapglint: guarded-by=_LOCK

            def locked(key):
                with _LOCK:
                    _STATE[key] = 1

            def bare(key):
                _STATE[key] = 1
        """)
        (locked,) = [e for info in effects.functions
                     if info.name == "locked"
                     for e in info.effects if e.kind == GUARDED_WRITE]
        assert locked.locks_held == ("_LOCK",)
        (bare,) = [e for info in effects.functions
                   if info.name == "bare"
                   for e in info.effects if e.kind == GUARDED_WRITE]
        assert bare.locks_held == ()

    def test_init_is_exempt_from_guarded_writes(self):
        effects = effects_of("repro/obs/shared.py", """
            import threading

            class Holder:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._table = {}  # mapglint: guarded-by=self._lock

                def put(self, key):
                    self._table[key] = 1
        """)
        assert GUARDED_WRITE not in kinds_of(effects, "__init__")
        assert GUARDED_WRITE in kinds_of(effects, "put")

    def test_shared_attr_write_detected(self):
        effects = effects_of("repro/sim/shared.py", """
            class Model:
                cache = {}

                def remember(self, key, value):
                    Model.cache[key] = value

                def remember_via_method(self, key):
                    self.cache.setdefault(key, [])
        """)
        assert SHARED_WRITE in kinds_of(effects, "remember")
        assert SHARED_WRITE in kinds_of(effects, "remember_via_method")

    def test_lock_name_heuristic(self):
        assert is_lock_name("self._lock")
        assert is_lock_name("_CACHE_MUTEX")
        assert is_lock_name("state_cond")
        assert is_lock_name("sem")
        assert not is_lock_name("self.blocked_cycles")
        assert not is_lock_name("clock")  # a clock is not a lock

    def test_guarded_pragma_parsing(self):
        pragmas = parse_guarded_pragmas(
            "X = {}  # mapglint: guarded-by=_LOCK\n"
            "Y = {}\n"
            "Z = {}  # mapglint: guarded-by=self._lock\n")
        assert pragmas == {1: "_LOCK", 3: "self._lock"}

    def test_concurrent_roots_resolve_workers(self):
        model = ProjectModel([summarize("repro/obs/daemon.py", """
            import threading

            def start():
                threading.Thread(target=_watch).start()

            def _watch():
                pass

            def fan_out(pool, items):
                return pool.map(_cell, items)

            def _cell(item):
                return item
        """)])
        roots = {(r.kind, r.worker_name) for r in concurrent_roots(model)}
        assert roots == {("thread", "_watch"), ("pool", "_cell")}

class TestSharedStateRace:
    def test_guarded_global_write_without_lock_fires(self):
        findings = findings_for({"repro/obs/state.py": """
            import threading

            _LOCK = threading.Lock()
            _STATE = {}  # mapglint: guarded-by=_LOCK

            def poke(key):
                _STATE[key] = 1
        """}, "CONC01")
        (finding,) = findings
        assert finding.rule_id == "CONC01"
        assert "guarded-by" in finding.message
        assert "_LOCK" in finding.message

    def test_guarded_write_with_binding_lock_is_silent(self):
        findings = findings_for({"repro/obs/state.py": """
            import threading

            _LOCK = threading.Lock()
            _STATE = {}  # mapglint: guarded-by=_LOCK

            def poke(key):
                with _LOCK:
                    _STATE[key] = 1
        """}, "CONC01")
        assert findings == []

    def test_guarded_attr_write_without_lock_fires(self):
        findings = findings_for({"repro/obs/registry.py": """
            import threading

            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._metrics = {}  # mapglint: guarded-by=self._lock

                def put(self, name, metric):
                    self._metrics[name] = metric
        """}, "CONC01")
        (finding,) = findings
        assert "_metrics" in finding.message
        assert "self._lock" in finding.message

    def test_thread_reachable_global_write_fires_with_chain(self):
        findings = findings_for({"repro/obs/daemon.py": """
            import threading

            _TICKS = {}

            def start():
                threading.Thread(target=_watch).start()

            def _watch():
                _step()

            def _step():
                _TICKS["n"] = 1
        """}, "CONC01")
        (finding,) = findings
        assert "_watch -> _step" in finding.message
        assert "threading.Thread" in finding.message

    def test_thread_reachable_write_under_lock_is_silent(self):
        findings = findings_for({"repro/obs/daemon.py": """
            import threading

            _LOCK = threading.Lock()
            _TICKS = {}

            def start():
                threading.Thread(target=_watch).start()

            def _watch():
                with _LOCK:
                    _TICKS["n"] = 1
        """}, "CONC01")
        assert findings == []

    def test_pool_reachable_shared_attr_write_fires(self):
        findings = findings_for({"repro/exec/launcher.py": """
            class Model:
                cache = {}

            def _worker(item):
                Model.cache[item] = item
                return item

            def fan_out(pool, items):
                return pool.map(_worker, items)
        """}, "CONC01")
        assert any("cache" in f.message for f in findings)

    def test_pool_global_write_is_left_to_pure01(self):
        # One finding per defect: a pool worker's global write is already
        # a PURE01 error, so CONC01 stays quiet on pool roots for it.
        findings = findings_for({"repro/exec/launcher.py": """
            _SEEN = []

            def _worker(item):
                _SEEN.append(item)
                return item

            def fan_out(pool, items):
                return pool.map(_worker, items)
        """}, "CONC01")
        assert findings == []


class TestSuppressionAndScope:
    def test_per_line_disable_suppresses_conc01(self):
        findings = findings_for({"repro/obs/state.py": """
            import threading

            _LOCK = threading.Lock()
            _STATE = {}  # mapglint: guarded-by=_LOCK

            def poke(key):
                _STATE[key] = 1  # mapglint: disable=CONC01
        """}, "CONC01")
        assert findings == []

    def test_test_paths_are_out_of_scope(self):
        findings = findings_for({"tests/test_something.py": """
            import threading

            _LOCK = threading.Lock()
            _STATE = {}  # mapglint: guarded-by=_LOCK

            def poke(key):
                _STATE[key] = 1
        """}, "CONC01")
        assert findings == []


class TestSeededDefects:
    """Full-pipeline seeded CONC01 defect."""

    def _tree(self, tmp_path, rel, body):
        target = tmp_path
        for part in rel.split("/"):
            target = target / part
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(body), encoding="utf-8")
        return target

    def test_seeded_unlocked_write_under_thread_caught(self, tmp_path):
        self._tree(tmp_path, "repro/obs/daemon.py", """
            import threading

            _EVENTS = []

            def start_watcher():
                thread = threading.Thread(target=_watch)
                thread.start()
                return thread

            def _watch():
                _EVENTS.append("tick")
        """)
        report = lint_paths([str(tmp_path)], rule_ids=["CONC01"])
        (finding,) = report.findings
        assert finding.rule_id == "CONC01"
        # The spawn-to-access chain names the real path to the write.
        assert "_watch" in finding.message
        assert "threading.Thread" in finding.line_text
