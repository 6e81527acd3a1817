"""Concurrent lint invocations sharing one ``.mapglint-cache/``.

Atomic publication of our own lint cache, turned into regressions: two
processes racing ``ResultCache.store`` on the same content-addressed key
must both succeed (whichever ``os.replace`` lands last wins with
identical bytes), a temp file swept away before the replace is a no-op,
and two simultaneous cold ``python -m repro.lint --jobs 2`` runs over
the same tree must produce identical findings and leave a consistent,
fully-warm cache behind.
"""

import ast
import glob
import json
import os
import pickle
import subprocess
import sys
import textwrap

from repro.lint.base import parse_suppressions
from repro.lint.cache import ResultCache
from repro.lint.project import extract_summary

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_HAMMER = """
import ast, sys
sys.path.insert(0, {src!r})
from repro.lint.base import parse_suppressions
from repro.lint.cache import ResultCache
from repro.lint.project import extract_summary

source = "VALUE = 1\\n"
summary = extract_summary("repro/x.py", source, ast.parse(source),
                          parse_suppressions(source))
cache = ResultCache({cache_dir!r})
key = cache.key(b"shared-payload")
for _ in range(200):
    cache.store(key, [], summary)
"""


def _summary(source="VALUE = 1\n"):
    return extract_summary("repro/x.py", source, ast.parse(source),
                           parse_suppressions(source))


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return env


class TestStoreRaces:
    def test_two_processes_race_one_key(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        script = _HAMMER.format(src=os.path.join(REPO_ROOT, "src"),
                                cache_dir=cache_dir)
        procs = [subprocess.Popen([sys.executable, "-c", script],
                                  stderr=subprocess.PIPE)
                 for _ in range(2)]
        for proc in procs:
            _, stderr = proc.communicate(timeout=120)
            assert proc.returncode == 0, stderr.decode()
        cache = ResultCache(cache_dir)
        key = cache.key(b"shared-payload")
        loaded = cache.load(key)
        assert loaded is not None
        assert not glob.glob(os.path.join(cache_dir, "**", "*.tmp"),
                             recursive=True)

    def test_vanished_tmp_file_is_tolerated(self, tmp_path, monkeypatch):
        cache = ResultCache(str(tmp_path / "cache"))
        key = cache.key(b"payload")
        real_replace = os.replace

        def sweeping_replace(src, dst):
            os.unlink(src)  # a concurrent cleaner swept the temp file
            return real_replace(src, dst)  # -> FileNotFoundError

        monkeypatch.setattr(os, "replace", sweeping_replace)
        cache.store(key, [], _summary())  # must not raise
        monkeypatch.undo()
        assert not glob.glob(str(tmp_path / "cache" / "**" / "*.tmp"),
                             recursive=True)
        assert cache.load(key) is None  # nothing published, clean miss

    def test_replace_winner_is_tolerated(self, tmp_path, monkeypatch):
        # The loser of a replace race sees its entry already present;
        # its own replace still succeeds (rename-over is fine) -- but a
        # failed one must degrade to a discarded temp file, not a raise.
        cache = ResultCache(str(tmp_path / "cache"))
        key = cache.key(b"payload")
        cache.store(key, [], _summary())

        def failing_replace(src, dst):
            raise OSError("simulated cross-device failure")

        monkeypatch.setattr(os, "replace", failing_replace)
        cache.store(key, [], _summary())  # must not raise
        monkeypatch.undo()
        assert cache.load(key) is not None  # first write still served
        assert not glob.glob(str(tmp_path / "cache" / "**" / "*.tmp"),
                             recursive=True)


class TestConcurrentCliRuns:
    def _seed_tree(self, tmp_path):
        tree = tmp_path / "proj"
        for rel, body in {
            "repro/sim/clean.py": """
                VALUE_CYCLES = 10

                def double(stall_cycles):
                    return stall_cycles * 2
            """,
            "repro/sim/bad.py": """
                def mix(stall_cycles, wake_s):
                    return stall_cycles + wake_s
            """,
            "repro/exec/store.py": """
                def persist(cache_entry, payload):
                    if not payload:
                        raise ValueError("empty payload")
                    return cache_entry, payload
            """,
        }.items():
            target = tree
            for part in rel.split("/"):
                target = target / part
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(textwrap.dedent(body), encoding="utf-8")
        return tree

    def test_simultaneous_cold_runs_agree(self, tmp_path):
        tree = self._seed_tree(tmp_path)
        cache_dir = str(tmp_path / "cache")
        command = [sys.executable, "-m", "repro.lint", str(tree),
                   "--jobs", "2", "--cache-dir", cache_dir,
                   "--format", "json"]
        procs = [subprocess.Popen(command, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, env=_env(),
                                  cwd=REPO_ROOT)
                 for _ in range(2)]
        outputs = []
        for proc in procs:
            stdout, stderr = proc.communicate(timeout=300)
            assert proc.returncode == 1, stderr.decode()  # seeded defects
            outputs.append(stdout.decode())
        first, second = (json.loads(out) for out in outputs)
        assert first == second
        rules = {finding["rule"] for finding in first}
        assert {"UNIT01", "ERR04"} <= rules

        # The shared cache is consistent: no temp litter, every entry a
        # loadable pickle, and a follow-up run is fully warm yet agrees.
        assert not glob.glob(os.path.join(cache_dir, "**", "*.tmp"),
                             recursive=True)
        entries = glob.glob(os.path.join(cache_dir, "**", "*.pkl"),
                            recursive=True)
        assert entries
        for entry in entries:
            with open(entry, "rb") as handle:
                payload = pickle.load(handle)
            assert {"findings", "summary"} <= set(payload)
        warm = subprocess.run(command, capture_output=True, env=_env(),
                              cwd=REPO_ROOT, timeout=300)
        assert warm.returncode == 1
        assert json.loads(warm.stdout.decode()) == first
