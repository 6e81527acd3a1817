"""Tests for the content-addressed result cache.

The contract under test: a hit is field-for-field identical to a fresh
run, and *anything* that could change the result — any config field, the
seed, or any simulation source file — must change the key and miss.
"""

import dataclasses
import glob
import json
import os
import subprocess
import sys

import repro.exec.cache as cache_module
from repro.config import SystemConfig
from repro.exec import JobSpec, ResultCache, result_from_dict, result_to_dict
from repro.sim.runner import with_policy

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_HAMMER = """
import sys
sys.path.insert(0, {src!r})
from repro.config import SystemConfig
from repro.exec import JobSpec, ResultCache
from repro.sim.runner import with_policy

cell = JobSpec(config=with_policy(SystemConfig(), "mapg"),
               profile="gcc_like", num_ops=400, seed=3)
result = cell.execute()
cache = ResultCache({cache_dir!r})
for _ in range(200):
    cache.store(cell, result)
"""


def make_spec(**overrides):
    base = dict(config=with_policy(SystemConfig(), "mapg"),
                profile="gcc_like", num_ops=400, seed=3)
    base.update(overrides)
    return JobSpec(**base)


class TestRoundTrip:
    def test_hit_is_field_for_field_equal(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        cell = make_spec()
        fresh = cell.execute()
        cache.store(cell, fresh)
        cached = cache.load(cell)
        assert cached == fresh  # dataclass equality covers every field
        for field in dataclasses.fields(fresh):
            assert getattr(cached, field.name) == getattr(fresh, field.name)

    def test_floats_round_trip_exactly(self):
        cell = make_spec()
        result = cell.execute()
        rebuilt = result_from_dict(
            json.loads(json.dumps(result_to_dict(result))))
        assert rebuilt.energy_j == result.energy_j
        assert rebuilt == result

    def test_result_from_dict_rejects_unknown_fields(self):
        data = result_to_dict(make_spec().execute())
        data["bogus_field"] = 1
        try:
            result_from_dict(data)
        except ValueError as error:
            assert "bogus_field" in str(error)
        else:
            raise AssertionError("unknown field accepted")


class TestKeyCorrectness:
    def test_config_field_change_misses(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        cell = make_spec()
        cache.store(cell, cell.execute())
        config = cell.config
        edited = [
            make_spec(config=with_policy(config, "naive")),
            make_spec(config=config.replace(dram=config.dram.scaled(1.5))),
            make_spec(config=config.replace(
                gating=dataclasses.replace(config.gating, bet_scale=2.0))),
        ]
        for variant in edited:
            assert cache.load(variant) is None
        assert cache.load(cell) is not None

    def test_seed_and_ops_changes_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        cell = make_spec()
        cache.store(cell, cell.execute())
        assert cache.load(make_spec(seed=4)) is None
        assert cache.load(make_spec(num_ops=401)) is None
        assert cache.load(make_spec(warmup_ops=10)) is None

    def test_simulation_source_change_misses(self, tmp_path, monkeypatch):
        cache = ResultCache(str(tmp_path / "cache"))
        cell = make_spec()
        cache.store(cell, cell.execute())
        assert cache.load(cell) is not None
        # Simulate an edit to any model file: the process-wide source
        # digest changes, so every existing entry must miss.
        monkeypatch.setattr(cache_module, "simulation_version",
                            lambda: "0" * 20)
        assert cache.load(cell) is None


class TestRobustness:
    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        cell = make_spec()
        cache.store(cell, cell.execute())
        entry_path = cache._entry_path(cache.key(cell))
        with open(entry_path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        assert cache.load(cell) is None

    def test_stale_schema_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        cell = make_spec()
        cache.store(cell, cell.execute())
        entry_path = cache._entry_path(cache.key(cell))
        with open(entry_path, encoding="utf-8") as handle:
            entry = json.load(handle)
        entry["schema"] = "mapg.sim-result/0"
        with open(entry_path, "w", encoding="utf-8") as handle:
            json.dump(entry, handle)
        assert cache.load(cell) is None

    def test_cache_dir_gitignores_itself(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache = ResultCache(str(cache_dir))
        cell = make_spec(num_ops=50)
        cache.store(cell, cell.execute())
        marker = cache_dir / ".gitignore"
        assert marker.read_text() == "*\n"

    def test_no_leftover_temp_files(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache = ResultCache(str(cache_dir))
        cell = make_spec(num_ops=50)
        cache.store(cell, cell.execute())
        leftovers = [name for __, __, names in os.walk(str(cache_dir))
                     for name in names if name.endswith(".tmp")]
        assert leftovers == []

    def test_stats_track_hits_and_misses(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        cell = make_spec(num_ops=50)
        assert cache.load(cell) is None
        cache.store(cell, cell.execute())
        assert cache.load(cell) is not None
        assert cache.stats() == {"hits": 1, "misses": 1}


class TestConcurrentStores:
    def test_two_processes_race_one_key(self, tmp_path):
        # Atomic publication (temp file + os.replace): two writers racing
        # one key both succeed and readers only ever see a whole entry.
        cache_dir = str(tmp_path / "cache")
        script = _HAMMER.format(src=os.path.join(REPO_ROOT, "src"),
                                cache_dir=cache_dir)
        procs = [subprocess.Popen([sys.executable, "-c", script],
                                  stderr=subprocess.PIPE)
                 for _ in range(2)]
        for proc in procs:
            _, stderr = proc.communicate(timeout=120)
            assert proc.returncode == 0, stderr.decode()
        cell = make_spec()
        cached = ResultCache(cache_dir).load(cell)
        fresh = cell.execute()
        assert cached is not None
        for field in dataclasses.fields(fresh):
            assert getattr(cached, field.name) == getattr(fresh, field.name)
        assert not glob.glob(os.path.join(cache_dir, "**", "*.tmp"),
                             recursive=True)
