"""The per-file result cache: hits, invalidation, and correctness."""

import textwrap

import repro.lint.cache as cache_module
from repro.lint.cache import ResultCache, ruleset_version
from repro.lint.runner import lint_paths


def write_tree(tmp_path, body="def f(stall_cycles, wake_s):\n"
                              "    return stall_cycles + wake_s\n"):
    module = tmp_path / "repro" / "sim" / "mod.py"
    module.parent.mkdir(parents=True, exist_ok=True)
    module.write_text(textwrap.dedent(body), encoding="utf-8")
    return module


class TestResultCache:
    def test_cold_then_warm(self, tmp_path):
        write_tree(tmp_path)
        cache_dir = str(tmp_path / "cache")

        cold = ResultCache(cache_dir)
        first = lint_paths([str(tmp_path / "repro")], cache=cold)
        assert cold.misses == 1 and cold.hits == 0

        warm = ResultCache(cache_dir)
        second = lint_paths([str(tmp_path / "repro")], cache=warm)
        assert warm.hits == 1 and warm.misses == 0
        assert second.all_findings == first.all_findings

    def test_content_change_invalidates(self, tmp_path):
        module = write_tree(tmp_path)
        cache_dir = str(tmp_path / "cache")
        lint_paths([str(tmp_path / "repro")],
                   cache=ResultCache(cache_dir))

        module.write_text("def f(stall_cycles):\n    return stall_cycles\n",
                          encoding="utf-8")
        cache = ResultCache(cache_dir)
        report = lint_paths([str(tmp_path / "repro")], cache=cache)
        assert cache.misses == 1 and cache.hits == 0
        assert report.ok  # the edit removed the violation

    def test_ruleset_version_invalidates(self, tmp_path, monkeypatch):
        write_tree(tmp_path)
        cache_dir = str(tmp_path / "cache")
        lint_paths([str(tmp_path / "repro")], cache=ResultCache(cache_dir))

        monkeypatch.setattr(cache_module, "_ruleset_version",
                            "different-linter")
        cache = ResultCache(cache_dir)
        lint_paths([str(tmp_path / "repro")], cache=cache)
        assert cache.misses == 1 and cache.hits == 0

    def test_effect_schema_bump_invalidates(self, tmp_path, monkeypatch):
        # The phase-1 effect layout is folded into the cache key on its
        # own: bumping EFFECT_SCHEMA must orphan every warm entry, or a
        # new field (e.g. the error-flow model) would deserialize as
        # missing from stale summaries.
        write_tree(tmp_path)
        cache_dir = str(tmp_path / "cache")
        lint_paths([str(tmp_path / "repro")], cache=ResultCache(cache_dir))

        before = ruleset_version()
        monkeypatch.setattr(cache_module, "_ruleset_version", None)
        monkeypatch.setattr(cache_module, "EFFECT_SCHEMA",
                            cache_module.EFFECT_SCHEMA + 1)
        assert ruleset_version() != before
        cache = ResultCache(cache_dir)
        lint_paths([str(tmp_path / "repro")], cache=cache)
        assert cache.misses == 1 and cache.hits == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        module = write_tree(tmp_path)
        cache = ResultCache(str(tmp_path / "cache"))
        key = cache.key(module.read_bytes())
        entry_path = tmp_path / "cache" / key[:2] / (key + ".pkl")
        entry_path.parent.mkdir(parents=True)
        entry_path.write_bytes(b"not a pickle")
        report = lint_paths([str(tmp_path / "repro")], cache=cache)
        assert cache.misses >= 1
        assert not report.ok  # recomputed, not trusted

    def test_rule_subset_served_from_full_cache(self, tmp_path):
        # Entries store every file rule's findings; switching --rules must
        # hit the same entry and subset at read time.
        write_tree(tmp_path)
        cache_dir = str(tmp_path / "cache")
        full = lint_paths([str(tmp_path / "repro")],
                          cache=ResultCache(cache_dir))
        assert any(f.rule_id == "UNIT01" for f in full.findings)

        warm = ResultCache(cache_dir)
        subset = lint_paths([str(tmp_path / "repro")], rule_ids=["DET01"],
                            cache=warm)
        assert warm.hits == 1
        assert subset.findings == []

    def test_cache_dir_self_ignores(self, tmp_path):
        write_tree(tmp_path)
        cache_dir = tmp_path / "cache"
        lint_paths([str(tmp_path / "repro")], cache=ResultCache(str(cache_dir)))
        assert (cache_dir / ".gitignore").read_text() == "*\n"

    def test_version_is_stable_within_a_process(self):
        assert ruleset_version() == ruleset_version()
        assert len(ruleset_version()) == 20


class TestParallelRunner:
    def test_jobs_pool_matches_serial(self, tmp_path):
        for index in range(4):
            module = tmp_path / "repro" / "sim" / f"mod{index}.py"
            module.parent.mkdir(parents=True, exist_ok=True)
            module.write_text(
                f"def f{index}(stall_cycles, wake_s):\n"
                f"    return stall_cycles + wake_s\n", encoding="utf-8")
        serial = lint_paths([str(tmp_path / "repro")])
        pooled = lint_paths([str(tmp_path / "repro")], jobs=2)
        assert serial.all_findings == pooled.all_findings
        assert len(serial.all_findings) == 4
