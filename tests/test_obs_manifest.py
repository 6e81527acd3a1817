"""Tests for run manifests and the JSONL run log (repro.obs)."""

import json

from repro.config import SystemConfig
from repro.obs import (
    MANIFEST_SCHEMA,
    JsonlWriter,
    Registry,
    build_manifest,
    config_digest,
    environment_manifest,
    metrics_to_jsonl,
    read_jsonl,
    read_manifest,
    write_jsonl,
    write_manifest,
)
from repro.obs.manifest import git_revision
from repro.sim.runner import with_policy
from repro.version import __version__


class TestConfigDigest:
    def test_stable_across_calls(self):
        config = SystemConfig()
        assert config_digest(config) == config_digest(SystemConfig())

    def test_sensitive_to_config_changes(self):
        base = SystemConfig()
        assert config_digest(base) != \
            config_digest(with_policy(base, "never"))

    def test_is_hex_sha256(self):
        digest = config_digest(SystemConfig())
        assert len(digest) == 64
        int(digest, 16)  # raises if not hex


class TestManifest:
    def test_build_manifest_fields(self):
        config = SystemConfig()
        manifest = build_manifest(config, workload="mcf_like", seed=42,
                                  num_ops=4000, command="run")
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["workload"] == "mcf_like"
        assert manifest["seed"] == 42
        assert manifest["ops"] == 4000
        assert manifest["command"] == "run"
        assert manifest["config_digest"] == config_digest(config)
        assert manifest["package_version"] == __version__
        assert manifest["config"] == config.to_dict()

    def test_no_timestamps_anywhere(self):
        # Byte-identical manifests for repeated runs require no wall time.
        manifest = build_manifest(SystemConfig(), workload="w", seed=1)
        blob = json.dumps(manifest).lower()
        for needle in ("timestamp", '"time"', '"date"'):
            assert needle not in blob

    def test_repeated_builds_identical(self):
        first = build_manifest(SystemConfig(), workload="w", seed=1)
        second = build_manifest(SystemConfig(), workload="w", seed=1)
        assert first == second

    def test_extra_merges(self):
        manifest = build_manifest(SystemConfig(), workload="w", seed=1,
                                  extra={"self_profile": {"total_wall_s": 1}})
        assert manifest["self_profile"]["total_wall_s"] == 1

    def test_write_read_roundtrip(self, tmp_path):
        manifest = build_manifest(SystemConfig(), workload="w", seed=1)
        path = tmp_path / "run.manifest.json"
        write_manifest(manifest, path)
        assert read_manifest(path) == manifest

    def test_environment_manifest_keys(self):
        env = environment_manifest()
        assert set(env) == {"package_version", "python_version",
                            "platform", "git_sha"}

    def test_git_revision_in_repo(self):
        # The test tree is a git repo; outside one this returns None, so
        # only check the shape when present.
        sha = git_revision()
        if sha is not None:
            assert len(sha) == 40


class TestRunLog:
    def test_jsonl_writer_counts_and_sorts_keys(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with JsonlWriter(path) as writer:
            writer.write({"b": 2, "a": 1})
            assert writer.records_written == 1
        line = path.read_text(encoding="utf-8").strip()
        assert line == '{"a": 1, "b": 2}'

    def test_write_read_roundtrip(self, tmp_path):
        path = tmp_path / "log.jsonl"
        records = [{"i": index} for index in range(5)]
        assert write_jsonl(records, path) == 5
        assert read_jsonl(path) == records

    def test_metrics_to_jsonl(self, tmp_path):
        registry = Registry()
        registry.counter("sim.segments").inc(10)
        registry.gauge("depth").set(2)
        path = tmp_path / "metrics.jsonl"
        count = metrics_to_jsonl(registry, path, header={"seed": 1})
        records = read_jsonl(path)
        assert count == 3
        assert records[0] == {"record": "header", "seed": 1}
        metric_names = [record["name"] for record in records[1:]]
        assert metric_names == sorted(metric_names)
        assert all(record["record"] == "metric" for record in records[1:])
