"""Sweep telemetry: neutrality, reconciliation, schemas, progress.

The load-bearing property mirrors the span recorder's: sweep *results*
are byte-identical with the recorder attached or not, at any ``jobs``
count, cold or warm cache — the recorder only observes.  On top of that,
the artifacts must *reconcile*: every unique cell is accounted for
exactly once as a hit, an executed cell, or a failure, and those counts
agree with the engine's own counters and the cache on disk.
"""

import dataclasses
import io
import json

import pytest

import repro.exec.engine as engine_module
from repro.cli import main
from repro.config import SystemConfig
from repro.errors import SweepError
from repro.exec import JobSpec, ResultCache, SweepRunner, result_to_dict
from repro.obs import read_jsonl
from repro.obs.sweep import (
    NULL_SWEEP_RECORDER,
    SWEEP_EVENTS_SCHEMA,
    SWEEP_MANIFEST_SCHEMA,
    SweepRecorder,
    sweep_artifact_paths,
    validate_sweep_events,
    validate_sweep_manifest,
    write_sweep_artifacts,
)
from repro.sim.runner import with_policy


def canonical_bytes(results):
    return json.dumps([result_to_dict(result) for result in results],
                      sort_keys=True, separators=(",", ":")).encode("utf-8")


def tiny_specs(num_ops=200):
    config = SystemConfig()
    return [JobSpec(config=with_policy(config, policy), profile=profile,
                    num_ops=num_ops, seed=3)
            for profile in ("gcc_like", "mcf_like")
            for policy in ("never", "mapg")]


class FakeTty(io.StringIO):
    def isatty(self):
        return True


class TestNeutrality:
    def test_default_recorder_is_shared_null_singleton(self):
        runner = SweepRunner()
        assert runner._obs is NULL_SWEEP_RECORDER
        assert NULL_SWEEP_RECORDER.enabled is False

    def test_byte_identical_on_off_serial_cold_and_warm(self, tmp_path):
        specs = tiny_specs()
        off_cold = SweepRunner(
            cache=ResultCache(str(tmp_path / "off"))).run(specs)
        on_cold = SweepRunner(
            cache=ResultCache(str(tmp_path / "on")),
            recorder=SweepRecorder()).run(specs)
        assert canonical_bytes(on_cold) == canonical_bytes(off_cold)

        off_warm = SweepRunner(
            cache=ResultCache(str(tmp_path / "off"))).run(specs)
        on_warm = SweepRunner(
            cache=ResultCache(str(tmp_path / "on")),
            recorder=SweepRecorder()).run(specs)
        assert canonical_bytes(on_warm) == canonical_bytes(off_cold)
        assert canonical_bytes(off_warm) == canonical_bytes(off_cold)

    def test_byte_identical_on_off_at_jobs_4(self, forced_pool):
        specs = tiny_specs()
        off = SweepRunner(jobs=4).run(specs)
        on = SweepRunner(jobs=4, recorder=SweepRecorder()).run(specs)
        assert canonical_bytes(on) == canonical_bytes(off)
        assert any(forced_pool)


class TestReconciliation:
    def test_cold_then_warm_counters_match_cache_state(self, tmp_path):
        specs = tiny_specs()
        cold_recorder = SweepRecorder()
        cold = SweepRunner(cache=ResultCache(str(tmp_path)),
                           recorder=cold_recorder)
        cold.run(specs)
        counters = cold_recorder.summary()
        assert counters["hits"] == cold.cache_hits == 0
        assert counters["misses"] == len(specs)
        assert counters["executed"] == cold.executed == len(specs)
        assert counters["failed"] == 0
        assert counters["hits"] + counters["executed"] \
            == counters["unique_cells"]

        warm_recorder = SweepRecorder()
        warm = SweepRunner(cache=ResultCache(str(tmp_path)),
                           recorder=warm_recorder)
        warm.run(specs)
        counters = warm_recorder.summary()
        assert counters["hits"] == warm.cache_hits == len(specs)
        assert counters["misses"] == 0 and counters["executed"] == 0
        assert counters["hit_rate"] == 1.0
        manifest = warm_recorder.manifest()
        assert validate_sweep_manifest(manifest) == []
        assert all(record["source"] == "cache"
                   for record in manifest["cells"].values())

    def test_dedupe_counted(self):
        specs = tiny_specs()
        recorder = SweepRecorder()
        SweepRunner(recorder=recorder).run(specs + specs)
        counters = recorder.summary()
        assert counters["submitted"] == 2 * len(specs)
        assert counters["unique_cells"] == len(specs)
        assert counters["dedupe"] == len(specs)

    def test_manifest_carries_spec_keys_and_timings(self):
        specs = tiny_specs()
        recorder = SweepRecorder()
        SweepRunner(recorder=recorder).run(specs)
        manifest = recorder.manifest()
        assert manifest["schema"] == SWEEP_MANIFEST_SCHEMA
        assert manifest["spec_keys"] == [spec.key for spec in specs]
        assert manifest["simulation_version"]
        for record in manifest["cells"].values():
            assert record["source"] == "executed"
            assert record["wall_s"] >= 0.0
        assert validate_sweep_manifest(manifest) == []

    def test_pool_run_attributes_workers(self, forced_pool):
        specs = tiny_specs()
        recorder = SweepRecorder()
        SweepRunner(jobs=4, recorder=recorder).run(specs)
        counters = recorder.summary()
        assert sum(counters["per_worker"].values()) == len(specs)
        # Real pool pids, not the serial sentinel.
        assert "0" not in counters["per_worker"]
        assert counters["worker_utilization"] is not None
        assert 0.0 < counters["worker_utilization"] <= 1.0
        assert all(forced_pool)


class TestFailureRecords:
    def _specs_with_poison(self):
        specs = tiny_specs(num_ops=120)
        poison = JobSpec(config=SystemConfig(), profile="no_such_profile",
                         num_ops=120, seed=3)
        return specs + [poison], poison

    def test_failed_cell_lands_in_manifest_serial(self, tmp_path):
        specs, poison = self._specs_with_poison()
        recorder = SweepRecorder()
        runner = SweepRunner(cache=ResultCache(str(tmp_path)),
                             recorder=recorder)
        with pytest.raises(SweepError):
            runner.run(specs)
        manifest = recorder.manifest()
        assert validate_sweep_manifest(manifest) == []
        assert set(manifest["failures"]) == {poison.key}
        assert "no_such_profile" in manifest["failures"][poison.key]
        assert manifest["cells"][poison.key]["source"] == "failed"
        counters = manifest["counters"]
        assert counters["failed"] == 1
        assert counters["executed"] == len(specs) - 1
        assert validate_sweep_events(recorder.events()) == []

    def test_failed_cell_lands_in_manifest_pool(self, forced_pool):
        specs, poison = self._specs_with_poison()
        recorder = SweepRecorder()
        with pytest.raises(SweepError):
            SweepRunner(jobs=4, recorder=recorder).run(specs)
        manifest = recorder.manifest()
        assert set(manifest["failures"]) == {poison.key}
        assert manifest["counters"]["failed"] == 1
        assert validate_sweep_manifest(manifest) == []
        assert all(forced_pool)


class TestEventStream:
    def test_events_validate_and_roundtrip_jsonl(self, tmp_path):
        specs = tiny_specs()
        recorder = SweepRecorder()
        SweepRunner(recorder=recorder).run(specs)
        assert validate_sweep_events(recorder.events()) == []

        manifest_path, events_path = write_sweep_artifacts(
            recorder, tmp_path / "sweep.json")
        records = read_jsonl(events_path)
        assert records[0] == {"record": "header",
                              "schema": SWEEP_EVENTS_SCHEMA,
                              "simulation_version":
                                  recorder.simulation_version}
        assert validate_sweep_events(records) == []
        assert validate_sweep_manifest(
            json.loads(manifest_path.read_text())) == []

    def test_event_order_and_types(self):
        specs = tiny_specs()
        recorder = SweepRecorder()
        SweepRunner(recorder=recorder).run(specs)
        kinds = [event["event"] for event in recorder.events()]
        assert kinds[0] == "sweep_begin"
        assert kinds[-1] == "sweep_end"
        assert kinds.count("cell_queued") == len(specs)
        assert kinds.count("cell_start") == len(specs)
        assert kinds.count("cell_done") == len(specs)
        assert "dispatch" in kinds
        times = [event["t"] for event in recorder.events()]
        assert times == sorted(times)

    def test_validator_rejects_tampered_streams(self):
        recorder = SweepRecorder()
        SweepRunner(recorder=recorder).run(tiny_specs(num_ops=120))
        good = [dict(event) for event in recorder.events()]

        assert validate_sweep_events([]) == ["event stream is empty"]

        unknown = [dict(event) for event in good]
        unknown[1]["event"] = "teleport"
        assert any("unknown type" in problem
                   for problem in validate_sweep_events(unknown))

        missing = [dict(event) for event in good]
        del missing[0]["jobs"]
        assert any("missing required key 'jobs'" in problem
                   for problem in validate_sweep_events(missing))

        backwards = [dict(event) for event in good]
        backwards[-1]["t"] = -1.0
        assert any("non-negative" in problem
                   for problem in validate_sweep_events(backwards))

        unqueued = [dict(event) for event in good]
        for event in unqueued:
            if event["event"] == "cell_done":
                event["key"] = "deadbeef"
                break
        assert any("never announced" in problem
                   for problem in validate_sweep_events(unqueued))

        truncated = good[:-1]
        assert any("last event must be sweep_end" in problem
                   for problem in validate_sweep_events(truncated))

    def test_manifest_validator_rejects_broken_documents(self):
        recorder = SweepRecorder()
        SweepRunner(recorder=recorder).run(tiny_specs(num_ops=120))
        good = recorder.manifest()

        assert validate_sweep_manifest({"schema": "nope"}) \
            == ["schema 'nope' != 'mapg.sweep-manifest/1'"]

        broken = json.loads(json.dumps(good))
        broken["counters"]["hits"] = 7
        assert any("do not reconcile" in problem
                   for problem in validate_sweep_manifest(broken))

        broken = json.loads(json.dumps(good))
        first = broken["spec_keys"][0]
        broken["failures"][first] = "fake"
        assert any("disagree" in problem
                   for problem in validate_sweep_manifest(broken))


class TestProgress:
    def test_tty_stream_gets_progress_and_final_newline(self):
        stream = FakeTty()
        recorder = SweepRecorder(progress=stream)
        SweepRunner(recorder=recorder).run(tiny_specs(num_ops=120))
        text = stream.getvalue()
        assert "\r" in text and text.endswith("\n")
        assert "cells" in text and "ETA" in text
        assert f"{len(tiny_specs())}/{len(tiny_specs())}" in text

    def test_non_tty_stream_stays_silent(self):
        stream = io.StringIO()
        recorder = SweepRecorder(progress=stream)
        SweepRunner(recorder=recorder).run(tiny_specs(num_ops=120))
        assert stream.getvalue() == ""


class TestArtifacts:
    def test_sibling_paths(self, tmp_path):
        manifest, events = sweep_artifact_paths(tmp_path / "s.json")
        assert manifest.name == "s.json"
        assert events.name == "s.events.jsonl"
        manifest, events = sweep_artifact_paths(tmp_path / "bare")
        assert events.name == "bare.events.jsonl"


class TestEngineTelemetry:
    def _mixed_specs(self, num_ops=200):
        """Two oracle cells, one fast cell, one prefetching fast cell."""
        config = SystemConfig()
        prefetching = config.replace(
            prefetcher=dataclasses.replace(config.prefetcher, enabled=True))
        return [
            JobSpec(config=with_policy(config, "never"),
                    profile="gcc_like", num_ops=num_ops, seed=3,
                    engine="oracle"),
            JobSpec(config=with_policy(config, "mapg"),
                    profile="gcc_like", num_ops=num_ops, seed=3,
                    engine="oracle"),
            JobSpec(config=with_policy(config, "mapg"),
                    profile="mcf_like", num_ops=num_ops, seed=3,
                    engine="fast"),
            JobSpec(config=with_policy(prefetching, "mapg"),
                    profile="mcf_like", num_ops=num_ops, seed=3,
                    engine="fast"),
        ]

    @pytest.fixture
    def refuse_prefetching(self, monkeypatch):
        # Every config a single core accepts now runs on the kernel, so a
        # stand-in refusal drives the fallback telemetry: the parent's
        # fallback_reasons is what the recorder counts.
        monkeypatch.setattr(
            engine_module, "fallback_reasons",
            lambda config: ["prefetcher enabled"]
            if config.prefetcher.enabled else [])

    def test_prefetching_cells_count_as_fast(self):
        recorder = SweepRecorder()
        SweepRunner(recorder=recorder).run(self._mixed_specs())
        counters = recorder.summary()
        assert counters["engines"] == {"oracle": 2, "fast": 2,
                                       "fast_fallback": 0}
        assert counters["fallback_reasons"] == {}

    def test_serial_sweep_counts_engines_and_reasons(self,
                                                     refuse_prefetching):
        recorder = SweepRecorder()
        SweepRunner(recorder=recorder).run(self._mixed_specs())
        counters = recorder.summary()
        assert counters["engines"] == {"oracle": 2, "fast": 1,
                                       "fast_fallback": 1}
        assert counters["fallback_reasons"] == {
            "prefetcher enabled": 1}
        manifest = recorder.manifest()
        assert validate_sweep_manifest(manifest) == []
        by_profile_engine = {
            (record["profile"], record["engine"]):
                record["fallback_reasons"]
            for record in manifest["cells"].values()}
        assert by_profile_engine[("gcc_like", "oracle")] == []
        assert by_profile_engine[("mcf_like", "fast")] in (
            [], ["prefetcher enabled"])

    def test_pool_sweep_counts_engines_and_reasons(self, forced_pool,
                                                   refuse_prefetching):
        recorder = SweepRecorder()
        SweepRunner(jobs=4, recorder=recorder).run(self._mixed_specs())
        assert all(forced_pool)
        counters = recorder.summary()
        assert counters["engines"] == {"oracle": 2, "fast": 1,
                                       "fast_fallback": 1}
        assert counters["fallback_reasons"] == {
            "prefetcher enabled": 1}
        assert validate_sweep_manifest(recorder.manifest()) == []

    def test_cell_events_carry_engine_fields(self):
        recorder = SweepRecorder()
        SweepRunner(recorder=recorder).run(self._mixed_specs())
        queued_engines = [event["engine"] for event in recorder.events()
                          if event["event"] == "cell_queued"]
        assert queued_engines.count("fast") == 2
        done = [event for event in recorder.events()
                if event["event"] == "cell_done"]
        assert all("engine" in event and "fallback_reasons" in event
                   for event in done)
        assert validate_sweep_events(recorder.events()) == []

    def test_manifest_validator_reconciles_engine_counters(self):
        recorder = SweepRecorder()
        SweepRunner(recorder=recorder).run(self._mixed_specs(num_ops=120))
        good = recorder.manifest()

        broken = json.loads(json.dumps(good))
        broken["counters"]["engines"]["fast"] += 1
        problems = validate_sweep_manifest(broken)
        assert any("counters.engines sum" in problem
                   for problem in problems)

        broken = json.loads(json.dumps(good))
        for record in broken["cells"].values():
            if record["engine"] == "oracle":
                record["engine"] = "fast"
                break
        assert any("disagree with counters.engines" in problem
                   for problem in validate_sweep_manifest(broken))

        broken = json.loads(json.dumps(good))
        broken["counters"]["fallback_reasons"]["invented reason"] = 2
        assert any("counters.fallback_reasons" in problem
                   for problem in validate_sweep_manifest(broken))

    def test_manifest_without_engine_counters_still_validates(self):
        """Forward compatibility: pre-telemetry manifests stay valid."""
        recorder = SweepRecorder()
        SweepRunner(recorder=recorder).run(tiny_specs(num_ops=120))
        old = json.loads(json.dumps(recorder.manifest()))
        del old["counters"]["engines"]
        del old["counters"]["fallback_reasons"]
        for record in old["cells"].values():
            del record["engine"]
            del record["fallback_reasons"]
        assert validate_sweep_manifest(old) == []


class TestCliTelemetry:
    def test_sweep_telemetry_out_writes_validating_artifacts(
            self, tmp_path, capsys):
        target = tmp_path / "telemetry" / "sweep.json"
        exit_code = main(["sweep", "bet", "--workload", "gcc_like",
                          "--ops", "400", "--values", "0.5", "1.0",
                          "--telemetry-out", str(target)])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "sweep on gcc_like" in captured.out
        assert "wrote sweep telemetry" in captured.err
        manifest = json.loads(target.read_text())
        assert validate_sweep_manifest(manifest) == []
        assert validate_sweep_events(
            read_jsonl(tmp_path / "telemetry" / "sweep.events.jsonl")) == []
        # 2 values x (never, mapg), never cells deduped across values.
        assert manifest["counters"]["submitted"] == 4
        assert manifest["counters"]["unique_cells"] == 3

    def test_sweep_without_telemetry_unchanged(self, capsys):
        exit_code = main(["sweep", "bet", "--workload", "gcc_like",
                          "--ops", "400", "--values", "0.5"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "sweep on gcc_like" in captured.out
        assert captured.err == ""
