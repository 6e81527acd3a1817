"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.version import __version__


class TestRun:
    def test_run_prints_summary(self, capsys):
        assert main(["run", "gcc_like", "--ops", "800", "--policy", "mapg"]) == 0
        out = capsys.readouterr().out
        assert "gcc_like / mapg" in out
        assert "total cycles" in out

    def test_run_baseline_deltas(self, capsys):
        assert main(["run", "gcc_like", "--ops", "800", "--baseline"]) == 0
        out = capsys.readouterr().out
        assert "vs never-gate baseline" in out
        assert "EDP ratio" in out

    def test_run_json_output(self, capsys):
        assert main(["run", "gcc_like", "--ops", "800", "--json",
                     "--baseline"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workload"] == "gcc_like"
        assert payload["policy"] == "mapg"
        assert "vs_never" in payload
        assert payload["total_cycles"] > 0

    def test_run_deterministic_per_seed(self, capsys):
        main(["run", "gcc_like", "--ops", "800", "--json", "--seed", "3"])
        first = json.loads(capsys.readouterr().out)
        main(["run", "gcc_like", "--ops", "800", "--json", "--seed", "3"])
        second = json.loads(capsys.readouterr().out)
        assert first == second

    @pytest.mark.parametrize("engine", ["fast", "oracle"])
    def test_self_profile_splits_trace_from_simulate(self, capsys, engine):
        def stages():
            assert main(["run", "gcc_like", "--ops", "10000", "--json",
                         "--self-profile", "--engine", engine]) == 0
            report = json.loads(capsys.readouterr().out)["self_profile"]
            return {stage["name"]: stage["wall_s"]
                    for stage in report["stages"]}

        first = stages()
        assert list(first) == ["trace", "simulate"]
        # The second identical run finds its trace in the process memo.
        second = stages()
        assert second["trace"] < min(0.01, first["trace"])
        assert second["simulate"] > 0

    def test_self_profile_line_names_the_stages(self, capsys):
        assert main(["run", "gcc_like", "--ops", "800",
                     "--self-profile"]) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.startswith("self-profile:")
        assert "(trace " in line and ", simulate " in line

    def test_unknown_workload_is_clean_error(self, capsys):
        assert main(["run", "nonexistent_like", "--ops", "100"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_temperature_flag(self, capsys):
        assert main(["run", "gcc_like", "--ops", "800",
                     "--temperature", "110"]) == 0


class TestCompare:
    def test_compare_matrix(self, capsys):
        assert main(["compare", "--workloads", "gcc_like",
                     "--policies", "never", "mapg", "--ops", "600"]) == 0
        out = capsys.readouterr().out
        assert "gcc_like" in out
        assert "mapg" in out
        # never is the baseline, not a row.
        assert out.count("never") <= 1

    def test_compare_adds_missing_baseline(self, capsys):
        assert main(["compare", "--workloads", "gcc_like",
                     "--policies", "naive", "--ops", "600"]) == 0
        assert "naive" in capsys.readouterr().out


class TestCircuit:
    def test_circuit_table(self, capsys):
        assert main(["circuit", "--nodes", "45nm", "32nm"]) == 0
        out = capsys.readouterr().out
        assert "45nm" in out and "32nm" in out
        assert "BET (cyc)" in out

    def test_unknown_node_error(self, capsys):
        assert main(["circuit", "--nodes", "22nm"]) == 2


class TestSweep:
    @pytest.mark.parametrize("axis,value", [
        ("bet", "1.0"), ("wake", "1.0"), ("dram", "1.0"),
        ("temperature", "85.0"),
    ])
    def test_each_axis_runs(self, capsys, axis, value):
        assert main(["sweep", axis, "--workload", "gcc_like",
                     "--ops", "500", "--values", value]) == 0
        out = capsys.readouterr().out
        assert "sweep on gcc_like" in out


class TestMulticore:
    def test_two_cores_with_tokens(self, capsys):
        assert main(["multicore", "gcc_like", "gcc_like",
                     "--ops", "500", "--tokens", "1"]) == 0
        out = capsys.readouterr().out
        assert "2 cores" in out
        assert "token arbitration" in out

    def test_tokens_off_by_default(self, capsys):
        assert main(["multicore", "gcc_like", "gcc_like", "--ops", "500"]) == 0
        out = capsys.readouterr().out
        assert "tokens off" in out
        assert "token arbitration" not in out


class TestRunExtensionFlags:
    def test_sleep_mode_flag(self, capsys):
        assert main(["run", "mcf_like", "--ops", "600",
                     "--sleep-mode", "retention"]) == 0

    def test_prefetch_flag(self, capsys):
        assert main(["run", "libquantum_like", "--ops", "600",
                     "--prefetch-degree", "4"]) == 0

    def test_miss_window_flag(self, capsys):
        assert main(["run", "mcf_like", "--ops", "600",
                     "--miss-window", "4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_cycles"] > 0

    def test_window_changes_result(self, capsys):
        main(["run", "mcf_like", "--ops", "600", "--json"])
        blocking = json.loads(capsys.readouterr().out)
        main(["run", "mcf_like", "--ops", "600", "--miss-window", "8",
              "--json"])
        windowed = json.loads(capsys.readouterr().out)
        assert windowed["total_cycles"] < blocking["total_cycles"]


class TestEngineFallbackNote:
    def test_fast_run_in_the_envelope_is_silent(self, capsys):
        assert main(["run", "gcc_like", "--ops", "400"]) == 0
        assert capsys.readouterr().err == ""

    def test_prefetching_run_is_silent(self, capsys):
        assert main(["run", "libquantum_like", "--ops", "2000",
                     "--prefetch-degree", "4"]) == 0
        assert capsys.readouterr().err == ""

    def test_fallback_names_its_reasons_once(self, tmp_path, capsys):
        # A windowed core and the prefetcher run on the kernel: neither is
        # among the reasons.
        assert main(["run", "mcf_like", "--ops", "400", "--baseline",
                     "--miss-window", "2", "--prefetch-degree", "2",
                     "--trace-out", str(tmp_path / "run.json")]) == 0
        notes = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("note:")]
        assert notes == ["note: engine 'fast' runs this cell on the oracle: "
                         "span recorder attached"]

    def test_oracle_request_is_silent(self, capsys):
        assert main(["run", "mcf_like", "--ops", "400", "--engine", "oracle",
                     "--miss-window", "2"]) == 0
        assert capsys.readouterr().err == ""

    def test_trace_out_manifest_records_the_fallback(self, tmp_path, capsys):
        trace = tmp_path / "run.json"
        assert main(["run", "gcc_like", "--ops", "400",
                     "--trace-out", str(trace)]) == 0
        assert "span recorder attached" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "run.manifest.json").read_text(
            encoding="utf-8"))
        assert manifest["engine"] == "fast"
        assert manifest["fallback_reasons"] == ["span recorder attached"]


class TestTraceFileRun:
    def test_run_on_trace_file(self, capsys, tmp_path):
        path = str(tmp_path / "t.bin")
        assert main(["trace", "generate", "gcc_like", path, "--ops", "400"]) == 0
        capsys.readouterr()
        assert main(["run", path, "--baseline"]) == 0
        out = capsys.readouterr().out
        assert "vs never-gate baseline" in out

    def test_missing_trace_file_is_clean_error(self, capsys, tmp_path):
        assert main(["run", str(tmp_path / "missing.bin")]) == 2
        assert "error:" in capsys.readouterr().err


class TestEngineFlag:
    """``--engine fast`` prints exactly what ``--engine oracle`` prints."""

    @staticmethod
    def _both_engines(capsys, argv):
        outputs = []
        for engine in ("oracle", "fast"):
            assert main(argv + ["--engine", engine]) == 0
            outputs.append(capsys.readouterr().out)
        return outputs

    def test_run_json_on_a_profile(self, capsys):
        oracle, fast = self._both_engines(
            capsys, ["run", "gcc_like", "--ops", "800", "--json", "--baseline"])
        assert json.loads(fast) == json.loads(oracle)

    def test_run_json_on_a_trace_file(self, capsys, tmp_path):
        path = str(tmp_path / "t.jsonl")
        assert main(["trace", "generate", "mcf_like", path, "--ops", "600"]) == 0
        capsys.readouterr()
        oracle, fast = self._both_engines(
            capsys, ["run", path, "--json", "--baseline"])
        assert json.loads(fast) == json.loads(oracle)
        assert json.loads(fast)["workload"] == path

    def test_compare_table(self, capsys):
        oracle, fast = self._both_engines(
            capsys, ["compare", "--workloads", "gcc_like", "mcf_like",
                     "--policies", "never", "mapg", "--ops", "600"])
        assert fast == oracle and "mcf_like" in fast

    def test_sweep_table(self, capsys):
        oracle, fast = self._both_engines(
            capsys, ["sweep", "bet", "--workload", "gcc_like", "--ops", "500",
                     "--values", "0.5", "2.0"])
        assert fast == oracle and "sweep on gcc_like" in fast

    def test_unknown_engine_is_clean_error(self, capsys):
        assert main(["run", "gcc_like", "--ops", "100",
                     "--engine", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "error: unknown engine 'bogus'" in err
        assert "Traceback" not in err


class TestVariation:
    def test_population_table(self, capsys):
        assert main(["variation", "--dies", "6", "--sigma", "0.4"]) == 0
        out = capsys.readouterr().out
        assert "6 virtual dies" in out
        assert "dies losing energy" in out

    def test_unknown_node_error(self, capsys):
        assert main(["variation", "--technology", "22nm"]) == 2


class TestProfilesAndTrace:
    def test_profiles_lists_all(self, capsys):
        assert main(["profiles"]) == 0
        out = capsys.readouterr().out
        assert "mcf_like" in out and "povray_like" in out

    def test_trace_generate_and_info(self, capsys, tmp_path):
        path = str(tmp_path / "t.jsonl")
        assert main(["trace", "generate", "gcc_like", path,
                     "--ops", "200"]) == 0
        assert main(["trace", "info", path]) == 0
        out = capsys.readouterr().out
        assert "memory_accesses" in out

    def test_trace_bad_suffix_error(self, capsys, tmp_path):
        path = str(tmp_path / "t.csv")
        assert main(["trace", "generate", "gcc_like", path,
                     "--ops", "10"]) == 2


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])
