"""Command-line interface.

``python -m repro <command>`` exposes the library's main entry points so a
downstream user can reproduce results without writing Python:

* ``run``       — one (workload, policy) simulation, summary or JSON
* ``compare``   — the policy-comparison matrix (the F2 experiment, sized
                  to taste)
* ``circuit``   — sleep-transistor characterization per technology node
* ``sweep``     — one-dimensional sensitivity sweeps (bet / wake / dram /
                  temperature), optionally parallel/cached/instrumented
                  (``--jobs``, ``--cache``, ``--telemetry-out``)
* ``multicore`` — a multiprogrammed mix with optional TAP wake tokens
* ``profiles``  — list the built-in workload profiles
* ``trace``     — generate a trace file, or summarize an existing one
* ``lint``      — mapglint static analysis (unit safety, determinism,
                  FSM legality, float equality); see ``docs/LINTING.md``

All commands are deterministic given ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from repro.analysis.tables import format_fraction_pct, format_table
from repro.config import SystemConfig, TokenConfig
from repro.errors import ReproError
from repro.fastsim import (DEFAULT_ENGINE, fallback_reasons,
                           shared_columnar_store, validate_engine)
from repro.power.gating import SleepTransistorNetwork
from repro.power.technology import TECHNOLOGY_NODES, get_technology
from repro.sim.results import SimulationResult
from repro.sim.runner import run_multicore, run_policy_comparison, run_workload, with_policy
from repro.trace.format import trace_summary
from repro.trace.io import read_trace_file, write_trace_file
from repro.units import GHZ, MJ, NJ, NS, seconds_to_cycles
from repro.version import __version__
from repro.workloads import generate_trace, get_profile, profile_names

_POLICIES = ("never", "naive", "bet_guard", "mapg", "mapg_adaptive", "oracle")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MAPG (Memory Access Power Gating, DATE 2012) reproduction")
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    run_cmd = commands.add_parser("run", help="simulate one workload/policy")
    run_cmd.add_argument("workload",
                         help="profile name (see `profiles`), or a trace "
                              "file path ending in .jsonl or .bin")
    run_cmd.add_argument("--policy", choices=_POLICIES, default="mapg")
    run_cmd.add_argument("--ops", type=int, default=20_000)
    run_cmd.add_argument("--seed", type=int, default=1)
    run_cmd.add_argument("--engine", default=DEFAULT_ENGINE,
                         help="execution kernel: 'fast' (default; "
                              "columnar batched kernel, bit-identical "
                              "results) or 'oracle' (reference event-driven "
                              "simulator); a fast run the kernel cannot "
                              "take says so on stderr; unknown names are a "
                              "configuration error")
    run_cmd.add_argument("--technology", default="45nm")
    run_cmd.add_argument("--temperature", type=float, default=85.0,
                         help="junction temperature in C")
    run_cmd.add_argument("--baseline", action="store_true",
                         help="also run the never-gate baseline and report deltas")
    run_cmd.add_argument("--json", action="store_true",
                         help="emit machine-readable JSON instead of a table")
    run_cmd.add_argument("--sleep-mode", choices=("full", "retention", "dual"),
                         default="full", help="sleep depth selection (F12)")
    run_cmd.add_argument("--prefetch-degree", type=int, default=0,
                         help="L2 stride-prefetch degree; 0 disables (F11)")
    run_cmd.add_argument("--miss-window", type=int, default=1,
                         help="outstanding-miss window; >1 = MLP core (F15)")
    run_cmd.add_argument("--trace-out", metavar="PATH",
                         help="write a Perfetto/Chrome trace JSON of the run "
                              "to PATH, plus a run manifest "
                              "(*.manifest.json) and a JSONL metrics "
                              "snapshot (*.metrics.jsonl) next to it; open "
                              "the trace at ui.perfetto.dev (1 trace us = "
                              "1 core cycle)")
    run_cmd.add_argument("--self-profile", action="store_true",
                         help="measure the simulator itself (wall time, "
                              "instructions/sec, peak RSS) and report it")

    compare_cmd = commands.add_parser(
        "compare", help="policy-comparison matrix (F2)")
    compare_cmd.add_argument("--workloads", nargs="+", default=None,
                             help="default: all profiles")
    compare_cmd.add_argument("--policies", nargs="+", default=list(_POLICIES))
    compare_cmd.add_argument("--ops", type=int, default=10_000)
    compare_cmd.add_argument("--seed", type=int, default=1)
    compare_cmd.add_argument("--engine", default=DEFAULT_ENGINE,
                             help="execution kernel per cell "
                                  "('oracle' or 'fast'; see `run --help`)")

    circuit_cmd = commands.add_parser(
        "circuit", help="sleep-transistor characterization (T2)")
    circuit_cmd.add_argument("--frequency-ghz", type=float, default=2.0)
    circuit_cmd.add_argument("--temperature", type=float, default=85.0)
    circuit_cmd.add_argument("--nodes", nargs="+",
                             default=list(TECHNOLOGY_NODES))

    sweep_cmd = commands.add_parser("sweep", help="1-D sensitivity sweep")
    sweep_cmd.add_argument("axis",
                           choices=("bet", "wake", "dram", "temperature"))
    sweep_cmd.add_argument("--workload", default="mcf_like")
    sweep_cmd.add_argument("--values", nargs="+", type=float, default=None,
                           help="sweep points (scale factors, or C for temperature)")
    sweep_cmd.add_argument("--ops", type=int, default=10_000)
    sweep_cmd.add_argument("--seed", type=int, default=1)
    sweep_cmd.add_argument("--engine", default=DEFAULT_ENGINE,
                           help="execution kernel per cell "
                                "('oracle' or 'fast'; see `run --help`)")
    sweep_cmd.add_argument("--jobs", type=int, default=1,
                           help="worker processes for the sweep engine; "
                                "results are byte-identical at any count")
    sweep_cmd.add_argument("--cache", metavar="DIR", nargs="?",
                           const=".mapg-result-cache", default=None,
                           help="memoize cells in a result cache "
                                "(default dir: .mapg-result-cache)")
    sweep_cmd.add_argument("--telemetry-out", metavar="PATH",
                           help="write a sweep manifest (spec keys, "
                                "per-cell hit/miss/timing records, "
                                "counters) to PATH plus a JSONL lifecycle "
                                "event stream (*.events.jsonl) next to it; "
                                "a live progress/ETA line is shown on TTY "
                                "stderr")

    multi_cmd = commands.add_parser(
        "multicore", help="multiprogrammed mix with optional TAP tokens (F7)")
    multi_cmd.add_argument("workloads", nargs="+",
                           help="one profile per core")
    multi_cmd.add_argument("--policy", choices=_POLICIES, default="mapg")
    multi_cmd.add_argument("--tokens", type=int, default=0,
                           help="wake tokens; 0 disables arbitration")
    multi_cmd.add_argument("--ops", type=int, default=5_000)
    multi_cmd.add_argument("--seed", type=int, default=1)
    multi_cmd.add_argument("--trace-out", metavar="PATH",
                           help="write a Perfetto trace (one lane group per "
                                "core plus the shared DRAM lane), manifest, "
                                "and metrics JSONL, as in `run --trace-out`")

    commands.add_parser("profiles", help="list built-in workload profiles")

    variation_cmd = commands.add_parser(
        "variation", help="die-to-die leakage population study (F13)")
    variation_cmd.add_argument("--technology", default="45nm")
    variation_cmd.add_argument("--sigma", type=float, default=0.3,
                               help="lognormal sigma of ln(leakage)")
    variation_cmd.add_argument("--dies", type=int, default=40)
    variation_cmd.add_argument("--seed", type=int, default=17)

    trace_cmd = commands.add_parser(
        "trace", help="generate or summarize trace files")
    trace_actions = trace_cmd.add_subparsers(dest="trace_command", required=True)
    gen = trace_actions.add_parser("generate", help="write a synthetic trace")
    gen.add_argument("workload")
    gen.add_argument("path", help="output path (.jsonl or .bin)")
    gen.add_argument("--ops", type=int, default=10_000)
    gen.add_argument("--seed", type=int, default=1)
    info = trace_actions.add_parser("info", help="summarize a trace file")
    info.add_argument("path")

    # ``lint`` is declared for --help discoverability; its arguments are
    # forwarded verbatim to repro.lint.cli in main() before parsing, since
    # argparse.REMAINDER cannot capture leading options like --list-rules.
    commands.add_parser(
        "lint", help="mapglint static analysis (see docs/LINTING.md)",
        add_help=False)

    return parser


# ---- command bodies ---------------------------------------------------------------


def _result_rows(result: SimulationResult) -> List[List[str]]:
    rows = [
        ["instructions", f"{result.instructions:,}"],
        ["total cycles", f"{result.total_cycles:,}"],
        ["IPC", f"{result.ipc:.3f}"],
        ["energy", f"{result.energy_j / MJ:.4f} mJ"],
        ["off-chip stalls", f"{int(result.offchip_stalls):,}"],
        ["gated stalls", f"{int(result.gated_stalls):,}"],
        ["sleep time", format_fraction_pct(result.sleep_fraction)],
        ["penalty cycles", f"{result.penalty_cycles:,}"],
    ]
    return rows


def _run_one(config: SystemConfig, args: argparse.Namespace, engine: str,
             recorder: object = None) -> SimulationResult:
    """One simulation of the run command's workload (profile or trace file)."""
    if args.workload.endswith((".jsonl", ".bin")):
        from repro.sim.simulator import Simulator

        trace = read_trace_file(args.workload)
        if engine == "fast":
            from repro.fastsim import ColumnarTrace, FastSimulator

            fast = FastSimulator(config, workload=args.workload,
                                 temperature_c=args.temperature,
                                 seed=args.seed, recorder=recorder)
            return fast.run(ColumnarTrace(trace))
        simulator = Simulator(config, workload=args.workload,
                              temperature_c=args.temperature, seed=args.seed,
                              recorder=recorder)
        return simulator.run(trace)
    return run_workload(config, args.workload, args.ops, seed=args.seed,
                        temperature_c=args.temperature, recorder=recorder,
                        engine=engine)


def _export_observability(recorder: "object", manifest: dict,
                          trace_out: str) -> None:
    """Write the trace / manifest / metrics triple next to ``trace_out``."""
    from pathlib import Path

    from repro.obs import (artifact_paths, metrics_to_jsonl, write_chrome_trace,
                           write_manifest)

    trace_path, manifest_path, metrics_path = artifact_paths(trace_out)
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    events = write_chrome_trace(recorder, trace_path, manifest=manifest)
    write_manifest(manifest, manifest_path)
    metrics_to_jsonl(recorder.metrics, metrics_path,
                     header={"schema": "mapg.run-metrics/1",
                             "workload": manifest.get("workload"),
                             "seed": manifest.get("seed"),
                             "config_digest": manifest.get("config_digest")})
    print(f"wrote {events} trace events to {trace_path} "
          f"(open at https://ui.perfetto.dev; 1 trace us = 1 cycle)",
          file=sys.stderr)
    print(f"wrote {manifest_path} and {metrics_path}", file=sys.stderr)


def _cmd_run(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.config import PrefetcherConfig

    base = SystemConfig(technology=args.technology)
    base = base.replace(
        core=dataclasses.replace(base.core, miss_window=args.miss_window),
        prefetcher=PrefetcherConfig(enabled=args.prefetch_degree > 0,
                                    degree=max(1, args.prefetch_degree)))
    config = with_policy(base, args.policy, sleep_mode=args.sleep_mode)

    recorder = None
    profiler = None
    if args.trace_out:
        from repro.obs import SpanRecorder

        recorder = SpanRecorder()
    engine = validate_engine(args.engine)
    reasons = (fallback_reasons(config, recorder=recorder)
               if engine == "fast" else [])
    if reasons:
        print(f"note: engine 'fast' runs this cell on the oracle: "
              f"{'; '.join(reasons)}", file=sys.stderr)
    if args.trace_out or args.self_profile:
        from repro.obs.profile import SelfProfiler

        profiler = SelfProfiler()
    if profiler is not None:
        if not args.workload.endswith((".jsonl", ".bin")):
            with profiler.stage("trace") as stage:  # through the trace memo
                shared_columnar_store().traces(args.workload, args.ops,
                                               seed=args.seed)
                stage.add_events(args.ops)
        with profiler.stage("simulate") as stage:
            result = _run_one(config, args, engine, recorder)
            stage.add_events(result.instructions)
    else:
        result = _run_one(config, args, engine, recorder)
    payload = {
        "workload": result.workload,
        "policy": result.policy,
        "instructions": result.instructions,
        "total_cycles": result.total_cycles,
        "penalty_cycles": result.penalty_cycles,
        "energy_j": result.energy_j,
        "ipc": result.ipc,
        "sleep_fraction": result.sleep_fraction,
        "state_cycles": result.state_cycles,
    }
    if args.baseline:
        baseline = _run_one(with_policy(config, "never"), args, engine)
        delta = result.compare(baseline)
        payload["vs_never"] = {
            "energy_saving": delta.energy_saving,
            "performance_penalty": delta.performance_penalty,
            "edp_ratio": delta.edp_ratio,
        }
    if profiler is not None and args.self_profile:
        payload["self_profile"] = profiler.report()
    if args.trace_out:
        from repro.obs import build_manifest

        manifest = build_manifest(
            config, workload=args.workload, seed=args.seed,
            num_ops=None if args.workload.endswith((".jsonl", ".bin"))
            else args.ops,
            command="run",
            extra={"self_profile": profiler.report(), "engine": engine,
                   "fallback_reasons": reasons})
        _export_observability(recorder, manifest, args.trace_out)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(format_table(["metric", "value"], _result_rows(result),
                       title=f"{args.workload} / {args.policy}"))
    if args.baseline:
        delta = payload["vs_never"]
        print(f"\nvs never-gate baseline: "
              f"saving {format_fraction_pct(delta['energy_saving'])}, "
              f"penalty {format_fraction_pct(delta['performance_penalty'], 2)}, "
              f"EDP ratio {delta['edp_ratio']:.3f}")
    if profiler is not None and args.self_profile:
        report = payload.get("self_profile") or profiler.report()
        simulate = next((stage for stage in report["stages"]
                         if stage["name"] == "simulate"), None)
        rss = report.get("peak_rss_bytes")
        stages = ", ".join(f"{stage['name']} {stage['wall_s']:.3f} s"
                           for stage in report["stages"])
        print(f"\nself-profile: {report['total_wall_s']:.3f} s wall "
              f"({stages})"
              + (f", {simulate['events_per_sec']:,.0f} instructions/s"
                 if simulate else "")
              + (f", peak RSS {rss / (1024 * 1024):.1f} MiB"
                 if rss else ""))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    workloads = args.workloads or profile_names()
    if "never" not in args.policies:
        args.policies.insert(0, "never")
    matrix = run_policy_comparison(SystemConfig(), workloads, args.policies,
                                   args.ops, seed=args.seed,
                                   engine=args.engine)
    rows = []
    for workload in workloads:
        baseline = matrix[workload]["never"]
        for policy in args.policies:
            if policy == "never":
                continue
            delta = matrix[workload][policy].compare(baseline)
            rows.append([
                workload, policy,
                format_fraction_pct(delta.energy_saving),
                format_fraction_pct(delta.performance_penalty, precision=2),
                f"{delta.edp_ratio:.3f}",
            ])
    print(format_table(
        ["workload", "policy", "energy saving", "perf penalty", "EDP ratio"],
        rows, title=f"policy comparison ({args.ops} ops, seed {args.seed})"))
    return 0


def _cmd_circuit(args: argparse.Namespace) -> int:
    rows = []
    for name in args.nodes:
        tech = get_technology(name)
        circuit = SleepTransistorNetwork(
            tech, temperature_c=args.temperature).characterize(
                args.frequency_ghz * GHZ)
        rows.append([
            name,
            f"{circuit.switch_width_um / 1000:.0f}",
            circuit.stagger_groups,
            circuit.drain_cycles,
            f"{circuit.wake_latency_s / NS:.1f}",
            circuit.wake_cycles,
            f"{circuit.breakeven_s / NS:.1f}",
            circuit.breakeven_cycles,
        ])
    print(format_table(
        ["node", "width (mm)", "groups", "drain (cyc)", "wake (ns)",
         "wake (cyc)", "BET (ns)", "BET (cyc)"],
        rows,
        title=f"PG circuit at {args.frequency_ghz:g} GHz, {args.temperature:g} C"))
    return 0


_SWEEP_DEFAULTS = {
    "bet": (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0),
    "wake": (0.5, 1.0, 2.0, 4.0, 8.0),
    "dram": (0.5, 0.75, 1.0, 1.5, 2.0, 3.0),
    "temperature": (45.0, 65.0, 85.0, 110.0),
}


def _sweep_specs(axis: str, values: Sequence[float], workload: str,
                 num_ops: int, seed: int,
                 engine: str = DEFAULT_ENGINE) -> List["object"]:
    """The sweep as JobSpecs: per value, a never-gate cell then a mapg
    cell, with the swept knob applied exactly as the table expects."""
    from repro.exec import JobSpec

    base = SystemConfig()
    specs = []
    for value in values:
        temperature = 85.0
        config = base
        overrides = {}
        if axis == "bet":
            overrides["bet_scale"] = value
        elif axis == "wake":
            overrides["wake_scale"] = value
        elif axis == "dram":
            config = base.replace(dram=base.dram.scaled(value))
        else:
            temperature = value
        specs.append(JobSpec(config=with_policy(config, "never"),
                             profile=workload, num_ops=num_ops, seed=seed,
                             temperature_c=temperature, engine=engine))
        specs.append(JobSpec(config=with_policy(config, "mapg", **overrides),
                             profile=workload, num_ops=num_ops, seed=seed,
                             temperature_c=temperature, engine=engine))
    return specs


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.exec import ResultCache, SweepRunner

    values = tuple(args.values or _SWEEP_DEFAULTS[args.axis])
    specs = _sweep_specs(args.axis, values, args.workload, args.ops,
                         args.seed, engine=args.engine)
    recorder = None
    if args.telemetry_out:
        from repro.obs import SweepRecorder

        recorder = SweepRecorder(progress=sys.stderr)
    cache = ResultCache(args.cache) if args.cache else None
    runner = SweepRunner(jobs=args.jobs, cache=cache, recorder=recorder)
    try:
        results = runner.run(specs)
    finally:
        # Telemetry lands even when cells fail — the manifest's failure
        # records are the evidence trail for the SweepError diagnosis.
        if recorder is not None:
            from repro.obs import write_sweep_artifacts

            manifest_path, events_path = write_sweep_artifacts(
                recorder, args.telemetry_out)
            print(f"wrote sweep telemetry to {manifest_path} and "
                  f"{events_path}", file=sys.stderr)
    rows = []
    for index, value in enumerate(values):
        never = results[2 * index]
        mapg = results[2 * index + 1]
        delta = mapg.compare(never)
        rows.append([
            f"{value:g}",
            format_fraction_pct(delta.energy_saving),
            format_fraction_pct(delta.performance_penalty, precision=2),
            f"{delta.edp_ratio:.3f}",
            format_fraction_pct(mapg.sleep_fraction),
        ])
    unit = "C" if args.axis == "temperature" else "x scale"
    print(format_table(
        [f"{args.axis} ({unit})", "energy saving", "perf penalty",
         "EDP ratio", "sleep time"],
        rows, title=f"{args.axis} sweep on {args.workload}"))
    return 0


def _cmd_multicore(args: argparse.Namespace) -> int:
    token_config = TokenConfig(enabled=args.tokens > 0,
                               wake_tokens=max(1, args.tokens))
    config = with_policy(
        SystemConfig(num_cores=len(args.workloads), token=token_config),
        args.policy)
    recorder = None
    if args.trace_out:
        from repro.obs import SpanRecorder

        recorder = SpanRecorder()
    result = run_multicore(config, args.workloads, args.ops, seed=args.seed,
                           recorder=recorder)
    if args.trace_out:
        from repro.obs import build_manifest

        manifest = build_manifest(
            config, workload=",".join(args.workloads), seed=args.seed,
            num_ops=args.ops, command="multicore")
        _export_observability(recorder, manifest, args.trace_out)
    rows = []
    for core_id, core_result in result.per_core.items():
        rows.append([
            core_id, core_result.workload,
            f"{core_result.total_cycles:,}",
            f"{core_result.energy_j / MJ:.4f}",
            format_fraction_pct(core_result.performance_penalty, precision=2),
            format_fraction_pct(core_result.sleep_fraction),
        ])
    print(format_table(
        ["core", "workload", "cycles", "energy (mJ)", "penalty", "sleep"],
        rows,
        title=(f"{result.num_cores} cores / policy {result.policy} / "
               f"tokens {'off' if args.tokens == 0 else args.tokens}")))
    print(f"\ntotal energy {result.total_energy_j / MJ:.4f} mJ, "
          f"makespan {result.makespan_cycles:,} cycles")
    if result.token_counters:
        deferred = int(result.token_counters.get("deferred_grants", 0))
        forced = int(result.token_counters.get("forced_grants", 0))
        print(f"token arbitration: {deferred} deferred, {forced} forced grants")
    return 0


def _cmd_profiles(args: argparse.Namespace) -> int:
    rows = []
    for name in profile_names():
        profile = get_profile(name)
        rows.append([
            name,
            f"{profile.working_set_bytes // (1024 * 1024)} MiB",
            f"{profile.instructions_per_memory_op:g}",
            f"{profile.random_fraction:.2f}",
            f"{profile.reuse_fraction:.2f}",
            profile.description,
        ])
    print(format_table(
        ["profile", "working set", "instr/mem-op", "random frac",
         "reuse frac", "description"],
        rows, title="built-in workload profiles (most memory-bound first)"))
    return 0


def _cmd_variation(args: argparse.Namespace) -> int:
    from repro.power.variation import LeakageVariationModel

    tech = get_technology(args.technology)
    model = LeakageVariationModel(tech, sigma_log=args.sigma, seed=args.seed)
    dies = model.sample_population(args.dies)
    frequency_hz = 2e9
    rows = []
    for die in sorted(dies, key=lambda d: d.leakage_multiplier):
        bet_cycles = seconds_to_cycles(die.network.breakeven_time_s(),
                                       frequency_hz)
        saving_nj = die.network.net_saving_j(85 * NS) / NJ
        rows.append([
            die.die_id, f"{die.leakage_multiplier:.2f}",
            f"{bet_cycles:.0f}", f"{saving_nj:.1f}",
        ])
    print(format_table(
        ["die", "leakage x", "BET (cyc @2GHz)", "saving/85ns stall (nJ)"],
        rows,
        title=(f"{args.dies} virtual dies, {args.technology}, "
               f"sigma_log={args.sigma:g} (sorted by leakage)")))
    losing = sum(1 for row in rows if float(row[3]) <= 0.0)
    print(f"\ndies losing energy at a typical stall: {losing}/{args.dies}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.trace_command == "generate":
        ops = generate_trace(args.workload, args.ops, seed=args.seed)
        count = write_trace_file(ops, args.path)
        print(f"wrote {count} records to {args.path}")
        return 0
    ops = read_trace_file(args.path)
    summary = trace_summary(ops)
    print(format_table(
        ["metric", "value"],
        [[key, f"{value:,}"] for key, value in summary.items()],
        title=args.path))
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "compare": _cmd_compare,
    "circuit": _cmd_circuit,
    "sweep": _cmd_sweep,
    "multicore": _cmd_multicore,
    "profiles": _cmd_profiles,
    "variation": _cmd_variation,
    "trace": _cmd_trace,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] == "lint":
        from repro.lint.cli import main as lint_main

        return lint_main(arguments[1:])
    parser = build_parser()
    args = parser.parse_args(arguments)
    try:
        return _COMMANDS[args.command](args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
