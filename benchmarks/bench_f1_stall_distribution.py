"""[F1] Motivation: off-chip stall lengths and time spent stalled.

Regenerates the motivation figure: for every workload, the fraction of
execution time the core sits in memory stalls and the distribution
(p25/p50/p75/p95) of individual off-chip stall lengths, alongside the
circuit's break-even + overhead threshold.  Shape claims: memory-bound
workloads stall for a large share of time, and the *typical* stall is a
small multiple of the minimum gateable stall — so a policy that gates
blindly is exposed to the short-stall tail.
"""

from _common import FULL_OPS, emit, run_once

from repro.analysis.report import ExperimentReport
from repro.analysis.tables import format_fraction_pct
from repro.config import SystemConfig
from repro.core.breakeven import BreakEvenAnalyzer
from repro.fastsim import FastSimulator, shared_columnar_store
from repro.sim.runner import with_policy
from repro.workloads import profile_names


def build_report() -> ExperimentReport:
    config = with_policy(SystemConfig(), "never")
    report = ExperimentReport(
        "F1", "Off-chip stall time and stall-length distribution",
        headers=["workload", "stall time", "stalls", "p25", "p50", "p75",
                 "p95", "mean"])
    threshold = None
    for name in profile_names():
        fast = FastSimulator(config, workload=name)
        __, trace = shared_columnar_store().traces(name, FULL_OPS, seed=11)
        result = fast.run(trace)
        histogram = fast.sim.stall_histogram
        if threshold is None:
            analyzer = BreakEvenAnalyzer(fast.sim.circuit, config.gating)
            threshold = analyzer.min_gateable_stall_cycles
        report.add_row(
            name,
            format_fraction_pct(result.stall_fraction),
            int(result.offchip_stalls),
            f"{histogram.percentile(25):.0f}",
            f"{histogram.percentile(50):.0f}",
            f"{histogram.percentile(75):.0f}",
            f"{histogram.percentile(95):.0f}",
            f"{histogram.mean:.0f}",
        )
    report.add_note(
        f"minimum gateable stall (drain + wake + BET) = {threshold} cycles")
    report.add_note("stall lengths in core cycles at 2 GHz")
    return report


def test_f1_stall_distribution(benchmark):
    report = run_once(benchmark, build_report)
    emit(report)
    rows = {row[0]: row for row in report.rows}
    # Shape: mcf-like stalls far more than povray-like.
    mcf_pct = float(rows["mcf_like"][1].split()[0])
    povray_pct = float(rows["povray_like"][1].split()[0])
    assert mcf_pct > 3 * povray_pct
    assert povray_pct < 30.0


if __name__ == "__main__":
    print(build_report().render())
