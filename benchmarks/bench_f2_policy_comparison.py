"""[F2] Energy savings vs performance penalty, per workload, per policy.

The headline figure.  Every policy replays the identical trace per
workload; results are relative to the never-gate (clock-gating-only)
baseline.  Shape claims: naive gating saves energy on memory-bound
workloads but pays a large wake-latency penalty; MAPG keeps the savings at
a small fraction of naive's penalty; oracle bounds both.
"""

from _common import POLICIES, emit, policy_matrix, run_once

from repro.analysis.energy import summarize_comparisons
from repro.analysis.report import ExperimentReport
from repro.analysis.tables import format_fraction_pct
from repro.workloads import profile_names


def build_report() -> ExperimentReport:
    matrix = policy_matrix()
    comparisons = summarize_comparisons(matrix)
    report = ExperimentReport(
        "F2", "Energy saving / performance penalty vs never-gate baseline",
        headers=["workload", "policy", "energy saving", "perf penalty",
                 "EDP ratio", "sleep time"])
    for workload in profile_names():
        for policy in POLICIES[1:]:
            delta = next(c for c in comparisons[policy]
                         if c.workload == workload)
            result = matrix[workload][policy]
            report.add_row(
                workload, policy,
                format_fraction_pct(delta.energy_saving),
                format_fraction_pct(delta.performance_penalty, precision=2),
                f"{delta.edp_ratio:.3f}",
                format_fraction_pct(result.sleep_fraction),
            )
    report.add_note("all policies replay the identical trace per workload")
    report.add_note("EDP ratio < 1 means better energy-delay product than baseline")
    return report


def test_f2_policy_comparison(benchmark):
    report = run_once(benchmark, build_report)
    emit(report)
    rows = {(row[0], row[1]): row for row in report.rows}

    def pct(cell):
        return float(cell.split()[0])

    # Shape claims on the most memory-bound workload.
    naive = rows[("mcf_like", "naive")]
    mapg = rows[("mcf_like", "mapg")]
    oracle = rows[("mcf_like", "oracle")]
    assert pct(naive[2]) > 10.0            # naive saves real energy...
    assert pct(naive[3]) > 3 * pct(mapg[3])  # ...at several x MAPG's penalty
    assert pct(mapg[2]) >= 0.8 * pct(oracle[2])  # MAPG ~recovers oracle savings
    assert pct(oracle[3]) == 0.0


if __name__ == "__main__":
    print(build_report().render())
