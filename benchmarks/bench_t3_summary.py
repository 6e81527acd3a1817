"""[T3] Evaluation summary: mean savings, penalty, and EDP per policy.

Averages the F2 matrix over all eleven workloads.  Shape claims: MAPG's
mean energy saving is within a few points of oracle's at an order of
magnitude lower penalty than naive; its geometric-mean EDP ratio is the
best of the realizable policies.
"""

from _common import POLICIES, emit, policy_matrix, run_once

from repro.analysis.energy import (
    geomean_edp_ratio,
    mean_energy_saving,
    mean_penalty,
    summarize_comparisons,
)
from repro.analysis.report import ExperimentReport
from repro.analysis.tables import format_fraction_pct
from repro.workloads import profile_names


def build_report() -> ExperimentReport:
    matrix = policy_matrix()
    comparisons = summarize_comparisons(matrix)
    report = ExperimentReport(
        "T3", "Summary over all workloads (vs never-gate baseline)",
        headers=["policy", "mean energy saving", "mean perf penalty",
                 "geomean EDP ratio"])
    for policy in POLICIES[1:]:
        per_policy = comparisons[policy]
        report.add_row(
            policy,
            format_fraction_pct(mean_energy_saving(per_policy)),
            format_fraction_pct(mean_penalty(per_policy), precision=2),
            f"{geomean_edp_ratio(per_policy):.3f}")
    report.add_note(f"arithmetic means over {len(profile_names())} workloads")
    return report


def test_t3_summary(benchmark):
    report = run_once(benchmark, build_report)
    emit(report)
    rows = {row[0]: row for row in report.rows}

    def pct(cell):
        return float(cell.split()[0])

    # MAPG close to oracle on savings, far better than naive on penalty.
    assert pct(rows["mapg"][1]) >= 0.75 * pct(rows["oracle"][1])
    assert pct(rows["mapg"][2]) < 0.5 * pct(rows["naive"][2])
    # MAPG has the best EDP among realizable (non-oracle) policies.
    edp = {name: float(rows[name][3]) for name in ("naive", "bet_guard", "mapg")}
    assert edp["mapg"] == min(edp.values())


if __name__ == "__main__":
    print(build_report().render())
