"""[F18] Phase-resolved behaviour: MAPG tracking the program over time.

Runs the phase-heavy milc-like workload (alternating memory-intense and
compute-intense phases) with timeline recording and buckets the gated
stalls into fixed cycle windows.  A per-access mechanism must *follow* the
phases: sleep time concentrates in the memory phases and vanishes in the
compute phases, with no retuning between them.

Shape claims: window-to-window stall time swings visibly (the phases are
there, compressed by cycle-equal windowing — memory phases take most of
the cycles), and per-window sleep tracks per-window stall time tightly
(correlation > 0.9): the controller's decisions are local, not a global
average.
"""

from _common import FULL_OPS, emit, run_once

from repro.analysis.report import ExperimentReport
from repro.analysis.tables import format_fraction_pct
from repro.config import SystemConfig
from repro.sim.runner import with_policy
from repro.sim.simulator import Simulator
from repro.workloads import generate_trace

WORKLOAD = "milc_like"
NUM_WINDOWS = 24


def build_report() -> ExperimentReport:
    config = with_policy(SystemConfig(), "mapg")
    # Oracle on purpose: the fast kernel does not record the timeline yet.
    simulator = Simulator(config, workload=WORKLOAD, record_timeline=True)
    result = simulator.run(generate_trace(WORKLOAD, FULL_OPS, seed=11))

    window_cycles = result.total_cycles // NUM_WINDOWS + 1
    stalls = [0] * NUM_WINDOWS
    stall_cycles = [0] * NUM_WINDOWS
    sleep_cycles = [0] * NUM_WINDOWS
    for event in simulator.timeline:
        index = min(NUM_WINDOWS - 1, event.start_cycle // window_cycles)
        stalls[index] += 1
        stall_cycles[index] += event.stall_cycles
        for state, cycles in event.intervals:
            if state in ("sleep", "sleep_retention"):
                sleep_cycles[index] += cycles

    report = ExperimentReport(
        "F18", f"Phase-resolved MAPG on {WORKLOAD} "
               f"({NUM_WINDOWS} windows of {window_cycles:,} cycles)",
        headers=["window", "offchip stalls", "stall time", "sleep time",
                 "sleep/stall"])
    for index in range(NUM_WINDOWS):
        stall_share = stall_cycles[index] / window_cycles
        sleep_share = sleep_cycles[index] / window_cycles
        ratio = sleep_cycles[index] / max(1, stall_cycles[index])
        report.add_row(index, stalls[index],
                       format_fraction_pct(stall_share),
                       format_fraction_pct(sleep_share),
                       f"{ratio:.2f}")
    correlation = _correlation(stall_cycles, sleep_cycles)
    report.add_note(f"sleep-vs-stall correlation across windows: {correlation:.3f}")
    report.add_note("the workload alternates memory-heavy and compute-heavy phases")
    return report


def _correlation(xs, ys) -> float:
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = sum((x - mx) ** 2 for x in xs) ** 0.5
    vy = sum((y - my) ** 2 for y in ys) ** 0.5
    if vx == 0 or vy == 0:
        return 0.0
    return cov / (vx * vy)


def test_f18_phases(benchmark):
    report = run_once(benchmark, build_report)
    emit(report)
    stall_shares = [float(row[2].split()[0]) for row in report.rows]
    # Phase contrast: the most memory-bound window stalls visibly more
    # than the least (windows are cycle-equal, so heavy phases — which
    # take most of the cycles — bound the achievable contrast).
    assert max(stall_shares) > 1.3 * min(stall_shares)
    correlation = float(report.notes[0].split(":")[-1])
    assert correlation > 0.9


if __name__ == "__main__":
    print(build_report().render())
