"""perfbench: end-to-end and per-layer performance of the MAPG simulator.

Run from the repository root:

    python perfbench/run.py [--seed 11] [--quick] [--trace]
        Three rounds over the four workloads, each (workload, round) in
        a fresh process; prints ``workload metric median unit (min .. max)`` and
        writes ``perfbench/out/<stamp>.json``.  ``--trace`` adds one traced
        process per workload for the per-layer metrics.

    python perfbench/run.py --workload NAME [--seed N] [--seconds S]
                            [--trace 0|1] [--quick]
        Fresh-process passes of one workload for S seconds; the last line
        of output is one JSON object with the medians of the end-to-end
        metrics (``--trace 0``) or of the per-layer metrics (``--trace 1``)
        that BENCHMARK.json names.

    python perfbench/run.py --compare A.json B.json
        Judges B against A with BENCHMARK.json's bounds; exits 1 when a
        metric regressed or an exact metric moved.

    python perfbench/run.py --record-expected [--quick] [--seed 11]
        Records per-cell result digests from the oracle engine.

Every run checks every cell's result digest against the recorded one for
its seed, against the cells it shares with another workload, and across
repeats; with one workload and an unrecorded seed it runs the cells again
on the other engine as the reference.  Any mismatch is named and the exit
code is 1.  The process needs ``src/`` next to this directory and exits 2
without it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
EXPECTED = os.path.join(HERE, "expected")
CHILD = os.path.join(HERE, "child.py")
DEFINITIONS = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("figure-grid", "grid-fast", "sweep-serial", "sweep-pool")
# Cells two workloads share must agree digest for digest.
PARTNERS = {"figure-grid": "grid-fast", "grid-fast": "figure-grid",
            "sweep-serial": "sweep-pool", "sweep-pool": "sweep-serial"}
# Workloads whose passes each get an empty result cache.
CACHED = frozenset({"sweep-pool"})
# The engine that re-runs a workload's cells as its reference: the other
# one, so the check does not share the kernel it checks (cells outside
# the fast envelope fall back to the oracle either way).
REFERENCE_ENGINE = {"figure-grid": "fast", "grid-fast": "oracle",
                    "sweep-serial": "fast", "sweep-pool": "fast"}

REPEATS = 3
MIN_PASSES = 3
CHILD_TIMEOUT_S = 170

# End-to-end metrics beyond BENCHMARK.json's: simulated statistics and the
# failure share, which any change at all turns into a disagreement.
EXACT_METRICS = {"failed_frac": "ratio", "mapg_saving_pct": "%",
                 "mapg_penalty_pct": "%"}
# Absolute slack under a relative bound, for metrics that are small.
ABS_FLOOR = {"setup_s": 0.05}


class BenchError(Exception):
    """The benchmark itself could not run."""


def load_definitions() -> Dict[str, Any]:
    """BENCHMARK.json: workloads and metric names, units and bounds."""
    with open(DEFINITIONS, encoding="utf-8") as handle:
        return json.load(handle)


def run_child(argv: Sequence[str], trace_dir: Optional[str] = None
              ) -> Dict[str, Any]:
    """Run ``child.py`` in a fresh interpreter; its JSON report."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop(tracer.ENV, None)
    if trace_dir is not None:
        env[tracer.ENV] = trace_dir
    try:
        proc = subprocess.run([sys.executable, CHILD, *argv], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {' '.join(argv)} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {' '.join(argv)} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return json.loads(lines[-1])


class Session:
    """Fresh-process passes of one seed and size, in a scratch directory."""

    def __init__(self, seed: int, quick: bool) -> None:
        self.seed = seed
        self.quick = quick
        self.work = os.path.join(OUT, f"work-{os.getpid()}")
        self._made = 0

    def _argv(self, workload: str) -> List[str]:
        return (["--workload", workload, "--seed", str(self.seed)]
                + (["--quick"] if self.quick else []))

    def _new_dir(self, kind: str) -> str:
        self._made += 1
        path = os.path.join(self.work, f"{kind}-{self._made}")
        os.makedirs(path)
        return path

    def measure(self, workload: str, traced: bool = False) -> Dict[str, Any]:
        """One timed pass; a cached workload gets an empty result cache."""
        argv = self._argv(workload)
        if workload in CACHED:
            argv += ["--cache-dir", self._new_dir("cache")]
        trace_dir = self._new_dir("trace") if traced else None
        report = run_child(argv, trace_dir)
        if report.get("trace_problems"):
            raise BenchError(f"{workload}: invalid Chrome trace: "
                             f"{report['trace_problems'][:5]}")
        report.update(traced=traced, trace_dir=trace_dir)
        return report

    def reference(self, workload: str, engine: str) -> Dict[str, str]:
        """Digests of the workload's cells run one by one on ``engine``."""
        return run_child(self._argv(workload) + ["--reference", engine])["digests"]

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


# ---- correctness ----------------------------------------------------------------

def expected_path(workload: str, seed: int, quick: bool) -> str:
    suffix = "-quick" if quick else ""
    return os.path.join(EXPECTED, f"{workload}-seed{seed}{suffix}.json")


def load_expected(workload: str, seed: int, quick: bool
                  ) -> Optional[Dict[str, str]]:
    """Recorded digests for this workload, seed and size, if any."""
    path = expected_path(workload, seed, quick)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["digests"]


def mismatches(report: Dict[str, Any],
               references: Sequence[Tuple[str, Dict[str, str]]]) -> List[str]:
    """Cells of one pass with no result or a digest a reference disagrees with."""
    bad = []
    for label in report["labels"]:
        digest = report["digests"].get(label)
        if digest is None:
            bad.append(f"{label}: no result")
            continue
        for name, digests in references:
            if label in digests and digests[label] != digest:
                bad.append(f"{label}: digest differs from {name}")
                break
    return bad


def check(passes: Sequence[Dict[str, Any]],
          references: Sequence[Tuple[str, Dict[str, str]]]
          ) -> Tuple[int, int, List[str]]:
    """(cells attempted, cells failed, named mismatches) over all passes.

    Every pass is also held to the first one, so a result that changes
    between repeats counts as failed.
    """
    held_to = list(references) + [("the first pass", passes[0]["digests"])]
    attempted = failed = 0
    named: Dict[str, None] = {}
    for report in passes:
        bad = mismatches(report, held_to)
        attempted += len(report["labels"])
        failed += len(bad)
        named.update(dict.fromkeys(bad))
    return attempted, failed, list(named)


def digest_set(report: Dict[str, Any]) -> str:
    """One sha256 over all of a pass's cell digests."""
    text = json.dumps(report["digests"], sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---- metrics --------------------------------------------------------------------

def pass_metrics(report: Dict[str, Any]) -> Dict[str, float]:
    """End-to-end metrics of one untraced pass."""
    wall = report["wall_s"]
    return {"cells_per_s": report["cells"] / wall,
            "sim_instr_per_s": report["instructions"] / wall,
            "setup_s": report["setup_s"],
            "peak_rss_mb": report["peak_rss_mb"]}


def summary(unit: str, runs: Sequence[float]) -> Dict[str, Any]:
    return {"unit": unit, "runs": list(runs),
            "median": statistics.median(runs), "min": min(runs),
            "max": max(runs)}


def workload_result(passes: Sequence[Dict[str, Any]],
                    references: Sequence[Tuple[str, Dict[str, str]]],
                    definitions: Dict[str, Any]) -> Dict[str, Any]:
    """Digest check, end-to-end summaries and per-layer medians of a workload."""
    attempted, failed, named = check(passes, references)
    untraced = [report for report in passes if not report["traced"]]
    traced = [report for report in passes if report["traced"]]
    metrics: Dict[str, Any] = {}
    if untraced:
        per_pass = [pass_metrics(report) for report in untraced]
        for metric in definitions["end_to_end"]:
            metrics[metric["name"]] = summary(
                metric["unit"], [values[metric["name"]] for values in per_pass])
        simulated = untraced[0]["simulated"]
        exact = {"failed_frac": failed / attempted,
                 "mapg_saving_pct": simulated.get("mapg_saving_pct", 0.0),
                 "mapg_penalty_pct": simulated.get("mapg_penalty_pct", 0.0)}
        for name, unit in EXACT_METRICS.items():
            metrics[name] = summary(unit, [exact[name]])
    layers: Dict[str, Any] = {}
    if traced:
        # Every traced run also has untraced passes to set it against.
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    / statistics.median(r["wall_s"] for r in untraced) - 1)
        for metric in definitions["per_layer"]:
            name = metric["name"]
            if name == "trace.overhead_ratio":
                value = overhead
            elif name in traced[0]["layers"]:
                value = statistics.median(r["layers"][name] for r in traced)
            else:
                raise BenchError(f"traced run did not measure {name}")
            layers[name] = {"unit": metric["unit"], "value": value}
    return {"attempted": attempted, "failed": failed, "mismatches": named,
            "metrics": metrics, "layers": layers,
            "passes": [{"traced": report["traced"],
                        "digest_set": digest_set(report)} for report in passes]}


def print_result(workload: str, result: Dict[str, Any]) -> None:
    for name, value in result["metrics"].items():
        spread = ("" if len(value["runs"]) == 1
                  else f" ({value['min']:.6g} .. {value['max']:.6g})")
        print(f"{workload} {name} {value['median']:.6g} {value['unit']}{spread}")
    for name, value in result["layers"].items():
        print(f"{workload} {name} {value['value']:.6g} {value['unit']}")
    for line in result["mismatches"]:
        print(f"MISMATCH {workload} {line}", file=sys.stderr)


def git_sha() -> Optional[str]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def write_document(results: Dict[str, Any], **fields: Any) -> str:
    """perfbench/out/<stamp>.json with the run's settings and results."""
    os.makedirs(OUT, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(OUT, f"{stamp}-{os.getpid()}.json")
    document = dict(fields, schema="perfbench/1", created=stamp,
                    nproc=os.cpu_count(), git_sha=git_sha(),
                    python=platform.python_version(), workloads=results)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
    return path


def keep_trace(report: Dict[str, Any], document_path: str, workload: str) -> None:
    """Copy a traced pass's Chrome trace next to the output document."""
    shutil.copyfile(os.path.join(report["trace_dir"], "trace.json"),
                    f"{document_path[:-5]}-{workload}.trace.json")


# ---- modes ----------------------------------------------------------------------

def references_for(workload: str, seed: int, quick: bool
                   ) -> List[Tuple[str, Dict[str, str]]]:
    """The recorded digests as a one-item reference list, or an empty one."""
    expected = load_expected(workload, seed, quick)
    return [] if expected is None else [("the recorded digests", expected)]


def run_one(args: argparse.Namespace, definitions: Dict[str, Any]) -> int:
    """Passes of one workload for ``--seconds``; ends with one JSON line."""
    workload = args.workload
    session = Session(args.seed, args.quick)
    try:
        references = references_for(workload, args.seed, args.quick)
        deadline = time.monotonic() + args.seconds
        passes: List[Dict[str, Any]] = []
        while len(passes) < MIN_PASSES or time.monotonic() < deadline:
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(session.measure(workload, traced))
        if not references:
            engine = REFERENCE_ENGINE[workload]
            print(f"note: seed {args.seed} is not recorded; checking against "
                  f"the {engine} engine")
            references.append((f"the {engine} reference",
                               session.reference(workload, engine)))
        result = workload_result(passes, references, definitions)
        path = write_document({workload: result}, seed=args.seed,
                              quick=args.quick, seconds=args.seconds)
        if args.trace:
            keep_trace([p for p in passes if p["traced"]][-1], path, workload)
    finally:
        session.close()
    print_result(workload, result)
    group = "per_layer" if args.trace else "end_to_end"
    source = result["layers"] if args.trace else result["metrics"]
    metrics = {}
    for metric in definitions[group]:
        value = source[metric["name"]]
        metrics[metric["name"]] = {
            "value": value["value"] if args.trace else value["median"],
            "unit": metric["unit"]}
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def run_all(args: argparse.Namespace, definitions: Dict[str, Any]) -> int:
    """Three rounds over every workload, then an optional traced round."""
    session = Session(args.seed, args.quick)
    passes: Dict[str, List[Dict[str, Any]]] = {w: [] for w in WORKLOADS}
    try:
        for traced in [False] * REPEATS + [True] * args.trace:
            for workload in WORKLOADS:
                passes[workload].append(session.measure(workload, traced))
        results = {}
        for workload in WORKLOADS:
            references = references_for(workload, args.seed, args.quick)
            partner = PARTNERS[workload]
            references.append((partner, passes[partner][0]["digests"]))
            results[workload] = workload_result(passes[workload], references,
                                                definitions)
        path = write_document(results, seed=args.seed, quick=args.quick)
        if args.trace:
            for workload in WORKLOADS:
                keep_trace(passes[workload][-1], path, workload)
    finally:
        session.close()
    if not load_expected(WORKLOADS[0], args.seed, args.quick):
        print(f"note: seed {args.seed} is not recorded; cross-checks only")
    for workload in WORKLOADS:
        print_result(workload, results[workload])
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return 1 if any(result["failed"] for result in results.values()) else 0


def record_expected(args: argparse.Namespace) -> int:
    """Write oracle-engine digests of every workload for this seed and size."""
    session = Session(args.seed, args.quick)
    os.makedirs(EXPECTED, exist_ok=True)
    try:
        for workload in WORKLOADS:
            digests = session.reference(workload, "oracle")
            path = expected_path(workload, args.seed, args.quick)
            with open(path, "w", encoding="utf-8") as handle:
                json.dump({"workload": workload, "seed": args.seed,
                           "quick": args.quick, "engine": "oracle",
                           "digests": digests}, handle, indent=1,
                          sort_keys=True)
                handle.write("\n")
            print(f"recorded {len(digests)} cells -> "
                  f"{os.path.relpath(path, ROOT)}")
    finally:
        session.close()
    return 0


# ---- compare --------------------------------------------------------------------

def verdict(before: Sequence[float], after: Sequence[float], better: str,
            bound: float, floor: float = 0.0) -> str:
    """ok, better, regressed, or unresolved.

    The medians decide against the bound.  When either side's repeats
    spread wider than the bound, they decide only if every run of the
    change beats every run of the parent, or every run of the parent
    beats every run of the change and the median moved past the bound;
    otherwise the metric is unresolved.
    """
    sign = 1 if better == "lower" else -1
    allowed = max(bound * abs(statistics.median(before)), floor)
    worse = sign * (statistics.median(after) - statistics.median(before))
    if max(max(runs) - min(runs) for runs in (before, after)) > allowed:
        if all(sign * (b - a) < 0 for a in before for b in after):
            return "better" if -worse > allowed else "ok"
        if worse > allowed and all(sign * (b - a) > 0
                                   for a in before for b in after):
            return "regressed"
        return "unresolved"
    if worse > allowed:
        return "regressed"
    return "better" if -worse > allowed else "ok"


def compare(before: Dict[str, Any], after: Dict[str, Any],
            definitions: Dict[str, Any]) -> Tuple[List[str], bool]:
    """Every (workload, end-to-end metric) in both documents, judged."""
    rules = {m["name"]: m for m in definitions["end_to_end"]}
    lines = []
    ok = True
    for workload in WORKLOADS:
        if workload not in before["workloads"] or workload not in after["workloads"]:
            continue
        old = before["workloads"][workload]["metrics"]
        new = after["workloads"][workload]["metrics"]
        for name in [n for n in list(rules) + list(EXACT_METRICS)
                     if n in old and n in new]:
            if name in EXACT_METRICS:
                judged = ("ok" if old[name]["median"] == new[name]["median"]
                          else "differs")
            else:
                rule = rules[name]
                judged = verdict(old[name]["runs"], new[name]["runs"],
                                 rule["better"], rule["bound"],
                                 ABS_FLOOR.get(name, 0.0))
            ok = ok and judged not in ("regressed", "differs")
            lines.append(f"{workload} {name} {judged} "
                         f"{old[name]['median']:.6g} -> "
                         f"{new[name]['median']:.6g} {old[name]['unit']}")
    return lines, ok


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[2:]))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--quick", action="store_true",
                        help="about 1/5 of the cells and ops")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="measure per-layer metrics")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args(argv)
    definitions = load_definitions()
    if args.compare:
        documents = []
        for path in args.compare:
            with open(path, encoding="utf-8") as handle:
                documents.append(json.load(handle))
        lines, ok = compare(documents[0], documents[1], definitions)
        print("\n".join(lines))
        return 0 if ok else 1
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    try:
        if args.record_expected:
            return record_expected(args)
        if args.workload:
            return run_one(args, definitions)
        return run_all(args, definitions)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
