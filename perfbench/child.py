"""One benchmark pass in a fresh interpreter: set up, run, report.

``run.py`` starts this script once per (workload, repeat).  Set-up time
(``setup_s``) runs from the first line of this file to the start of the
timed region: importing ``repro``, ``simulation_version()`` and building
the workload's specs.  The timed region is the one call that runs every
cell.  The pass prints one JSON object: timings, memory, and a sha256
digest per cell of the sorted-key ``result_to_dict`` JSON.

With ``--reference ENGINE`` the script instead runs the same cells one by
one on that engine, without pool or cache, and prints their digests only.

When :data:`tracer.ENV` is set the layer wrappers are installed right
here, at import, so spawn workers re-importing this file install them too.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import tracer  # noqa: E402

TRACER = tracer.install_from_env(worker=__name__ != "__main__")


def _digest(result) -> str:
    from repro.exec import result_to_dict

    text = json.dumps(result_to_dict(result), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _tree_bytes(directory: str) -> int:
    return sum(os.path.getsize(os.path.join(current, name))
               for current, __, names in os.walk(directory) for name in names)


def _simulated(specs, results) -> dict:
    """Simulated statistics of the pass (identical on every repeat)."""
    import shapes

    pairs = [results[mapg].compare(results[never])
             for never, mapg in shapes.mapg_groups(specs)]
    memory: dict = {}
    controller: dict = {}
    for result in results:
        for name, value in result.memory_counters.items():
            memory[name] = memory.get(name, 0) + value
        for name, value in result.controller_counters.items():
            controller[name] = controller.get(name, 0) + value

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    return {
        "mapg_saving_pct": 100 * sum(p.energy_saving for p in pairs) / len(pairs),
        "mapg_penalty_pct": (100 * sum(p.performance_penalty for p in pairs)
                             / len(pairs)),
        "memory.l1_hit_ratio": ratio(memory.get("l1_hits", 0),
                                     memory.get("l1_accesses", 0)),
        "memory.l2_hit_ratio": ratio(memory.get("l2_hits", 0),
                                     memory.get("l2_accesses", 0)),
        "memory.dram_row_hit_ratio": ratio(memory.get("dram_row_hit", 0),
                                           memory.get("dram_accesses", 0)),
        "core.gate_ratio": ratio(controller.get("gated", 0),
                                 controller.get("offchip_stalls", 0)),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--cache-dir")
    parser.add_argument("--reference", metavar="ENGINE")
    args = parser.parse_args()

    from repro.errors import SweepError
    from repro.exec import simulation_version

    import shapes

    simulation_version()
    calls = shapes.build(args.workload, args.seed, args.quick)
    cells = shapes.cells(calls)
    labels = [cell.label for cell in cells]
    specs = [cell.spec for cell in cells]
    if args.reference:
        results = shapes.reference(specs, args.reference)
        print(json.dumps({"digests": {
            name: _digest(result) for name, result in zip(labels, results)}}))
        return
    executed = shapes.executed(args.workload, calls)
    setup_s = time.perf_counter() - _START
    traced_cache = TRACER is not None and args.cache_dir
    cache_bytes = _tree_bytes(args.cache_dir) if traced_cache else 0

    start = time.perf_counter()
    if TRACER is not None:
        TRACER.enter()
    try:
        results = shapes.execute(args.workload, calls, args.cache_dir)
    except SweepError as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        results = []
    finally:
        if TRACER is not None:
            TRACER.exit(tracer.REGION)
    wall_s = time.perf_counter() - start

    report = {
        "labels": labels,
        "digests": {name: _digest(result)
                    for name, result in zip(labels, results)},
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cells": len(specs),
        "instructions": sum(result.instructions
                            for result, ran in zip(results, executed) if ran),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "simulated": _simulated(specs, results) if results else {},
    }
    if TRACER is not None:
        TRACER.flush()
        processes = tracer.read(TRACER.directory)
        layers = tracer.layer_metrics(processes, os.getpid())
        layers.update(report["simulated"])
        layers["exec.cache.bytes_written"] = (
            _tree_bytes(args.cache_dir) - cache_bytes if traced_cache else 0)
        document = tracer.chrome_trace(processes, os.getpid())
        from repro.obs import validate_chrome_trace

        report["trace_problems"] = validate_chrome_trace(document)
        with open(os.path.join(TRACER.directory, "trace.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(document, handle)
        report["layers"] = layers
    print(json.dumps(report))


if __name__ == "__main__":
    main()
