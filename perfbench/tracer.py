"""Outside-in layer timing for the benchmark's traced runs.

A traced run rebinds class attributes of the simulator's layers to thin
wrappers that time every call from outside; no file under ``src/`` knows
it is being measured.  Each call is a frame on one per-process stack, and
a layer's *self time* is its duration minus the time its wrapped children
cover.  Generator methods (trace generation, the cores' segment streams)
are timed per ``next()``, so time spent pulling ops out of a generator is
charged to the generator, not to its consumer.

Calls that happen once per cell or less become spans, stamped with
``time.monotonic_ns()`` (one clock for every process on the host, so a
worker's first span can be set against the parent's ``Pool()`` call).
Per-op calls (memory accesses, DRAM, prefetch training, gating decisions,
segment and op generation, job keys) only add to per-layer totals.  That
keeps the tracing overhead (``trace.overhead_ratio``) to about 0.6 us per
wrapped call: 10-35 % of a workload's time, most on the oracle path.

Each process appends its spans and a cumulative totals snapshot to its own
``spans-<pid>.jsonl`` in the trace directory.  Pool workers write whenever
their stack empties, i.e. after every step of every cell, because the pool
terminates them without running ``atexit``; the benchmark process writes
once, after its timed region.

Tracing is switched on by setting :data:`ENV` to the trace directory
before the benchmark's child process starts: the child installs the
wrappers on import, and spawn workers re-importing the child as
``__mp_main__`` install them too.
"""

from __future__ import annotations

import functools
import glob
import inspect
import json
import os
import pickle
import resource
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

ENV = "PERFBENCH_TRACE_DIR"

REGION = "bench.region"

# Per-op layers: totals only, never individual spans.
_AGGREGATE_ONLY = frozenset({
    "workloads.gen", "cpu.segments", "memory.access", "memory.dram",
    "memory.prefetch", "core.process_stall", "exec.jobspec.key",
})

# A cell runs either as a job spec (every SweepRunner path) or as one
# run_workload call.
_CELL_SPANS = frozenset({"exec.jobspec.execute", "sim.run_workload"})

Span = Tuple[str, int, int, int, int]  # name, start_ns, dur_ns, self_ns, depth


class Tracer:
    """One process's call stack, per-layer totals and pending spans."""

    def __init__(self, directory: Optional[str] = None,
                 flush_on_return: bool = False,
                 clock: Callable[[], int] = time.monotonic_ns) -> None:
        self.directory = directory
        self.flush_on_return = flush_on_return
        self.clock = clock
        self.stack: List[List[int]] = []  # [start_ns, child_ns]
        self.totals: Dict[str, List[int]] = {}  # name -> [calls, total, self]
        self.counts: Dict[str, int] = {}
        self.spans: List[Span] = []
        self._store_misses: Dict[int, int] = {}

    def enter(self) -> None:
        """Open a frame; the matching :meth:`exit` names it."""
        self.stack.append([self.clock(), 0])

    def closer(self, name: str) -> Callable[[], None]:
        """A function that closes the innermost frame as layer ``name``."""
        total = self.totals.setdefault(name, [0, 0, 0])
        emit = name not in _AGGREGATE_ONLY
        stack = self.stack
        spans = self.spans
        clock = self.clock

        def close() -> None:
            end = clock()
            start, child = stack.pop()
            duration = end - start
            total[0] += 1
            total[1] += duration
            total[2] += duration - child
            if stack:
                stack[-1][1] += duration
            if emit:
                spans.append((name, start, duration, duration - child,
                              len(stack)))
            if not stack and self.flush_on_return:
                self.flush()
        return close

    def exit(self, name: str) -> None:
        """Close the innermost frame and charge it to layer ``name``."""
        self.closer(name)()

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name``."""
        self.counts[name] = self.counts.get(name, 0) + amount

    def flush(self) -> None:
        """Append pending spans and a totals snapshot to this process's file."""
        if self.directory is None:
            return
        record = {
            "spans": self.spans, "totals": self.totals, "counts": self.counts,
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        path = os.path.join(self.directory, f"spans-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        self.spans.clear()


# ---- wrappers -----------------------------------------------------------------

def wrap_call(tracer: Tracer, name: str, fn: Callable,
              hook: Optional[Callable] = None) -> Callable:
    """``fn`` timed as one frame of layer ``name``; ``hook`` sees the result."""
    push = tracer.stack.append
    clock = tracer.clock
    close = tracer.closer(name)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        push([clock(), 0])
        try:
            result = fn(*args, **kwargs)
        finally:
            close()
        if hook is not None:
            hook(tracer, args, result)
        return result
    return wrapper


def wrap_generator(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Generator function ``fn`` with every ``next()`` timed as a frame."""
    push = tracer.stack.append
    clock = tracer.clock
    close = tracer.closer(name)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        inner = fn(*args, **kwargs)
        items = 0
        try:
            while True:
                push([clock(), 0])
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    close()
                items += 1
                yield item
        finally:
            tracer.count(name + ".items", items)
    return wrapper


def _on_fast_init(tracer: Tracer, args: tuple, result: Any) -> None:
    used = args[0].used_fast_path
    tracer.count("fastsim.kernel.fast_cells" if used
                 else "fastsim.kernel.fallback_cells")


def _on_store(name: str) -> Callable:
    def hook(tracer: Tracer, args: tuple, result: Any) -> None:
        store = args[0]
        if store.misses != tracer._store_misses.get(id(store), 0):
            tracer.count(name + ".misses")
        tracer._store_misses[id(store)] = store.misses
    return hook


def _on_cache_load(tracer: Tracer, args: tuple, result: Any) -> None:
    if result is None:
        tracer.count("exec.cache.misses")


def _on_payload(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("exec.payload_bytes", len(pickle.dumps(result)))


def install(tracer: Tracer) -> None:
    """Rebind every traced layer entry point to a timing wrapper."""
    import multiprocessing.context as mp_context

    import repro.exec.engine as engine
    import repro.sim.runner as runner
    from repro.core.controller import MapgController
    from repro.cpu.core import Core
    from repro.cpu.window import WindowedCore
    from repro.exec.cache import ResultCache
    from repro.exec.jobspec import JobSpec
    from repro.exec.tracestore import TraceStore
    from repro.fastsim.columnar import ColumnarTrace, ColumnarTraceStore
    from repro.fastsim.kernel import FastSimulator
    from repro.memory.dram import Dram
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.memory.prefetch import StridePrefetcher
    from repro.sim.simulator import Simulator
    from repro.workloads.synthetic import SyntheticTraceGenerator

    calls = [
        (TraceStore, "traces", "exec.tracestore", _on_store("exec.tracestore")),
        (ColumnarTraceStore, "traces", "fastsim.columnar.store",
         _on_store("fastsim.columnar.store")),
        (ColumnarTrace, "__init__", "fastsim.columnar.ingest", None),
        (ColumnarTrace, "busy_cycles_for", "fastsim.columnar.precompute", None),
        (ColumnarTrace, "block_keys_for", "fastsim.columnar.precompute", None),
        (runner, "run_workload", "sim.run_workload", None),
        (Simulator, "__init__", "sim.init", None),
        (Simulator, "run", "sim.run", None),
        (Simulator, "result", "sim.result", None),
        (FastSimulator, "__init__", "fastsim.kernel.init", _on_fast_init),
        (FastSimulator, "run", "fastsim.kernel.run", None),
        (MemoryHierarchy, "__init__", "memory.init", None),
        (MemoryHierarchy, "access", "memory.access", None),
        (Dram, "access", "memory.dram", None),
        (StridePrefetcher, "train", "memory.prefetch", None),
        (MapgController, "process_stall", "core.process_stall", None),
        (JobSpec, "execute", "exec.jobspec.execute", None),
        (JobSpec, "to_payload", "exec.jobspec.to_payload", _on_payload),
        (JobSpec, "from_payload", "exec.jobspec.from_payload", None),
        (JobSpec, "key", "exec.jobspec.key", None),
        (ResultCache, "load", "exec.cache.load", _on_cache_load),
        (ResultCache, "store", "exec.cache.store", None),
        (engine, "result_to_dict", "exec.engine.result_to_dict", None),
        (engine, "result_from_dict", "exec.engine.result_from_dict", None),
        (mp_context.SpawnContext, "Pool", "exec.pool", None),
    ]
    for owner, attr, name, hook in calls:
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(wrap_call(tracer, name, raw.__func__, hook))
        elif isinstance(raw, property):
            wrapped = property(wrap_call(tracer, name, raw.fget, hook))
        else:
            wrapped = wrap_call(tracer, name, raw, hook)
        setattr(owner, attr, wrapped)
    generators = [
        (SyntheticTraceGenerator, "operations", "workloads.gen"),
        (Core, "segments", "cpu.segments"),
        (WindowedCore, "segments", "cpu.segments"),
    ]
    for owner, attr, name in generators:
        setattr(owner, attr, wrap_generator(tracer, name, vars(owner)[attr]))


def install_from_env(worker: bool) -> Optional[Tracer]:
    """Install the wrappers when :data:`ENV` names a trace directory.

    ``worker`` marks a pool worker, which writes its spans whenever its
    stack empties instead of once at the end.
    """
    directory = os.environ.get(ENV)
    if not directory:
        return None
    tracer = Tracer(directory, flush_on_return=worker)
    install(tracer)
    return tracer


# ---- analysis -------------------------------------------------------------------

def read(directory: str) -> Dict[int, Dict[str, Any]]:
    """Every process's spans and last totals snapshot, keyed by pid."""
    processes: Dict[int, Dict[str, Any]] = {}
    for path in glob.glob(os.path.join(directory, "spans-*.jsonl")):
        pid = int(os.path.basename(path)[6:-6])
        spans: List[Span] = []
        last: Dict[str, Any] = {}
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                last = json.loads(line)
                spans.extend(tuple(span) for span in last["spans"])
        processes[pid] = {"spans": spans, "totals": last["totals"],
                          "counts": last["counts"], "rss_kb": last["rss_kb"]}
    return processes


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(processes: Dict[int, Dict[str, Any]],
                  parent_pid: int) -> Dict[str, float]:
    """Per-layer metrics of one traced pass, summed over its processes.

    ``parent_pid`` is the benchmark process, whose :data:`REGION` span is
    the timed region.  When a pool ran, ``trace.coverage`` is measured on
    the workers (the share of each worker's first-to-last-span window its
    top-level spans cover); otherwise on the region itself.  Pool start-up
    and worker busy time are summed over every ``Pool()`` call.
    """
    totals: Dict[str, List[int]] = {}
    counts: Dict[str, int] = {}
    for process in processes.values():
        for name, (calls, total, own) in process["totals"].items():
            merged = totals.setdefault(name, [0, 0, 0])
            merged[0] += calls
            merged[1] += total
            merged[2] += own
        for name, value in process["counts"].items():
            counts[name] = counts.get(name, 0) + value

    def calls(name: str) -> int:
        return totals.get(name, [0, 0, 0])[0]

    def total_s(*names: str) -> float:
        return sum(totals.get(name, [0, 0, 0])[1] for name in names) / 1e9

    def self_s(name: str) -> float:
        return totals.get(name, [0, 0, 0])[2] / 1e9

    parent = processes[parent_pid]
    region = next(span for span in parent["spans"] if span[0] == REGION)
    workers = {pid: process for pid, process in processes.items()
               if pid != parent_pid}
    cell_ms = [span[2] / 1e6 for process in processes.values()
               for span in process["spans"] if span[0] in _CELL_SPANS]
    pool_starts = [span[1] for span in parent["spans"] if span[0] == "exec.pool"]

    covered = window = 0
    # Per Pool() call: [first worker span start, last worker span end,
    # workers].  A worker belongs to the last pool started before it ran.
    pools: Dict[int, List[int]] = {}
    for process in workers.values():
        top = [span for span in process["spans"] if span[4] == 0]
        if not top:
            continue
        start = min(span[1] for span in top)
        end = max(span[1] + span[2] for span in top)
        covered += sum(span[2] for span in top)
        window += end - start
        pool = max(begin for begin in pool_starts if begin <= start)
        entry = pools.setdefault(pool, [start, end, 0])
        entry[0] = min(entry[0], start)
        entry[1] = max(entry[1], end)
        entry[2] += 1
    if not window:
        covered, window = region[2] - region[3], region[2]
    busy_window = sum(count * (end - pool)
                      for pool, (__, end, count) in pools.items())
    store_calls = calls("exec.tracestore")
    columnar_calls = calls("fastsim.columnar.store")
    fast = counts.get("fastsim.kernel.fast_cells", 0)
    fallback = counts.get("fastsim.kernel.fallback_cells", 0)
    loads = calls("exec.cache.load")
    ordered = sorted(cell_ms)
    return {
        "workloads.gen_s": self_s("workloads.gen"),
        "workloads.ops_generated": counts.get("workloads.gen.items", 0),
        "exec.tracestore.hit_ratio": _ratio(
            store_calls - counts.get("exec.tracestore.misses", 0), store_calls),
        "fastsim.columnar.ingest_s": self_s("fastsim.columnar.ingest"),
        "fastsim.columnar.precompute_s": total_s("fastsim.columnar.precompute"),
        "fastsim.columnar.hit_ratio": _ratio(
            columnar_calls - counts.get("fastsim.columnar.store.misses", 0),
            columnar_calls),
        "fastsim.kernel.init_s": self_s("fastsim.kernel.init"),
        "fastsim.kernel.run_self_s": self_s("fastsim.kernel.run"),
        "fastsim.kernel.fast_path_ratio": _ratio(fast, fast + fallback),
        "fastsim.kernel.fallback_cells": fallback,
        "sim.init_self_s": self_s("sim.init"),
        "sim.run_self_s": self_s("sim.run"),
        "sim.result_s": total_s("sim.result"),
        "memory.init_s": total_s("memory.init"),
        "memory.access_calls": calls("memory.access"),
        "memory.access_self_s": self_s("memory.access"),
        "memory.dram_s": total_s("memory.dram"),
        "memory.prefetch_s": total_s("memory.prefetch"),
        "cpu.segments_self_s": self_s("cpu.segments"),
        "cpu.segments": counts.get("cpu.segments.items", 0),
        "core.process_stall_s": total_s("core.process_stall"),
        "core.process_stall_calls": calls("core.process_stall"),
        "exec.cell_ms.p50": statistics.median(ordered) if ordered else 0.0,
        "exec.cell_ms.p90": (statistics.quantiles(ordered, n=10)[-1]
                             if len(ordered) > 1 else sum(ordered)),
        "exec.cell_ms.samples": len(ordered),
        "exec.pool_startup_s": sum(first - pool for pool, (first, __, __)
                                   in pools.items()) / 1e9,
        "exec.payload_encode_s": total_s("exec.jobspec.to_payload"),
        "exec.payload_decode_s": total_s("exec.jobspec.from_payload"),
        "exec.result_encode_s": total_s("exec.engine.result_to_dict"),
        "exec.result_decode_s": total_s("exec.engine.result_from_dict"),
        "exec.payload_bytes": counts.get("exec.payload_bytes", 0),
        "exec.worker_busy_ratio": _ratio(
            sum(span[2] for process in workers.values()
                for span in process["spans"] if span[4] == 0), busy_window),
        "exec.worker_peak_rss_mb": max(
            (process["rss_kb"] for process in workers.values()), default=0) / 1024,
        "exec.sweep_self_s": region[3] / 1e9,
        "exec.jobspec.key_s": total_s("exec.jobspec.key"),
        "exec.cache.load_s": self_s("exec.cache.load"),
        "exec.cache.load_calls": loads,
        "exec.cache.hit_ratio": _ratio(
            loads - counts.get("exec.cache.misses", 0), loads),
        "exec.cache.store_s": self_s("exec.cache.store"),
        "exec.cache.store_calls": calls("exec.cache.store"),
        "trace.wall_s": region[2] / 1e9,
        "trace.coverage": _ratio(covered, window),
        "trace.other_s": (window - covered) / 1e9,
    }


def chrome_trace(processes: Dict[int, Dict[str, Any]],
                 parent_pid: int) -> Dict[str, Any]:
    """The spans as a Chrome trace-event document, one lane per process.

    Timestamps are microseconds since the region started; each span's
    self time rides in ``args``, and per-op layer totals in ``otherData``.
    """
    origin = next(span[1] for span in processes[parent_pid]["spans"]
                  if span[0] == REGION)
    events: List[Dict[str, Any]] = []
    for pid in sorted(processes):
        role = "benchmark" if pid == parent_pid else "pool worker"
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": pid, "ts": 0, "args": {"name": role}})
        events.append({"name": "thread_name", "ph": "M", "pid": pid,
                       "tid": pid, "ts": 0, "args": {"name": f"{role} {pid}"}})
        for name, start, duration, own, __ in processes[pid]["spans"]:
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "ts": (start - origin) / 1e3, "dur": duration / 1e3,
                "pid": pid, "tid": pid, "args": {"self_us": own / 1e3}})
    per_op = {str(pid): {name: total for name, total
                         in processes[pid]["totals"].items()
                         if name in _AGGREGATE_ONLY}
              for pid in processes}
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"per_op_totals": per_op,
                          "per_op_totals_fields": ["calls", "total_ns",
                                                   "self_ns"]}}
