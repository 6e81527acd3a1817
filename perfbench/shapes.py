"""The four benchmark workloads: which cells each one simulates, and how.

Every workload repeats the calls that one of the repository's callers
makes into the simulator, at that caller's cell sizes, with the benchmark
seed in place of the caller's fixed one:

* ``figure-grid``: the F2/T3 matrix as ``pytest benchmarks/`` runs it
  (``benchmarks/bench_f2_policy_comparison.py``, ``bench_t3_summary.py``):
  one ``run_policy_comparison`` over every profile and the five F2
  policies, ``FULL_OPS`` ops per cell, jobs=1, no cache, no ``engine``.
* ``grid-fast``: the same matrix with ``engine="fast"`` (as ``repro
  compare --engine fast`` runs it) at seeds S, S+1 and S+2.
* ``sweep-serial``: the design-space figures F3, F4, F11 and F15 as
  ``pytest benchmarks/`` runs them by default, ``SWEEP_OPS`` ops per
  cell: F3 and F4 make one ``SweepRunner(jobs=1)`` call per profile with
  no cache (``benchmarks/_common.run_sweep``); F11 and F15 make one
  ``run_workload`` call per cell.
* ``sweep-pool``: the F3 and F4 calls under the opt-in knobs
  ``MAPG_BENCH_JOBS=N MAPG_BENCH_CACHE=DIR`` (README.md; CI's obs-smoke
  job drives the same pool and cache through ``repro sweep --jobs 2
  --cache``).  Every call starts its own worker pool, and all calls share
  one result cache that starts empty, so F4 finds the two default-DRAM
  cells of each profile that F3 stored.

``--quick`` keeps every cell's length and cuts cells: two grid profiles
instead of fourteen, one seed fewer on ``grid-fast``, and one profile per
sweep figure.

Each cell gets a label (figure, profile, policy, seed, knob) that is
unique within a workload and equal across workloads for the same call, so
the digests of shared cells can be cross-checked by label.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict, List, Optional, Sequence, Tuple

import repro.sim.runner as runner
from repro.config import PrefetcherConfig, SystemConfig
from repro.exec import JobSpec, ResultCache, SweepRunner, TraceStore
from repro.sim.runner import with_policy
from repro.workloads.profiles import profile_names

# The callers' sizes and grids, from benchmarks/_common.py and the
# bench_f2/f3/f4/f11/f15 scripts.
FULL_OPS = 30_000
SWEEP_OPS = 15_000
POLICIES = ("never", "naive", "bet_guard", "mapg", "oracle")
F3_SCALES = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
F3_PROFILES = ("mcf_like", "gcc_like")
F4_SCALES = (0.5, 0.75, 1.0, 1.5, 2.0, 3.0)
F4_PROFILES = ("mcf_like", "gcc_like")
F11_PROFILES = ("mcf_like", "libquantum_like", "lbm_like", "gcc_like")
F15_WINDOWS = (1, 2, 4, 8)
F15_PROFILES = ("mcf_like", "milc_like", "libquantum_like")

# Working sets from 256 MiB (mcf_like) down to 1 MiB (povray_like, which
# fits the 2 MiB L2), so the quick grid still spans the cache boundary.
_QUICK_GRID_PROFILES = ("mcf_like", "povray_like")

# Workloads that run through a worker pool into a result cache.
POOLED = frozenset({"sweep-pool"})
# Pool workers of the pooled workloads.
JOBS = min(4, os.cpu_count() or 1)

_NEVER_GATING = with_policy(SystemConfig(), "never").gating


@dataclasses.dataclass(frozen=True)
class Cell:
    """One simulation cell and its readable name."""

    label: str
    spec: JobSpec


@dataclasses.dataclass(frozen=True)
class Call:
    """One call a caller makes into the simulator, with the cells it returns.

    ``kind`` is ``comparison`` (``run_policy_comparison``), ``sweep``
    (one ``SweepRunner.run``) or ``workload`` (one ``run_workload``).
    """

    kind: str
    cells: Tuple[Cell, ...]


def _cell(figure: str, spec: JobSpec, knob: str = "") -> Cell:
    parts = [figure, spec.profile, spec.config.gating.policy, f"seed{spec.seed}"]
    return Cell("/".join(parts + ([knob] if knob else [])), spec)


def _grid(profiles: Sequence[str], seed: int, engine: str) -> Call:
    """One ``run_policy_comparison`` matrix, in its result order."""
    config = SystemConfig()
    return Call("comparison", tuple(
        _cell("F2", JobSpec(config=with_policy(config, policy),
                            profile=profile, num_ops=FULL_OPS, seed=seed,
                            engine=engine))
        for profile in profiles for policy in POLICIES))


def _f3(profile: str, seed: int) -> Call:
    config = SystemConfig()
    cells = [_cell("F3", JobSpec(config=with_policy(config, "never"),
                                 profile=profile, num_ops=SWEEP_OPS, seed=seed))]
    cells += [_cell("F3", JobSpec(config=with_policy(config, "mapg",
                                                     bet_scale=scale),
                                  profile=profile, num_ops=SWEEP_OPS,
                                  seed=seed), f"bet{scale:g}")
              for scale in F3_SCALES]
    return Call("sweep", tuple(cells))


def _f4(profile: str, seed: int) -> Call:
    base = SystemConfig()
    cells = []
    for scale in F4_SCALES:
        config = base.replace(dram=base.dram.scaled(scale))
        for policy in ("never", "mapg"):
            cells.append(_cell("F4", JobSpec(config=with_policy(config, policy),
                                             profile=profile,
                                             num_ops=SWEEP_OPS, seed=seed),
                               f"dram{scale:g}"))
    return Call("sweep", tuple(cells))


def _f11(profile: str, seed: int) -> List[Call]:
    base = SystemConfig()
    prefetching = base.replace(prefetcher=PrefetcherConfig(enabled=True, degree=4))
    runs = [(base, "never", "plain")]
    for knob, config in (("pf-off", base), ("pf-on", prefetching)):
        runs += [(config, "never", knob), (config, "mapg", knob)]
    return [Call("workload", (_cell("F11", JobSpec(
                config=with_policy(config, policy), profile=profile,
                num_ops=SWEEP_OPS, seed=seed), knob),))
            for config, policy, knob in runs]


def _f15(profile: str, seed: int) -> List[Call]:
    base = SystemConfig()
    calls = []
    for window in F15_WINDOWS:
        config = base.replace(
            core=dataclasses.replace(base.core, miss_window=window))
        calls += [Call("workload", (_cell("F15", JobSpec(
                      config=with_policy(config, policy), profile=profile,
                      num_ops=SWEEP_OPS, seed=seed), f"window{window}"),))
                  for policy in ("never", "mapg")]
    return calls


def _sweeps(seed: int, quick: bool, pooled: bool) -> List[Call]:
    # Quick keeps each figure's last profile: its first is mcf_like,
    # whose cells cost two to three times as much as the others'.
    def profiles(names: Sequence[str]) -> Sequence[str]:
        return names[-1:] if quick else names

    calls = [_f3(profile, seed) for profile in profiles(F3_PROFILES)]
    calls += [_f4(profile, seed) for profile in profiles(F4_PROFILES)]
    if pooled:
        return calls
    for profile in profiles(F11_PROFILES):
        calls += _f11(profile, seed)
    for profile in profiles(F15_PROFILES):
        calls += _f15(profile, seed)
    return calls


def build(workload: str, seed: int, quick: bool) -> List[Call]:
    """Every call of ``workload``, in the order its run makes them."""
    if workload in ("figure-grid", "grid-fast"):
        profiles = _QUICK_GRID_PROFILES if quick else tuple(profile_names())
        if workload == "figure-grid":
            return [_grid(profiles, seed, "oracle")]
        return [_grid(profiles, seed + offset, "fast")
                for offset in range(2 if quick else 3)]
    if workload in ("sweep-serial", "sweep-pool"):
        return _sweeps(seed, quick, workload in POOLED)
    raise ValueError(f"unknown workload {workload!r}")


def cells(calls: Sequence[Call]) -> List[Cell]:
    """The cells of ``calls``, in result order."""
    return [cell for call in calls for cell in call.cells]


def _identity(spec: JobSpec) -> tuple:
    """What the job key hashes: every input but the engine."""
    return (spec.config, spec.profile, spec.num_ops, spec.seed,
            spec.warmup_ops, spec.temperature_c)


def executed(workload: str, calls: Sequence[Call]) -> List[bool]:
    """Per cell, whether the run simulates it rather than reusing a result.

    A ``SweepRunner`` call runs a repeated cell once; with a result cache,
    a cell an earlier call stored is loaded instead.
    """
    seen: set = set()
    flags = []
    for call in calls:
        if workload not in POOLED:
            seen = set()
        for cell in call.cells:
            identity = _identity(cell.spec)
            flags.append(call.kind == "workload" or identity not in seen)
            seen.add(identity)
    return flags


def execute(workload: str, calls: Sequence[Call],
            cache_dir: Optional[str]) -> List:
    """Make the workload's calls the way its caller does; results in order."""
    jobs = JOBS if workload in POOLED else 1
    results: List = []
    for call in calls:
        specs = [cell.spec for cell in call.cells]
        first = specs[0]
        if call.kind == "comparison":
            kwargs: Dict[str, str] = ({} if first.engine == "oracle"
                                      else {"engine": first.engine})
            profiles = list(dict.fromkeys(spec.profile for spec in specs))
            grid = runner.run_policy_comparison(
                SystemConfig(), profiles, POLICIES, first.num_ops,
                seed=first.seed, **kwargs)
            results.extend(grid[spec.profile][spec.config.gating.policy]
                           for spec in specs)
        elif call.kind == "sweep":
            cache = ResultCache(cache_dir) if cache_dir else None
            results.extend(SweepRunner(jobs=jobs, cache=cache).run(specs))
        else:
            results.append(runner.run_workload(first.config, first.profile,
                                               first.num_ops, seed=first.seed))
    return results


def reference(specs: Sequence[JobSpec], engine: str) -> List:
    """The same cells run one by one on ``engine``: no pool, no cache."""
    store = TraceStore()
    return [dataclasses.replace(spec, engine=engine).execute(trace_store=store)
            for spec in specs]


def mapg_groups(specs: Sequence[JobSpec]) -> List[Tuple[int, int]]:
    """(never, mapg) index pairs: each MAPG cell and its never-gate baseline.

    The baseline is the never-gate cell with the same profile, seed,
    length and non-gating configuration, as each figure compares them.
    """
    def baseline(spec: JobSpec) -> tuple:
        return _identity(dataclasses.replace(
            spec, config=spec.config.replace(gating=_NEVER_GATING)))

    never = {baseline(spec): position for position, spec in enumerate(specs)
             if spec.config.gating.policy == "never"}
    return [(never[baseline(spec)], position)
            for position, spec in enumerate(specs)
            if spec.config.gating.policy == "mapg"]
