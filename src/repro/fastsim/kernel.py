"""Batched single-core execution kernel, bit-identical to the oracle.

:class:`FastSimulator` wraps a regular :class:`~repro.sim.simulator.Simulator`
and replays a :class:`~repro.fastsim.columnar.ColumnarTrace` through one
flat Python loop instead of the oracle's object pipeline (trace-op objects
-> ``Core.segments`` generator -> segment objects -> type-keyed dispatch ->
per-call cache/MSHR/DRAM/controller methods).  Whole stall-free runs are
advanced in one step — busy cycles accumulate in a local and are charged
as a single ACTIVE batch at the next stall, exactly as the oracle's
``Core`` coalesces them into one ``BusySegment`` — and the kernel drops
into per-event handling only where controller state actually matters: at
off-chip stalls.

The loop visits only the accesses that can change timing.  L1 tag state
does not depend on time, so each region's L1 tag hits, misses and dirty
victims come from one memoized pass per trace
(:meth:`~repro.fastsim.columnar.ColumnarTrace.l1_pass`).  Once every L1
fill has completed (the latest fill registered is no later than the next
access's issue), every access up to the next tag miss is a pipelined
hit, and the loop jumps there in one step through the trace's prefix
sums of ``busy + 1``; it steps one access at a time only while fills are
in flight, to find the accesses that merge into them.

The contract is **bit identity**, not approximation.  Every float the
oracle computes is reproduced with the same operands in the same order:

* interval energy accumulates as ``state_power * (cycles / f)`` per
  interval, in event order, into one accumulator per power state;
* DRAM bank timing runs the oracle's nanosecond arithmetic term by term
  in one closure (:meth:`FastSimulator._dram_for`) for demand reads,
  writebacks and prefetches, with cycle<->ns conversions through the
  same :mod:`repro.units` helpers the hierarchy calls;
* the MAPG rules are not copied: the kernel calls the real objects'
  own methods — the table's ``lookup`` and its entry's ``observe``,
  ``MapgPolicy.plan_gate`` and ``observe_fallback``,
  ``AdaptiveMapgPolicy.adapt`` — the same code the oracle's
  ``decide``/``observe``/``feedback`` run — feeds prediction errors to
  the controller's own ``RunningMean`` streams, and resolves gated stalls
  with :func:`~repro.core.wakeup.wakeup_timeline`, the controller's own
  wakeup algebra.

A windowed-MLP core (``miss_window > 1``) replays through the same loop:
off-chip misses register in the wrapped core's own outstanding-miss deque
(retired by its own ``retire_completed``) until the window fills.  Each
stepped access (or jump) first registers the last window-full stall's
new miss; a stepped access then retires, and takes ``WindowedCore``'s
dependence stall if its producer is in flight.  The dependence,
window-full and dependent-use stalls all reach the one off-chip
resolution block, with the blocking access's age passed to the policy as
``elapsed``.  A jump skips no other such work: once
every L1 fill has completed, so has every outstanding miss (each one
completes ``l1`` latency cycles before its fill), and retiring is
monotone in time, so retiring at the next stepped access leaves the same
deque and the same ``hidden_misses`` count.

The stride prefetcher is trained by owner-call too: each L2 access calls
the hierarchy's own ``StridePrefetcher.train`` and fills its targets
through the kernel's L2 tag and MSHR state and the DRAM helper the
writebacks use, scoring useful and late prefetches against the
hierarchy's own prefetched-line set (:meth:`FastSimulator._prefetch`).

Architectural state (the L2 tags as insertion-ordered per-set dicts whose
order provably equals the oracle's LRU stacks, the L1 tags as the last
region's :class:`~repro.fastsim.columnar.L1Pass`, MSHR fill maps with the
oracle's eager expiry replayed at the same call points, DRAM bank state)
lives privately on the kernel and persists across the warmup/measure
boundary; *measurement* state accumulates in locals and is flushed into
the wrapped simulator's real objects at region end — counters through
``CounterSet.add``, ledger totals through
:meth:`~repro.core.energy.EnergyLedger.add_batch` (the batch entry point,
so ledger internals stay owned by ``repro/core/energy.py``), histograms
by direct state transplant into the freshly-reset objects.
``Simulator.reset_measurements()`` and ``Simulator.result()`` then run
unmodified, so the result path is shared with the oracle.

Fallback: runs the kernel does not replicate (shared DRAM, token
arbiters, timeline recording, attached span recorders) transparently run
the oracle on the reconstructed op stream; see :func:`fallback_reasons`.
Policies other than Never/Mapg/AdaptiveMapg (or non-table predictors)
decide through their own ``decide()`` per off-chip stall; the kernel then
resolves the stall with the same wakeup algebra and bookkeeping as the
MAPG path, and calls the policy's real ``observe``/``feedback``.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.config import DramConfig, SystemConfig
from repro.core.adaptive import AdaptiveMapgPolicy
from repro.core.policies import GatingPolicy, MapgPolicy, NeverPolicy
from repro.core.token import TokenArbiter
from repro.core.wakeup import WakeupPlan, wakeup_timeline
from repro.cpu.core import MLP_WINDOW_CYCLES
from repro.errors import SimulationError
from repro.fastsim.columnar import ColumnarTrace, L1Pass
from repro.memory.dram import ROW_CLOSED, ROW_CONFLICT, ROW_HIT, Dram
from repro.obs.spans import NullRecorder
from repro.power.model import PowerState
from repro.power.temperature import NOMINAL_TEMPERATURE_C
from repro.predict.table import HistoryTablePredictor
from repro.sim.results import SimulationResult
from repro.sim.simulator import Simulator
from repro.units import (
    CYCLE_CEIL_EPSILON, NS, cycles_to_ns, seconds_to_cycles_ceil)

_INF = float("inf")
# A stall bound no merge reaches (the blocking core's dependent-use test).
_NEVER = sys.maxsize

# Memory-counter slots (one flat list of ints, flushed to the named
# CounterSets at region end; a key is flushed only when its count is
# nonzero, matching the oracle's "present iff added at least once").
_H_ACC, _H_L1_MERGE, _H_L1_STALL, _H_L2_MERGE, _H_L2_STALL, _H_WB = range(6)
_L1_ACC, _L1_WR, _L1_HIT, _L1_MISS, _L1_WB = range(6, 11)
_L2_ACC, _L2_WR, _L2_HIT, _L2_MISS, _L2_WB = range(11, 16)
(_D_ACC, _D_ROW_HIT, _D_ROW_CLOSED, _D_ROW_CONFLICT, _D_WR, _D_BUF_WR,
 _D_DRAIN, _D_REFRESH) = range(16, 24)
_PF_FILL, _PF_REDUNDANT, _PF_DROPPED, _PF_USEFUL, _PF_LATE = range(24, 29)
_MC_SLOTS = 29

_MISSING = object()


def fallback_reasons(config: SystemConfig, *,
                     shared_dram: Optional[Dram] = None,
                     token_arbiter: Optional[TokenArbiter] = None,
                     record_timeline: bool = False,
                     recorder: Optional[NullRecorder] = None) -> List[str]:
    """Why the batched kernel cannot run this cell (empty = it can).

    A pure function of the :class:`FastSimulator` constructor's inputs,
    so callers can learn whether a cell takes the fast path without
    building or running it.
    """
    # Every SystemConfig a single core accepts is inside the envelope
    # (the stride prefetcher and the windowed-MLP core included); only
    # the multi-core coupling objects and the observability sinks are not.
    reasons: List[str] = []
    if shared_dram is not None:
        reasons.append("shared DRAM (multi-core contention)")
    if token_arbiter is not None:
        reasons.append("token arbiter (TAP mode)")
    if record_timeline:
        reasons.append("timeline recording requested")
    if recorder is not None and recorder.enabled:
        reasons.append("span recorder attached")
    return reasons


class FastSimulator:
    """Columnar batched replay of one core domain, oracle-identical.

    The default engine (:data:`repro.fastsim.DEFAULT_ENGINE`) behind
    ``run_workload``, ``JobSpec`` and the CLI; the oracle runs only when
    asked for by name or when this kernel falls back to it.
    Drop-in companion to :class:`~repro.sim.simulator.Simulator`:
    construct with the same arguments, then drive with
    :meth:`warm_up`/:meth:`run` passing
    :class:`~repro.fastsim.columnar.ColumnarTrace` regions.  The wrapped
    oracle instance is exposed as ``.sim`` (its ``result()`` is the one
    returned).  ``fallback_reasons`` lists why the kernel would not
    engage; when non-empty the replay transparently uses the oracle.
    """

    def __init__(self, config: SystemConfig, workload: str = "custom",
                 temperature_c: float = NOMINAL_TEMPERATURE_C,
                 shared_dram: Optional[Dram] = None,
                 token_arbiter: Optional[TokenArbiter] = None,
                 core_id: int = 0, record_timeline: bool = False,
                 recorder: Optional[NullRecorder] = None) -> None:
        self.sim = Simulator(
            config, workload=workload, temperature_c=temperature_c,
            shared_dram=shared_dram, token_arbiter=token_arbiter,
            core_id=core_id, record_timeline=record_timeline,
            recorder=recorder)
        self.config = config
        self.fallback_reasons = fallback_reasons(
            config, shared_dram=shared_dram, token_arbiter=token_arbiter,
            record_timeline=record_timeline, recorder=recorder)
        self.used_fast_path = not self.fallback_reasons
        if self.used_fast_path:
            self._select_stall_mode()
            self._setup_state(config)

    def _select_stall_mode(self) -> None:
        """Pick how off-chip stalls are handled (exact-type dispatch).

        The ``mapg`` path calls the policy's rule methods (``plan_gate``,
        ``observe_fallback``, ``adapt``) rather than ``decide``/``observe``/
        ``feedback``.  Subclasses (other than the two known ones) may
        override the latter, so anything unrecognized takes the
        ``generic`` path: the policy's own ``decide()``, with the kernel
        resolving the stall and calling its real ``observe``/``feedback``.
        """
        policy = self.sim.controller.policy
        if type(policy) is NeverPolicy:
            self._stall_mode = "never"
        elif type(policy) in (MapgPolicy, AdaptiveMapgPolicy) and \
                type(getattr(policy, "predictor", None)) \
                is HistoryTablePredictor:
            self._stall_mode = "mapg"
        else:
            self._stall_mode = "generic"

    # ---- private state ---------------------------------------------------------

    def _setup_state(self, config: SystemConfig) -> None:
        sim = self.sim
        # Core / timing.
        self._freq = config.core.frequency_hz
        self._issue_width = config.core.issue_width
        self._mlp_overlap = config.core.mlp_overlap
        self._mlp_factor = 1.0 - config.core.mlp_overlap
        self._window = config.core.miss_window
        self._l1_lat = config.l1.hit_latency_cycles
        self._l2_lat = config.l2.hit_latency_cycles
        # L1 tag state: the pass of the last region replayed (None while
        # the tags are empty), which keys the next region's pass.
        self._l1_off = config.l1.line_bytes.bit_length() - 1
        self._l1_mask = config.l1.num_sets - 1
        self._l1_ways = config.l1.associativity
        self._l1_wb = config.l1.write_back
        self._l1_state: Optional[L1Pass] = None
        # L2 tag state: per-set insertion-ordered dict tag -> dirty.
        # Insertion order equals the oracle's LRU stack: fills take invalid
        # ways in way order while `_touch` appends to the stack tail, so
        # stack order is insertion order; hits reinsert at the tail; the
        # victim (stack head) is the first key.
        self._l2_off = config.l2.line_bytes.bit_length() - 1
        self._l2_mask = config.l2.num_sets - 1
        self._l2_idx_bits = self._l2_mask.bit_length()
        self._l2_ways = config.l2.associativity
        self._l2_wb = config.l2.write_back
        self._l2_sets: List[Dict[int, bool]] = [
            {} for __ in range(config.l2.num_sets)]
        # MSHRs: line -> fill cycle, plus a tracked minimum fill so the
        # oracle's eager expiry scan runs only when it could remove entries,
        # and line -> issue cycle over the same keys (a windowed core's
        # dependent use reads the in-flight entry's age).  The L1's latest
        # fill ever registered bounds when every L1 fill has completed.
        self._l1_cap = config.l1.mshr_entries
        self._l2_cap = config.l2.mshr_entries
        self._l1m: Dict[int, int] = {}
        self._l1mi: Dict[int, int] = {}
        self._l1m_min: float = _INF
        self._l1m_last = 0
        self._l2m: Dict[int, int] = {}
        self._l2mi: Dict[int, int] = {}
        self._l2m_min: float = _INF
        # Memory counters (flushed and zeroed per region), the off-chip
        # stall histogram's edges, and the DRAM: its timing and bank state
        # live in the closure that times every access (_dram_for), its
        # latency histogram in `_dh_counts` and `_dh_stats` ([n, sum, min,
        # max]), zeroed in place per region.  Edge tables are identical
        # floats to the oracle's, taken from freshly built instances.
        self._mc = [0] * _MC_SLOTS
        self._sh_edges = list(sim.stall_histogram._edges)
        dh_edges = list(sim.hierarchy.dram.latency_histogram._edges)
        self._dh_counts = [0] * (len(dh_edges) + 1)
        self._dh_stats: List[Any] = [0, 0.0, _INF, -_INF]
        self._dram_access = self._dram_for(config.dram, dh_edges)
        # Energy: per-state powers and the circuit clock, hoisted.
        powers = sim.power_model.state_power_table()
        self._p_active = powers[PowerState.ACTIVE]
        self._p_stall = powers[PowerState.STALL]
        self._p_drain = powers[PowerState.DRAIN]
        self._p_sleep = powers[PowerState.SLEEP]
        self._p_sret = powers[PowerState.SLEEP_RETENTION]
        self._p_wake = powers[PowerState.WAKE]
        self._cfreq = sim.circuit.frequency_hz
        # Controller constants for the inline stall resolution.
        analyzer = sim.controller.analyzer
        self._drain = analyzer.drain_cycles
        self._wake_full = analyzer.wake_cycles_for("full")
        self._wake_ret = analyzer.wake_cycles_for("retention")
        self._event_energy_fn = sim.power_model.gating_event_energy_j
        # gating_event_energy_j is a pure function of (sleep cycles, mode);
        # memoizing per int sleep length reproduces its floats exactly.
        self._ee_full: Dict[int, float] = {}
        self._ee_ret: Dict[int, float] = {}

    # ---- public API ------------------------------------------------------------

    def warm_up(self, trace: ColumnarTrace) -> None:
        """Replay a warmup region, then reset measurements (oracle-equal)."""
        if not self.used_fast_path:
            self.sim.warm_up(trace.ops())
            return
        if self.sim._finished:
            raise SimulationError("cannot warm up after the measured run")
        self._replay(trace)
        self.sim.reset_measurements()

    def run(self, trace: ColumnarTrace) -> SimulationResult:
        """Replay the measured region to completion; returns the result."""
        if not self.used_fast_path:
            return self.sim.run(trace.ops())
        if self.sim._finished:
            raise SimulationError("a Simulator instance runs exactly one trace")
        self._replay(trace)
        self.sim._finished = True
        return self.sim.result()

    # ---- the batched replay loop -----------------------------------------------

    def _replay(self, trace: ColumnarTrace) -> None:
        """Advance the whole region, then flush measurements into the sim.

        One iteration per *stepped* access; the busy run before each
        access (pre-folded per issue width by the columnar trace) advances
        the clock and the pending-ACTIVE batch in O(1), and so does a jump
        over a run of L1 hits.
        """
        sim = self.sim
        mc = self._mc
        mc[:] = [0] * _MC_SLOTS

        # Hot architectural state -> locals.
        cyc = sim.core._cycle
        last_off = sim.core._last_offchip_end
        l1m = self._l1m
        l1m_get = l1m.get
        l1mi = self._l1mi
        l1m_min = self._l1m_min
        l1m_last = self._l1m_last
        l1_off = self._l1_off
        l1_lat = self._l1_lat
        l1_cap = self._l1_cap
        l2_sets = self._l2_sets
        l2m = self._l2m
        l2m_get = l2m.get
        l2mi = self._l2mi
        l2m_min = self._l2m_min
        l2_off = self._l2_off
        l2_mask = self._l2_mask
        l2_idx_bits = self._l2_idx_bits
        l2_ways = self._l2_ways
        l2_lat = self._l2_lat
        l2_cap = self._l2_cap
        freq = self._freq
        ceil_ = math.ceil
        ceil_eps = CYCLE_CEIL_EPSILON
        wb_l2 = self._wb_l2
        dram_access = self._dram_access
        # The stride prefetcher (inline MemoryHierarchy._run_prefetcher):
        # one falsy test per L2 access when it is off.
        prefetch = (self._prefetch if sim.hierarchy.prefetcher is not None
                    else None)
        mlp_on = self._mlp_overlap > 0.0
        mlp_factor = self._mlp_factor

        # Measurement accumulators (zero per region).
        pend = 0
        n_off = 0
        off_cyc = 0
        n_on = 0
        on_cyc = 0
        # Hot memory counters (merged into `mc` at flush; the rare-path
        # writeback, prefetch and DRAM methods count into `mc` directly).
        n_l1_merge = 0
        h_l1_stall = 0
        n_l2_acc = 0
        n_l2_hit = 0
        n_l2_miss = 0
        n_l2_merge = 0
        n_l2_wb = 0
        h_l2_stall = 0
        h_wb = 0
        active_c = 0
        e_active = 0.0
        stall_c = 0
        e_stall = 0.0
        drain_c = 0
        e_drain = 0.0
        sleep_c = 0
        e_sleep = 0.0
        sret_c = 0
        e_sret = 0.0
        wake_c = 0
        e_wake = 0.0
        ev_energy = 0.0
        ev_count = 0
        # Controller counters.
        cc_ungated = 0
        cc_aborted = 0
        cc_gated = 0
        cc_gated_full = 0
        cc_gated_ret = 0
        cc_sleep_sum = 0
        cc_penalty_sum = 0
        cc_idle_sum = 0
        # Off-chip stall-length histogram (simulator-level).
        sh_edges = self._sh_edges
        sh_counts = [0] * (len(sh_edges) + 1)
        sh_n = 0
        sh_sum = 0.0
        sh_min = _INF
        sh_max = -_INF

        p_active = self._p_active
        p_stall = self._p_stall
        p_drain = self._p_drain
        p_sleep = self._p_sleep
        p_sret = self._p_sret
        p_wake = self._p_wake
        cfreq = self._cfreq
        drain = self._drain
        wake_full = self._wake_full
        wake_ret = self._wake_ret
        event_energy_fn = self._event_energy_fn
        ee_full = self._ee_full
        ee_ret = self._ee_ret

        mode_never = self._stall_mode == "never"
        mode_mapg = self._stall_mode == "mapg"
        controller = sim.controller
        policy = controller.policy
        # The controller's prediction-error streams, bound per region:
        # reset_measurements() replaces them at the warmup boundary.
        error_observe = controller.prediction_error.observe
        relative_error_observe = controller.prediction_relative_error.observe
        if mode_mapg:
            # MAPG's rules, called on the real policy and predictor: the
            # table lookup, the gate plan, the entry and fallback-register
            # training, and (adaptive only) the AIMD wake bias.
            predictor = policy.predictor
            lookup = predictor.lookup
            table_alpha = predictor._alpha
            table_tol = predictor._tolerance
            plan_gate = policy.plan_gate
            observe_fallback = policy.observe_fallback
            adapt = (policy.adapt if isinstance(policy, AdaptiveMapgPolicy)
                     else None)
        elif not mode_never:
            decide = policy.decide
            observe = policy.observe
            # Building a WakeupPlan per gate is skipped where feedback()
            # is the base class's no-op.
            feedback = (policy.feedback if type(policy).feedback
                        is not GatingPolicy.feedback else None)

        n_mem = trace.num_memory_ops
        busy = trace.busy_cycles_for(self._issue_width)
        prefix = trace.busy_prefix_for(self._issue_width)
        blocks = trace.block_keys_for(l1_off, self._l1_mask)[0]
        addresses = trace.addresses
        pcs = trace.pcs
        dependent_flags = trace.dependent_flags
        l1 = trace.l1_pass(l1_off, self._l1_mask, self._l1_ways,
                           self._l1_wb, self._l1_state)
        self._l1_state = l1
        misses = l1.misses
        victims = l1.victims
        # Windowed core (miss_window > 1): the outstanding misses are the
        # WindowedCore's own deque, retired by its own method, so they
        # cross the warmup boundary as they are.  A blocking core pays one
        # falsy `windowed` test per stepped access; its merge and off-chip
        # paths reuse tests they already make.
        windowed = self._window > 1
        if windowed:
            outstanding = sim.core._outstanding
            retire = sim.core.retire_completed
            window = self._window
            # A merge stalling past the L2 latency is a dependent use of
            # an in-flight off-chip miss: gateable, unlike on a blocking
            # core, where the bound below is never reached.
            dep_use_min = l2_lat
        else:
            dep_use_min = _NEVER
        offchip_hook = windowed or mlp_on
        # The window-full stall's new miss, registered at the next access.
        pending = None
        n_overlapped = 0
        n_dependence = 0
        # Age of the blocking access at stall start (always 0 on a
        # blocking core).
        elapsed = 0

        i = -1
        # misses[m] is the next access that misses the L1 tags (n_mem once
        # none is left).
        m = 0
        next_miss = misses[0]
        # Set by a dependence stall: access i issues after it, unadvanced.
        held = False
        while True:
            if held:
                held = False
            else:
                i += 1
                if i < next_miss and l1m_last <= cyc + busy[i] + 1:
                    # Every L1 fill completes by access i's issue, so
                    # accesses i..next_miss-1 are pipelined L1 hits:
                    # advance over them in one step (the next stepped
                    # access expires the MSHR).  On a windowed core their
                    # pre-issue work reduces to registering the pending
                    # miss: every outstanding miss completes before its
                    # fill (no dependence stall), and the next stepped
                    # access, or the region's end, retires them.
                    delta = prefix[next_miss] - prefix[i]
                    pend += delta
                    cyc += delta
                    i = next_miss
                    if pending is not None:
                        outstanding.append(pending)
                        pending = None
                if i == n_mem:
                    break
                # The access issues after the busy run plus one cycle.
                delta = busy[i] + 1
                pend += delta
                cyc += delta
                if windowed:
                    # ---- WindowedCore.segments before the access ----
                    if pending is not None:
                        outstanding.append(pending)
                        pending = None
                    if outstanding and outstanding[0][0] <= cyc:
                        retire(cyc)
                    if dependent_flags[i] and outstanding:
                        # Pointer-chase dependence: the producer (the
                        # youngest miss) is still in flight; stall for its
                        # residual.
                        completion, issued, pc, bank, kind = outstanding[-1]
                        stall = completion - cyc
                        if stall < 1:
                            stall = 1
                        elapsed = cyc - issued
                        if elapsed < 0:
                            elapsed = 0
                        n_dependence += 1
                        off = True
                        held = True
            if not held:
                # ---- hierarchy access (inline L1 level: the tag outcome
                # comes from the L1 pass, the MSHR is replayed here) ----
                if l1m_min <= cyc:
                    if len(l1m) == 1:
                        # The tracked minimum IS the sole entry: expired.
                        l1m.clear()
                        l1mi.clear()
                        l1m_min = _INF
                    else:
                        for k in [k for k, f in l1m.items() if f <= cyc]:
                            del l1m[k]
                            del l1mi[k]
                        l1m_min = min(l1m.values()) if l1m else _INF
                block = blocks[i]
                fill = l1m_get(block)
                tag_miss = i == next_miss
                if tag_miss:
                    m += 1
                    next_miss = misses[m]
                if fill is None:
                    if not tag_miss:
                        continue  # pipelined L1 hit: no visible stall
                    victim = victims[m - 1]
                    # L1 MSHR structural hazard (already expired at cyc).
                    if len(l1m) >= l1_cap:
                        h_l1_stall += 1
                        wait1 = int(l1m_min) - cyc
                        issue = cyc + wait1
                    else:
                        wait1 = 0
                        issue = cyc

                    # ---- L2 (inline MemoryHierarchy._access_l2) ----
                    addr = addresses[i]
                    pc = pcs[i]
                    l2_block = addr >> l2_off
                    if l2m_min <= issue:
                        if len(l2m) == 1:
                            l2m.clear()
                            l2mi.clear()
                            l2m_min = _INF
                        else:
                            for k in [k for k, f in l2m.items()
                                      if f <= issue]:
                                del l2m[k]
                                del l2mi[k]
                            l2m_min = min(l2m.values()) if l2m else _INF
                    if prefetch:
                        l2m_min = prefetch(pc, addr, issue, l2m_min)
                    fill2 = l2m_get(l2_block)
                    l2_idx = l2_block & l2_mask
                    l2_tag = l2_block >> l2_idx_bits
                    l2set = l2_sets[l2_idx]
                    n_l2_acc += 1
                    dirty2 = l2set.pop(l2_tag, _MISSING)
                    if fill2 is not None:
                        # L2 MSHR merge: residual fill latency; the tag
                        # access still runs for its side effects, victim
                        # writeback address discarded (oracle behaviour).
                        n_l2_merge += 1
                        if dirty2 is not _MISSING:
                            n_l2_hit += 1
                            l2set[l2_tag] = dirty2
                        else:
                            n_l2_miss += 1
                            if len(l2set) >= l2_ways:
                                if l2set.pop(next(iter(l2set))):
                                    n_l2_wb += 1
                            l2set[l2_tag] = False
                        below = l2_lat + (fill2 - issue)
                        # Its stall always exceeds the L2 latency: a
                        # dependent use on a windowed core.
                        off = windowed
                    elif dirty2 is not _MISSING:
                        # L2 hit (demand reads never dirty the line).
                        n_l2_hit += 1
                        l2set[l2_tag] = dirty2
                        below = l2_lat
                        off = False
                    else:
                        # ---- L2 miss -> DRAM demand read ----
                        n_l2_miss += 1
                        wb2 = None
                        if len(l2set) >= l2_ways:
                            vtag2 = next(iter(l2set))
                            if l2set.pop(vtag2):
                                n_l2_wb += 1
                                wb2 = (((vtag2 << l2_idx_bits) | l2_idx)
                                       << l2_off)
                        l2set[l2_tag] = False
                        if len(l2m) >= l2_cap:
                            h_l2_stall += 1
                            wait2 = int(l2m_min) - issue
                            issue2 = issue + wait2
                        else:
                            wait2 = 0
                            issue2 = issue
                        dlat, bank, kind = dram_access(addr, issue2, False)
                        # seconds_to_cycles_ceil(dlat * NS, freq), inlined.
                        below = (wait2 + l2_lat
                                 + int(ceil_(dlat * NS * freq - ceil_eps)))
                        # Allocate the L2 miss (oracle expires at issue2
                        # first).
                        if l2m_min <= issue2:
                            if len(l2m) == 1:
                                l2m.clear()
                                l2mi.clear()
                                l2m_min = _INF
                            else:
                                for k in [k for k, f in l2m.items()
                                          if f <= issue2]:
                                    del l2m[k]
                                    del l2mi[k]
                                l2m_min = min(l2m.values()) if l2m else _INF
                        fillc2 = issue + below
                        l2m[l2_block] = fillc2
                        l2mi[l2_block] = issue2
                        if fillc2 < l2m_min:
                            l2m_min = fillc2
                        if wb2 is not None:
                            h_wb += 1
                            dram_access(wb2, issue2, True)
                        off = True

                    total = wait1 + l1_lat + below
                    # Allocate the L1 miss (oracle expires at `issue` first).
                    if l1m_min <= issue:
                        if len(l1m) == 1:
                            l1m.clear()
                            l1mi.clear()
                            l1m_min = _INF
                        else:
                            for k in [k for k, f in l1m.items()
                                      if f <= issue]:
                                del l1m[k]
                                del l1mi[k]
                            l1m_min = min(l1m.values()) if l1m else _INF
                    fillc = cyc + total
                    l1m[block] = fillc
                    l1mi[block] = issue
                    if fillc < l1m_min:
                        l1m_min = fillc
                    if fillc > l1m_last:
                        l1m_last = fillc
                    if victim >= 0:
                        wb_l2(victim, issue)
                    stall = total - l1_lat
                    if stall <= 0:
                        continue
                else:
                    # L1 MSHR merge: residual latency (a tag miss's dirty
                    # victim is counted by the L1 pass, not written back).
                    n_l1_merge += 1
                    stall = fill - cyc  # >= 1: post-expiry fills are future
                    off = stall > dep_use_min

            # ---- stall handling ----
            # One BusySegment per stall-free run, as the oracle yields
            # (pend >= 1 here: the access cycle itself is pending).
            if not off:
                active_c += pend
                e_active += p_active * (pend / cfreq)
                pend = 0
                n_on += 1
                on_cyc += stall
                stall_c += stall
                e_stall += p_stall * (stall / cfreq)
                cyc += stall
                continue
            if offchip_hook:
                if not windowed:
                    # Blocking core with MLP overlap.
                    gap = cyc - last_off
                    if gap <= MLP_WINDOW_CYCLES:
                        reduced = int(round(stall * mlp_factor))
                        stall = reduced if reduced > 1 else 1
                elif held:
                    pass  # the dependence stall, set up before the access
                elif fill is not None or fill2 is not None:
                    # Dependent use of the merged in-flight miss.
                    pc = pcs[i]
                    elapsed = cyc - (l1mi[block] if fill is not None
                                     else l2mi[l2_block])
                    if elapsed < 0:
                        elapsed = 0
                    bank = -1
                    kind = "merged"
                else:
                    # Off-chip miss: the core runs on while the window
                    # has room (retiring first, as after a dependence
                    # stall); when full it stalls on the oldest miss.
                    if outstanding and outstanding[0][0] <= cyc:
                        retire(cyc)
                    if len(outstanding) < window:
                        outstanding.append((cyc + stall, cyc, pc, bank, kind))
                        n_overlapped += 1
                        continue
                    pending = (cyc + stall, cyc, pc, bank, kind)
                    completion, issued, pc, bank, kind = outstanding.popleft()
                    stall = completion - cyc
                    if stall < 1:
                        stall = 1
                    elapsed = cyc - issued
                    if elapsed < 0:
                        elapsed = 0
            active_c += pend
            e_active += p_active * (pend / cfreq)
            pend = 0
            n_off += 1
            off_cyc += stall

            # Off-chip: simulator-level stall histogram, then controller.
            hidx = bisect_right(sh_edges, stall)
            sh_counts[hidx] += 1
            sh_n += 1
            sh_sum += stall
            if stall < sh_min:
                sh_min = stall
            if stall > sh_max:
                sh_max = stall

            # Decision: gate mode (None = stay awake), planned wake offset
            # (None = data-return trigger) and the estimate the controller
            # scores.  MAPG is asked through its rule methods; every other
            # policy is consulted directly, exactly as the controller
            # consults it.
            if mode_mapg:
                entry, latency, confidence = lookup(pc, bank, kind)
                gate_mode, planned, est = plan_gate(latency, confidence, kind,
                                                    elapsed)
            elif mode_never:
                gate_mode = None
                est = 0
            else:
                decision = decide(pc, bank, stall, kind, elapsed)
                gate_mode = decision.mode if decision.gate else None
                planned = decision.planned_wake_offset
                est = decision.predicted_cycles
            # controller._record_prediction's scoring, into the real streams.
            if est > 0:
                err = est - stall if est > stall else stall - est
                error_observe(err)
                relative_error_observe(err / (stall if stall > 1 else 1))
            # --- outcome (the controller's _gated_outcome, token_delay 0) ---
            penalty = 0
            gated = False
            if gate_mode is None:
                cc_ungated += 1
                stall_c += stall
                e_stall += p_stall * (stall / cfreq)
            else:
                if gate_mode == "full":
                    wake_m = wake_full
                elif gate_mode == "retention":
                    wake_m = wake_ret
                else:
                    # Only a foreign policy gets here; the analyzer raises
                    # the controller's ConfigError for the unknown mode.
                    wake_m = sim.controller.analyzer.wake_cycles_for(
                        gate_mode)
                timeline = wakeup_timeline(stall, drain, wake_m, planned)
                drained, sleep, wake_m, idle, penalty, __ = timeline
                if wake_m == 0 and sleep == 0:
                    # Abort: data returned during drain.  With a zero
                    # wake and a drain-end wake timer this branch would
                    # mis-tile a longer stall; the controller raises.
                    if drained != stall:
                        raise SimulationError(
                            f"outcome intervals tile {drained} cycles, "
                            f"expected stall {stall} + penalty 0")
                    cc_aborted += 1
                    drain_c += drained
                    e_drain += p_drain * (drained / cfreq)
                else:
                    gated = True
                    cc_gated += 1
                    if gate_mode == "full":
                        cc_gated_full += 1
                        ee = ee_full.get(sleep)
                        if ee is None:
                            ee = event_energy_fn(sleep, mode="full")
                            ee_full[sleep] = ee
                    else:
                        cc_gated_ret += 1
                        ee = ee_ret.get(sleep)
                        if ee is None:
                            ee = event_energy_fn(sleep, mode="retention")
                            ee_ret[sleep] = ee
                    cc_sleep_sum += sleep
                    cc_penalty_sum += penalty
                    if idle:
                        cc_idle_sum += idle
                    if drained:
                        drain_c += drained
                        e_drain += p_drain * (drained / cfreq)
                    if sleep:
                        if gate_mode == "retention":
                            sret_c += sleep
                            e_sret += p_sret * (sleep / cfreq)
                        else:
                            sleep_c += sleep
                            e_sleep += p_sleep * (sleep / cfreq)
                    if wake_m:
                        wake_c += wake_m
                        e_wake += p_wake * (wake_m / cfreq)
                    if idle:
                        stall_c += idle
                        e_stall += p_stall * (idle / cfreq)
                    if ee > 0.0:
                        ev_energy += ee
                        ev_count += 1
            # Learning, in the controller's order: observe the blocking
            # access's total latency, then feedback on a completed gate.
            if mode_mapg:
                entry.observe(stall + elapsed, table_alpha, table_tol)
                observe_fallback(kind, stall + elapsed)
                if gated and adapt is not None:
                    adapt(penalty, idle)
            elif not mode_never:
                observe(pc, bank, stall + elapsed, kind)
                if gated and feedback is not None:
                    feedback(WakeupPlan(*timeline))

            # Penalty feeds the core clock (add_delay) before the stall
            # advance in the oracle; the sum is order-independent.
            cyc += stall + penalty
            last_off = cyc

        # Trailing busy run after the last memory access.
        delta = busy[n_mem]
        if delta:
            pend += delta
            cyc += delta
        if pend:
            active_c += pend
            e_active += p_active * (pend / cfreq)
        if windowed and trace.num_ops:
            # The oracle's last retirement: at the final cycle, before a
            # window-full stall's new miss registers, and again after it
            # when trailing compute blocks (each >= 1 busy cycle) follow.
            if outstanding and outstanding[0][0] <= cyc:
                retire(cyc)
            if pending is not None:
                outstanding.append(pending)
                if delta:
                    retire(cyc)

        # ---- flush measurements into the wrapped simulator ----
        self._l1m_min = l1m_min
        self._l1m_last = l1m_last
        self._l2m_min = l2m_min
        sim._cycle = cyc
        sim.core._cycle = cyc
        if not windowed:
            # WindowedCore models MLP by its window, not by this marker.
            sim.core._last_offchip_end = last_off

        # Merge loop-local counters into the shared slots (the rare-path
        # writeback, prefetch and DRAM methods already counted there);
        # derivable totals are reconstructed instead of counted per
        # iteration: every access is one hierarchy access and one L1 tag
        # access, writes are the trace's write flags, and the L1 misses
        # and dirty victims are the L1 pass's.
        n_l1_miss = len(misses) - 1
        mc[_H_ACC] += n_mem
        mc[_H_L1_MERGE] += n_l1_merge
        mc[_H_L1_STALL] += h_l1_stall
        mc[_H_L2_MERGE] += n_l2_merge
        mc[_H_L2_STALL] += h_l2_stall
        mc[_H_WB] += h_wb
        mc[_L1_ACC] += n_mem
        mc[_L1_WR] += trace.write_flags.count(1)
        mc[_L1_HIT] += n_mem - n_l1_miss
        mc[_L1_MISS] += n_l1_miss
        mc[_L1_WB] += l1.writebacks
        mc[_L2_ACC] += n_l2_acc
        mc[_L2_HIT] += n_l2_hit
        mc[_L2_MISS] += n_l2_miss
        mc[_L2_WB] += n_l2_wb

        ledger = sim.ledger
        ledger.add_batch(PowerState.ACTIVE, active_c, e_active)
        ledger.add_batch(PowerState.STALL, stall_c, e_stall)
        ledger.add_batch(PowerState.DRAIN, drain_c, e_drain)
        ledger.add_batch(PowerState.SLEEP, sleep_c, e_sleep)
        ledger.add_batch(PowerState.SLEEP_RETENTION, sret_c, e_sret)
        ledger.add_batch(PowerState.WAKE, wake_c, e_wake)
        ledger.add_events_batch(ev_energy, ev_count)

        core_counters = sim.core.counters
        instr = trace.total_block_instructions + trace.num_memory_ops
        if instr:
            core_counters.add("instructions", instr)
        if trace.num_memory_ops:
            core_counters.add("memory_ops", trace.num_memory_ops)
        if n_off:
            core_counters.add("offchip_stalls", n_off)
            core_counters.add("offchip_stall_cycles", off_cyc)
        if n_on:
            core_counters.add("onchip_stalls", n_on)
            core_counters.add("onchip_stall_cycles", on_cyc)
        self._flush_counters(core_counters, (
            ("overlapped_misses", n_overlapped),
            ("dependence_stalls", n_dependence)))

        hierarchy = sim.hierarchy
        self._flush_counters(hierarchy.counters, (
            ("accesses", mc[_H_ACC]),
            ("l1_mshr_merges", mc[_H_L1_MERGE]),
            ("l1_mshr_stalls", mc[_H_L1_STALL]),
            ("l2_mshr_merges", mc[_H_L2_MERGE]),
            ("l2_mshr_stalls", mc[_H_L2_STALL]),
            ("writebacks", mc[_H_WB]),
            ("prefetch_fills", mc[_PF_FILL]),
            ("prefetch_redundant", mc[_PF_REDUNDANT]),
            ("prefetch_dropped", mc[_PF_DROPPED]),
            ("useful_prefetches", mc[_PF_USEFUL]),
            ("late_prefetches", mc[_PF_LATE])))
        self._flush_counters(hierarchy.l1.counters, (
            ("accesses", mc[_L1_ACC]), ("writes", mc[_L1_WR]),
            ("hits", mc[_L1_HIT]), ("misses", mc[_L1_MISS]),
            ("writebacks", mc[_L1_WB])))
        self._flush_counters(hierarchy.l2.counters, (
            ("accesses", mc[_L2_ACC]), ("writes", mc[_L2_WR]),
            ("hits", mc[_L2_HIT]), ("misses", mc[_L2_MISS]),
            ("writebacks", mc[_L2_WB])))
        self._flush_counters(hierarchy.dram.counters, (
            ("accesses", mc[_D_ACC]), (ROW_HIT, mc[_D_ROW_HIT]),
            (ROW_CLOSED, mc[_D_ROW_CLOSED]),
            (ROW_CONFLICT, mc[_D_ROW_CONFLICT]),
            ("writes", mc[_D_WR]), ("buffered_writes", mc[_D_BUF_WR]),
            ("write_buffer_drains", mc[_D_DRAIN]),
            ("refresh_collisions", mc[_D_REFRESH])))

        # Histograms: transplant into the (fresh-per-region) real objects.
        sh = sim.stall_histogram
        sh._counts = sh_counts
        sh._n = sh_n
        sh._sum = sh_sum
        sh._min = sh_min
        sh._max = sh_max
        dh = hierarchy.dram.latency_histogram
        dh_counts = self._dh_counts
        dh_stats = self._dh_stats
        dh._counts = dh_counts[:]
        dh._n, dh._sum, dh._min, dh._max = dh_stats
        dh_counts[:] = [0] * len(dh_counts)
        dh_stats[:] = [0, 0.0, _INF, -_INF]

        self._flush_counters(controller.counters, (
            ("offchip_stalls", n_off), ("offchip_stall_cycles", off_cyc),
            ("ungated", cc_ungated), ("aborted", cc_aborted)))
        if cc_gated:
            controller.counters.add("gated", cc_gated)
            # sleep/penalty keys exist whenever a gate completed, even at 0.
            controller.counters.add("sleep_cycles", cc_sleep_sum)
            controller.counters.add("penalty_cycles", cc_penalty_sum)
        self._flush_counters(controller.counters, (
            ("gated_full", cc_gated_full), ("gated_retention", cc_gated_ret),
            ("early_wake_idle_cycles", cc_idle_sum)))

    @staticmethod
    def _flush_counters(counters: Any,
                        pairs: Tuple[Tuple[str, int], ...]) -> None:
        """Add nonzero counts (a key exists iff the oracle ever added it)."""
        add = counters.add
        for name, count in pairs:
            if count:
                add(name, count)

    # ---- descents off the inlined L1/L2 path (victim writebacks,
    # prefetches and every DRAM access) ----------------------------------------

    def _l2_tag_access(self, addr: int,
                       is_write: bool) -> Tuple[bool, Optional[int]]:
        """Inlined ``Cache.access`` on the L2 tag state."""
        mc = self._mc
        block = addr >> self._l2_off
        idx = block & self._l2_mask
        tag = block >> self._l2_idx_bits
        lset = self._l2_sets[idx]
        mc[_L2_ACC] += 1
        if is_write:
            mc[_L2_WR] += 1
        dirty = lset.pop(tag, _MISSING)
        if dirty is not _MISSING:
            mc[_L2_HIT] += 1
            lset[tag] = True if (is_write and self._l2_wb) else bool(dirty)
            return True, None
        mc[_L2_MISS] += 1
        wb = None
        if len(lset) >= self._l2_ways:
            vtag = next(iter(lset))
            if lset.pop(vtag):
                mc[_L2_WB] += 1
                wb = ((vtag << self._l2_idx_bits) | idx) << self._l2_off
        lset[tag] = bool(is_write and self._l2_wb)
        return False, wb

    def _wb_l2(self, addr: int, issue: int) -> None:
        """Inlined ``MemoryHierarchy._writeback(..., to_dram=False)``."""
        self._mc[_H_WB] += 1
        hit, wb = self._l2_tag_access(addr, True)
        if not hit and wb is not None:
            self._mc[_H_WB] += 1
            self._dram_access(wb, issue, True)

    def _prefetch(self, pc: int, addr: int, issue: int,
                  l2m_min: float) -> float:
        """Inlined ``MemoryHierarchy._run_prefetcher`` at cycle ``issue``.

        Trains the hierarchy's own prefetcher and fills each target as the
        oracle does: redundant if resident or in flight, dropped if the L2
        MSHR is full, else a DRAM read, an MSHR entry and an L2 fill whose
        dirty victim is written to DRAM.  Then scores the demand's coming
        L2 lookup against the hierarchy's own prefetched-line set (a merge
        is a late useful prefetch, a hit a useful one), so the loop pays
        no second test.  Returns the L2 MSHR's new tracked minimum fill.
        """
        hierarchy = self.sim.hierarchy
        mc = self._mc
        l2m = self._l2m
        l2_sets = self._l2_sets
        off = self._l2_off
        mask = self._l2_mask
        idx_bits = self._l2_idx_bits
        lines = hierarchy._prefetched_lines
        for target in hierarchy.prefetcher.train(pc, addr):
            block = target >> off
            if block in l2m or (block >> idx_bits) in l2_sets[block & mask]:
                mc[_PF_REDUNDANT] += 1
                continue
            if len(l2m) >= self._l2_cap:
                mc[_PF_DROPPED] += 1
                continue
            line = block << off
            fill = issue + seconds_to_cycles_ceil(
                self._dram_access(line, issue, False)[0] * NS, self._freq)
            l2m[block] = fill
            self._l2mi[block] = issue
            if fill < l2m_min:
                l2m_min = fill
            __, wb = self._l2_tag_access(line, False)
            if wb is not None:
                self._dram_access(wb, issue, True)
            mc[_PF_FILL] += 1
            if len(lines) >= hierarchy._PREFETCH_TRACK_LIMIT:
                lines.pop(next(iter(lines)))
            lines[line] = None
        if lines:
            block = addr >> off
            merge = block in l2m
            if (merge or (block >> idx_bits) in l2_sets[block & mask]) and \
                    lines.pop(block << off, _MISSING) is None:
                mc[_PF_USEFUL] += 1
                if merge:
                    mc[_PF_LATE] += 1
        return l2m_min

    def _dram_for(self, dram: DramConfig, edges: List[float]
                  ) -> Callable[[int, int, bool], Tuple[float, int, str]]:
        """Inlined ``Dram.access`` for one DRAM, as a closure over its state.

        The closure times demand reads, writebacks and prefetch reads
        issued at cycle ``at`` and returns the latency in ns (a buffered
        write's, which the oracle discards, as 0.0), the bank and the
        row-buffer outcome.  Counters and latency stats accumulate in the
        kernel's ``_mc`` slots and ``_dh_counts`` / ``_dh_stats``, in
        oracle (chronological) order.  The timing constants and the bank
        state are closure cells, which read as cheaply as the replay
        loop's locals.
        """
        freq = self._freq
        mc = self._mc
        counts = self._dh_counts
        stats = self._dh_stats
        rowbits = dram.row_bytes.bit_length() - 1
        nbanks = dram.total_banks
        overhead_ns = dram.controller_overhead_ns
        refresh_int_ns = dram.refresh_interval_ns
        refresh_lat_ns = dram.refresh_latency_ns
        tcas_ns = dram.t_cas_ns
        trcd_ns = dram.t_rcd_ns
        trp_ns = dram.t_rp_ns
        tras_ns = dram.t_ras_ns
        qserv_ns = dram.queue_service_ns
        bus_ns = dram.bus_transfer_ns
        row_open = dram.row_policy == "open"
        buffer_slots = dram.write_buffer_per_bank
        wserv_ns = dram.t_cas_ns + dram.queue_service_ns
        wcap_ns = dram.write_buffer_per_bank * wserv_ns
        open_rows: List[int] = [-1] * nbanks
        busy: List[float] = [0.0] * nbanks
        act: List[float] = [-1e18] * nbanks
        debt: List[float] = [0.0] * nbanks

        def access(addr: int, at: int,
                   is_write: bool) -> Tuple[float, int, str]:
            now = cycles_to_ns(at, freq)
            row_global = addr >> rowbits
            bank = row_global % nbanks
            arrival = now + overhead_ns
            if refresh_lat_ns > 0.0:
                phase = arrival % refresh_int_ns
                if phase < refresh_lat_ns:
                    mc[_D_REFRESH] += 1
                    arrival += refresh_lat_ns - phase
            if debt[bank] > 0.0:
                idle_gap = arrival - busy[bank]
                if idle_gap < 0.0:
                    idle_gap = 0.0
                drained = debt[bank] if debt[bank] < idle_gap else idle_gap
                debt[bank] -= drained
                busy[bank] += drained
            mc[_D_ACC] += 1
            if is_write:
                mc[_D_WR] += 1
                if buffer_slots > 0:
                    debt[bank] += wserv_ns
                    mc[_D_BUF_WR] += 1
                    if debt[bank] > wcap_ns:
                        start = arrival if arrival > busy[bank] else busy[bank]
                        busy[bank] = start + debt[bank]
                        debt[bank] = 0.0
                        mc[_D_DRAIN] += 1
                    return 0.0, bank, ""
            queue_wait = busy[bank] - arrival
            if queue_wait < 0.0:
                queue_wait = 0.0
            start = arrival + queue_wait
            row = row_global // nbanks
            open_row = open_rows[bank]
            if open_row == row:
                mc[_D_ROW_HIT] += 1
                kind = ROW_HIT
                array_lat = tcas_ns
            elif open_row == -1:
                mc[_D_ROW_CLOSED] += 1
                kind = ROW_CLOSED
                array_lat = trcd_ns + tcas_ns
                act[bank] = start
            else:
                mc[_D_ROW_CONFLICT] += 1
                kind = ROW_CONFLICT
                ras_wait = (act[bank] + tras_ns) - start
                if ras_wait < 0.0:
                    ras_wait = 0.0
                array_lat = ras_wait + trp_ns + trcd_ns + tcas_ns
                act[bank] = start + ras_wait + trp_ns
            done = start + array_lat + qserv_ns
            if row_open:
                open_rows[bank] = row
                busy[bank] = done
            else:
                open_rows[bank] = -1
                busy[bank] = done + trp_ns
            dlat = (done + bus_ns) - now
            counts[bisect_right(edges, dlat)] += 1
            stats[0] += 1
            stats[1] += dlat
            if dlat < stats[2]:
                stats[2] = dlat
            if dlat > stats[3]:
                stats[3] = dlat
            return dlat, bank, kind

        return access
