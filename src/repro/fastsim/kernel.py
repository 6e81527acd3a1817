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

The contract is **bit identity**, not approximation.  Every float the
oracle computes is reproduced with the same operands in the same order:

* interval energy accumulates as ``state_power * (cycles / f)`` per
  interval, in event order, into one accumulator per power state;
* DRAM bank timing runs the oracle's nanosecond arithmetic term by term,
  with cycle<->ns conversions through the same :mod:`repro.units`
  helpers the hierarchy calls;
* the MAPG policy/predictor updates (EWMA, confidence counters, fallback
  registers, the adaptive AIMD bias) mutate the *real* policy objects with
  inlined copies of their update rules;
* prediction error streams use the same Welford recurrence.

Architectural state (cache tags as insertion-ordered per-set dicts whose
order provably equals the oracle's LRU stacks, MSHR fill maps with the
oracle's eager expiry replayed at the same call points, DRAM bank state)
lives privately on the kernel and persists across the warmup/measure
boundary; *measurement* state accumulates in locals and is flushed into
the wrapped simulator's real objects at region end — counters through
``CounterSet.add``, ledger totals through
:meth:`~repro.core.energy.EnergyLedger.add_batch` (the batch entry point,
so ledger internals stay owned by ``repro/core/energy.py``), histograms
and running means by direct state transplant into the freshly-reset
objects.  ``Simulator.reset_measurements()`` and ``Simulator.result()``
then run unmodified, so the result path is shared with the oracle.

Fallback: configurations the kernel does not replicate (miss-window
cores, prefetchers, non-LRU replacement, shared DRAM, token arbiters,
timeline recording, attached span recorders) transparently run the
oracle on the reconstructed op stream; see :func:`fallback_reasons`.
Policies other than Never/Mapg/AdaptiveMapg (or non-table predictors)
decide through their own ``decide()`` per off-chip stall; the kernel then
resolves the stall with the same inlined wakeup algebra and bookkeeping
as the MAPG path, and calls the policy's real ``observe``/``feedback``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Any, Dict, List, Optional, Tuple

from repro.config import SystemConfig
from repro.core.adaptive import AdaptiveMapgPolicy
from repro.core.gating_constants import (
    AIMD_BIAS_CAP_CYCLES, AIMD_DECAY, AIMD_IDLE_TOLERANCE_CYCLES,
    AIMD_INCREASE_CYCLES, FALLBACK_DEV_BIAS, FALLBACK_DEV_FRACTION,
    GLOBAL_ALPHA, TABLE_BANK_MULT, TABLE_KIND_MASK, TABLE_KIND_MULT,
    TABLE_PC_SHIFT)
from repro.core.policies import GatingPolicy, MapgPolicy, NeverPolicy
from repro.core.token import TokenArbiter
from repro.core.wakeup import WakeupPlan
from repro.cpu.core import MLP_WINDOW_CYCLES
from repro.errors import SimulationError
from repro.fastsim.columnar import ColumnarTrace
from repro.memory.dram import (ROW_CLOSED, ROW_CONFLICT, ROW_HIT,
                               WRITE_BUFFERED, Dram)
from repro.obs.spans import NullRecorder
from repro.power.model import PowerState
from repro.power.temperature import NOMINAL_TEMPERATURE_C
from repro.predict.table import HistoryTablePredictor
from repro.sim.results import SimulationResult
from repro.sim.simulator import Simulator
from repro.units import CYCLE_CEIL_EPSILON, NS, cycles_to_ns

_INF = float("inf")

# Memory-counter slots (one flat list of ints, flushed to the named
# CounterSets at region end; a key is flushed only when its count is
# nonzero, matching the oracle's "present iff added at least once").
_H_ACC, _H_L1_MERGE, _H_L1_STALL, _H_L2_MERGE, _H_L2_STALL, _H_WB = range(6)
_L1_ACC, _L1_WR, _L1_HIT, _L1_MISS, _L1_WB = range(6, 11)
_L2_ACC, _L2_WR, _L2_HIT, _L2_MISS, _L2_WB = range(11, 16)
(_D_ACC, _D_ROW_HIT, _D_ROW_CLOSED, _D_ROW_CONFLICT, _D_WR, _D_BUF_WR,
 _D_DRAIN, _D_REFRESH) = range(16, 24)
_MC_SLOTS = 24

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
    reasons: List[str] = []
    if config.core.miss_window > 1:
        # WindowedCore's overlap accounting (and its counters) exists
        # only on the oracle path; the fast engine refuses it here.
        reasons.append("miss_window > 1 (WindowedCore)")
    if config.prefetcher.enabled:
        # The whole prefetcher subsystem sits outside the fast
        # envelope: its config knobs and counters never occur on a
        # fast-path run because this check falls back first.
        reasons.append("prefetcher enabled")
    if config.l1.replacement != "lru":
        reasons.append(f"l1 replacement {config.l1.replacement!r}")
    if config.l2.replacement != "lru":
        reasons.append(f"l2 replacement {config.l2.replacement!r}")
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
                 core_id: int = 0, seed: int = 0,
                 record_timeline: bool = False,
                 recorder: Optional[NullRecorder] = None) -> None:
        self.sim = Simulator(
            config, workload=workload, temperature_c=temperature_c,
            shared_dram=shared_dram, token_arbiter=token_arbiter,
            core_id=core_id, seed=seed, record_timeline=record_timeline,
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

        Subclasses (other than the two known ones) may override hooks the
        inline path does not call, so anything unrecognized takes the
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
        self._l1_lat = config.l1.hit_latency_cycles
        self._l2_lat = config.l2.hit_latency_cycles
        # L1/L2 tag state: per-set insertion-ordered dict tag -> dirty.
        # Insertion order equals the oracle's LRU stack: fills take invalid
        # ways in way order while `_touch` appends to the stack tail, so
        # stack order is insertion order; hits reinsert at the tail; the
        # victim (stack head) is the first key.
        self._l1_off = config.l1.line_bytes.bit_length() - 1
        self._l1_mask = config.l1.num_sets - 1
        self._l1_idx_bits = self._l1_mask.bit_length()
        self._l1_ways = config.l1.associativity
        self._l1_wb = config.l1.write_back
        self._l1_sets: List[Dict[int, bool]] = [
            {} for __ in range(config.l1.num_sets)]
        self._l2_off = config.l2.line_bytes.bit_length() - 1
        self._l2_mask = config.l2.num_sets - 1
        self._l2_idx_bits = self._l2_mask.bit_length()
        self._l2_ways = config.l2.associativity
        self._l2_wb = config.l2.write_back
        self._l2_sets: List[Dict[int, bool]] = [
            {} for __ in range(config.l2.num_sets)]
        # MSHRs: line -> fill cycle, plus a tracked minimum fill so the
        # oracle's eager expiry scan runs only when it could remove entries.
        self._l1_cap = config.l1.mshr_entries
        self._l2_cap = config.l2.mshr_entries
        self._l1m: Dict[int, int] = {}
        self._l1m_min: float = _INF
        self._l2m: Dict[int, int] = {}
        self._l2m_min: float = _INF
        # DRAM.
        dram_cfg = config.dram
        nbanks = dram_cfg.total_banks
        self._d_nbanks = nbanks
        self._d_rowbits = dram_cfg.row_bytes.bit_length() - 1
        self._d_overhead_ns = dram_cfg.controller_overhead_ns
        self._d_tcas_ns = dram_cfg.t_cas_ns
        self._d_trcd_ns = dram_cfg.t_rcd_ns
        self._d_trp_ns = dram_cfg.t_rp_ns
        self._d_tras_ns = dram_cfg.t_ras_ns
        self._d_qserv_ns = dram_cfg.queue_service_ns
        self._d_bus_ns = dram_cfg.bus_transfer_ns
        self._d_refresh_int_ns = dram_cfg.refresh_interval_ns
        self._d_refresh_lat_ns = dram_cfg.refresh_latency_ns
        self._d_row_open = dram_cfg.row_policy == "open"
        self._d_wbpb = dram_cfg.write_buffer_per_bank
        self._d_wserv_ns = dram_cfg.t_cas_ns + dram_cfg.queue_service_ns
        self._d_wcap_ns = dram_cfg.write_buffer_per_bank * self._d_wserv_ns
        self._d_open: List[int] = [-1] * nbanks
        self._d_busy: List[float] = [0.0] * nbanks
        self._d_act: List[float] = [-1e18] * nbanks
        self._d_debt: List[float] = [0.0] * nbanks
        # Histogram edge tables (identical floats to the oracle's, taken
        # from freshly built instances).
        self._sh_edges = list(
            sim.stall_histogram._edges)
        self._dh_edges = list(
            sim.hierarchy.dram.latency_histogram._edges)
        self._reset_dram_histogram()
        # Energy: per-state powers and the circuit clock, hoisted.
        powers = sim.power_model.state_power_table()
        self._p_active = powers[PowerState.ACTIVE]
        self._p_stall = powers[PowerState.STALL]
        self._p_drain = powers[PowerState.DRAIN]
        self._p_sleep = powers[PowerState.SLEEP]
        self._p_sret = powers[PowerState.SLEEP_RETENTION]
        self._p_wake = powers[PowerState.WAKE]
        self._cfreq = sim.circuit.frequency_hz
        # Controller / policy constants for the inline stall resolution.
        analyzer = sim.controller.analyzer
        gating = config.gating
        self._drain = analyzer.drain_cycles
        self._wake_full = analyzer.wake_cycles_for("full")
        self._wake_ret = analyzer.wake_cycles_for("retention")
        guard = gating.guard_margin_cycles
        self._th_full = (self._drain + self._wake_full
                         + analyzer.bet_cycles_for("full") + guard)
        self._th_ret = (self._drain + self._wake_ret
                        + analyzer.bet_cycles_for("retention") + guard)
        self._sleep_mode = gating.sleep_mode
        self._min_conf = gating.min_confidence
        self._early_wakeup = gating.early_wakeup
        self._fixed_margin = gating.early_margin_cycles
        self._event_energy_fn = sim.power_model.gating_event_energy_j
        # gating_event_energy_j is a pure function of (sleep cycles, mode);
        # memoizing per int sleep length reproduces its floats exactly.
        self._ee_full: Dict[int, float] = {}
        self._ee_ret: Dict[int, float] = {}
        policy = sim.controller.policy
        self._adaptive = isinstance(policy, AdaptiveMapgPolicy)
        if self._stall_mode == "mapg":
            assert isinstance(policy, MapgPolicy)
            predictor = policy.predictor
            assert isinstance(predictor, HistoryTablePredictor)
            self._table: List[Any] = predictor._table
            self._table_n = predictor._entries_count
            self._table_alpha = predictor._alpha
            self._table_tol = predictor._tolerance
            self._table_initial = predictor._initial
            self._conf_max = type(self._table[0]).CONFIDENCE_MAX
            self._fallback_regs: Dict[str, List[float]] = policy._fallback
            self._static_est = policy.static_estimate_cycles
            # kind -> (kind_bits * TABLE_KIND_MULT), the table hash's
            # kind term, pre-folded per known row-buffer outcome.
            self._kind_mult: Dict[str, int] = {
                kind: (sum(kind.encode()) & TABLE_KIND_MASK)
                * TABLE_KIND_MULT
                for kind in ("", ROW_HIT, ROW_CLOSED, ROW_CONFLICT,
                             WRITE_BUFFERED)}

    def _reset_dram_histogram(self) -> None:
        # Stats ride in one list ([n, sum, min, max]) so the replay loop's
        # local reference and the rare-path write method share them.
        self._dh_counts = [0] * (len(self._dh_edges) + 1)
        self._dh_stats: List[Any] = [0, 0.0, _INF, -_INF]

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

        One iteration per *memory access*; the busy run before each access
        (pre-folded per issue width by the columnar trace) advances the
        clock and the pending-ACTIVE batch in O(1).
        """
        sim = self.sim
        mc = [0] * _MC_SLOTS
        self._mc = mc

        # Hot architectural state -> locals.
        cyc = sim.core._cycle
        last_off = sim.core._last_offchip_end
        l1_sets = self._l1_sets
        l1m = self._l1m
        l1m_get = l1m.get
        l1m_min = self._l1m_min
        l1_off = self._l1_off
        l1_idx_bits = self._l1_idx_bits
        l1_ways = self._l1_ways
        l1_wb = self._l1_wb
        l1_lat = self._l1_lat
        l1_cap = self._l1_cap
        l2_sets = self._l2_sets
        l2m = self._l2m
        l2m_get = l2m.get
        l2m_min = self._l2m_min
        l2_off = self._l2_off
        l2_mask = self._l2_mask
        l2_idx_bits = self._l2_idx_bits
        l2_ways = self._l2_ways
        l2_lat = self._l2_lat
        l2_cap = self._l2_cap
        d_nbanks = self._d_nbanks
        d_rowbits = self._d_rowbits
        d_overhead_ns = self._d_overhead_ns
        d_tcas_ns = self._d_tcas_ns
        d_trcd_ns = self._d_trcd_ns
        d_trp_ns = self._d_trp_ns
        d_tras_ns = self._d_tras_ns
        d_qserv_ns = self._d_qserv_ns
        d_bus_ns = self._d_bus_ns
        d_refresh_int_ns = self._d_refresh_int_ns
        d_refresh_lat_ns = self._d_refresh_lat_ns
        d_refresh_on = d_refresh_lat_ns > 0.0
        d_row_open = self._d_row_open
        d_open = self._d_open
        d_busy = self._d_busy
        d_act = self._d_act
        d_debt = self._d_debt
        dh_edges = self._dh_edges
        dh_counts = self._dh_counts
        dh_stats = self._dh_stats
        freq = self._freq
        ceil_ = math.ceil
        ceil_eps = CYCLE_CEIL_EPSILON
        bisect = bisect_right
        c2ns = cycles_to_ns
        wb_l2 = self._wb_l2
        dram_write = self._dram_write
        mlp_on = self._mlp_overlap > 0.0
        mlp_factor = self._mlp_factor

        # Measurement accumulators (zero per region).
        pend = 0
        n_off = 0
        off_cyc = 0
        n_on = 0
        on_cyc = 0
        # Hot memory counters (merged into `mc` at flush; the rare-path
        # writeback methods count into `mc` directly).
        n_l1_miss = 0
        n_l1_merge = 0
        n_l1_wb = 0
        h_l1_stall = 0
        n_l2_acc = 0
        n_l2_hit = 0
        n_l2_miss = 0
        n_l2_merge = 0
        n_l2_wb = 0
        h_l2_stall = 0
        h_wb = 0
        n_d_acc = 0
        n_d_hit = 0
        n_d_closed = 0
        n_d_conflict = 0
        n_d_refresh = 0
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
        # Prediction-error Welford streams.
        pe_n = 0
        pe_mean = 0.0
        pe_m2 = 0.0
        pre_n = 0
        pre_mean = 0.0
        pre_m2 = 0.0
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
        policy = sim.controller.policy
        if mode_mapg:
            table = self._table
            table_n = self._table_n
            alpha = self._table_alpha
            tol = self._table_tol
            conf_max = self._conf_max
            initial = self._table_initial
            fb = self._fallback_regs
            static_est = self._static_est
            kind_mult = self._kind_mult
            min_conf = self._min_conf
            sleep_mode = self._sleep_mode
            th_full = self._th_full
            th_ret = self._th_ret
            early_wakeup = self._early_wakeup
            fixed_margin = self._fixed_margin
            adaptive = self._adaptive
            # Shared gating constants -> locals (one definition per value;
            # the oracle classes import the same names).
            pc_shift = TABLE_PC_SHIFT
            bank_mult = TABLE_BANK_MULT
            dev_frac = FALLBACK_DEV_FRACTION
            dev_bias = FALLBACK_DEV_BIAS
            g_alpha = GLOBAL_ALPHA
            aimd_inc = AIMD_INCREASE_CYCLES
            aimd_cap = float(AIMD_BIAS_CAP_CYCLES)
            aimd_decay = AIMD_DECAY
            aimd_idle = AIMD_IDLE_TOLERANCE_CYCLES
            # AIMD bias rides in a local; written back at flush.
            bias = policy._bias_cycles if adaptive else 0.0
        elif not mode_never:
            decide = policy.decide
            observe = policy.observe
            # Building a WakeupPlan per gate is skipped where feedback()
            # is the base class's no-op.
            feedback = (policy.feedback if type(policy).feedback
                        is not GatingPolicy.feedback else None)

        busy = trace.busy_cycles_for(self._issue_width)
        blocks, idxs, tags = trace.block_keys_for(l1_off, self._l1_mask)

        for addr, pc, iw, block, idx, tag, delta in zip(
                trace.addresses, trace.pcs, trace.write_flags,
                blocks, idxs, tags, busy):
            # The access issues after the busy run plus one cycle.
            delta += 1
            pend += delta
            cyc += delta

            # ---- hierarchy access (inline L1 level; the steady-state hit
            # path falls through with zero Python calls) ----
            if l1m_min <= cyc:
                if len(l1m) == 1:
                    # The tracked minimum IS the sole entry: expired.
                    l1m.clear()
                    l1m_min = _INF
                else:
                    for k in [k for k, f in l1m.items() if f <= cyc]:
                        del l1m[k]
                    l1m_min = min(l1m.values()) if l1m else _INF
            lset = l1_sets[idx]
            fill = l1m_get(block)
            if fill is None:
                dirty = lset.pop(tag, _MISSING)
                if dirty is not _MISSING:
                    # Pipelined L1 hit: no visible stall.
                    lset[tag] = True if iw and l1_wb else dirty
                    continue
                n_l1_miss += 1
                wb1 = None
                if len(lset) >= l1_ways:
                    vtag = next(iter(lset))
                    if lset.pop(vtag):
                        n_l1_wb += 1
                        wb1 = ((vtag << l1_idx_bits) | idx) << l1_off
                lset[tag] = True if iw and l1_wb else False
                # L1 MSHR structural hazard (already expired at cyc above).
                if len(l1m) >= l1_cap:
                    h_l1_stall += 1
                    wait1 = int(l1m_min) - cyc
                    issue = cyc + wait1
                else:
                    wait1 = 0
                    issue = cyc

                # ---- L2 (inline MemoryHierarchy._access_l2) ----
                l2_block = addr >> l2_off
                if l2m_min <= issue:
                    if len(l2m) == 1:
                        l2m.clear()
                        l2m_min = _INF
                    else:
                        for k in [k for k, f in l2m.items() if f <= issue]:
                            del l2m[k]
                        l2m_min = min(l2m.values()) if l2m else _INF
                fill2 = l2m_get(l2_block)
                l2_idx = l2_block & l2_mask
                l2_tag = l2_block >> l2_idx_bits
                l2set = l2_sets[l2_idx]
                n_l2_acc += 1
                dirty2 = l2set.pop(l2_tag, _MISSING)
                if fill2 is not None:
                    # L2 MSHR merge: residual fill latency; the tag access
                    # still runs for its side effects, victim writeback
                    # address discarded (oracle behaviour).
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
                    off = False
                elif dirty2 is not _MISSING:
                    # L2 hit (demand reads never dirty the line).
                    n_l2_hit += 1
                    l2set[l2_tag] = dirty2
                    below = l2_lat
                    off = False
                else:
                    # ---- L2 miss -> DRAM demand read (inline Dram.access,
                    # is_write=False) ----
                    n_l2_miss += 1
                    wb2 = None
                    if len(l2set) >= l2_ways:
                        vtag2 = next(iter(l2set))
                        if l2set.pop(vtag2):
                            n_l2_wb += 1
                            wb2 = ((vtag2 << l2_idx_bits) | l2_idx) << l2_off
                    l2set[l2_tag] = False
                    if len(l2m) >= l2_cap:
                        h_l2_stall += 1
                        wait2 = int(l2m_min) - issue
                        issue2 = issue + wait2
                    else:
                        wait2 = 0
                        issue2 = issue
                    now = c2ns(issue2, freq)
                    row_global = addr >> d_rowbits
                    bank = row_global % d_nbanks
                    row = row_global // d_nbanks
                    arrival = now + d_overhead_ns
                    if d_refresh_on:
                        phase = arrival % d_refresh_int_ns
                        if phase < d_refresh_lat_ns:
                            n_d_refresh += 1
                            arrival += d_refresh_lat_ns - phase
                    dbt = d_debt[bank]
                    if dbt > 0.0:
                        idle_gap = arrival - d_busy[bank]
                        if idle_gap < 0.0:
                            idle_gap = 0.0
                        drained = dbt if dbt < idle_gap else idle_gap
                        d_debt[bank] = dbt - drained
                        d_busy[bank] += drained
                    queue_wait = d_busy[bank] - arrival
                    if queue_wait < 0.0:
                        queue_wait = 0.0
                    start = arrival + queue_wait
                    open_row = d_open[bank]
                    if open_row == row:
                        n_d_hit += 1
                        kind = ROW_HIT
                        array_lat = d_tcas_ns
                    elif open_row == -1:
                        n_d_closed += 1
                        kind = ROW_CLOSED
                        array_lat = d_trcd_ns + d_tcas_ns
                        d_act[bank] = start
                    else:
                        n_d_conflict += 1
                        kind = ROW_CONFLICT
                        ras_wait = (d_act[bank] + d_tras_ns) - start
                        if ras_wait < 0.0:
                            ras_wait = 0.0
                        array_lat = (ras_wait + d_trp_ns + d_trcd_ns
                                     + d_tcas_ns)
                        d_act[bank] = start + ras_wait + d_trp_ns
                    done = start + array_lat + d_qserv_ns
                    if d_row_open:
                        d_open[bank] = row
                        d_busy[bank] = done
                    else:
                        d_open[bank] = -1
                        d_busy[bank] = done + d_trp_ns
                    dlat = (done + d_bus_ns) - now
                    n_d_acc += 1
                    dh_counts[bisect(dh_edges, dlat)] += 1
                    dh_stats[0] += 1
                    dh_stats[1] += dlat
                    if dlat < dh_stats[2]:
                        dh_stats[2] = dlat
                    if dlat > dh_stats[3]:
                        dh_stats[3] = dlat
                    # seconds_to_cycles_ceil(dlat * NS, freq), inlined.
                    dcyc = int(ceil_(dlat * NS * freq - ceil_eps))
                    below = wait2 + l2_lat + dcyc
                    # Allocate the L2 miss (oracle expires at issue2 first).
                    if l2m_min <= issue2:
                        if len(l2m) == 1:
                            l2m.clear()
                            l2m_min = _INF
                        else:
                            for k in [k for k, f in l2m.items()
                                      if f <= issue2]:
                                del l2m[k]
                            l2m_min = min(l2m.values()) if l2m else _INF
                    fillc2 = issue + below
                    l2m[l2_block] = fillc2
                    if fillc2 < l2m_min:
                        l2m_min = fillc2
                    if wb2 is not None:
                        h_wb += 1
                        dram_write(wb2, issue2)
                    off = True

                total = wait1 + l1_lat + below
                # Allocate the L1 miss (oracle expires at `issue` first).
                if l1m_min <= issue:
                    if len(l1m) == 1:
                        l1m.clear()
                        l1m_min = _INF
                    else:
                        for k in [k for k, f in l1m.items() if f <= issue]:
                            del l1m[k]
                        l1m_min = min(l1m.values()) if l1m else _INF
                fillc = cyc + total
                l1m[block] = fillc
                if fillc < l1m_min:
                    l1m_min = fillc
                if wb1 is not None:
                    wb_l2(wb1, issue)
                stall = total - l1_lat
                if stall <= 0:
                    continue
            else:
                # L1 MSHR merge: residual latency; tag update runs for its
                # side effects, victim writeback address discarded.
                n_l1_merge += 1
                dirty = lset.pop(tag, _MISSING)
                if dirty is not _MISSING:
                    lset[tag] = True if iw and l1_wb else dirty
                else:
                    n_l1_miss += 1
                    if len(lset) >= l1_ways:
                        if lset.pop(next(iter(lset))):
                            n_l1_wb += 1
                    lset[tag] = True if iw and l1_wb else False
                stall = fill - cyc  # >= 1: post-expiry fills are future
                off = False

            # ---- stall handling ----
            # One BusySegment per stall-free run, as the oracle yields
            # (pend >= 1 here: the access cycle itself is pending).
            active_c += pend
            e_active += p_active * (pend / cfreq)
            pend = 0
            if not off:
                n_on += 1
                on_cyc += stall
                stall_c += stall
                e_stall += p_stall * (stall / cfreq)
                cyc += stall
                continue
            if mlp_on:
                gap = cyc - last_off
                if gap <= MLP_WINDOW_CYCLES:
                    reduced = int(round(stall * mlp_factor))
                    stall = reduced if reduced > 1 else 1
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
            # scores.  MAPG's decide() is inlined; every other policy is
            # consulted directly, exactly as the controller consults it.
            if mode_mapg:
                # --- MapgPolicy.decide, inlined ---
                entry = table[((pc >> pc_shift) ^ (bank * bank_mult)
                               ^ kind_mult[kind]) % table_n]
                if entry.valid:
                    pred_lat = int(round(entry.mean))
                    conf = entry.confidence_counter / conf_max
                else:
                    pred_lat = initial
                    conf = 0.0
                if conf >= min_conf:
                    est = pred_lat if pred_lat > 0 else 0
                    margin = int(round(bias)) if adaptive else fixed_margin
                    wake_est = est - margin
                    confident = True
                else:
                    regs = fb.get(kind)
                    if regs is None:
                        regs = [float(static_est),
                                float(static_est) * dev_frac]
                        fb[kind] = regs
                    mean_reg = int(round(regs[0]))
                    est = mean_reg if mean_reg > 0 else 0
                    wake_est = int(round(regs[0] - dev_bias * regs[1]))
                    confident = False
                if sleep_mode == "full":
                    gate_mode = "full" if est >= th_full else None
                elif sleep_mode == "retention":
                    gate_mode = "retention" if est >= th_ret else None
                else:  # dual
                    full_ok = est >= th_full
                    if full_ok and confident:
                        gate_mode = "full"
                    elif est >= th_ret:
                        gate_mode = "retention"
                    elif full_ok:
                        gate_mode = "full"
                    else:
                        gate_mode = None
                if gate_mode is not None and early_wakeup:
                    # plan_wakeup, inlined.
                    we = wake_est if wake_est > 0 else 0
                    planned = we - (wake_full if gate_mode == "full"
                                    else wake_ret)
                    if planned < drain:
                        planned = drain
                else:
                    planned = None
            elif mode_never:
                gate_mode = None
                est = 0
            else:
                decision = decide(pc, bank, stall, kind, 0)
                gate_mode = decision.mode if decision.gate else None
                planned = decision.planned_wake_offset
                est = decision.predicted_cycles
            # --- controller._record_prediction, inlined ---
            if est > 0:
                err = est - stall
                if err < 0:
                    err = -err
                pe_n += 1
                d1 = err - pe_mean
                pe_mean += d1 / pe_n
                pe_m2 += d1 * (err - pe_mean)
                rel = err / (stall if stall > 1 else 1)
                pre_n += 1
                d2 = rel - pre_mean
                pre_mean += d2 / pre_n
                pre_m2 += d2 * (rel - pre_mean)
            # --- outcome (resolve_wakeup inlined, token_delay 0) ---
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
                if planned is not None and planned < drain:
                    raise SimulationError(
                        f"planned wake offset {planned} precedes drain "
                        f"end {drain}")
                if stall <= drain:
                    # Abort: data returned during drain.
                    cc_aborted += 1
                    drain_c += stall
                    e_drain += p_drain * (stall / cfreq)
                else:
                    trigger = (planned if planned is not None
                               and planned < stall else stall)
                    sleep = trigger - drain
                    ready = trigger + wake_m
                    if ready >= stall:
                        penalty = ready - stall
                        idle = 0
                    else:
                        idle = stall - ready
                    if wake_m == 0 and sleep == 0:
                        # The controller's abort branch would mis-tile here
                        # (wake==sleep==0 but stall > drain); it raises.
                        raise SimulationError(
                            f"outcome intervals tile {drain} cycles, "
                            f"expected stall {stall} + penalty 0")
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
                    if drain:
                        drain_c += drain
                        e_drain += p_drain * (drain / cfreq)
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
            # Learning, in the controller's order: observe, then feedback
            # on a completed gate.
            if mode_mapg:
                # --- policy.observe (predictor + fallback regs), inlined ---
                if entry.valid:
                    obs_err = stall - entry.mean
                    aerr = obs_err if obs_err >= 0 else -obs_err
                    bound = entry.mean if entry.mean > 1.0 else 1.0
                    if aerr <= tol * bound:
                        nc = entry.confidence_counter + 1
                        entry.confidence_counter = (nc if nc < conf_max
                                                    else conf_max)
                    else:
                        nc = entry.confidence_counter - 2
                        entry.confidence_counter = nc if nc > 0 else 0
                    entry.mean += alpha * (stall - entry.mean)
                else:
                    entry.mean = float(stall)
                    entry.confidence_counter = 1
                    entry.valid = True
                regs = fb.get(kind)
                if regs is None:
                    regs = [float(static_est), float(static_est) * dev_frac]
                    fb[kind] = regs
                reg_err = stall - regs[0]
                regs[0] += g_alpha * reg_err
                abs_err = reg_err if reg_err >= 0 else -reg_err
                regs[1] += g_alpha * (abs_err - regs[1])
                # --- AdaptiveMapgPolicy.feedback, inlined ---
                if adaptive and gated:
                    if penalty > 0:
                        nb = bias + aimd_inc
                        bias = nb if nb < aimd_cap else aimd_cap
                    elif idle > aimd_idle:
                        bias *= aimd_decay
            elif not mode_never:
                observe(pc, bank, stall, kind)
                if gated and feedback is not None:
                    feedback(WakeupPlan(drain=drain, sleep=sleep, wake=wake_m,
                                        idle_awake=idle, penalty=penalty))

            # Penalty feeds the core clock (add_delay) before the stall
            # advance in the oracle; the sum is order-independent.
            cyc += stall + penalty
            last_off = cyc

        # Trailing busy run after the last memory access.
        delta = busy[trace.num_memory_ops]
        if delta:
            pend += delta
            cyc += delta
        if pend:
            active_c += pend
            e_active += p_active * (pend / cfreq)

        # ---- flush measurements into the wrapped simulator ----
        self._l1m_min = l1m_min
        self._l2m_min = l2m_min
        sim._cycle = cyc
        sim.core._cycle = cyc
        sim.core._last_offchip_end = last_off

        # Merge loop-local counters into the shared slots (the rare-path
        # writeback methods already counted there); derivable totals are
        # reconstructed instead of counted per iteration: every access is
        # one hierarchy access and one L1 tag access, writes are the trace's
        # write flags, and hits are the non-misses.
        n_mem = trace.num_memory_ops
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
        mc[_L1_WB] += n_l1_wb
        mc[_L2_ACC] += n_l2_acc
        mc[_L2_HIT] += n_l2_hit
        mc[_L2_MISS] += n_l2_miss
        mc[_L2_WB] += n_l2_wb
        mc[_D_ACC] += n_d_acc
        mc[_D_ROW_HIT] += n_d_hit
        mc[_D_ROW_CLOSED] += n_d_closed
        mc[_D_ROW_CONFLICT] += n_d_conflict
        mc[_D_REFRESH] += n_d_refresh

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

        hierarchy = sim.hierarchy
        self._flush_counters(hierarchy.counters, (
            ("accesses", mc[_H_ACC]),
            ("l1_mshr_merges", mc[_H_L1_MERGE]),
            ("l1_mshr_stalls", mc[_H_L1_STALL]),
            ("l2_mshr_merges", mc[_H_L2_MERGE]),
            ("l2_mshr_stalls", mc[_H_L2_STALL]),
            ("writebacks", mc[_H_WB])))
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
        dh._counts = self._dh_counts
        dh._n = dh_stats[0]
        dh._sum = dh_stats[1]
        dh._min = dh_stats[2]
        dh._max = dh_stats[3]
        self._reset_dram_histogram()

        if mode_mapg and adaptive:
            policy._bias_cycles = bias
        controller = sim.controller
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
        pe = controller.prediction_error
        pe._count = pe_n
        pe._mean = pe_mean
        pe._m2 = pe_m2
        pre = controller.prediction_relative_error
        pre._count = pre_n
        pre._mean = pre_mean
        pre._m2 = pre_m2

    @staticmethod
    def _flush_counters(counters: Any,
                        pairs: Tuple[Tuple[str, int], ...]) -> None:
        """Add nonzero counts (a key exists iff the oracle ever added it)."""
        add = counters.add
        for name, count in pairs:
            if count:
                add(name, count)

    # ---- rare-path descents (victim writebacks only; the demand path is
    # fully inlined in _replay) --------------------------------------------------

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
            self._dram_write(wb, issue)

    def _dram_write(self, addr: int, at: int) -> None:
        """Inlined ``Dram.access`` for a writeback issued at cycle ``at``.

        The oracle's writeback path discards the returned latency, so only
        bank-state mutation, counters, and (for unbuffered writes) the
        latency histogram matter.  Histogram stats go through the shared
        ``_dh_counts`` / ``_dh_stats`` accumulators so observations from
        this rare path interleave with the replay loop's demand reads in
        oracle (chronological) order.
        """
        mc = self._mc
        now = cycles_to_ns(at, self._freq)
        row_global = addr >> self._d_rowbits
        bank = row_global % self._d_nbanks
        arrival = now + self._d_overhead_ns
        if self._d_refresh_lat_ns > 0.0:
            phase = arrival % self._d_refresh_int_ns
            if phase < self._d_refresh_lat_ns:
                mc[_D_REFRESH] += 1
                arrival += self._d_refresh_lat_ns - phase
        busy = self._d_busy
        debt = self._d_debt
        if debt[bank] > 0.0:
            idle_gap = arrival - busy[bank]
            if idle_gap < 0.0:
                idle_gap = 0.0
            drained = debt[bank] if debt[bank] < idle_gap else idle_gap
            debt[bank] -= drained
            busy[bank] += drained
        mc[_D_ACC] += 1
        mc[_D_WR] += 1
        if self._d_wbpb > 0:
            debt[bank] += self._d_wserv_ns
            mc[_D_BUF_WR] += 1
            if debt[bank] > self._d_wcap_ns:
                start = arrival if arrival > busy[bank] else busy[bank]
                busy[bank] = start + debt[bank]
                debt[bank] = 0.0
                mc[_D_DRAIN] += 1
            return
        queue_wait = busy[bank] - arrival
        if queue_wait < 0.0:
            queue_wait = 0.0
        start = arrival + queue_wait
        row = row_global // self._d_nbanks
        open_rows = self._d_open
        open_row = open_rows[bank]
        if open_row == row:
            mc[_D_ROW_HIT] += 1
            array_lat = self._d_tcas_ns
        elif open_row == -1:
            mc[_D_ROW_CLOSED] += 1
            array_lat = self._d_trcd_ns + self._d_tcas_ns
            self._d_act[bank] = start
        else:
            mc[_D_ROW_CONFLICT] += 1
            ras_wait = (self._d_act[bank] + self._d_tras_ns) - start
            if ras_wait < 0.0:
                ras_wait = 0.0
            array_lat = (ras_wait + self._d_trp_ns + self._d_trcd_ns
                         + self._d_tcas_ns)
            self._d_act[bank] = start + ras_wait + self._d_trp_ns
        done = start + array_lat + self._d_qserv_ns
        if self._d_row_open:
            open_rows[bank] = row
            busy[bank] = done
        else:
            open_rows[bank] = -1
            busy[bank] = done + self._d_trp_ns
        dlat = (done + self._d_bus_ns) - now
        stats = self._dh_stats
        self._dh_counts[bisect_right(self._dh_edges, dlat)] += 1
        stats[0] += 1
        stats[1] += dlat
        if dlat < stats[2]:
            stats[2] = dlat
        if dlat > stats[3]:
            stats[3] = dlat
