"""Synthetic trace generator.

Turns a :class:`~repro.workloads.profiles.WorkloadProfile` into a stream of
trace operations.  The generator maintains three address streams —
sequential, strided, random — inside the profile's working set, draws each
access's stream per the profile mix (modulated by the active phase), and
separates compute stretches with geometrically-distributed gaps whose mean
matches the profile's memory intensity.

Two locality mechanisms make the traces cache-realistic:

* **temporal reuse** — with probability ``reuse_fraction`` an access
  re-touches one of the last ``reuse_window_lines`` lines (these land in
  L1, like register-spill and hot-variable traffic);
* **spatial reuse** — the sequential stream advances
  ``sequential_step_bytes`` per access, so one 64 B line absorbs several
  consecutive accesses before the stream moves on.

Program counters: each stream owns a disjoint slice of the profile's PC
pool, and accesses pick PCs Zipf-style (a few hot PCs dominate), which is
what gives per-PC latency predictors something to learn.

Everything is seeded; two generators with the same (profile, seed) produce
identical traces.  :meth:`SyntheticTraceGenerator.columns` is the one
generation loop; its RNG draw order is the trace contract
(``tests/test_trace_digests.py``), and ``operations`` is a view of it.
"""

from __future__ import annotations

import random
import zlib
from array import array
from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

from repro.errors import ConfigError
from repro.trace.format import TraceOp
from repro.workloads.profiles import WorkloadProfile, get_profile

if TYPE_CHECKING:  # the columnar store imports this module
    from repro.fastsim.columnar import ColumnarTrace

_LINE_BYTES = 64
# Disjoint virtual regions so streams never alias each other's lines.
_REGION_SPACING = 1 << 36


class SyntheticTraceGenerator:
    """Deterministic, profile-driven trace source."""

    def __init__(self, profile: WorkloadProfile, seed: int = 1) -> None:
        self.profile = profile
        # CRC32, not hash(): Python randomizes string hashes per process,
        # which would make "deterministic" traces differ across runs.
        name_hash = zlib.crc32(profile.name.encode("utf-8"))
        self._rng = random.Random(name_hash ^ seed)
        # Dependence marking draws from its own stream so that enabling or
        # tuning pointer chasing never perturbs the address sequence.
        self._dependence_rng = random.Random(name_hash ^ seed ^ 0x5A5A5A)
        # Phase state: the current phase and the ops left in it (-1: a
        # one-phase schedule never advances).
        self._phases = profile.phase_schedule().phases
        self._phase_index = 0
        self._phase_left = self._phases[0].ops if len(self._phases) > 1 else -1
        # Stream state: byte cursors within each stream's region.
        self._seq_cursor = 0
        self._stride_cursor = 0
        # Recency ring buffer of (address, stream): O(1) append and O(1)
        # indexed access, which the skewed stack-distance draw needs.
        self._recent: List[Tuple[int, int]] = []
        self._recent_head = 0

    def columns(self, num_ops: int) -> "ColumnarTrace":
        """The next ``num_ops`` trace records as columnar arrays.

        Later calls continue the same stream.  Per op, in this RNG draw
        order: the phase's compute gap (a block, if non-empty), then the
        access — reuse draw, stream draw (plus the random stream's line),
        write flag, pointer-chase flag (its own RNG), and PC rank.
        """
        from repro.fastsim.columnar import ColumnarTrace  # imports this module

        if num_ops < 0:
            raise ConfigError(f"num_ops must be >= 0, got {num_ops}")
        profile = self.profile
        rand, randrange = self._rng.random, self._rng.randrange
        chase_rand = self._dependence_rng.random
        chase_fraction = profile.pointer_chase_fraction
        chase = chase_fraction > 0.0
        reuse_fraction, reuse_skew = profile.reuse_fraction, profile.reuse_skew
        window, write_fraction = profile.reuse_window_lines, profile.write_fraction
        working_set, stride = profile.working_set_bytes, profile.stride_bytes
        seq_step = profile.sequential_step_bytes
        stride_base, random_base = _REGION_SPACING, 2 * _REGION_SPACING
        # Word-aligned PCs from 0x400000; each stream owns a third of the
        # pool, hottest rank first.
        pool = profile.pc_pool_size
        third = max(1, pool // 3)
        stream_pcs = [[0x40_0000 + 4 * ((stream * third + rank) % pool)
                       for rank in range(third)] for stream in range(3)]
        top_rank, rank_draws = third - 1, range(third - 1)
        gap_draws = range(10_000)  # the gap's cap; mean gaps are single digits
        phases, phase_index = self._phases, self._phase_index
        phase_left = self._phase_left
        # Per phase: the gap's success probability (None: no gap), and the
        # draw thresholds below which an access takes the sequential and
        # else the strided stream (the rest take the random one).
        constants = []
        for phase in phases:
            mean_gap = max(0.0, profile.instructions_per_memory_op
                           / phase.memory_scale - 1.0)
            remaining = max(0.0, 1.0 - min(
                1.0, profile.random_fraction * phase.random_scale))
            base_other = profile.sequential_fraction + profile.strided_fraction
            constants.append((
                None if mean_gap < 1e-9 else 1.0 / (mean_gap + 1.0),
                remaining * profile.sequential_fraction / base_other
                if base_other > 0.0 else remaining, remaining))
        success, seq, remaining = constants[phase_index]
        recent, head = self._recent, self._recent_head  # (address, stream) ring
        count = len(recent)
        seq_cursor, stride_cursor = self._seq_cursor, self._stride_cursor

        addresses, pcs, blocks = array("q"), array("q"), array("q")
        write_flags, dependent_flags = bytearray(), bytearray()
        bounds = array("q", [0])
        total_instr = produced = 0
        while produced < num_ops:
            if not phase_left:
                phase_index = (phase_index + 1) % len(phases)
                phase_left = phases[phase_index].ops
                success, seq, remaining = constants[phase_index]
            phase_left -= 1

            # Compute gap: the failures before the first draw <= success.
            if success is not None:
                gap = 10_000
                for draws in gap_draws:
                    if rand() <= success:
                        gap = draws
                        break
                if gap:
                    blocks.append(gap)
                    total_instr += gap
                    produced += 1
                    if produced >= num_ops:
                        break

            # Temporal reuse: revisit a recent line, with a power-law
            # recency skew (distance = window * u^skew); a reused value is
            # cached, so it is never a pointer chase.
            dependent = False
            if count and rand() < reuse_fraction:
                distance = int(count * rand() ** reuse_skew)
                if distance >= count:
                    distance = count - 1
                address, stream = recent[(head - 1 - distance) % count]
            else:
                draw = rand()
                if draw < seq:
                    stream = 0
                    seq_cursor = (seq_cursor + seq_step) % working_set
                    address = seq_cursor
                elif draw < remaining:
                    stream = 1
                    stride_cursor = (stride_cursor + stride) % working_set
                    address = stride_base + stride_cursor
                else:
                    stream = 2
                    address = random_base + randrange(0, working_set,
                                                      _LINE_BYTES)
                    dependent = chase and chase_rand() < chase_fraction
                if count < window:
                    recent.append((address, stream))
                    count += 1
                    head = count % window
                else:
                    recent[head] = (address, stream)
                    head = (head + 1) % window
            write_flags.append(rand() < write_fraction)
            dependent_flags.append(dependent)
            # Zipf-ish PC: rank 0 twice as likely as rank 1, and so on.
            rank = top_rank
            for draws in rank_draws:
                if rand() >= 0.5:
                    rank = draws
                    break
            pcs.append(stream_pcs[stream][rank])
            addresses.append(address)
            bounds.append(len(blocks))
            produced += 1
        bounds.append(len(blocks))  # closes the trailing blocks' interval

        self._phase_index, self._phase_left = phase_index, phase_left
        self._recent_head = head
        self._seq_cursor, self._stride_cursor = seq_cursor, stride_cursor
        return ColumnarTrace(columns=(addresses, pcs, write_flags,
                                      dependent_flags, blocks, bounds,
                                      total_instr))

    def operations(self, num_ops: int) -> Iterator[TraceOp]:
        """Yield ``num_ops`` trace records (compute blocks + accesses).

        A view of :meth:`columns`: the region is generated as columns,
        then replayed as op objects.
        """
        yield from self.columns(num_ops).ops()


def generate_trace(profile_name: str, num_ops: int, seed: int = 1,
                   profile: Optional[WorkloadProfile] = None) -> List[TraceOp]:
    """Convenience wrapper: a fully materialized trace for a named profile.

    Passing ``profile`` overrides the name lookup (used to generate traces
    for ad-hoc profiles in tests and sweeps).
    """
    chosen = profile if profile is not None else get_profile(profile_name)
    return list(SyntheticTraceGenerator(chosen, seed=seed).operations(num_ops))
