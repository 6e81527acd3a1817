"""Behavioural DRAM model with banks, row buffers, and FIFO bank queueing.

The model answers one question per request: *how many nanoseconds does this
access take, arriving at absolute time t?*  That latency is what MAPG gates
against, so its composition matters:

``latency = controller overhead + queue wait + row-buffer latency
            + queue service + bus transfer (+ refresh collision)``

Row-buffer latency follows the classic three-way split:

* **row hit** — the open row matches: ``tCAS``
* **row closed** — no open row (closed-page policy, or first touch):
  ``tRCD + tCAS``
* **row conflict** — a different row is open: ``tRP + tRCD + tCAS``
  (precharge respects the ``tRAS`` minimum since activation)

Queueing is per-bank FIFO: each bank records when it becomes free; requests
arriving earlier wait.  This first-order model reproduces the property MAPG
depends on — off-chip latency is *mostly* deterministic with a workload-
dependent spread from row state and bank contention.

:class:`Dram` is the one implementation of these rules: the oracle's
hierarchy and the fast kernel both call its ``access``.
"""

from __future__ import annotations

from typing import Tuple

from repro.config import DramConfig
from repro.stats import CounterSet

ROW_HIT = "row_hit"
ROW_CLOSED = "row_closed"
ROW_CONFLICT = "row_conflict"
WRITE_BUFFERED = "write_buffered"

# Counter slots, in the order ``Dram.counters`` lists them.
_COUNTER_NAMES = ("accesses", ROW_HIT, ROW_CLOSED, ROW_CONFLICT, "writes",
                  "buffered_writes", "write_buffer_drains",
                  "refresh_collisions")
(_ACC, _ROW_HIT, _ROW_CLOSED, _ROW_CONFLICT, _WR, _BUF_WR, _DRAIN,
 _REFRESH) = range(len(_COUNTER_NAMES))


class Dram:
    """All channels/ranks/banks of the off-chip memory.

    The timing rules are one closure built per instance over the config
    constants, the per-bank state lists and the counter slots, so each
    access reads them as cheaply as locals (a method reading ``self``
    measured a few percent slower on the fast kernel's cells).
    """

    def __init__(self, config: DramConfig) -> None:
        self.config = config
        nbanks = config.total_banks
        self._row_bits = row_bits = config.row_bytes.bit_length() - 1
        # Per-bank state: the open row (-1 = precharged), when the bank
        # becomes free, when its open row was activated, and buffered
        # write work not yet performed (read-priority draining).
        self._open_rows = open_rows = [-1] * nbanks
        self._busy_until_ns = busy_ns = [0.0] * nbanks
        self._activated_at_ns = activated_ns = [-1e18] * nbanks
        self._write_debt_ns = debt_ns = [0.0] * nbanks
        self._counts = counts = [0] * len(_COUNTER_NAMES)
        overhead_ns = config.controller_overhead_ns
        refresh_interval_ns = config.refresh_interval_ns
        refresh_latency_ns = config.refresh_latency_ns
        t_cas_ns = config.t_cas_ns
        t_rcd_ns = config.t_rcd_ns
        t_rp_ns = config.t_rp_ns
        t_ras_ns = config.t_ras_ns
        service_ns = config.queue_service_ns
        bus_ns = config.bus_transfer_ns
        open_page = config.row_policy == "open"
        buffered = config.write_buffer_per_bank > 0
        write_service_ns = t_cas_ns + service_ns
        buffer_capacity_ns = config.write_buffer_per_bank * write_service_ns

        def access(address: int, now_ns: float,
                   is_write: bool = False) -> Tuple[float, int, str]:
            row_global = address >> row_bits
            bank = row_global % nbanks
            arrival_ns = now_ns + overhead_ns
            # An arrival inside an all-bank refresh window waits it out.
            if refresh_latency_ns > 0.0:
                phase_ns = arrival_ns % refresh_interval_ns
                if phase_ns < refresh_latency_ns:
                    counts[_REFRESH] += 1
                    arrival_ns += refresh_latency_ns - phase_ns
            # Buffered writes drain during the idle gap before this request.
            # (Conditional expressions, not max/min: the same floats at
            # a fraction of a builtin call's cost.)
            debt = debt_ns[bank]
            if debt > 0.0:
                idle_gap_ns = arrival_ns - busy_ns[bank]
                drained_ns = (debt if debt < idle_gap_ns else
                              idle_gap_ns if idle_gap_ns > 0.0 else 0.0)
                debt_ns[bank] = debt - drained_ns
                busy_ns[bank] += drained_ns
            counts[_ACC] += 1
            if is_write:
                counts[_WR] += 1
                if buffered:
                    # The buffer accepts the write at once; the bank does
                    # the work later, in idle gaps.  On overflow the debt
                    # drains as a burst that occupies the bank now — the
                    # bandwidth-saturated case where writes slow reads.
                    counts[_BUF_WR] += 1
                    debt_ns[bank] += write_service_ns
                    if debt_ns[bank] > buffer_capacity_ns:
                        busy = busy_ns[bank]
                        start_ns = arrival_ns if arrival_ns > busy else busy
                        busy_ns[bank] = start_ns + debt_ns[bank]
                        debt_ns[bank] = 0.0
                        counts[_DRAIN] += 1
                    return (arrival_ns - now_ns) + 1.0, bank, WRITE_BUFFERED
            queue_wait_ns = busy_ns[bank] - arrival_ns
            start_ns = (arrival_ns + queue_wait_ns if queue_wait_ns > 0.0
                        else arrival_ns)
            row = row_global // nbanks
            open_row = open_rows[bank]
            if open_row == row:
                counts[_ROW_HIT] += 1
                kind = ROW_HIT
                array_ns = t_cas_ns
            elif open_row == -1:
                counts[_ROW_CLOSED] += 1
                kind = ROW_CLOSED
                array_ns = t_rcd_ns + t_cas_ns
                activated_ns[bank] = start_ns
            else:
                counts[_ROW_CONFLICT] += 1
                kind = ROW_CONFLICT
                # Precharge may not begin before tRAS since activate.
                ras_wait_ns = (activated_ns[bank] + t_ras_ns) - start_ns
                if ras_wait_ns < 0.0:
                    ras_wait_ns = 0.0
                array_ns = ras_wait_ns + t_rp_ns + t_rcd_ns + t_cas_ns
                activated_ns[bank] = start_ns + ras_wait_ns + t_rp_ns
            done_ns = start_ns + array_ns + service_ns
            if open_page:
                open_rows[bank] = row
                busy_ns[bank] = done_ns
            else:
                open_rows[bank] = -1
                busy_ns[bank] = done_ns + t_rp_ns  # auto-precharge
            return (done_ns + bus_ns) - now_ns, bank, kind

        self._access = access

    def access(self, address: int, now_ns: float,
               is_write: bool = False) -> Tuple[float, int, str]:
        """Issue one access at absolute time ``now_ns``.

        Returns ``(latency_ns, bank, kind)``, ``kind`` being ``row_hit``,
        ``row_closed``, ``row_conflict`` or (for a write the bank's buffer
        absorbs) ``write_buffered``.  Reads and writes share timing;
        writes are counted separately for traffic statistics.
        """
        return self._access(address, now_ns, is_write)

    # ---- address mapping ---------------------------------------------------

    def map_address(self, address: int) -> Tuple[int, int]:
        """Map a byte address to (bank index, row number).

        Row-interleaved mapping: consecutive rows rotate across banks, which
        gives synthetic workloads natural bank-level parallelism.
        """
        row_global = address >> self._row_bits
        bank = row_global % self.config.total_banks
        row = row_global // self.config.total_banks
        return bank, row

    # ---- statistics ----------------------------------------------------------

    @property
    def counters(self) -> CounterSet:
        """Event counts since the last reset; a key is present iff nonzero."""
        counters = CounterSet()
        for name, count in zip(_COUNTER_NAMES, self._counts):
            if count:
                counters.add(name, count)
        return counters

    @property
    def row_hit_rate(self) -> float:
        """Fraction of counted accesses that hit the open row."""
        return self.counters.ratio(ROW_HIT, "accesses")

    def reset_measurements(self) -> None:
        """Zero the counters (not the bank state)."""
        self._counts[:] = [0] * len(_COUNTER_NAMES)

    def reset_state(self) -> None:
        """Precharge all banks and clear the timing state (not the counters)."""
        nbanks = len(self._open_rows)
        self._open_rows[:] = [-1] * nbanks
        self._busy_until_ns[:] = [0.0] * nbanks
        self._activated_at_ns[:] = [-1e18] * nbanks
        self._write_debt_ns[:] = [0.0] * nbanks
