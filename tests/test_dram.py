"""Tests for the DRAM timing model."""

import pytest

from repro.config import DramConfig
from repro.memory.dram import (
    ROW_CLOSED, ROW_CONFLICT, ROW_HIT, WRITE_BUFFERED, Dram)


def quiet_config(**kwargs):
    """A config with queue/refresh effects off unless a test wants them."""
    defaults = dict(refresh_latency_ns=0.0)
    defaults.update(kwargs)
    return DramConfig(**defaults)


def fixed_latency(config, kind):
    """Analytic expected latency for an uncontended access of ``kind``."""
    base = (config.controller_overhead_ns + config.queue_service_ns
            + config.bus_transfer_ns)
    if kind == ROW_HIT:
        return base + config.t_cas_ns
    if kind == ROW_CLOSED:
        return base + config.t_rcd_ns + config.t_cas_ns
    return base + config.t_rp_ns + config.t_rcd_ns + config.t_cas_ns


class TestRowBuffer:
    def test_first_access_is_row_closed(self):
        dram = Dram(quiet_config())
        latency, __, kind = dram.access(0x0, now_ns=0.0)
        assert kind == ROW_CLOSED
        assert latency == pytest.approx(fixed_latency(dram.config, ROW_CLOSED))

    def test_second_access_same_row_is_hit(self):
        dram = Dram(quiet_config())
        dram.access(0x0, now_ns=0.0)
        latency, __, kind = dram.access(0x40, now_ns=1000.0)
        assert kind == ROW_HIT
        assert latency == pytest.approx(fixed_latency(dram.config, ROW_HIT))

    def test_different_row_same_bank_conflicts(self):
        config = quiet_config()
        dram = Dram(config)
        row_span = config.row_bytes * config.total_banks
        dram.access(0x0, now_ns=0.0)
        # Far enough in time that tRAS has elapsed; same bank, next row.
        latency, __, kind = dram.access(row_span, now_ns=1000.0)
        assert kind == ROW_CONFLICT
        assert latency == pytest.approx(fixed_latency(config, ROW_CONFLICT))

    def test_conflict_respects_tras(self):
        config = quiet_config()
        dram = Dram(config)
        row_span = config.row_bytes * config.total_banks
        dram.access(0x0, now_ns=0.0)
        # Immediately conflict: precharge must wait for tRAS since activate.
        early = dram.access(row_span, now_ns=0.0)[0]
        late_dram = Dram(config)
        late_dram.access(0x0, now_ns=0.0)
        late = late_dram.access(row_span, now_ns=10_000.0)[0]
        assert early > late
        # With a long tRAS the bank is free again before tRAS has elapsed:
        # no queue wait, but the precharge still waits for tRAS.
        config = quiet_config(t_ras_ns=200.0)
        dram = Dram(config)
        dram.access(0x0, now_ns=0.0)  # activates at controller_overhead_ns
        latency = dram.access(row_span, now_ns=100.0)[0]
        ras_wait = config.t_ras_ns - 100.0
        assert latency == pytest.approx(
            fixed_latency(config, ROW_CONFLICT) + ras_wait)

    def test_closed_page_policy_never_row_hits(self):
        dram = Dram(quiet_config(row_policy="closed"))
        dram.access(0x0, now_ns=0.0)
        assert dram.access(0x40, now_ns=1000.0)[2] == ROW_CLOSED

    def test_hit_faster_than_closed_faster_than_conflict(self):
        config = quiet_config()
        hit = fixed_latency(config, ROW_HIT)
        closed = fixed_latency(config, ROW_CLOSED)
        conflict = fixed_latency(config, ROW_CONFLICT)
        assert hit < closed < conflict


class TestBankMapping:
    def test_rows_interleave_across_banks(self):
        config = quiet_config()
        dram = Dram(config)
        banks = {dram.map_address(i * config.row_bytes)[0]
                 for i in range(config.total_banks)}
        assert len(banks) == config.total_banks

    def test_same_row_same_bank(self):
        dram = Dram(quiet_config())
        assert dram.map_address(0x0) == dram.map_address(0x100)

    def test_different_banks_do_not_queue(self):
        config = quiet_config()
        dram = Dram(config)
        dram.access(0x0, now_ns=0.0)
        other_bank = config.row_bytes  # next row -> different bank
        latency, bank, kind = dram.access(other_bank, now_ns=0.0)
        assert (bank, kind) == (1, ROW_CLOSED)
        assert latency == pytest.approx(fixed_latency(config, ROW_CLOSED))


class TestQueueing:
    def test_back_to_back_same_bank_waits(self):
        dram = Dram(quiet_config())
        config = dram.config
        dram.access(0x0, now_ns=0.0)
        latency, __, kind = dram.access(0x40, now_ns=0.0)
        # It waits out the first access's array time and service.
        wait = config.t_rcd_ns + config.t_cas_ns + config.queue_service_ns
        assert kind == ROW_HIT
        assert latency == pytest.approx(fixed_latency(config, ROW_HIT) + wait)

    def test_spaced_accesses_do_not_wait(self):
        dram = Dram(quiet_config())
        dram.access(0x0, now_ns=0.0)
        latency = dram.access(0x40, now_ns=10_000.0)[0]
        assert latency == pytest.approx(fixed_latency(dram.config, ROW_HIT))


class TestRefresh:
    def test_refresh_collision_adds_wait(self):
        config = quiet_config(refresh_latency_ns=100.0,
                              refresh_interval_ns=1000.0)
        dram = Dram(config)
        # Arrival right at the start of the refresh window: phase 0, so
        # the access waits out the whole refresh.
        latency = dram.access(
            0x0, now_ns=1000.0 - config.controller_overhead_ns)[0]
        assert latency == pytest.approx(
            fixed_latency(config, ROW_CLOSED) + config.refresh_latency_ns)
        assert dram.counters.get("refresh_collisions") == 1

    def test_access_outside_window_unaffected(self):
        config = quiet_config(refresh_latency_ns=100.0,
                              refresh_interval_ns=1000.0)
        dram = Dram(config)
        latency = dram.access(
            0x0, now_ns=500.0 - config.controller_overhead_ns)[0]
        assert latency == pytest.approx(fixed_latency(config, ROW_CLOSED))
        assert "refresh_collisions" not in dram.counters

    def test_refresh_disabled_by_default(self):
        # Arrival at phase 0 of the default interval: a refresh would hit.
        config = DramConfig()
        dram = Dram(config)
        latency = dram.access(
            0x0, now_ns=config.refresh_interval_ns
            - config.controller_overhead_ns)[0]
        assert latency == pytest.approx(fixed_latency(config, ROW_CLOSED))


class TestStatistics:
    def test_row_hit_rate(self):
        dram = Dram(quiet_config())
        dram.access(0x0, now_ns=0.0)
        dram.access(0x40, now_ns=1000.0)
        dram.access(0x80, now_ns=2000.0)
        assert dram.row_hit_rate == pytest.approx(2 / 3)

    def test_write_counter(self):
        dram = Dram(quiet_config())
        dram.access(0x0, now_ns=0.0, is_write=True)
        dram.access(0x40, now_ns=100.0, is_write=False)
        assert dram.counters.get("writes") == 1
        assert dram.counters.get("accesses") == 2

    def test_reset_state_precharges(self):
        dram = Dram(quiet_config())
        dram.access(0x0, now_ns=0.0)
        dram.reset_state()
        assert dram.access(0x40, now_ns=10_000.0)[2] == ROW_CLOSED

    def test_reset_measurements_zeroes_counters_not_banks(self):
        dram = Dram(quiet_config())
        dram.access(0x0, now_ns=0.0)
        dram.reset_measurements()
        assert len(dram.counters) == 0
        assert dram.access(0x40, now_ns=10_000.0)[2] == ROW_HIT
        assert dram.counters.as_dict() == {"accesses": 1.0, ROW_HIT: 1.0}


class TestWriteBuffer:
    def test_buffered_write_returns_immediately(self):
        dram = Dram(quiet_config(write_buffer_per_bank=4))
        latency, __, kind = dram.access(0x0, now_ns=0.0, is_write=True)
        assert kind == WRITE_BUFFERED
        # Buffer accept costs only the controller path, not the array access.
        assert latency < fixed_latency(dram.config, ROW_CLOSED) / 2

    def test_buffered_write_does_not_block_spaced_read(self):
        """With an idle gap, the debt drains before the read arrives."""
        buffered = Dram(quiet_config(write_buffer_per_bank=4))
        unbuffered = Dram(quiet_config(write_buffer_per_bank=0))
        for dram in (buffered, unbuffered):
            dram.access(0x0, now_ns=0.0, is_write=True)
        read_b = buffered.access(0x40, now_ns=500.0)
        read_u = unbuffered.access(0x40, now_ns=500.0)
        # No queue wait either way (the gap drained the buffered write,
        # which opened no row; the blocking write opened row 0).
        config = buffered.config
        assert read_b[0] == pytest.approx(fixed_latency(config, ROW_CLOSED))
        assert read_u[0] == pytest.approx(fixed_latency(config, ROW_HIT))

    def test_immediate_read_behind_write_is_faster_with_buffer(self):
        buffered = Dram(quiet_config(write_buffer_per_bank=4))
        unbuffered = Dram(quiet_config(write_buffer_per_bank=0))
        for dram in (buffered, unbuffered):
            dram.access(0x0, now_ns=0.0, is_write=True)
        lat_b = buffered.access(0x40, now_ns=0.0)[0]
        lat_u = unbuffered.access(0x40, now_ns=0.0)[0]
        assert lat_b < lat_u

    def test_overflow_forces_burst_drain(self):
        config = quiet_config(write_buffer_per_bank=2)
        dram = Dram(config)
        for i in range(4):  # same bank, no idle gaps
            dram.access(0x40 * i, now_ns=0.0, is_write=True)
        assert dram.counters.get("write_buffer_drains") >= 1
        # A read right after the burst waits for the three writes the
        # overflow drained (the fourth stays buffered), less the
        # controller overhead's worth the first write drained in the idle
        # gap before the second one arrived.
        latency, __, kind = dram.access(0x1000, now_ns=0.0)
        drained = (3 * (config.t_cas_ns + config.queue_service_ns)
                   - config.controller_overhead_ns)
        assert kind == ROW_CLOSED
        assert latency == pytest.approx(
            fixed_latency(config, ROW_CLOSED) + drained)

    def test_debt_drains_during_idle_gaps(self):
        config = quiet_config(write_buffer_per_bank=8)
        dram = Dram(config)
        for __ in range(4):
            dram.access(0x0, now_ns=0.0, is_write=True)
        # A far-future read sees a fully drained bank.
        latency = dram.access(0x40, now_ns=100_000.0)[0]
        assert latency == pytest.approx(fixed_latency(config, ROW_CLOSED))

    def test_zero_buffer_reverts_to_blocking_writes(self):
        dram = Dram(quiet_config(write_buffer_per_bank=0))
        assert dram.access(0x0, now_ns=0.0, is_write=True)[2] == ROW_CLOSED
        assert dram.counters.get("buffered_writes") == 0


class TestScaling:
    def test_scaled_config_scales_latency(self):
        base = Dram(quiet_config())
        fast = Dram(quiet_config().scaled(0.5))
        slow = Dram(quiet_config().scaled(2.0))
        lat_base = base.access(0x0, now_ns=0.0)[0]
        lat_fast = fast.access(0x0, now_ns=0.0)[0]
        lat_slow = slow.access(0x0, now_ns=0.0)[0]
        assert lat_fast == pytest.approx(0.5 * lat_base)
        assert lat_slow == pytest.approx(2.0 * lat_base)
