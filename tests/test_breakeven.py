"""Tests for the break-even decision math."""

import pytest

from repro.config import GatingConfig
from repro.core.breakeven import BreakEvenAnalyzer
from repro.errors import ConfigError
from repro.power.gating import SleepTransistorNetwork
from repro.power.technology import TECHNOLOGY_NODES, get_technology


@pytest.fixture
def analyzer(circuit45):
    return BreakEvenAnalyzer(circuit45, GatingConfig(guard_margin_cycles=10))


class TestThresholds:
    def test_bet_scales_with_config(self, circuit45):
        base = BreakEvenAnalyzer(circuit45, GatingConfig(bet_scale=1.0))
        doubled = BreakEvenAnalyzer(circuit45, GatingConfig(bet_scale=2.0))
        assert doubled.bet_cycles == pytest.approx(2 * base.bet_cycles, abs=1)

    def test_wake_scales_with_config(self, circuit45):
        base = BreakEvenAnalyzer(circuit45, GatingConfig(wake_scale=1.0))
        tripled = BreakEvenAnalyzer(circuit45, GatingConfig(wake_scale=3.0))
        assert tripled.wake_cycles == pytest.approx(3 * base.wake_cycles, abs=1)

    def test_zero_wake_scale_allowed(self, circuit45):
        analyzer = BreakEvenAnalyzer(circuit45, GatingConfig(wake_scale=0.0))
        assert analyzer.wake_cycles == 0

    def test_min_gateable_composition(self, analyzer):
        assert analyzer.min_gateable_stall_cycles == (
            analyzer.drain_cycles + analyzer.wake_cycles + analyzer.bet_cycles)


class TestAchievableSleep:
    def test_long_stall(self, analyzer):
        stall = 500
        assert analyzer.achievable_sleep_cycles(stall) == (
            stall - analyzer.drain_cycles - analyzer.wake_cycles)

    def test_short_stall_clamps_to_zero(self, analyzer):
        assert analyzer.achievable_sleep_cycles(5) == 0

    def test_negative_rejected(self, analyzer):
        with pytest.raises(ConfigError):
            analyzer.achievable_sleep_cycles(-1)


class TestWorthwhile:
    def test_long_stall_worthwhile(self, analyzer):
        assert analyzer.worthwhile(10_000)

    def test_tiny_stall_not_worthwhile(self, analyzer):
        assert not analyzer.worthwhile(analyzer.drain_cycles)

    def test_margin_tightens_threshold(self, analyzer):
        boundary = (analyzer.drain_cycles + analyzer.wake_cycles
                    + analyzer.bet_cycles)
        assert analyzer.worthwhile(boundary, apply_margin=False)
        assert not analyzer.worthwhile(boundary, apply_margin=True)
        assert analyzer.worthwhile(
            boundary + analyzer.config.guard_margin_cycles, apply_margin=True)


class TestNetSaving:
    def test_positive_for_long_stall(self, analyzer):
        assert analyzer.net_saving_j(5000) > 0.0

    def test_negative_for_ungateable_stall(self, analyzer):
        assert analyzer.net_saving_j(3) < 0.0

    def test_monotone_in_stall_length(self, analyzer):
        savings = [analyzer.net_saving_j(n) for n in (100, 300, 1000, 3000)]
        assert savings == sorted(savings)


class TestBetConsistency:
    """The characterized BET is the circuit's own break-even point.

    ``breakeven_cycles`` is ceiled from a bisection in seconds; at every
    node, temperature and clock it must be the first whole cycle whose
    net saving is non-negative, in both sleep modes.
    """

    @pytest.mark.parametrize("node", sorted(TECHNOLOGY_NODES))
    def test_breakeven_cycles_is_the_first_profitable_sleep(self, node):
        for temperature in (0, 25, 45, 70, 85, 100, 120):
            network = SleepTransistorNetwork(get_technology(node),
                                             temperature_c=temperature)
            for frequency_hz in (1.0e9, 2.0e9, 3.2e9):
                circuit = network.characterize(frequency_hz)
                case = (node, temperature, frequency_hz)
                full = circuit.breakeven_cycles
                assert circuit.net_saving_j(full) >= 0 \
                    > circuit.net_saving_j(full - 1), case

                def retention(cycles):
                    return network.retention_net_saving_j(
                        circuit.cycles_to_seconds(cycles))

                kept = circuit.retention_breakeven_cycles
                assert retention(kept) >= 0 > retention(kept - 1), case
