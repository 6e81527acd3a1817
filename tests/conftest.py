"""Shared fixtures for the test suite."""

from __future__ import annotations

from collections import OrderedDict
from pathlib import Path

import pytest

from repro.config import CacheConfig, DramConfig, GatingConfig, SystemConfig
from repro.power.gating import SleepTransistorNetwork
from repro.power.model import CorePowerModel
from repro.power.technology import get_technology

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def repo_lint_report():
    """One whole-tree mapglint run over ``src`` and ``tests``, shared.

    Linting the tree is the slowest thing the suite does, so every test
    that asserts something about the real tree reads this one report.
    """
    from repro.lint import Baseline, lint_paths

    baseline = Baseline.load(str(REPO_ROOT / "lint-baseline.json"))
    return lint_paths([str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")],
                      baseline=baseline)


@pytest.fixture(autouse=True)
def fresh_trace_memo(monkeypatch):
    """An empty per-process trace memo for each test; the old one returns after.

    Every trace store serves from one memo per process, so a test that
    counts trace generations holds in any test order.
    """
    import repro.fastsim.columnar as columnar

    monkeypatch.setattr(columnar, "_PAIRS", OrderedDict())


@pytest.fixture
def tech45():
    return get_technology("45nm")


@pytest.fixture
def circuit45(tech45):
    """Characterized 45 nm gating circuit at 2 GHz, 12-stage pipeline."""
    return SleepTransistorNetwork(tech45).characterize(2e9, pipeline_depth=12)


@pytest.fixture
def power_model(circuit45):
    return CorePowerModel(circuit45)


@pytest.fixture
def tiny_l1():
    """A small L1 that forces evictions quickly in tests."""
    return CacheConfig(name="L1D", size_bytes=1024, line_bytes=64,
                       associativity=2, hit_latency_cycles=2, mshr_entries=4)


@pytest.fixture
def tiny_l2():
    return CacheConfig(name="L2", size_bytes=4096, line_bytes=64,
                       associativity=4, hit_latency_cycles=10, mshr_entries=4)


@pytest.fixture
def dram_config():
    return DramConfig()


@pytest.fixture
def small_system():
    """A SystemConfig with small caches for fast, eviction-heavy tests."""
    return SystemConfig(
        l1=CacheConfig(name="L1D", size_bytes=2048, line_bytes=64,
                       associativity=2, hit_latency_cycles=2, mshr_entries=4),
        l2=CacheConfig(name="L2", size_bytes=16 * 1024, line_bytes=64,
                       associativity=4, hit_latency_cycles=12, mshr_entries=8),
    )


@pytest.fixture
def gating_config():
    return GatingConfig()
