"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
from collections import OrderedDict
from contextlib import closing
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
    from repro.lint import lint_paths

    return lint_paths([str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")])


@pytest.fixture(autouse=True)
def fresh_trace_memo(monkeypatch):
    """An empty per-process trace memo for each test; the old one returns after.

    Every trace store serves from one memo per process, so a test that
    counts trace generations holds in any test order.
    """
    import repro.fastsim.columnar as columnar

    monkeypatch.setattr(columnar, "_PAIRS", OrderedDict())


@pytest.fixture
def forced_pool(monkeypatch):
    """Pooled sweeps start the pool whatever their size.

    The sweep runner builds a cold pool only when its cells outweigh the
    start-up constant, and never with one worker; with the constant at 0
    and at least two CPUs, every sweep of two or more cells at ``jobs>1``
    runs on the pool.  Returns the worker pid of each outcome the pool
    yields (0 for a cell lost with its worker), so a test can show that a
    pool worker really ran a cell.
    """
    import repro.exec.engine as engine

    cpus = os.cpu_count() or 1
    monkeypatch.setattr(os, "cpu_count", lambda: max(2, cpus))
    monkeypatch.setattr(engine, "_POOL_START_OPS", 0)
    workers = []
    pool_outcomes = engine._pool_outcomes

    def recorded(missing, count):
        with closing(pool_outcomes(missing, count)) as outcomes:
            for outcome in outcomes:
                workers.append(outcome[2])
                yield outcome

    monkeypatch.setattr(engine, "_pool_outcomes", recorded)
    return workers


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
