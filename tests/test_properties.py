"""Property-based tests (hypothesis) on core data structures and invariants."""

import dataclasses
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.wakeup import resolve_wakeup
from repro.memory.cache import Cache
from repro.config import CacheConfig, DramConfig, GatingConfig
from repro.core.breakeven import BreakEvenAnalyzer
from repro.memory.dram import ROW_CLOSED, ROW_CONFLICT, ROW_HIT, Dram
from repro.power.gating import SleepTransistorNetwork
from repro.power.technology import get_technology
from repro.stats import CounterSet, Histogram, IntervalAccumulator, RunningMean
from repro.trace.format import ComputeBlock, MemoryAccess
from repro.trace.io import read_trace, write_trace


# ---- wakeup timing algebra ---------------------------------------------------

@given(
    stall=st.integers(min_value=0, max_value=10_000),
    drain=st.integers(min_value=0, max_value=100),
    wake=st.integers(min_value=0, max_value=100),
    offset_slack=st.one_of(st.none(), st.integers(min_value=0, max_value=10_000)),
    token_delay=st.integers(min_value=0, max_value=200),
)
def test_wakeup_tiling_invariant(stall, drain, wake, offset_slack, token_delay):
    """drain + sleep + wake + idle == stall + penalty, for every input."""
    offset = None if offset_slack is None else drain + offset_slack
    plan = resolve_wakeup(stall, drain, wake, offset, token_delay)
    assert plan.drain + plan.sleep + plan.wake + plan.idle_awake == \
        stall + plan.penalty
    assert plan.penalty >= 0
    assert plan.token_wait <= plan.sleep


@given(
    stall=st.integers(min_value=1, max_value=10_000),
    drain=st.integers(min_value=0, max_value=100),
    wake=st.integers(min_value=1, max_value=100),
)
def test_early_wakeup_never_worse_than_naive(stall, drain, wake):
    """The fallback trigger bounds any plan's penalty at the naive penalty."""
    naive = resolve_wakeup(stall, drain, wake, planned_wake_offset=None)
    for offset_slack in (0, wake // 2, wake, stall):
        plan = resolve_wakeup(stall, drain, wake,
                              planned_wake_offset=drain + offset_slack)
        assert plan.penalty <= naive.penalty


# ---- cache ---------------------------------------------------------------------

@st.composite
def cache_and_addresses(draw):
    sets = draw(st.sampled_from([1, 2, 4, 8]))
    ways = draw(st.sampled_from([1, 2, 4]))
    config = CacheConfig(name="P", size_bytes=sets * ways * 64, line_bytes=64,
                         associativity=ways)
    addresses = draw(st.lists(
        st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=200))
    return config, addresses


@given(cache_and_addresses())
@settings(max_examples=50)
def test_cache_immediate_rehit(params):
    """Any just-accessed address must hit if re-accessed immediately."""
    config, addresses = params
    cache = Cache(config)
    for address in addresses:
        cache.access(address)
        assert cache.probe(address)
        assert cache.access(address) == (True, None)


@given(cache_and_addresses())
@settings(max_examples=50)
def test_cache_counter_consistency(params):
    config, addresses = params
    cache = Cache(config)
    for address in addresses:
        cache.access(address)
    counters = cache.counters
    assert counters.get("hits") + counters.get("misses") == counters.get("accesses")
    assert counters.get("writebacks") == 0  # reads never dirty lines


class ReferenceLru:
    """The LRU rule written out plainly, independent of ``Cache``.

    Per set, a list of ``[tag, dirty]`` lines, most recently used last;
    set and tag come from division, not bit masks.
    """

    def __init__(self, sets, ways, write_back, line_bytes):
        self.sets = sets
        self.ways = ways
        self.write_back = write_back
        self.line_bytes = line_bytes
        self.stacks = [[] for __ in range(sets)]
        self.counts = dict.fromkeys(
            ("accesses", "writes", "hits", "misses", "writebacks"), 0)

    def access(self, address, is_write):
        block = address // self.line_bytes
        index = block % self.sets
        tag = block // self.sets
        stack = self.stacks[index]
        self.counts["accesses"] += 1
        if is_write:
            self.counts["writes"] += 1
        for position, line in enumerate(stack):
            if line[0] == tag:
                self.counts["hits"] += 1
                stack.append(stack.pop(position))
                if is_write and self.write_back:
                    line[1] = True
                return True, None
        self.counts["misses"] += 1
        writeback = None
        if len(stack) == self.ways:
            victim_tag, victim_dirty = stack.pop(0)
            if victim_dirty:
                self.counts["writebacks"] += 1
                writeback = (victim_tag * self.sets + index) * self.line_bytes
        stack.append([tag, is_write and self.write_back])
        return False, writeback


@st.composite
def geometry_and_accesses(draw):
    sets = draw(st.sampled_from([1, 2, 4, 8, 16]))
    ways = draw(st.integers(min_value=1, max_value=8))
    write_back = draw(st.booleans())
    # A few more lines than the cache holds, so sets fill and evict.
    lines = sets * (ways + 3)
    accesses = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=lines * 64 - 1),
                  st.booleans()),
        min_size=1, max_size=300))
    return sets, ways, write_back, accesses


@given(geometry_and_accesses())
@settings(max_examples=200)
def test_cache_matches_the_reference_lru(params):
    """Every access gives the reference's hit and writeback address, and
    the counters and per-set recency order agree at the end."""
    sets, ways, write_back, accesses = params
    cache = Cache(CacheConfig(name="P", size_bytes=sets * ways * 64,
                              line_bytes=64, associativity=ways,
                              write_back=write_back))
    reference = ReferenceLru(sets, ways, write_back, 64)
    for address, is_write in accesses:
        assert cache.access(address, is_write) == \
            reference.access(address, is_write)
    assert cache.counters.as_dict() == {
        name: count for name, count in reference.counts.items() if count}
    assert [list(lines.items()) for lines in cache._sets] == \
        [[tuple(line) for line in stack] for stack in reference.stacks]


# ---- DRAM ----------------------------------------------------------------------

@given(
    addresses=st.lists(st.integers(min_value=0, max_value=1 << 30),
                       min_size=1, max_size=100),
    start_ns=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)
@settings(max_examples=50)
def test_dram_latency_bounds(addresses, start_ns):
    """Latency is always >= the row-hit floor and finite."""
    config = DramConfig(refresh_latency_ns=0.0)
    dram = Dram(config)
    floor = (config.controller_overhead_ns + config.t_cas_ns
             + config.queue_service_ns + config.bus_transfer_ns)
    now = start_ns
    for address in addresses:
        latency = dram.access(address, now)[0]
        assert latency >= floor - 1e-9
        assert latency < 1e7
        now += 1.0


def _quarter_ns(low, high):
    """Multiples of 0.25 ns: every sum the model forms stays exact."""
    return st.integers(int(low * 4), int(high * 4)).map(lambda q: q / 4)


_ns = _quarter_ns(0.0, 50.0)

dram_configs = st.builds(
    DramConfig,
    channels=st.integers(1, 2), ranks_per_channel=st.integers(1, 2),
    banks_per_rank=st.integers(1, 8),
    row_bytes=st.sampled_from((1024, 2048, 4096, 8192)),
    t_cas_ns=_ns, t_rcd_ns=_ns, t_rp_ns=_ns, t_ras_ns=_ns,
    controller_overhead_ns=_ns, bus_transfer_ns=_ns, queue_service_ns=_ns,
    row_policy=st.sampled_from(("open", "closed")),
    refresh_interval_ns=_quarter_ns(100.0, 10_000.0),
    refresh_latency_ns=_quarter_ns(0.0, 100.0),
    write_buffer_per_bank=st.integers(0, 8))

# Far enough apart that every bank is idle and tRAS has elapsed.
_IDLE_NS = 1e4


@given(config=dram_configs, bank=st.integers(0, 63),
       row=st.integers(0, 1000), is_write=st.booleans())
@settings(max_examples=200)
def test_dram_row_outcomes_match_analytic_latency(config, bank, row,
                                                  is_write):
    """Uncontended: row hit <= row closed <= row conflict, each analytic.

    A first access to an idle bank finds no open row; re-touching the row
    hits it under the open-page policy (the closed-page policy precharged
    it, so the row is closed again); another row of the bank conflicts.
    """
    config = dataclasses.replace(config, refresh_latency_ns=0.0)
    banks = config.total_banks
    address = ((row * banks + bank % banks) * config.row_bytes
               + (row % config.row_bytes))
    other_row = address + banks * config.row_bytes
    open_page = config.row_policy == "open"
    base = (config.controller_overhead_ns + config.queue_service_ns
            + config.bus_transfer_ns + config.t_cas_ns)
    expected = {ROW_HIT: base, ROW_CLOSED: base + config.t_rcd_ns,
                ROW_CONFLICT: base + config.t_rcd_ns + config.t_rp_ns}

    dram = Dram(config)
    latencies = {}
    for step, (target, kind) in enumerate((
            (address, ROW_CLOSED),
            (address, ROW_HIT if open_page else ROW_CLOSED),
            (other_row, ROW_CONFLICT if open_page else ROW_CLOSED))):
        # A write only ever leads the sequence: a buffered one opens no row.
        write = is_write and step == 0 and config.write_buffer_per_bank == 0
        latency, got_bank, got_kind = dram.access(target, step * _IDLE_NS,
                                                  write)
        assert (got_bank, got_kind) == (bank % banks, kind)
        assert latency == expected[kind]
        latencies[kind] = latency
    assert expected[ROW_HIT] <= expected[ROW_CLOSED] <= expected[ROW_CONFLICT]
    if open_page:
        assert latencies[ROW_HIT] <= latencies[ROW_CLOSED] \
            <= latencies[ROW_CONFLICT]


@given(config=dram_configs, address=st.integers(0, 1 << 30),
       now_ns=_quarter_ns(0.0, 1e6))
@settings(max_examples=200)
def test_dram_refresh_never_shortens_an_access(config, address, now_ns):
    """With refresh on, a first access is never faster than with it off.

    It is slower by exactly the rest of the refresh window it lands in.
    """
    off = Dram(dataclasses.replace(config, refresh_latency_ns=0.0))
    on = Dram(config)
    latency_off = off.access(address, now_ns)[0]
    latency_on = on.access(address, now_ns)[0]
    assert latency_on >= latency_off
    phase = (now_ns + config.controller_overhead_ns) \
        % config.refresh_interval_ns
    wait = config.refresh_latency_ns - phase \
        if phase < config.refresh_latency_ns else 0.0
    assert latency_on == latency_off + wait


# ---- histogram --------------------------------------------------------------------

@given(st.lists(st.floats(min_value=0.0, max_value=1e4,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=300))
def test_histogram_percentiles_bounded_by_min_max(values):
    histogram = Histogram.linear(0.0, 1e4, 20)
    histogram.observe_many(values)
    for p in (0, 25, 50, 75, 100):
        assert histogram.min - 1e-9 <= histogram.percentile(p) <= histogram.max + 1e-9
    assert histogram.count == len(values)


@given(st.lists(st.floats(min_value=-1e3, max_value=1e3,
                          allow_nan=False, allow_infinity=False),
                min_size=2, max_size=200))
def test_running_mean_matches_numpy_free_reference(values):
    stream = RunningMean()
    for value in values:
        stream.observe(value)
    mean = sum(values) / len(values)
    variance = sum((v - mean) ** 2 for v in values) / len(values)
    mean_tol = 1e-6
    var_tol = 1e-5
    assert abs(stream.mean - mean) < mean_tol * max(1.0, abs(mean))
    assert abs(stream.variance - variance) < var_tol * max(1.0, variance)


# ---- counters -----------------------------------------------------------------------

@given(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]),
                          st.floats(min_value=0.0, max_value=100.0)),
                max_size=100))
def test_counterset_total_is_sum_of_increments(increments):
    counters = CounterSet()
    expected = {}
    for name, amount in increments:
        counters.add(name, amount)
        expected[name] = expected.get(name, 0.0) + amount
    for name, total in expected.items():
        assert abs(counters.get(name) - total) < 1e-9


# ---- intervals ------------------------------------------------------------------------

@given(st.lists(st.tuples(st.sampled_from(["x", "y", "z"]),
                          st.integers(min_value=0, max_value=100)),
                min_size=1, max_size=50))
def test_interval_accumulator_conserves_time(steps):
    acc = IntervalAccumulator("x", keep_records=True)
    cycle = 0
    for state, length in steps:
        cycle += length
        acc.switch(state, cycle)
    acc.close(cycle)
    assert acc.grand_total() == cycle
    acc.verify_contiguous()


# ---- trace round-trip ------------------------------------------------------------------

trace_ops = st.lists(
    st.one_of(
        st.builds(ComputeBlock, instructions=st.integers(1, 10_000)),
        st.builds(MemoryAccess,
                  address=st.integers(0, (1 << 48) - 1),
                  pc=st.integers(0, (1 << 32) - 1),
                  is_write=st.booleans(),
                  dependent=st.booleans()),
    ),
    max_size=100)


@given(trace_ops)
def test_trace_jsonl_roundtrip(ops):
    buffer = io.StringIO()
    write_trace(ops, buffer)
    buffer.seek(0)
    assert list(read_trace(buffer)) == ops


# ---- break-even -------------------------------------------------------------------------

@given(
    node=st.sampled_from(["90nm", "65nm", "45nm", "32nm"]),
    stall=st.integers(min_value=0, max_value=5000),
    margin=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=60)
def test_worthwhile_is_monotone_in_stall(node, stall, margin):
    """If a stall is worth gating, every longer stall is too."""
    circuit = SleepTransistorNetwork(get_technology(node)).characterize(2e9)
    analyzer = BreakEvenAnalyzer(circuit, GatingConfig(guard_margin_cycles=margin))
    if analyzer.worthwhile(stall):
        assert analyzer.worthwhile(stall + 1)
        assert analyzer.worthwhile(stall * 2 + 1)
    else:
        assert not analyzer.worthwhile(max(0, stall - 1))
