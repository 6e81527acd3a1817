"""Golden bytes of the synthetic trace generator.

Every simulated number in the repository starts from these traces, so the
generator's exact RNG draw order is a contract.  ``data/trace_digests.json``
holds the sha256 of every column of every cell below, recorded from the
per-op generator that yielded one ``ComputeBlock``/``MemoryAccess`` object
at a time; the column generator must reproduce them byte for byte.

Regenerate (only for a deliberate change of the trace model)::

    PYTHONPATH=src python tests/test_trace_digests.py > tests/data/trace_digests.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from array import array
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro.errors import ConfigError
from repro.fastsim import ColumnarTrace, ColumnarTraceStore
from repro.workloads import PhaseSpec, SyntheticTraceGenerator, WorkloadProfile
from repro.workloads.profiles import get_profile, profile_names

DIGESTS = Path(__file__).resolve().parent / "data" / "trace_digests.json"
SEEDS = (1, 11, 12)
COLUMNS = ("addresses", "pcs", "write_flags", "dependent_flags",
           "block_instructions", "block_bounds")

# Built the way examples/custom_workload.py builds its profile: phases
# alternate memory intensity and the random share of the mix.
DATABASE_LIKE = WorkloadProfile(
    name="database_like",
    description="index probes (random) alternating with table scans (sequential)",
    instructions_per_memory_op=6.0,
    sequential_fraction=0.35, strided_fraction=0.05, random_fraction=0.60,
    working_set_bytes=64 * 1024 * 1024,
    write_fraction=0.15, pc_pool_size=48,
    reuse_fraction=0.72, reuse_window_lines=8192, reuse_skew=7.0,
    phases=(
        PhaseSpec(ops=2500, memory_scale=1.6, random_scale=1.4),
        PhaseSpec(ops=2500, memory_scale=0.8, random_scale=0.3),
    ),
)

# (profile, seed, warmup ops, measured ops).  gcc_like seed 11's op 4991
# is a compute block, so a 4 992-op warmup ends right after one and the
# measured region starts on a fresh gap draw.
Cell = Tuple[str, int, int, int]
CELLS: List[Cell] = (
    [(name, seed, 0, 30_000) for name in profile_names() for seed in SEEDS]
    + [(name, seed, 5_000, 15_000) for name in profile_names()
       for seed in SEEDS]
    + [("gcc_like", 11, 4_992, 1_000), ("mcf_like", 1, 0, 0),
       ("mcf_like", 1, 0, 1), ("povray_like", 12, 0, 1),
       ("database_like", 5, 2_500, 12_000)])
# Cells whose op objects are also pinned, one digest over every op's repr.
OP_CELLS: List[Cell] = [("mcf_like", 1, 0, 3_000),
                        ("gcc_like", 11, 4_992, 1_000),
                        ("database_like", 5, 0, 6_000)]


def _profile(name: str) -> WorkloadProfile:
    return DATABASE_LIKE if name == DATABASE_LIKE.name else get_profile(name)


def cell_id(cell: Cell) -> str:
    profile, seed, warmup, num_ops = cell
    return f"{profile}/seed{seed}/warm{warmup}/ops{num_ops}"


def column_digests(trace: ColumnarTrace) -> Dict[str, object]:
    """sha256 of each column's little-endian bytes, plus the block total."""
    digests: Dict[str, object] = {}
    for column in COLUMNS:
        values = getattr(trace, column)
        if isinstance(values, array) and sys.byteorder != "little":
            values = array(values.typecode, values)
            values.byteswap()
        digests[column] = hashlib.sha256(bytes(values)).hexdigest()
    digests["total_block_instructions"] = trace.total_block_instructions
    return digests


def cell_regions(cell: Cell) -> Tuple[ColumnarTrace, ColumnarTrace]:
    """The cell's (warmup, measured) columns from one continuing generator."""
    profile, seed, warmup, num_ops = cell
    generator = SyntheticTraceGenerator(_profile(profile), seed=seed)
    return generator.columns(warmup), generator.columns(num_ops)


def cell_digests(cell: Cell) -> Dict[str, Dict[str, object]]:
    warm, measured = cell_regions(cell)
    digests = {"measured": column_digests(measured)}
    if cell[2]:
        digests["warmup"] = column_digests(warm)
    return digests


def ops_digest(cell: Cell) -> str:
    """sha256 over the reprs of the cell's warmup then measured op objects."""
    profile, seed, warmup, num_ops = cell
    generator = SyntheticTraceGenerator(_profile(profile), seed=seed)
    ops = (list(generator.operations(warmup))
           + list(generator.operations(num_ops)))
    return hashlib.sha256(
        "\n".join(map(repr, ops)).encode("utf-8")).hexdigest()


def record() -> Dict[str, Dict[str, object]]:
    """Every digest the tests check, keyed as in ``data/trace_digests.json``."""
    return {"columns": {cell_id(cell): cell_digests(cell) for cell in CELLS},
            "ops": {cell_id(cell): ops_digest(cell) for cell in OP_CELLS}}


@pytest.fixture(scope="module")
def golden():
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("profile", sorted({cell[0] for cell in CELLS}))
def test_columns_match_golden_digests(golden, profile):
    cells = [cell for cell in CELLS if cell[0] == profile]
    for cell in cells:
        assert cell_digests(cell) == golden["columns"][cell_id(cell)], \
            cell_id(cell)


def test_golden_covers_every_cell(golden):
    assert set(golden["columns"]) == {cell_id(cell) for cell in CELLS}
    assert set(golden["ops"]) == {cell_id(cell) for cell in OP_CELLS}


@pytest.mark.parametrize("cell", OP_CELLS, ids=cell_id)
def test_operations_match_golden_op_objects(golden, cell):
    assert ops_digest(cell) == golden["ops"][cell_id(cell)]


@pytest.mark.parametrize("cell", OP_CELLS, ids=cell_id)
def test_ingested_operations_equal_the_columns(cell):
    # operations() is a view of the columns: ingesting it gives them back.
    profile, seed, warmup, num_ops = cell
    generator = SyntheticTraceGenerator(_profile(profile), seed=seed)
    ingested = (ColumnarTrace(generator.operations(warmup)),
                ColumnarTrace(generator.operations(num_ops)))
    assert [column_digests(trace) for trace in ingested] == \
        [column_digests(trace) for trace in cell_regions(cell)]


def test_store_serves_the_same_columns():
    cell = ("gcc_like", 11, 4_992, 1_000)
    pair = ColumnarTraceStore().traces("gcc_like", 1_000, seed=11,
                                       warmup_ops=4_992)
    assert [column_digests(trace) for trace in pair] == \
        [column_digests(trace) for trace in cell_regions(cell)]


def test_boundary_warmup_ends_on_a_compute_block():
    warm, __ = cell_regions(("gcc_like", 11, 4_992, 1_000))
    bounds = warm.block_bounds
    assert bounds[-1] > bounds[-2]  # a trailing block closes the region
    assert warm.num_ops == 4_992


def test_negative_op_count_is_a_config_error():
    generator = SyntheticTraceGenerator(get_profile("mcf_like"))
    with pytest.raises(ConfigError):
        list(generator.operations(-1))
    with pytest.raises(ConfigError):
        generator.columns(-1)


if __name__ == "__main__":
    print(json.dumps(record(), indent=1, sort_keys=True))
