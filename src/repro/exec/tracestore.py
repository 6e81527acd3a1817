"""The sweep engine's trace store: one memo of columnar traces per owner.

``run_policy_comparison`` replays the *identical* trace once per policy,
so each :class:`~repro.exec.SweepRunner` and each pool worker owns a
:class:`TraceStore` that generates every ``(profile, seed, warmup_ops,
num_ops)`` trace exactly once and serves it to every later cell, on
either engine: the fast kernel replays the stored
:class:`~repro.fastsim.ColumnarTrace` pairs directly and the oracle
replays their ``ops()``.

Generation, memoization and LRU bounding all live in
:class:`~repro.fastsim.ColumnarTraceStore`; this subclass only names the
exec layer's stores apart from the per-process shared one that serves
cells run with no store.
"""

from __future__ import annotations

from repro.fastsim.columnar import ColumnarTraceStore


class TraceStore(ColumnarTraceStore):
    """LRU-bounded memo of ``(warmup, measured)`` columnar trace pairs."""
