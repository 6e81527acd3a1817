"""The sweep engine's trace store: a counted view of the process's trace memo.

``run_policy_comparison`` replays the *identical* trace once per policy,
so each :class:`~repro.exec.SweepRunner` reads its cells' traces through
a :class:`TraceStore`.  Every ``(profile, seed, warmup_ops, num_ops)``
trace is generated once per process — by whichever store, runner or
pool task asks first — and served to every later cell, on either
engine: the fast kernel replays the stored
:class:`~repro.fastsim.ColumnarTrace` pairs directly and the oracle
replays their ``ops()``.

Generation, the memo and its LRU bound all live in
:mod:`repro.fastsim.columnar`; this subclass only names a sweep's
store (and its hit and miss counts) apart from the shared one that
serves cells run with no store.
"""

from __future__ import annotations

from repro.fastsim.columnar import ColumnarTraceStore


class TraceStore(ColumnarTraceStore):
    """A sweep's counted view of the per-process trace memo."""
