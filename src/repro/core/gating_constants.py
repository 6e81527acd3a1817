"""Numeric constants shared by the oracle and the fast kernel.

``repro.fastsim.kernel`` inlines the oracle's policy/predictor update
rules for speed, which means every tuning constant in that arithmetic
exists at two call sites — one in the oracle class that owns it, one in
the kernel's flat replay loop.  A constant edited in one place but not
the other would silently break the engines' bit-identity contract, so
each such constant is defined here exactly once and *imported* by both
sides.  A copy that drifted anyway would fail the config-fuzzed
fast/oracle parity test (``tests/test_fastsim_parity.py``), which
compares whole results over randomly drawn configurations.

This module is a leaf on purpose: no imports, so either engine (and the
predictor package) can pull constants without ordering concerns.
"""

from __future__ import annotations

# MapgPolicy's global fallback registers: EWMA weight of the (mean,
# deviation) pair, the deviation's cold-start fraction of the static
# estimate, and how many deviations early a fallback gate wakes (the
# TCP-RTO trick).
GLOBAL_ALPHA = 0.1
FALLBACK_DEV_FRACTION = 0.25
FALLBACK_DEV_BIAS = 1.5

# AdaptiveMapgPolicy's AIMD bias rule: additive increase per late wake,
# multiplicative decay when wakes land comfortably early, the idle-awake
# tolerance that defines "comfortably", and the bias ceiling.
AIMD_INCREASE_CYCLES = 4
AIMD_DECAY = 0.85
AIMD_IDLE_TOLERANCE_CYCLES = 24
AIMD_BIAS_CAP_CYCLES = 96

# HistoryTablePredictor's direct-mapped table hash: pc is folded down by
# the word shift, the bank id and the (string-hashed) row-buffer outcome
# are spread by two odd multipliers before the xor fold.
TABLE_PC_SHIFT = 2
TABLE_KIND_MASK = 0x3F
TABLE_KIND_MULT = 0x68E31
TABLE_BANK_MULT = 0x9E37
