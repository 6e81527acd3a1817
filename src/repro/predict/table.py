"""History-table predictor — the predictor MAPG deploys.

DRAM latency is bimodal-per-bank (row hit vs row miss/conflict plus
queueing), and which mode an access lands in correlates strongly with the
bank's recent behaviour and with the static instruction stream.  The
:class:`HistoryTablePredictor` therefore keeps a small direct-mapped table
of EWMA estimators indexed by a hash of (pc, bank), each with a saturating
confidence counter that rewards accurate predictions — this is the kind of
structure that fits in a few hundred bytes of SRAM next to the memory
controller, which is the implementation a DATE paper would argue for.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.config import GatingConfig
from repro.errors import PredictionError
from repro.predict.base import LatencyPredictor, Prediction
from repro.predict.simple import EwmaPredictor, FixedPredictor, LastValuePredictor


class _TableEntry:
    """One table slot: EWMA latency estimate + 2-bit-style confidence."""

    __slots__ = ("mean", "confidence_counter", "valid")

    CONFIDENCE_MAX = 7  # 3-bit saturating counter

    def __init__(self) -> None:
        self.mean = 0.0
        self.confidence_counter = 0
        self.valid = False

    def observe(self, actual_cycles: int, alpha: float,
                tolerance: float) -> None:
        """Learn one measured latency: confidence counter, then EWMA.

        Runs at every off-chip stall on both engines, hence the plain
        comparisons in place of ``abs``/``min``/``max``.
        """
        if not self.valid:
            self.mean = float(actual_cycles)
            self.confidence_counter = 1
            self.valid = True
            return
        mean = self.mean
        error = actual_cycles - mean
        if (error if error >= 0 else -error) <= tolerance * (
                mean if mean > 1.0 else 1.0):
            counter = self.confidence_counter + 1
            if counter > self.CONFIDENCE_MAX:
                counter = self.CONFIDENCE_MAX
        else:
            counter = self.confidence_counter - 2
            if counter < 0:
                counter = 0
        self.confidence_counter = counter
        self.mean = mean + alpha * error


# The table hash: pc is folded down by the word shift, the bank id and the
# row-buffer outcome (2 bits in hardware; hashed from the string here) are
# spread by two odd multipliers before the xor fold.
_PC_SHIFT = 2
_KIND_MASK = 0x3F
_KIND_MULT = 0x68E31
_BANK_MULT = 0x9E37


class HistoryTablePredictor(LatencyPredictor):
    """Direct-mapped (pc, bank)-indexed table of latency estimators."""

    def __init__(self, entries: int = 64, alpha: float = 0.3,
                 tolerance: float = 0.2, initial_cycles: int = 200) -> None:
        if entries < 1:
            raise PredictionError(f"table needs >= 1 entry, got {entries}")
        if not 0.0 < alpha <= 1.0:
            raise PredictionError(f"alpha must be in (0, 1], got {alpha}")
        if tolerance <= 0.0:
            raise PredictionError(f"tolerance must be > 0, got {tolerance}")
        if initial_cycles < 0:
            raise PredictionError(f"initial latency must be >= 0, got {initial_cycles}")
        self._entries_count = entries
        self._alpha = alpha
        self._tolerance = tolerance
        self._initial = initial_cycles
        self._table: List[_TableEntry] = [_TableEntry() for __ in range(entries)]
        # kind -> its term of the table hash, folded once per outcome.
        self._kind_terms: Dict[str, int] = {}

    def lookup(self, pc: int, bank: int,
               kind: str = "") -> Tuple[_TableEntry, int, float]:
        """``(entry, latency, confidence)`` for one access.

        ``predict`` wraps the estimate; the fast kernel keeps the entry to
        train it with :meth:`_TableEntry.observe` once the latency is known.
        """
        kind_term = self._kind_terms.get(kind)
        if kind_term is None:
            kind_term = (sum(kind.encode()) & _KIND_MASK) * _KIND_MULT
            self._kind_terms[kind] = kind_term
        entry = self._table[((pc >> _PC_SHIFT) ^ (bank * _BANK_MULT)
                             ^ kind_term) % self._entries_count]
        if not entry.valid:
            return entry, self._initial, 0.0
        return (entry, round(entry.mean),
                entry.confidence_counter / _TableEntry.CONFIDENCE_MAX)

    def predict(self, pc: int, bank: int, kind: str = "") -> Prediction:
        __, latency, confidence = self.lookup(pc, bank, kind)
        return Prediction(latency, confidence)

    def observe(self, pc: int, bank: int, actual_cycles: int,
                kind: str = "") -> None:
        if actual_cycles < 0:
            raise PredictionError(f"observed latency must be >= 0, got {actual_cycles}")
        self.lookup(pc, bank, kind)[0].observe(
            actual_cycles, self._alpha, self._tolerance)

    def reset(self) -> None:
        self._table = [_TableEntry() for __ in range(self._entries_count)]

    @property
    def occupancy(self) -> float:
        """Fraction of table slots trained (diagnostic)."""
        used = sum(1 for entry in self._table if entry.valid)
        return used / self._entries_count


def make_predictor(config: GatingConfig,
                   default_latency_cycles: int) -> Optional[LatencyPredictor]:
    """Build the predictor named by ``config.predictor``.

    ``default_latency_cycles`` seeds every predictor's cold-start estimate
    (the static closed-row DRAM latency).  Returns None for ``"oracle"`` —
    the controller then uses the simulator's ground truth directly.
    """
    name = config.predictor
    if name == "fixed":
        return FixedPredictor(default_latency_cycles)
    if name == "last_value":
        return LastValuePredictor(initial_cycles=default_latency_cycles)
    if name == "ewma":
        return EwmaPredictor(initial_cycles=default_latency_cycles)
    if name == "table":
        return HistoryTablePredictor(initial_cycles=default_latency_cycles)
    if name == "oracle":
        return None
    raise PredictionError(f"unknown predictor {name!r}")
