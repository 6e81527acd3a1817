"""``repro lint --explain RULE``: rule documentation with examples.

Each registered rule gets a short prose explanation straight from its
class docstring plus a minimal *bad*/*good* example pair kept here, so
the CLI can answer "what is this finding and how do I fix it" without a
trip to docs/LINTING.md.
"""

from __future__ import annotations

import inspect
import textwrap
from typing import Dict, Tuple

from repro.lint.base import _PROJECT_REGISTRY, get_rule

#: rule_id -> (bad example, good example).  Examples are deliberately
#: minimal: one screen, one defect, one fix.
_EXAMPLES: Dict[str, Tuple[str, str]] = {
    "UNIT01": (
        "stall_ns = wakeup_cycles * 1.25  # mixes cycles with SI units",
        "stall_cycles = wakeup_cycles + WAKEUP_LATENCY_CYCLES",
    ),
    "DET01": (
        "jitter = random.random()       # global RNG in simulation code",
        "jitter = self.rng.random()     # seeded per-run Random instance",
    ),
    "FLT01": (
        "if energy_pj == budget_pj: ...",
        "if math.isclose(energy_pj, budget_pj, rel_tol=1e-9): ...",
    ),
    "CFG01": (
        "retention_uw: float = 0.0       # never read, never range-checked",
        "retention_uw: float = 0.0  # read by idle_power(); validated "
        "in __post_init__",
    ),
    "CACHE01": (
        "def gate_mode():\n"
        "    return os.environ.get('MAPG_GATE', 'fixed')  # invisible to "
        "the cache key",
        "def gate_mode(config):\n"
        "    return config.gate_mode  # threaded through JobSpec, hashed "
        "into the key",
    ),
    "PURE01": (
        "_SEEN = []\n"
        "def _worker(item):\n"
        "    _SEEN.append(item)      # accumulates across pool tasks\n"
        "    return item",
        "def _worker(item):\n"
        "    return item             # everything flows through the payload",
    ),
    "OBS01": (
        "recorder.instant('core0', 'tick', now)   # unguarded emission",
        "if recorder.enabled:\n"
        "    recorder.instant('core0', 'tick', now)",
    ),
    "CONC01": (
        "_STATE = {}  # mapglint: guarded-by=_LOCK\n"
        "def _watcher():\n"
        "    _STATE['tick'] += 1     # guarded field, no lock held",
        "_STATE = {}  # mapglint: guarded-by=_LOCK\n"
        "def _watcher():\n"
        "    with _LOCK:\n"
        "        _STATE['tick'] += 1  # binding lock held at the write",
    ),
    "ERR01": (
        "def _worker(item):\n"
        "    return simulate(item)   # ConfigError escapes, pool join dies",
        "def _worker(item):  # mapglint: error-boundary\n"
        "    try:\n"
        "        return key(item), simulate(item)\n"
        "    except Exception as exc:\n"
        "        return key(item), {'__mapg_error__': str(exc)}",
    ),
    "ERR04": (
        "raise ValueError('percentile must be in [0, 100]')  # breaks "
        "the errors.py contract",
        "raise StatsError('percentile must be in [0, 100]')  # "
        "StatsError(ReproError, ValueError) keeps old callers working",
    ),
}


def explain_rule(rule_id: str) -> str:
    """Human-readable explanation of one rule: doc plus bad/good example.

    Raises :class:`KeyError` (with the known-rule list) for unknown ids,
    exactly as :func:`repro.lint.base.get_rule` does.
    """
    rule_id = rule_id.strip().upper()
    rule_class = get_rule(rule_id)
    scope = "project" if rule_id in _PROJECT_REGISTRY else "file"
    # Rule prose lives in the class docstring when present, otherwise in
    # the defining module's docstring (the house style for rule files).
    module = inspect.getmodule(rule_class)
    doc = inspect.cleandoc(
        rule_class.__doc__ or (module.__doc__ if module else "") or ""
    ).strip()

    parts = [
        f"{rule_id}  [{rule_class.default_severity.value}/{scope}]",
        "",
        rule_class.summary,
    ]
    if doc:
        parts += ["", doc]
    example = _EXAMPLES.get(rule_id)
    if example is not None:
        bad, good = example
        parts += [
            "",
            "bad:",
            textwrap.indent(bad, "    "),
            "",
            "good:",
            textwrap.indent(good, "    "),
        ]
    return "\n".join(parts)
