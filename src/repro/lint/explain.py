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
    "UNIT02": (
        "charge(ledger, idle_ns)        # callee expects cycles",
        "charge(ledger, idle_cycles)    # dimension agrees across the call",
    ),
    "DET01": (
        "jitter = random.random()       # global RNG in simulation code",
        "jitter = self.rng.random()     # seeded per-run Random instance",
    ),
    "FSM01": (
        "self.state = PgState.OFF       # skips the DRAIN transition",
        "self.transition(PgState.DRAIN) # legal edge, checked by the FSM",
    ),
    "FLT01": (
        "if energy_pj == budget_pj: ...",
        "if math.isclose(energy_pj, budget_pj, rel_tol=1e-9): ...",
    ),
    "LEDGER01": (
        "ledger.total_pj += 3.2          # direct mutation, no component",
        "ledger.charge('bank', active_pj(cycles))  # tagged, derived",
    ),
    "CFG01": (
        "retention_uw: float = 0.0       # never read, never range-checked",
        "retention_uw: float = 0.0  # read by idle_power(); validated "
        "in __post_init__",
    ),
    "EVT01": (
        "heapq.heappush(queue, (time_ns, event))   # SI time, ties unstable",
        "heapq.heappush(queue, (time_cycles, seq, event))  # cycle time + "
        "deterministic tie-break",
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
    "PAR01": (
        "pool.map(lambda x: x + 1, items)   # lambdas do not pickle",
        "pool.map(_scale_item, items)       # module-level function",
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
    "CONC02": (
        "lock.acquire()\n"
        "do_work()                   # an exception leaks the lock\n"
        "lock.release()",
        "with lock:\n"
        "    do_work()               # released on every exit edge",
    ),
    "CONC03": (
        "with state_lock:\n"
        "    pool.map(_worker, cells)   # submission under a held lock",
        "pool.map(_worker, cells)\n"
        "with state_lock:\n"
        "    merge(results)             # lock around the merge only",
    ),
    "CONC04": (
        "with open(entry_path, 'wb') as fh:\n"
        "    fh.write(payload)       # readers can see the torn entry",
        "tmp = f'{entry_path}.{os.getpid()}.tmp'\n"
        "with open(tmp, 'wb') as fh:\n"
        "    fh.write(payload)\n"
        "os.replace(tmp, entry_path)  # atomic publication",
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
    "ERR02": (
        "try:\n"
        "    entry = json.load(handle)\n"
        "except Exception:\n"
        "    pass                    # every future bug becomes silence",
        "try:\n"
        "    entry = json.load(handle)\n"
        "except (OSError, ValueError) as exc:\n"
        "    log.warning('cache entry unreadable: %s', exc)\n"
        "    return None",
    ),
    "ERR03": (
        "self._registry[name] = entry   # registered...\n"
        "validate(entry)                # ...then the raise unwinds",
        "validate(entry)                # raise first\n"
        "self._registry[name] = entry   # mutate last",
    ),
    "ERR04": (
        "raise ValueError('percentile must be in [0, 100]')  # breaks "
        "the errors.py contract",
        "raise StatsError('percentile must be in [0, 100]')  # "
        "StatsError(ReproError, ValueError) keeps old callers working",
    ),
    "RES01": (
        "pool = context.Pool(workers)\n"
        "merge(pool.map(_worker, cells))\n"
        "pool.terminate()            # skipped when map() raises",
        "with context.Pool(workers) as pool:\n"
        "    merge(pool.map(_worker, cells))  # released on every exit edge",
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
