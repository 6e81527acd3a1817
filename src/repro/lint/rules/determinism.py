"""DET01 — determinism.

Simulations must be bit-reproducible given a seed (the same discipline
gem5's DRAM power-state models rely on for their energy claims).  Three
sources of hidden nondeterminism are flagged:

1. **Global RNG calls** (everywhere) — ``random.random()``,
   ``numpy.random.rand()`` and friends draw from process-global generators
   whose state any import can perturb.  Components must own a seeded
   ``random.Random(seed)`` / ``numpy.random.default_rng(seed)`` instance.

2. **Wall-clock reads** (simulation code) — ``time.time()``,
   ``datetime.now()`` etc. inside ``repro/sim``, ``repro/core``,
   ``repro/cpu``, ``repro/memory``, ``repro/obs``, ``repro/exec``, or
   ``repro/fastsim`` leak
   host time into simulated time (for ``repro/exec`` it could leak into
   scheduling, which must stay content-addressed; the batched kernel in
   ``repro/fastsim`` claims bit-identity with the oracle, so host time
   anywhere inside it voids that contract).  Two modules are
   allowlisted: ``repro/obs/profile.py`` *is* the self-profiling harness,
   whose whole job is measuring the simulator's own wall time and memory;
   and ``repro/obs/sweep.py`` timestamps sweep lifecycle events
   (cells/sec, ETA) the same way.  Both report *about* the host, never
   into the simulation (see docs/OBSERVABILITY.md) — OBS01 separately
   proves their values cannot reach results.

3. **Set iteration** (``repro/sim``, ``repro/core``, ``repro/exec``, and
   ``repro/fastsim``)
   — iterating a set
   literal or ``set()``/``frozenset()`` call orders elements by hash;
   string hashes are randomized per process, so iteration order — and any
   tie-break it feeds — changes between runs.  Iterate a sorted sequence
   instead.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.lint.base import FileContext, LintRule, register_rule
from repro.lint.findings import Severity

_GLOBAL_RANDOM_FUNCS = frozenset({
    "betavariate", "choice", "choices", "expovariate", "gammavariate",
    "gauss", "getrandbits", "lognormvariate", "normalvariate",
    "paretovariate", "randbytes", "randint", "random", "randrange",
    "sample", "seed", "shuffle", "triangular", "uniform",
    "vonmisesvariate", "weibullvariate",
})

_NUMPY_RANDOM_FUNCS = frozenset({
    "beta", "binomial", "bytes", "chisquare", "choice", "dirichlet",
    "exponential", "gamma", "geometric", "gumbel", "laplace", "lognormal",
    "logistic", "multinomial", "multivariate_normal", "normal",
    "permutation", "poisson", "rand", "randint", "randn", "random",
    "random_integers", "random_sample", "ranf", "rayleigh", "sample",
    "seed", "shuffle", "standard_cauchy", "standard_exponential",
    "standard_gamma", "standard_normal", "standard_t", "triangular",
    "uniform", "vonmises", "wald", "weibull", "zipf",
})

_WALL_CLOCK = {
    "time": frozenset({"time", "time_ns", "perf_counter", "perf_counter_ns",
                       "monotonic", "monotonic_ns", "process_time"}),
    "datetime": frozenset({"now", "utcnow", "today"}),
    "date": frozenset({"today"}),
}

_SIM_PACKAGES = ("repro/sim", "repro/core", "repro/cpu", "repro/memory",
                 "repro/obs", "repro/exec", "repro/fastsim")
# Modules exempt from the wall-clock check: the self-profiler and the
# sweep telemetry measure the host on purpose — the blessed homes for
# perf_counter et al.  Everything else in obs/exec stays clock-free.
_WALL_CLOCK_ALLOWLIST = ("repro/obs/profile.py", "repro/obs/sweep.py")
_SET_SCOPE = ("repro/sim", "repro/core", "repro/exec", "repro/fastsim")


def _attribute_base_name(node: ast.Attribute) -> Optional[str]:
    """The name of the object an attribute hangs off, e.g. ``time`` or
    ``np.random`` -> ``random`` for the final hop's base."""
    if isinstance(node.value, ast.Name):
        return node.value.id
    if isinstance(node.value, ast.Attribute):
        return node.value.attr
    return None


def _is_numpy_random_chain(node: ast.Attribute) -> bool:
    """Matches ``np.random.X`` / ``numpy.random.X`` attribute chains."""
    value = node.value
    return (isinstance(value, ast.Attribute)
            and value.attr == "random"
            and isinstance(value.value, ast.Name)
            and value.value.id in ("np", "numpy"))


@register_rule
class DeterminismRule(LintRule):
    rule_id = "DET01"
    summary = ("no global-RNG calls, no wall-clock reads in "
               "sim/obs/exec/fastsim code (obs profile/sweep modules "
               "allowlisted), no set iteration in repro/sim, "
               "repro/core, repro/exec, and repro/fastsim")
    default_severity = Severity.ERROR

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            base = _attribute_base_name(func)
            if (isinstance(func.value, ast.Name) and base == "random"
                    and func.attr in _GLOBAL_RANDOM_FUNCS):
                self.report(node,
                            f"random.{func.attr}() uses the process-global "
                            f"RNG; draw from a seeded random.Random(seed) "
                            f"instance instead")
            elif _is_numpy_random_chain(func) and \
                    func.attr in _NUMPY_RANDOM_FUNCS:
                self.report(node,
                            f"numpy.random.{func.attr}() uses the global "
                            f"NumPy RNG; use numpy.random.default_rng(seed)")
            elif self._in_sim_code() and base in _WALL_CLOCK and \
                    func.attr in _WALL_CLOCK[base]:
                self.report(node,
                            f"{base}.{func.attr}() reads the host wall "
                            f"clock inside simulation code; simulated time "
                            f"must come from the cycle counter")
        self.generic_visit(node)

    def _in_sim_code(self) -> bool:
        assert self.context is not None
        if any(self.context.is_module(module)
               for module in _WALL_CLOCK_ALLOWLIST):
            return False
        return self.context.in_package(*_SIM_PACKAGES)

    # -- set iteration -----------------------------------------------------

    def _check_iterable(self, iterable: ast.AST) -> None:
        assert self.context is not None
        if not self.context.in_package(*_SET_SCOPE):
            return
        if isinstance(iterable, ast.Set):
            self.report(iterable,
                        "iteration over a set literal is hash-ordered and "
                        "differs between runs; iterate a tuple/list or "
                        "sorted(...) instead")
        elif isinstance(iterable, ast.Call) and \
                isinstance(iterable.func, ast.Name) and \
                iterable.func.id in ("set", "frozenset"):
            self.report(iterable,
                        f"iteration over {iterable.func.id}() is "
                        f"hash-ordered and differs between runs; wrap in "
                        f"sorted(...) or keep insertion order with dict")

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)
