"""Effect inference for the whole-program analyzer.

This module answers *what the world does to a function and what the
function does to the world*.  Phase 1 extracts,
per function, a set of :class:`Effect` facts — environment-variable reads,
filesystem access, global-RNG draws, wall-clock reads, process/pool
management, and reads/writes of mutable module globals — each with the
exact source site as evidence.  Phase 2 (:class:`EffectPropagator`)
closes those local facts transitively over the resolved call graph with a
fixpoint over the effect lattice (a powerset lattice: union is the join,
the bottom element is the empty set, and every transfer function is
monotone, so the fixpoint exists and is reached in finitely many sweeps).

Effects are what turn the execution engine's correctness assumptions into
machine-checked facts:

* a value that reaches simulation state from an **env read** or a mutable
  **module global** is invisible to the ``JobSpec``/source digest that
  addresses the result cache — a stale-cache hazard (CACHE01);
* a function submitted to a ``multiprocessing`` pool must be **effect-free**
  beyond its payload, or worker scheduling leaks into results (PURE01);
  the submission sites are recorded here as :class:`PoolSubmission`.

Call-graph edges follow the project's agreement philosophy: effects
propagate only through **unambiguously resolved** calls (exactly one
definition for the bare name).  An ambiguous or unresolvable callee
contributes nothing — the engine under-approximates rather than guesses,
so every reported effect chain is real.

A module global that is a *deliberate, content-pure memo* (a cache whose
value is derived entirely from the payload or the source tree) can be
declared on its definition line::

    _PAIRS = OrderedDict()  # mapglint: declared-cache

Declared caches produce no global-read/global-write effects; the
declaration is the author's auditable claim that the memo cannot change
any result, placed where a reviewer will see it.

Phase 1 also extracts the **concurrency model** CONC01 reads:

* **spawn sites** — thread and async-task entry points
  (``threading.Thread(target=...)``, ``asyncio.create_task``); together
  with the pool submissions already recorded, these are the roots from
  which concurrent execution can reach shared state;
* **locks held** — the ``with lock:`` blocks statically enclosing each
  effect site, recorded on the effect;
* **guarded fields** — a ``# mapglint: guarded-by=<lock>`` pragma on a
  definition line binds a module global or instance attribute to the
  lock that must be held to write it.

The daemon-readiness roadmap items also need **exception flow**: at
10^4–10^6 sweep cells, one escaped exception kills a pool join and one
swallowed one corrupts a run silently.  Phase 1 therefore extracts an
**error-flow model** per function:

* **raise sites** — every explicit ``raise`` with the spelled exception
  type (resolved against the :class:`ReproError` hierarchy in phase 2;
  ``raise err`` of a lowercase local is unknowable and skipped — the
  engine under-approximates rather than guesses);
* **handler spans** — every ``except`` clause with its caught types, the
  try-body line span it protects, and whether the handler re-raises
  (bare ``raise``) — the facts ERR01 needs to tell where an exception
  stops;
* **exception classes** — every ``class X(Base, ...)`` definition, so
  phase 2 can resolve project exception subtyping.

A function that *intentionally* swallows exceptions (a cache ``load``
where a corrupt entry must mean a miss, a pool worker that must return a
failure record instead of dying) declares it on its definition line::

    def load(self, spec):  # mapglint: error-boundary

The pragma is the author's auditable claim that swallowing is the
contract there; ERR01 trusts it and phase 2 records the qualname in
:attr:`ModuleEffects.error_boundaries`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

# ---- the effect alphabet ---------------------------------------------------

ENV = "env"                    # os.environ / os.getenv reads
FS = "fs"                      # filesystem reads or writes
RNG = "rng"                    # process-global RNG draws
CLOCK = "clock"                # wall-clock reads
PROCESS = "process"            # process/pool management, pids
GLOBAL_WRITE = "global-write"  # post-import mutation of a module global
GLOBAL_READ = "global-read"    # read of a post-import-mutated module global
OBS_EMIT = "obs-emit"          # recorder/metrics emission (from call sites)
GUARDED_WRITE = "guarded-write"    # write to a guarded-by bound symbol
SHARED_WRITE = "shared-attr-write"  # mutation of a class-level mutable attr

#: Every effect kind phase 1 can emit, in display order.
ALL_EFFECTS = (ENV, FS, RNG, CLOCK, PROCESS, GLOBAL_WRITE, GLOBAL_READ,
               OBS_EMIT, GUARDED_WRITE, SHARED_WRITE)

#: The kinds that make a pool worker impure (PURE01) — everything except
#: recorder emission, which workers never see (recorders are per-process).
IMPURE_KINDS = frozenset({ENV, FS, RNG, CLOCK, PROCESS,
                          GLOBAL_WRITE, GLOBAL_READ})

#: The kinds that make a cached simulation result stale-prone (CACHE01):
#: inputs the JobSpec/source digest cannot see.
CACHE_HAZARD_KINDS = frozenset({ENV, GLOBAL_WRITE, GLOBAL_READ})


@dataclass(frozen=True)
class Effect:
    """One observed effect with its evidence site."""

    kind: str                  # one of ALL_EFFECTS
    detail: str                # human-readable evidence ("os.getenv('X')")
    line: int
    col: int
    line_text: str = ""
    symbol: str = ""           # the global/attr involved, when applicable
    locks_held: Tuple[str, ...] = ()  # with-blocks enclosing the site


@dataclass(frozen=True)
class FunctionEffects:
    """The locally observed effects of one function or method."""

    qualname: str              # matches FunctionInfo.qualname
    name: str
    line: int
    effects: Tuple[Effect, ...]


@dataclass(frozen=True)
class ClassAttrInfo:
    """One mutable class-body attribute (a latent shared cache)."""

    class_name: str
    attr: str
    line: int
    col: int
    line_text: str = ""


@dataclass(frozen=True)
class PoolSubmission:
    """One site handing work to a multiprocessing pool/process."""

    method: str                # "map", "imap_unordered", "Process", ...
    worker_kind: str           # "name" | "lambda" | "attribute" | "other"
    worker_name: str           # bare name when worker_kind == "name"
    receiver: str              # dotted receiver ("pool"), may be ""
    in_function: str           # qualname of the enclosing function
    line: int
    col: int
    line_text: str = ""


@dataclass(frozen=True)
class SpawnSite:
    """One thread or async-task creation site (a concurrent entry point)."""

    kind: str                  # "thread" | "task"
    api: str                   # source spelling ("threading.Thread", ...)
    worker_kind: str           # "name" | "lambda" | "attribute" | "other"
    worker_name: str           # bare name when worker_kind == "name"
    in_function: str           # qualname of the enclosing function
    line: int
    col: int
    line_text: str = ""


@dataclass(frozen=True)
class GuardedBinding:
    """One ``# mapglint: guarded-by=<lock>`` field-to-lock binding."""

    symbol: str                # global name or attribute name ("_metrics")
    lock: str                  # dotted lock spelling that must be held
    scope: str                 # "global" | "attr"
    line: int
    col: int
    line_text: str = ""


@dataclass(frozen=True)
class RaiseSite:
    """One explicit ``raise`` statement with its spelled exception type.

    ``exc_type`` is the last segment of the raised expression's spelling
    (``errors.ConfigError`` records as ``ConfigError``); a bare re-raise
    records ``exc_type=""``/``is_reraise=True`` and an unknowable raise
    (``raise err`` of a lowercase local) is not recorded at all.
    """

    exc_type: str              # class name, "" for a bare re-raise
    in_function: str           # qualname of the enclosing function
    line: int
    col: int
    line_text: str = ""
    is_reraise: bool = False   # bare ``raise`` (re-raise of the caught exc)


@dataclass(frozen=True)
class HandlerInfo:
    """One ``except`` clause with the try-body span it protects.

    ``caught`` holds the last segment of each caught spelling in source
    order (empty for a bare ``except:``); a caught expression the
    extractor cannot name records as ``"*"`` and phase 2 treats it as a
    catch-all (under-approximating escapes, never inventing them).
    """

    in_function: str           # qualname of the enclosing function
    caught: Tuple[str, ...]    # caught type names, () for bare except
    is_bare: bool              # ``except:`` with no type at all
    try_start: int             # first line of the protected try body
    try_end: int               # last line of the protected try body
    line: int                  # the ``except`` line
    col: int
    line_text: str = ""
    reraises: bool = False     # bare ``raise`` in the handler suite


@dataclass(frozen=True)
class ExceptionClassInfo:
    """One project class definition with its base spellings.

    Recorded for *every* class with bases — phase 2's exception
    hierarchy only ever queries names that appear in raise/except
    clauses, so the extra entries are inert.
    """

    name: str
    bases: Tuple[str, ...]     # last segment of each base spelling
    line: int


@dataclass(frozen=True)
class ModuleEffects:
    """Everything effect-related phase 2 needs from one module."""

    path: str
    functions: Tuple[FunctionEffects, ...] = ()
    pool_submissions: Tuple[PoolSubmission, ...] = ()
    class_mutable_attrs: Tuple[ClassAttrInfo, ...] = ()
    spawn_sites: Tuple[SpawnSite, ...] = ()
    guarded_bindings: Tuple[GuardedBinding, ...] = ()
    raise_sites: Tuple[RaiseSite, ...] = ()
    handlers: Tuple[HandlerInfo, ...] = ()
    exception_classes: Tuple[ExceptionClassInfo, ...] = ()
    error_boundaries: FrozenSet[str] = frozenset()


# ---- detection tables ------------------------------------------------------

_DECLARED_CACHE_RE = re.compile(r"#\s*mapglint:\s*declared-cache\b")

_ERROR_BOUNDARY_RE = re.compile(r"#\s*mapglint:\s*error-boundary\b")

_GUARDED_BY_RE = re.compile(
    r"#\s*mapglint:\s*guarded-by=([A-Za-z_][A-Za-z0-9_.]*)")

#: Name segments marking a receiver as lock-like (``self._lock``,
#: ``_CACHE_MUTEX``, ``state_cond`` ...).  Matching by spelling keeps the
#: model honest about what it can know statically; locks the convention
#: cannot name should be renamed, not special-cased.  Segments are
#: underscore-split words of the dotted tail: ``blocked_cycles`` has no
#: lock segment, ``cache_lock`` does.
_LOCK_NAME_HINTS = frozenset({"mutex", "sem", "semaphore", "cond",
                              "condition"})

#: ``*lock`` segments that are not locks (a clock is a clock).
_NOT_A_LOCK = frozenset({"clock", "block", "unblock"})

#: Thread/async-task creation: the task-spawning attribute calls.
_TASK_SPAWN_FUNCS = frozenset({"create_task", "ensure_future",
                               "run_coroutine_threadsafe"})

_WALL_CLOCK = {
    "time": frozenset({"time", "time_ns", "perf_counter", "perf_counter_ns",
                       "monotonic", "monotonic_ns", "process_time"}),
    "datetime": frozenset({"now", "utcnow", "today"}),
    "date": frozenset({"today"}),
}

_GLOBAL_RANDOM_FUNCS = frozenset({
    "betavariate", "choice", "choices", "expovariate", "gammavariate",
    "gauss", "getrandbits", "lognormvariate", "normalvariate",
    "paretovariate", "randbytes", "randint", "random", "randrange",
    "sample", "seed", "shuffle", "triangular", "uniform",
    "vonmisesvariate", "weibullvariate",
})

_OS_FS_FUNCS = frozenset({
    "replace", "remove", "unlink", "makedirs", "mkdir", "rmdir", "rename",
    "renames", "link", "symlink", "walk", "listdir", "scandir", "chmod",
    "chown", "truncate", "utime", "stat", "lstat", "access",
})

_OS_PATH_FS_FUNCS = frozenset({
    "exists", "isfile", "isdir", "getsize", "getmtime", "getatime",
    "getctime", "samefile", "realpath",
})

#: Methods distinctive enough to mean pathlib I/O whatever the receiver.
_PATHLIKE_FS_METHODS = frozenset({
    "write_text", "read_text", "write_bytes", "read_bytes", "touch",
    "rglob", "iterdir",
})

_OS_PROC_FUNCS = frozenset({"getpid", "fork", "forkpty", "kill", "system",
                            "popen", "waitpid"})

_POOL_METHODS = frozenset({"map", "imap", "imap_unordered", "map_async",
                           "starmap", "starmap_async", "apply",
                           "apply_async", "submit"})

_POOL_RECEIVER_HINTS = ("pool", "executor")

#: Container methods that mutate their receiver in place.
_MUTATOR_METHODS = frozenset({
    "append", "add", "update", "extend", "insert", "setdefault", "pop",
    "popitem", "clear", "remove", "discard", "move_to_end",
})

_MUTABLE_VALUE_NODES = (ast.Dict, ast.List, ast.Set, ast.ListComp,
                        ast.DictComp, ast.SetComp)

_MUTABLE_FACTORIES = frozenset({"dict", "list", "set", "defaultdict",
                                "OrderedDict", "deque", "Counter"})


def parse_declared_caches(source: str) -> Set[int]:
    """Line numbers carrying a ``# mapglint: declared-cache`` pragma."""
    lines: Set[int] = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        if _DECLARED_CACHE_RE.search(line):
            lines.add(lineno)
    return lines


def parse_guarded_pragmas(source: str) -> Dict[int, str]:
    """``line -> lock`` for every ``# mapglint: guarded-by=<lock>`` pragma."""
    pragmas: Dict[int, str] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _GUARDED_BY_RE.search(line)
        if match:
            pragmas[lineno] = match.group(1)
    return pragmas


def parse_error_boundaries(source: str) -> Set[int]:
    """Line numbers carrying a ``# mapglint: error-boundary`` pragma."""
    lines: Set[int] = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        if _ERROR_BOUNDARY_RE.search(line):
            lines.add(lineno)
    return lines


def is_lock_name(dotted: str) -> bool:
    """Whether a dotted spelling denotes a lock by naming convention."""
    tail = dotted.rsplit(".", 1)[-1].lower()
    for segment in re.split(r"[^a-z0-9]+", tail):
        if segment in _LOCK_NAME_HINTS:
            return True
        if segment.endswith("lock") and segment not in _NOT_A_LOCK:
            return True
    return False


def _extract_guarded_bindings(tree: ast.Module, lines: List[str],
                              pragmas: Dict[int, str]
                              ) -> List[GuardedBinding]:
    """Resolve each guarded-by pragma to the symbol its line defines.

    A pragma on a module-level ``X = ...`` binds the global ``X``; on a
    class-body or ``self.X = ...`` definition it binds the attribute
    ``X`` (any receiver — attribute bindings are matched by name within
    the defining module).
    """
    if not pragmas:
        return []
    bindings: List[GuardedBinding] = []
    module_level = {id(stmt) for stmt in tree.body}

    def record(target: ast.AST, stmt: ast.stmt) -> None:
        lock = pragmas.get(stmt.lineno)
        if lock is None:
            return
        if isinstance(target, ast.Attribute):
            symbol, scope = target.attr, "attr"
        elif isinstance(target, ast.Name):
            scope = "global" if id(stmt) in module_level else "attr"
            symbol = target.id
        else:
            return
        bindings.append(GuardedBinding(
            symbol=symbol, lock=lock, scope=scope, line=stmt.lineno,
            col=stmt.col_offset + 1,
            line_text=line_at(lines, stmt.lineno)))

    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                record(target, node)
        elif isinstance(node, ast.AnnAssign):
            record(node.target, node)
    return bindings


class _LockSpans:
    """Line ranges over which each lock-like ``with`` item is held.

    Built once per function body; ``held_at(line)`` answers which locks
    statically enclose a site.  The context expressions themselves are
    evaluated before acquisition, so a ``with`` item's own line counts as
    held only when the block's body starts on that same line.
    """

    def __init__(self, body: List[ast.stmt]) -> None:
        self._spans: List[Tuple[int, int, str]] = []
        for stmt in body:
            self._collect(stmt)

    def _collect(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            return  # nested defs are analyzed as functions of their own
        if isinstance(node, (ast.With, ast.AsyncWith)) and node.body:
            start = node.body[0].lineno
            end = getattr(node, "end_lineno", None) or start
            for item in node.items:
                name = dotted_name(item.context_expr)
                if name and is_lock_name(name):
                    self._spans.append((start, end, name))
        for child in ast.iter_child_nodes(node):
            self._collect(child)

    def held_at(self, line: int) -> Tuple[str, ...]:
        held = [name for start, end, name in self._spans
                if start <= line <= end]
        return tuple(dict.fromkeys(held))


def _is_mutable_value(node: ast.AST) -> bool:
    if isinstance(node, _MUTABLE_VALUE_NODES):
        return True
    if isinstance(node, ast.Call):
        target = node.func
        name = target.id if isinstance(target, ast.Name) else (
            target.attr if isinstance(target, ast.Attribute) else "")
        return name in _MUTABLE_FACTORIES
    return False


_SOURCE_LINE = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")


def split_source(source: str) -> List[str]:
    """``source`` split into lines the way the parser numbers them.

    Only ``\\r\\n``, ``\\n`` and ``\\r`` end a line (a form feed does not,
    unlike :meth:`str.splitlines`) and each line keeps its ending, exactly
    as ``ast.get_source_segment`` splits.  Phase 1 splits each module once
    and slices call-site text from the result: ``get_source_segment``
    re-splits the whole module per call, which made phase 1 quadratic.
    """
    return _SOURCE_LINE.findall(source)


def line_at(lines: List[str], line: int) -> str:
    """Text of 1-based ``line`` of :func:`split_source` output, sans ending."""
    if 1 <= line <= len(lines):
        return lines[line - 1].rstrip("\r\n")
    return ""


def dotted_name(node: ast.AST) -> str:
    """Best-effort dotted rendering of a call target (``self.ledger.add``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return f"{base}.{node.attr}" if base else node.attr
    if isinstance(node, ast.Call):
        return dotted_name(node.func) + "()"
    return ""


def _call_base(func: ast.Attribute) -> str:
    """Dotted spelling of everything left of the final attribute hop."""
    return dotted_name(func.value)


# ---- per-function effect visitor -------------------------------------------


class _EffectVisitor(ast.NodeVisitor):
    """Collects the local effects of one function body.

    ``write_watch`` are module globals whose mutation is an effect;
    ``read_watch`` the (sub)set whose *reads* are also effects (globals
    some function mutates after import).  Names the function rebinds
    locally (without a ``global`` declaration) shadow the module binding
    and are excluded by the caller.

    The concurrency extension: ``guard_globals``/``guard_attrs`` map
    guarded-by-bound symbols to their lock, ``attr_watch`` holds the
    mutable class-body attribute names whose instance/class mutation is a
    :data:`SHARED_WRITE`, and ``lock_spans`` supplies the statically-held
    lock set attached to every emitted effect.  ``emit_guarded`` is off
    inside ``__init__``/``__new__`` (and at module level), where writing a
    guarded field *is* its initialization.
    """

    def __init__(self, lines: List[str],
                 write_watch: FrozenSet[str], read_watch: FrozenSet[str],
                 global_decls: FrozenSet[str],
                 guard_globals: Optional[Dict[str, str]] = None,
                 guard_attrs: Optional[Dict[str, str]] = None,
                 attr_watch: FrozenSet[str] = frozenset(),
                 guard_def_lines: FrozenSet[int] = frozenset(),
                 lock_spans: Optional[_LockSpans] = None,
                 emit_guarded: bool = True) -> None:
        self.lines = lines
        self.write_watch = write_watch
        self.read_watch = read_watch
        self.global_decls = global_decls
        self.guard_globals = guard_globals or {}
        self.guard_attrs = guard_attrs or {}
        self.attr_watch = attr_watch
        self.guard_def_lines = guard_def_lines
        self.lock_spans = lock_spans
        self.emit_guarded = emit_guarded
        self.effects: List[Effect] = []

    # -- helpers -----------------------------------------------------------

    def _emit(self, kind: str, node: ast.AST, detail: str,
              symbol: str = "") -> None:
        line = getattr(node, "lineno", 1)
        held = self.lock_spans.held_at(line) if self.lock_spans else ()
        self.effects.append(Effect(
            kind=kind, detail=detail, line=line,
            col=getattr(node, "col_offset", 0) + 1,
            line_text=line_at(self.lines, line), symbol=symbol,
            locks_held=held))

    # -- env ----------------------------------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load) and node.attr == "environ" and \
                isinstance(node.value, ast.Name) and node.value.id == "os":
            self._emit(ENV, node, "reads os.environ")
        self.generic_visit(node)

    # -- globals -------------------------------------------------------------

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load) and node.id in self.read_watch:
            self._emit(GLOBAL_READ, node,
                       f"reads mutable module global '{node.id}'",
                       symbol=node.id)
        self.generic_visit(node)

    def _check_write_target(self, target: ast.AST, node: ast.AST) -> None:
        base = target
        subscripted = False
        while isinstance(base, ast.Subscript):
            base = base.value
            subscripted = True
        if isinstance(base, ast.Name):
            name = base.id
            is_global_write = subscripted or name in self.global_decls
            if name in self.write_watch and is_global_write:
                verb = ("mutates" if subscripted else "rebinds")
                self._emit(GLOBAL_WRITE, node,
                           f"{verb} module global '{name}'", symbol=name)
            if is_global_write:
                self._check_guarded_global(name, node)
        elif isinstance(base, ast.Attribute):
            self._check_attr_write(base.attr, node, subscripted)

    def _check_guarded_global(self, name: str, node: ast.AST) -> None:
        if not self.emit_guarded or name not in self.guard_globals or \
                getattr(node, "lineno", 0) in self.guard_def_lines:
            return
        self._emit(GUARDED_WRITE, node,
                   f"writes guarded global '{name}' "
                   f"(guarded-by={self.guard_globals[name]})", symbol=name)

    def _check_attr_write(self, attr: str, node: ast.AST,
                          subscripted: bool) -> None:
        """A write through ``<recv>.<attr>`` — guarded field or shared attr.

        Guarded attributes are matched by name whatever the receiver
        spelling (``self._metrics`` vs ``registry._metrics``); class-body
        mutable attrs only count when mutated in place (rebinding an
        instance attribute shadows the class attribute instead).
        """
        if getattr(node, "lineno", 0) in self.guard_def_lines:
            return
        if self.emit_guarded and attr in self.guard_attrs:
            self._emit(GUARDED_WRITE, node,
                       f"writes guarded attribute '{attr}' "
                       f"(guarded-by={self.guard_attrs[attr]})", symbol=attr)
        elif subscripted and attr in self.attr_watch:
            self._emit(SHARED_WRITE, node,
                       f"mutates class-level mutable attribute '{attr}'",
                       symbol=attr)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_write_target(target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_write_target(node.target, node)
        # An augmented write is also a read of the previous value.
        base = node.target
        while isinstance(base, ast.Subscript):
            base = base.value
        if isinstance(base, ast.Name) and base.id in self.read_watch:
            self._emit(GLOBAL_READ, node,
                       f"reads mutable module global '{base.id}'",
                       symbol=base.id)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_write_target(target, node)
        self.generic_visit(node)

    # -- calls ---------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            self._check_bare_call(node, func.id)
        elif isinstance(func, ast.Attribute):
            self._check_attr_call(node, func)
        self.generic_visit(node)

    def _check_bare_call(self, node: ast.Call, name: str) -> None:
        if name == "open":
            self._emit(FS, node, "open() touches the filesystem")
        elif name == "getenv":
            self._emit(ENV, node, "getenv() reads the environment")
        elif name in ("Pool", "Process"):
            self._emit(PROCESS, node, f"{name}() manages processes")

    def _check_attr_call(self, node: ast.Call, func: ast.Attribute) -> None:
        base = _call_base(func)
        attr = func.attr
        rendering = f"{base}.{attr}" if base else attr
        if base == "os":
            if attr == "getenv":
                self._emit(ENV, node, "os.getenv() reads the environment")
            elif attr in _OS_FS_FUNCS:
                self._emit(FS, node, f"{rendering}() touches the filesystem")
            elif attr in _OS_PROC_FUNCS:
                self._emit(PROCESS, node,
                           f"{rendering}() reads/manages process state")
        elif base == "os.environ":
            self._emit(ENV, node, "reads os.environ")
        elif base == "os.path" and attr in _OS_PATH_FS_FUNCS:
            self._emit(FS, node, f"{rendering}() inspects the filesystem")
        elif base in ("shutil", "tempfile"):
            self._emit(FS, node, f"{rendering}() touches the filesystem")
        elif base == "subprocess":
            self._emit(PROCESS, node, f"{rendering}() spawns a process")
        elif base in ("multiprocessing", "mp") or \
                base.startswith("multiprocessing."):
            self._emit(PROCESS, node, f"{rendering}() manages processes")
        elif attr in ("Pool", "Process", "get_context"):
            self._emit(PROCESS, node, f"{rendering}() manages processes")
        elif base in _WALL_CLOCK and attr in _WALL_CLOCK[base]:
            self._emit(CLOCK, node, f"{rendering}() reads the wall clock")
        elif base == "random" and attr in _GLOBAL_RANDOM_FUNCS:
            self._emit(RNG, node,
                       f"{rendering}() draws from the global RNG")
        elif base in ("np.random", "numpy.random"):
            self._emit(RNG, node,
                       f"{rendering}() draws from the global NumPy RNG")
        elif attr in _PATHLIKE_FS_METHODS:
            self._emit(FS, node, f".{attr}() touches the filesystem")
        elif attr in _MUTATOR_METHODS:
            self._check_mutator_call(node, func, attr)

    def _check_mutator_call(self, node: ast.Call, func: ast.Attribute,
                            attr: str) -> None:
        recv = func.value
        if isinstance(recv, ast.Name):
            if recv.id in self.write_watch:
                self._emit(GLOBAL_WRITE, node,
                           f"mutates module global '{recv.id}' via "
                           f".{attr}()", symbol=recv.id)
            if self.emit_guarded and recv.id in self.guard_globals:
                self._emit(GUARDED_WRITE, node,
                           f"writes guarded global '{recv.id}' via "
                           f".{attr}() "
                           f"(guarded-by={self.guard_globals[recv.id]})",
                           symbol=recv.id)
        elif isinstance(recv, ast.Attribute):
            if self.emit_guarded and recv.attr in self.guard_attrs:
                self._emit(GUARDED_WRITE, node,
                           f"writes guarded attribute '{recv.attr}' via "
                           f".{attr}() "
                           f"(guarded-by={self.guard_attrs[recv.attr]})",
                           symbol=recv.attr)
            elif recv.attr in self.attr_watch:
                self._emit(SHARED_WRITE, node,
                           f"mutates class-level mutable attribute "
                           f"'{recv.attr}' via .{attr}()", symbol=recv.attr)

    # Nested defs are analyzed as functions of their own; don't double-count.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass


class _MutationScanner(ast.NodeVisitor):
    """Module-wide prepass: which globals do function bodies mutate?"""

    def __init__(self, candidates: FrozenSet[str]) -> None:
        self.candidates = candidates
        self.mutated: Set[str] = set()
        self.global_decls: Set[str] = set()

    def visit_Global(self, node: ast.Global) -> None:
        for name in node.names:
            self.global_decls.add(name)
            self.mutated.add(name)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check(node.target)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and \
                isinstance(func.value, ast.Name) and \
                func.value.id in self.candidates and \
                func.attr in _MUTATOR_METHODS:
            self.mutated.add(func.value.id)
        self.generic_visit(node)

    def _check(self, target: ast.AST) -> None:
        subscripted = False
        while isinstance(target, ast.Subscript):
            target = target.value
            subscripted = True
        if isinstance(target, ast.Name) and subscripted and \
                target.id in self.candidates:
            self.mutated.add(target.id)


def _local_bindings(func: ast.AST) -> Set[str]:
    """Names a function rebinds without declaring them global."""
    bound: Set[str] = set()
    global_decls: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            global_decls.update(node.names)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(node.target, ast.Name):
                bound.add(node.target.id)
        elif isinstance(node, ast.For):
            if isinstance(node.target, ast.Name):
                bound.add(node.target.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node is not func:
                bound.add(node.name)
    args = getattr(func, "args", None)
    if args is not None:
        for arg in (list(args.posonlyargs) + list(args.args)
                    + list(args.kwonlyargs)):
            bound.add(arg.arg)
        if args.vararg:
            bound.add(args.vararg.arg)
        if args.kwarg:
            bound.add(args.kwarg.arg)
    return bound - global_decls


def _worker_ref(worker: Optional[ast.AST]) -> Tuple[str, str]:
    """``(worker_kind, worker_name)`` of a submitted or spawned callable."""
    if isinstance(worker, ast.Lambda):
        return "lambda", ""
    if isinstance(worker, ast.Name):
        return "name", worker.id
    if isinstance(worker, ast.Attribute):
        return "attribute", worker.attr
    return "other", ""


class _PoolSiteCollector(ast.NodeVisitor):
    """Finds pool/process submission sites inside one function body."""

    def __init__(self, lines: List[str], qualname: str,
                 into: List[PoolSubmission]) -> None:
        self.lines = lines
        self.qualname = qualname
        self.into = into

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        worker: Optional[ast.AST] = None
        method = ""
        receiver = ""
        if isinstance(func, ast.Attribute) and func.attr in _POOL_METHODS:
            receiver = dotted_name(func.value)
            tail = receiver.lower().rsplit(".", 1)[-1]
            if any(hint in tail for hint in _POOL_RECEIVER_HINTS):
                method = func.attr
                worker = node.args[0] if node.args else None
                if worker is None:
                    for keyword in node.keywords:
                        if keyword.arg in ("func", "fn"):
                            worker = keyword.value
        elif (isinstance(func, ast.Name) and func.id == "Process") or \
                (isinstance(func, ast.Attribute) and func.attr == "Process"):
            method = "Process"
            receiver = dotted_name(func.value) \
                if isinstance(func, ast.Attribute) else ""
            for keyword in node.keywords:
                if keyword.arg == "target":
                    worker = keyword.value
        if method and worker is not None:
            self._record(node, method, receiver, worker)
        self.generic_visit(node)

    def _record(self, node: ast.Call, method: str, receiver: str,
                worker: ast.AST) -> None:
        kind, name = _worker_ref(worker)
        self.into.append(PoolSubmission(
            method=method, worker_kind=kind, worker_name=name,
            receiver=receiver, in_function=self.qualname,
            line=node.lineno, col=node.col_offset + 1,
            line_text=line_at(self.lines, node.lineno)))


class _SpawnSiteCollector(ast.NodeVisitor):
    """Finds thread and async-task creation sites inside one body.

    Nested function definitions are skipped; they are walked as bodies
    of their own.
    """

    def __init__(self, lines: List[str], qualname: str,
                 into: List[SpawnSite]) -> None:
        self.lines = lines
        self.qualname = qualname
        self.into = into

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("Thread", "Timer"):
            self._record(node, "thread", func.id,
                         self._thread_worker(node, func.id))
        elif isinstance(func, ast.Attribute):
            base = _call_base(func)
            attr = func.attr
            if base == "threading" and attr in ("Thread", "Timer"):
                self._record(node, "thread", f"{base}.{attr}",
                             self._thread_worker(node, attr))
            elif attr in _TASK_SPAWN_FUNCS:
                worker = node.args[0] if node.args else None
                if isinstance(worker, ast.Call):
                    worker = worker.func
                self._record(node, "task",
                             f"{base}.{attr}" if base else attr, worker)
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass

    @staticmethod
    def _thread_worker(node: ast.Call, name: str) -> Optional[ast.AST]:
        for keyword in node.keywords:
            if keyword.arg in ("target", "function"):
                return keyword.value
        if name == "Timer" and len(node.args) >= 2:
            return node.args[1]
        return None

    def _record(self, node: ast.Call, kind: str, api: str,
                worker: Optional[ast.AST]) -> None:
        worker_kind, worker_name = _worker_ref(worker)
        self.into.append(SpawnSite(
            kind=kind, api=api, worker_kind=worker_kind,
            worker_name=worker_name,
            in_function=self.qualname, line=node.lineno,
            col=node.col_offset + 1,
            line_text=line_at(self.lines, node.lineno)))


# ---- error-flow collection -------------------------------------------------


def _exc_type_name(exc: Optional[ast.expr]) -> str:
    """The class name an exception expression spells, or ``""``.

    ``X(...)`` and dotted ``mod.X(...)`` resolve to ``X``; a bare
    uppercase name (``raise StopIteration``) resolves to itself; a
    lowercase name is a variable whose class is unknowable statically.
    """
    if exc is None:
        return ""
    target = exc.func if isinstance(exc, ast.Call) else exc
    name = dotted_name(target).rsplit(".", 1)[-1]
    if name and name[0].isupper():
        return name
    return ""


def _caught_names(handler: ast.ExceptHandler) -> Tuple[Tuple[str, ...], bool]:
    """``(caught type names, is_bare)`` for one except clause."""
    if handler.type is None:
        return (), True
    exprs = handler.type.elts if isinstance(handler.type, ast.Tuple) \
        else [handler.type]
    names: List[str] = []
    for expr in exprs:
        name = dotted_name(expr).rsplit(".", 1)[-1]
        names.append(name if name else "*")
    return tuple(names), False


def _suite_reraises(body: List[ast.stmt]) -> bool:
    """Whether an except suite holds a bare ``raise``; each statement's
    walk stops at its first nested def or lambda."""
    for stmt in body:
        for sub in ast.walk(stmt):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.Lambda)):
                break
            if isinstance(sub, ast.Raise) and sub.exc is None:
                return True
    return False


class _ErrorFlowCollector(ast.NodeVisitor):
    """Raise sites and handler spans of one body.

    Nested function definitions are skipped; they are walked as bodies
    of their own.
    """

    def __init__(self, lines: List[str], qualname: str,
                 raises: List[RaiseSite],
                 handlers: List[HandlerInfo]) -> None:
        self.lines = lines
        self.qualname = qualname
        self.raises = raises
        self.handlers = handlers

    def visit_Raise(self, node: ast.Raise) -> None:
        if node.exc is None:
            self.raises.append(RaiseSite(
                exc_type="", in_function=self.qualname, line=node.lineno,
                col=node.col_offset + 1,
                line_text=line_at(self.lines, node.lineno),
                is_reraise=True))
        else:
            name = _exc_type_name(node.exc)
            if name:  # else unknowable (a variable): under-approximate
                self.raises.append(RaiseSite(
                    exc_type=name, in_function=self.qualname,
                    line=node.lineno, col=node.col_offset + 1,
                    line_text=line_at(self.lines, node.lineno)))
        self.generic_visit(node)

    def visit_Try(self, node: ast.Try) -> None:
        start = node.body[0].lineno if node.body else node.lineno
        end = (getattr(node.body[-1], "end_lineno", None) or start) \
            if node.body else start
        for handler in node.handlers:
            caught, is_bare = _caught_names(handler)
            self.handlers.append(HandlerInfo(
                in_function=self.qualname, caught=caught, is_bare=is_bare,
                try_start=start, try_end=end, line=handler.lineno,
                col=handler.col_offset + 1,
                line_text=line_at(self.lines, handler.lineno),
                reraises=_suite_reraises(handler.body)))
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass


# ---- module extraction -----------------------------------------------------


def extract_module_effects(path: str, source: str,
                           tree: ast.Module) -> ModuleEffects:
    """Phase 1: the :class:`ModuleEffects` record for one parsed module."""
    norm = path.replace("\\", "/")
    lines = split_source(source)
    declared_lines = parse_declared_caches(source)
    guard_pragmas = parse_guarded_pragmas(source)
    boundary_lines = parse_error_boundaries(source)

    # Module-level bindings: which names hold mutable containers, which
    # definitions carry the declared-cache pragma.
    mutable: Set[str] = set()
    declared: Set[str] = set()
    class_attrs: List[ClassAttrInfo] = []
    for stmt in tree.body:
        targets: List[ast.AST] = []
        value: Optional[ast.AST] = None
        if isinstance(stmt, ast.Assign):
            targets, value = list(stmt.targets), stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if stmt.lineno in declared_lines:
                declared.add(target.id)
            if value is not None and _is_mutable_value(value):
                mutable.add(target.id)

    # Mutable class-body attributes (shared across every instance).
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            value = None
            name = ""
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and \
                    isinstance(stmt.targets[0], ast.Name):
                name, value = stmt.targets[0].id, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and \
                    isinstance(stmt.target, ast.Name):
                name, value = stmt.target.id, stmt.value
            if value is not None and _is_mutable_value(value) and \
                    stmt.lineno not in declared_lines:
                class_attrs.append(ClassAttrInfo(
                    class_name=node.name, attr=name, line=stmt.lineno,
                    col=stmt.col_offset + 1,
                    line_text=line_at(lines, stmt.lineno)))

    # Which globals does any function body mutate after import?
    scanner = _MutationScanner(frozenset(mutable))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scanner.visit(node)
    mutated = (set(scanner.mutated) | set(scanner.global_decls)) - declared
    write_watch = frozenset((mutable | scanner.global_decls) - declared)
    read_watch = frozenset(mutated)

    # Concurrency model: guarded-by bindings and the class-body mutable
    # attrs whose mutation is a shared write.
    guarded = _extract_guarded_bindings(tree, lines, guard_pragmas)
    guard_globals = {b.symbol: b.lock for b in guarded
                     if b.scope == "global"}
    guard_attrs = {b.symbol: b.lock for b in guarded if b.scope == "attr"}
    guard_def_lines = frozenset(b.line for b in guarded)
    attr_watch = frozenset(info.attr for info in class_attrs)
    functions: List[FunctionEffects] = []
    pool_sites: List[PoolSubmission] = []
    spawn_sites: List[SpawnSite] = []
    raise_sites: List[RaiseSite] = []
    handler_infos: List[HandlerInfo] = []
    error_boundaries: Set[str] = set()

    # Project class definitions (for exception-hierarchy resolution).
    exception_classes: List[ExceptionClassInfo] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.bases:
            bases = tuple(
                name for name in
                (dotted_name(base).rsplit(".", 1)[-1]
                 for base in node.bases) if name)
            if bases:
                exception_classes.append(ExceptionClassInfo(
                    name=node.name, bases=bases, line=node.lineno))

    def analyze(func: ast.AST, class_name: str) -> None:
        assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        qual = f"{class_name}.{func.name}" if class_name else func.name
        qualname = f"{norm}::{qual}"
        locals_ = frozenset(_local_bindings(func))
        visitor = _EffectVisitor(
            lines,
            write_watch=frozenset(write_watch - locals_),
            read_watch=frozenset(read_watch - locals_),
            global_decls=frozenset(scanner.global_decls),
            guard_globals={name: lock
                           for name, lock in guard_globals.items()
                           if name not in locals_},
            guard_attrs=guard_attrs,
            attr_watch=attr_watch,
            guard_def_lines=guard_def_lines,
            lock_spans=_LockSpans(func.body),
            emit_guarded=func.name not in ("__init__", "__new__"))
        for stmt in func.body:
            visitor.visit(stmt)
        if visitor.effects:
            functions.append(FunctionEffects(
                qualname=qualname, name=func.name, line=func.lineno,
                effects=tuple(visitor.effects)))
        collector = _PoolSiteCollector(lines, qualname, pool_sites)
        spawns = _SpawnSiteCollector(lines, qualname, spawn_sites)
        errflow = _ErrorFlowCollector(lines, qualname, raise_sites,
                                      handler_infos)
        for stmt in func.body:
            collector.visit(stmt)
            spawns.visit(stmt)
            errflow.visit(stmt)
        if func.lineno in boundary_lines:
            error_boundaries.add(qualname)

    def walk_body(body: List[ast.stmt], class_name: str = "") -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                analyze(stmt, class_name)
                walk_body(stmt.body, class_name=class_name)
            elif isinstance(stmt, ast.ClassDef):
                walk_body(stmt.body, class_name=stmt.name)

    walk_body(tree.body)

    # Module-level statements: import-time effects (an env read at import
    # is just as invisible to the cache key as one inside a function).
    module_stmts = [stmt for stmt in tree.body
                    if not isinstance(stmt, (ast.FunctionDef,
                                             ast.AsyncFunctionDef,
                                             ast.ClassDef, ast.Import,
                                             ast.ImportFrom))]
    if module_stmts:
        visitor = _EffectVisitor(lines, write_watch=frozenset(),
                                 read_watch=frozenset(),
                                 global_decls=frozenset(),
                                 emit_guarded=False)
        for stmt in module_stmts:
            visitor.visit(stmt)
        if visitor.effects:
            functions.append(FunctionEffects(
                qualname=f"{norm}::<module>", name="<module>", line=1,
                effects=tuple(visitor.effects)))
        collector = _PoolSiteCollector(lines, f"{norm}::<module>",
                                       pool_sites)
        spawns = _SpawnSiteCollector(lines, f"{norm}::<module>",
                                     spawn_sites)
        errflow = _ErrorFlowCollector(lines, f"{norm}::<module>",
                                      raise_sites, handler_infos)
        for stmt in module_stmts:
            collector.visit(stmt)
            spawns.visit(stmt)
            errflow.visit(stmt)

    return ModuleEffects(
        path=norm,
        functions=tuple(functions),
        pool_submissions=tuple(pool_sites),
        class_mutable_attrs=tuple(class_attrs),
        spawn_sites=tuple(spawn_sites),
        guarded_bindings=tuple(guarded),
        raise_sites=tuple(raise_sites),
        handlers=tuple(handler_infos),
        exception_classes=tuple(exception_classes),
        error_boundaries=frozenset(error_boundaries),
    )


# ---- phase 2: transitive closure over the call graph -----------------------


@dataclass(frozen=True)
class ReachedEffect:
    """One effect visible from a root, with the function it lives in."""

    origin: str                # qualname of the function with the effect
    effect: Effect


class EffectPropagator:
    """Fixpoint closure of per-function effects over resolved calls.

    Edges follow the agreement rule: a call contributes its callee's
    transitive effects only when the bare name resolves to **exactly one**
    definition.  The transfer function is set union — monotone over the
    powerset lattice of ``(origin, effect)`` pairs — so repeated sweeps
    reach the least fixpoint, cycles included.
    """

    def __init__(self, model: "object") -> None:
        # ``model`` is a ProjectModel; typed loosely to avoid a cycle.
        local: Dict[str, FrozenSet[ReachedEffect]] = {}
        for summary in model.summaries:  # type: ignore[attr-defined]
            module_effects = getattr(summary, "module_effects", None)
            if module_effects is None:
                continue
            for info in module_effects.functions:
                local[info.qualname] = frozenset(
                    ReachedEffect(origin=info.qualname, effect=effect)
                    for effect in info.effects)
        edges: Dict[str, Tuple[str, ...]] = {}
        for summary in model.summaries:  # type: ignore[attr-defined]
            for info in summary.functions:
                targets: List[str] = []
                for call in info.calls:
                    candidates = model.resolve(call.name)  # type: ignore[attr-defined]
                    if len(candidates) == 1:
                        targets.append(candidates[0].qualname)
                edges[info.qualname] = tuple(dict.fromkeys(targets))
        self._edges = edges
        self._transitive = self._fixpoint(local, edges)

    @staticmethod
    def _fixpoint(local: Dict[str, FrozenSet[ReachedEffect]],
                  edges: Dict[str, Tuple[str, ...]]
                  ) -> Dict[str, FrozenSet[ReachedEffect]]:
        state: Dict[str, Set[ReachedEffect]] = {
            qualname: set(local.get(qualname, frozenset()))
            for qualname in sorted(set(edges) | set(local))}
        changed = True
        while changed:
            changed = False
            for qualname in sorted(state):
                current = state[qualname]
                before = len(current)
                for callee in edges.get(qualname, ()):
                    reached = state.get(callee)
                    if reached:
                        current |= reached
                if len(current) != before:
                    changed = True
        return {qualname: frozenset(reached)
                for qualname, reached in state.items()}

    def transitive(self, qualname: str) -> FrozenSet[ReachedEffect]:
        """Every ``(origin, effect)`` reachable from ``qualname``."""
        return self._transitive.get(qualname, frozenset())

    def call_path(self, root: str, origin: str) -> List[str]:
        """A shortest root→origin chain over the propagated edges."""
        if root == origin:
            return [root]
        parents: Dict[str, str] = {root: ""}
        frontier = [root]
        while frontier:
            next_frontier: List[str] = []
            for qualname in frontier:
                for callee in self._edges.get(qualname, ()):
                    if callee in parents:
                        continue
                    parents[callee] = qualname
                    if callee == origin:
                        chain = [callee]
                        while parents[chain[-1]]:
                            chain.append(parents[chain[-1]])
                        return list(reversed(chain))
                    next_frontier.append(callee)
            frontier = next_frontier
        return [root, origin]


def format_chain(path_names: List[str]) -> str:
    """Render a call chain compactly: drop module prefixes, arrow-join."""
    return " -> ".join(name.split("::", 1)[-1] for name in path_names)
