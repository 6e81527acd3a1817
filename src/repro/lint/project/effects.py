"""Effect inference for the whole-program analyzer.

The dimension lattice (:mod:`repro.lint.project.dimensions`) answers *what
quantity* an expression denotes; this module answers *what the world does
to a function and what the function does to the world*.  Phase 1 extracts,
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
* pool payloads must be **plain-picklable** (PAR01), which is a *shape*
  fact recorded here as :class:`PoolSubmission`.

Call-graph edges follow the project's agreement philosophy: effects
propagate only through **unambiguously resolved** calls (exactly one
definition for the bare name).  An ambiguous or unresolvable callee
contributes nothing — the engine under-approximates rather than guesses,
so every reported effect chain is real.

A module global that is a *deliberate, content-pure memo* (a cache whose
value is derived entirely from the payload or the source tree) can be
declared on its definition line::

    _WORKER_STORE = None  # mapglint: declared-cache

Declared caches produce no global-read/global-write effects; the
declaration is the author's auditable claim that the memo cannot change
any result, placed where a reviewer will see it.

Since the worker-pool and daemon roadmap items make the repo genuinely
concurrent, phase 1 also extracts a **concurrency model**:

* **spawn sites** — thread and async-task entry points
  (``threading.Thread(target=...)``, ``asyncio.create_task``); together
  with the pool submissions already recorded, these are the roots from
  which concurrent execution can reach shared state (CONC01, CONC03);
* **lock structure** — lock-typed module globals, every ``with lock:``
  block, and bare ``acquire``/``release`` calls with their control-flow
  context (CONC02), plus the statically-known set of locks held at each
  write site;
* **guarded fields** — a ``# mapglint: guarded-by=<lock>`` pragma on a
  definition line binds a module global or instance attribute to the
  lock that must be held to write it (CONC01);
* **persistence writes** — every write-mode ``open`` with its path
  spelling, so digest-keyed cache entries can be required to use the
  temp-file + ``os.replace`` publication pattern (CONC04).

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
  (bare ``raise``), raises a replacement, logs, or returns — the facts
  ERR01/ERR02 need to tell a boundary from a swallow;
* **protected spans** — try bodies with a handler or ``finally``, so
  ERR03 can see that a state mutation is exception-guarded;
* **resource sites** — ``open``/``Pool``/``Executor``/``tempfile``
  acquisitions with their ``with``/close/escape context (RES01);
* **exception classes** — every ``class X(Base, ...)`` definition, so
  phase 2 can resolve project exception subtyping.

A function that *intentionally* swallows exceptions (a cache ``load``
where a corrupt entry must mean a miss, a pool worker that must return a
failure record instead of dying) declares it on its definition line::

    def load(self, spec):  # mapglint: error-boundary

The pragma is the author's auditable claim that swallowing is the
contract there; ERR01/ERR02 trust it and phase 2 records the qualname in
:attr:`ModuleEffects.error_boundaries`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.lint.project.dimensions import dotted_name

#: Bump when the effect-summary layout or inference changes; folded into
#: the result-cache key (see :mod:`repro.lint.cache`) so upgrading the
#: linter can never serve stale phase-1 effect summaries.
#: 3: ModuleEffects grew the error-flow model (raise sites, handler
#: spans, protected spans, resource sites, exception classes, and the
#: error-boundary pragma) for ERR01–ERR04/RES01.
EFFECT_SCHEMA = 3

# ---- the effect alphabet ---------------------------------------------------

ENV = "env"                    # os.environ / os.getenv reads
FS = "fs"                      # filesystem reads or writes
RNG = "rng"                    # process-global RNG draws
CLOCK = "clock"                # wall-clock reads
PROCESS = "process"            # process/pool management, pids
GLOBAL_WRITE = "global-write"  # post-import mutation of a module global
GLOBAL_READ = "global-read"    # read of a post-import-mutated module global
OBS_EMIT = "obs-emit"          # recorder/metrics emission (from call sites)
THREAD = "thread-spawn"        # thread/async-task creation (CONC03)
LOCK = "lock-acquire"          # lock acquisition, with-block or bare call
GUARDED_WRITE = "guarded-write"    # write to a guarded-by bound symbol
SHARED_WRITE = "shared-attr-write"  # mutation of a class-level mutable attr

#: Every effect kind phase 1 can emit, in display order.
ALL_EFFECTS = (ENV, FS, RNG, CLOCK, PROCESS, GLOBAL_WRITE, GLOBAL_READ,
               OBS_EMIT, THREAD, LOCK, GUARDED_WRITE, SHARED_WRITE)

#: The kinds that make a pool worker impure (PURE01) — everything except
#: recorder emission, which workers never see (recorders are per-process).
IMPURE_KINDS = frozenset({ENV, FS, RNG, CLOCK, PROCESS,
                          GLOBAL_WRITE, GLOBAL_READ})

#: The kinds that make a cached simulation result stale-prone (CACHE01):
#: inputs the JobSpec/source digest cannot see.
CACHE_HAZARD_KINDS = frozenset({ENV, GLOBAL_WRITE, GLOBAL_READ})

#: The concurrency kinds.  Deliberately *not* part of IMPURE_KINDS or
#: CACHE_HAZARD_KINDS: they have dedicated rules (CONC01/CONC03) with
#: their own reachability conditions, and folding them into PURE01 or
#: CACHE01 would double-report every finding.
CONCURRENCY_KINDS = frozenset({THREAD, LOCK, GUARDED_WRITE, SHARED_WRITE})


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
    worker_repr: str           # source spelling of the worker expression
    receiver: str              # dotted receiver ("pool"), may be ""
    in_function: str           # qualname of the enclosing function
    line: int
    col: int
    line_text: str = ""
    lambda_in_args: bool = False
    open_in_args: bool = False
    locks_held: Tuple[str, ...] = ()  # locks held at the submission site


@dataclass(frozen=True)
class SpawnSite:
    """One thread or async-task creation site (a concurrent entry point)."""

    kind: str                  # "thread" | "task"
    api: str                   # source spelling ("threading.Thread", ...)
    worker_kind: str           # "name" | "lambda" | "attribute" | "other"
    worker_name: str           # bare name when worker_kind == "name"
    worker_repr: str           # source spelling of the worker expression
    in_function: str           # qualname of the enclosing function
    line: int
    col: int
    line_text: str = ""


@dataclass(frozen=True)
class LockOp:
    """One lock operation: a ``with lock:`` block or a bare acquire/release."""

    op: str                    # "with" | "acquire" | "release"
    lock: str                  # dotted lock spelling ("self._lock")
    function: str              # qualname of the enclosing function
    line: int
    col: int
    line_text: str = ""
    conditional: bool = False  # under an if/while/for/except branch
    in_finally: bool = False   # directly inside a finally block
    held_before: Tuple[str, ...] = ()  # locks already held (order pairs)


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
class FileWrite:
    """One write-mode ``open`` call (a persistence write site)."""

    path_repr: str             # source spelling of the path expression
    mode: str                  # the mode string ("w", "wb", "a", ...)
    in_function: str           # qualname of the enclosing function
    line: int
    col: int
    line_text: str = ""
    replace_in_function: bool = False  # os.replace() in the same function


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
    in_handler: bool           # lexically inside an except suite
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
    raises_new: bool = False   # typed ``raise X`` in the handler suite
    logs: bool = False         # print()/log/warn-style call in the suite
    returns: bool = False      # ``return`` in the handler suite


@dataclass(frozen=True)
class ProtectedSpan:
    """One try-body line span guarded by a handler or ``finally``."""

    in_function: str
    start: int                 # first line of the try body
    end: int                   # last line of the try body
    has_finally: bool
    has_handlers: bool


@dataclass(frozen=True)
class ResourceSite:
    """One resource acquisition with its lifecycle context.

    ``escapes`` is true when ownership visibly leaves the function —
    returned/yielded, stored on ``self``/a global, passed to another
    call, or placed in a container — in which case the closer lives
    elsewhere and RES01 stays quiet.
    """

    kind: str                  # "open" | "pool" | "executor" | "tempfile"
    api: str                   # source spelling ("open", "tempfile.mkstemp")
    var: str                   # bound local name, "" when unnamed
    in_function: str           # qualname of the enclosing function
    line: int
    col: int
    line_text: str = ""
    in_with: bool = False      # acquired as a ``with`` context manager
    escapes: bool = False      # ownership leaves the function
    closed: bool = False       # var.close()/terminate()/shutdown() seen
    close_line: int = 0
    close_in_finally: bool = False


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
    mutable_globals: FrozenSet[str] = frozenset()
    mutated_globals: FrozenSet[str] = frozenset()
    declared_caches: FrozenSet[str] = frozenset()
    nested_functions: FrozenSet[str] = frozenset()
    spawn_sites: Tuple[SpawnSite, ...] = ()
    lock_ops: Tuple[LockOp, ...] = ()
    guarded_bindings: Tuple[GuardedBinding, ...] = ()
    file_writes: Tuple[FileWrite, ...] = ()
    lock_globals: FrozenSet[str] = frozenset()
    raise_sites: Tuple[RaiseSite, ...] = ()
    handlers: Tuple[HandlerInfo, ...] = ()
    protected_spans: Tuple[ProtectedSpan, ...] = ()
    resource_sites: Tuple[ResourceSite, ...] = ()
    exception_classes: Tuple[ExceptionClassInfo, ...] = ()
    error_boundaries: FrozenSet[str] = frozenset()


# ---- detection tables ------------------------------------------------------

_DECLARED_CACHE_RE = re.compile(r"#\s*mapglint:\s*declared-cache\b")

_ERROR_BOUNDARY_RE = re.compile(r"#\s*mapglint:\s*error-boundary\b")

_GUARDED_BY_RE = re.compile(
    r"#\s*mapglint:\s*guarded-by=([A-Za-z_][A-Za-z0-9_.]*)")

#: Constructors whose result is a lock object.
_LOCK_FACTORIES = frozenset({"Lock", "RLock", "Condition", "Semaphore",
                             "BoundedSemaphore"})

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

_WRITE_MODE_CHARS = frozenset("wax+")

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


def source_repr(lines: List[str], node: ast.AST, limit: int = 60) -> str:
    """``node``'s source text, whitespace-collapsed and cut to ``limit``."""
    end_line = getattr(node, "end_lineno", None)
    end = getattr(node, "end_col_offset", None)
    if end_line is None or end is None:
        return ""
    first, last, start = node.lineno - 1, end_line - 1, node.col_offset
    # Column offsets count UTF-8 bytes, as in ast.get_source_segment.
    if first == last:
        segment = lines[first].encode()[start:end].decode()
    else:
        segment = "".join([lines[first].encode()[start:].decode(),
                           *lines[first + 1:last],
                           lines[last].encode()[:end].decode()])
    segment = " ".join(segment.split())
    return segment if len(segment) <= limit else segment[:limit - 3] + "..."


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
        elif name in ("Thread", "Timer"):
            self._emit(THREAD, node, f"{name}() spawns a thread")

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
        elif base == "threading" and attr in ("Thread", "Timer"):
            self._emit(THREAD, node, f"{rendering}() spawns a thread")
        elif attr in _TASK_SPAWN_FUNCS:
            self._emit(THREAD, node, f"{rendering}() spawns an async task")
        elif attr == "acquire" and base and is_lock_name(base):
            self._emit(LOCK, node, f"acquires lock '{base}' (bare call)",
                       symbol=base)
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

    # -- locks ---------------------------------------------------------------

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    def _visit_with(self, node: ast.AST) -> None:
        for item in node.items:  # type: ignore[attr-defined]
            name = dotted_name(item.context_expr)
            if name and is_lock_name(name):
                self._emit(LOCK, node, f"acquires lock '{name}' "
                           f"(with block)", symbol=name)
        self.generic_visit(node)

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
        if isinstance(worker, ast.Lambda):
            kind, name = "lambda", ""
        elif isinstance(worker, ast.Name):
            kind, name = "name", worker.id
        elif isinstance(worker, ast.Attribute):
            kind, name = "attribute", worker.attr
        else:
            kind, name = "other", ""
        others = [arg for arg in node.args if arg is not worker]
        others.extend(kw.value for kw in node.keywords
                      if kw.value is not worker)
        lambda_in_args = any(isinstance(sub, ast.Lambda)
                             for other in others
                             for sub in ast.walk(other))
        open_in_args = any(
            isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
            and sub.func.id == "open"
            for other in others for sub in ast.walk(other))
        self.into.append(PoolSubmission(
            method=method, worker_kind=kind, worker_name=name,
            worker_repr=source_repr(self.lines, worker),
            receiver=receiver, in_function=self.qualname,
            line=node.lineno, col=node.col_offset + 1,
            line_text=line_at(self.lines, node.lineno),
            lambda_in_args=lambda_in_args, open_in_args=open_in_args))


class _ConcurrencyCollector:
    """Spawn sites, lock operations, and persistence writes of one body.

    A hand-rolled walker (not a NodeVisitor) so control-flow context —
    ``conditional`` under a branch, ``in_finally`` inside a ``finally``
    suite — travels down the recursion.  Nested function definitions are
    skipped; they are walked as bodies of their own.
    """

    def __init__(self, lines: List[str], qualname: str,
                 lock_spans: _LockSpans,
                 spawns: List[SpawnSite], lock_ops: List[LockOp],
                 writes: List[FileWrite]) -> None:
        self.lines = lines
        self.qualname = qualname
        self.lock_spans = lock_spans
        self.spawns = spawns
        self.lock_ops = lock_ops
        self.writes = writes
        self._raw_writes: List[Tuple[str, str, int, int]] = []
        self._has_replace = False

    def run(self, body: List[ast.stmt]) -> None:
        for stmt in body:
            self._walk(stmt, conditional=False, in_finally=False)
        for path_repr, mode, line, col in self._raw_writes:
            self.writes.append(FileWrite(
                path_repr=path_repr, mode=mode, in_function=self.qualname,
                line=line, col=col,
                line_text=line_at(self.lines, line),
                replace_in_function=self._has_replace))

    def _walk(self, node: ast.AST, conditional: bool,
              in_finally: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            return
        if isinstance(node, ast.Call):
            self._call(node, conditional, in_finally)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            self._with(node, conditional, in_finally)
        if isinstance(node, ast.Try):
            for child in node.body:
                self._walk(child, conditional, in_finally)
            for handler in node.handlers:
                for child in handler.body:
                    self._walk(child, True, in_finally)
            for child in node.orelse:
                self._walk(child, True, in_finally)
            for child in node.finalbody:
                self._walk(child, conditional, True)
            return
        if isinstance(node, (ast.If, ast.While)):
            self._walk(node.test, conditional, in_finally)
            for child in node.body + node.orelse:
                self._walk(child, True, in_finally)
            return
        if isinstance(node, (ast.For, ast.AsyncFor)):
            self._walk(node.iter, conditional, in_finally)
            for child in node.body + node.orelse:
                self._walk(child, True, in_finally)
            return
        for child in ast.iter_child_nodes(node):
            self._walk(child, conditional, in_finally)

    # -- handlers ------------------------------------------------------------

    def _held_excluding(self, line: int, lock: str) -> Tuple[str, ...]:
        return tuple(name for name in self.lock_spans.held_at(line)
                     if name != lock)

    def _call(self, node: ast.Call, conditional: bool,
              in_finally: bool) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in ("Thread", "Timer"):
                self._spawn(node, "thread", func.id,
                            self._thread_worker(node, func.id))
            elif func.id == "open":
                self._open(node)
        elif isinstance(func, ast.Attribute):
            base = _call_base(func)
            attr = func.attr
            if base == "threading" and attr in ("Thread", "Timer"):
                self._spawn(node, "thread", f"{base}.{attr}",
                            self._thread_worker(node, attr))
            elif attr in _TASK_SPAWN_FUNCS:
                worker = node.args[0] if node.args else None
                if isinstance(worker, ast.Call):
                    worker = worker.func
                self._spawn(node, "task",
                            f"{base}.{attr}" if base else attr, worker)
            elif attr in ("acquire", "release") and base and \
                    is_lock_name(base):
                self.lock_ops.append(LockOp(
                    op=attr, lock=base, function=self.qualname,
                    line=node.lineno, col=node.col_offset + 1,
                    line_text=line_at(self.lines, node.lineno),
                    conditional=conditional, in_finally=in_finally,
                    held_before=self._held_excluding(node.lineno, base)))
            elif base == "os" and attr == "replace":
                self._has_replace = True

    @staticmethod
    def _thread_worker(node: ast.Call, name: str) -> Optional[ast.AST]:
        for keyword in node.keywords:
            if keyword.arg in ("target", "function"):
                return keyword.value
        if name == "Timer" and len(node.args) >= 2:
            return node.args[1]
        return None

    def _spawn(self, node: ast.Call, kind: str, api: str,
               worker: Optional[ast.AST]) -> None:
        if isinstance(worker, ast.Lambda):
            worker_kind, worker_name = "lambda", ""
        elif isinstance(worker, ast.Name):
            worker_kind, worker_name = "name", worker.id
        elif isinstance(worker, ast.Attribute):
            worker_kind, worker_name = "attribute", worker.attr
        else:
            worker_kind, worker_name = "other", ""
        self.spawns.append(SpawnSite(
            kind=kind, api=api, worker_kind=worker_kind,
            worker_name=worker_name,
            worker_repr=source_repr(self.lines, worker)
            if worker is not None else "",
            in_function=self.qualname, line=node.lineno,
            col=node.col_offset + 1,
            line_text=line_at(self.lines, node.lineno)))

    def _open(self, node: ast.Call) -> None:
        mode = ""
        if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant) \
                and isinstance(node.args[1].value, str):
            mode = node.args[1].value
        for keyword in node.keywords:
            if keyword.arg == "mode" and \
                    isinstance(keyword.value, ast.Constant) and \
                    isinstance(keyword.value.value, str):
                mode = keyword.value.value
        if not mode or not (set(mode) & _WRITE_MODE_CHARS):
            return
        path_node = node.args[0] if node.args else None
        self._raw_writes.append((
            source_repr(self.lines, path_node)
            if path_node is not None else "",
            mode, node.lineno, node.col_offset + 1))

    def _with(self, node: ast.AST, conditional: bool,
              in_finally: bool) -> None:
        seen: List[str] = []
        items = node.items  # type: ignore[attr-defined]
        for item in items:
            name = dotted_name(item.context_expr)
            if not name or not is_lock_name(name):
                continue
            held = self._held_excluding(node.lineno, name)
            held = tuple(dict.fromkeys(held + tuple(seen)))
            self.lock_ops.append(LockOp(
                op="with", lock=name, function=self.qualname,
                line=node.lineno, col=node.col_offset + 1,
                line_text=line_at(self.lines, node.lineno),
                conditional=conditional, in_finally=in_finally,
                held_before=held))
            seen.append(name)


# ---- error-flow collection -------------------------------------------------

#: Receiver methods that release a resource handle.
_CLOSE_METHODS = frozenset({"close", "terminate", "shutdown", "cleanup"})

#: Call names that count as logging inside an except suite.  Matching is
#: by the bare attr/name: ``print``, anything spelled like a logger call,
#: or an explicit stderr write.
_LOG_CALL_NAMES = frozenset({"print", "debug", "info", "warning", "warn",
                             "error", "exception", "critical", "log",
                             "write"})

#: tempfile constructors whose result needs explicit cleanup.
_TEMPFILE_FACTORIES = frozenset({"NamedTemporaryFile", "TemporaryFile",
                                 "SpooledTemporaryFile", "mkstemp",
                                 "mkdtemp", "TemporaryDirectory"})

_POOL_FACTORIES = frozenset({"Pool", "ThreadPool"})

_EXECUTOR_FACTORIES = frozenset({"ProcessPoolExecutor",
                                 "ThreadPoolExecutor"})


def _acquisition_kind(node: ast.Call) -> Tuple[str, str]:
    """``(kind, api)`` when ``node`` acquires a resource, else ``("", "")``."""
    func = node.func
    if isinstance(func, ast.Name):
        if func.id == "open":
            return "open", "open"
        if func.id in _POOL_FACTORIES:
            return "pool", func.id
        if func.id in _EXECUTOR_FACTORIES:
            return "executor", func.id
        return "", ""
    if isinstance(func, ast.Attribute):
        base = _call_base(func)
        attr = func.attr
        spelling = f"{base}.{attr}" if base else attr
        if base == "tempfile" and attr in _TEMPFILE_FACTORIES:
            return "tempfile", spelling
        if attr in _POOL_FACTORIES:
            return "pool", spelling
        if attr in _EXECUTOR_FACTORIES:
            return "executor", spelling
    return "", ""


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


class _ErrorFlowCollector:
    """Raise sites, handler spans, and resource lifecycles of one body.

    A hand-rolled walker like :class:`_ConcurrencyCollector`: the
    ``in_handler``/``in_finally`` context travels down the recursion and
    nested function definitions are skipped (walked as bodies of their
    own).  Named resource acquisitions are matched to their close and
    escape sites in a post-pass over the same body.
    """

    def __init__(self, lines: List[str], qualname: str,
                 raises: List[RaiseSite], handlers: List[HandlerInfo],
                 spans: List[ProtectedSpan],
                 resources: List[ResourceSite]) -> None:
        self.lines = lines
        self.qualname = qualname
        self.raises = raises
        self.handlers = handlers
        self.spans = spans
        self.resources = resources
        # Named acquisitions awaiting the close/escape post-pass.
        self._named: List[Tuple[str, ResourceSite]] = []
        # Acquisition Call nodes already claimed by a statement form.
        self._claimed: Set[int] = set()
        # (line, in_finally) of every var.close()-style call, by var.
        self._closes: Dict[str, Tuple[int, bool]] = {}
        self._escaped_vars: Set[str] = set()

    def run(self, body: List[ast.stmt]) -> None:
        for stmt in body:
            self._walk(stmt, in_handler=False, in_finally=False)
        for var, site in self._named:
            close = self._closes.get(var)
            self.resources.append(ResourceSite(
                kind=site.kind, api=site.api, var=var,
                in_function=site.in_function, line=site.line, col=site.col,
                line_text=site.line_text, in_with=False,
                escapes=var in self._escaped_vars,
                closed=close is not None,
                close_line=close[0] if close else 0,
                close_in_finally=close[1] if close else False))

    # -- the walk ------------------------------------------------------------

    def _walk(self, node: ast.AST, in_handler: bool,
              in_finally: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            return
        if isinstance(node, ast.Raise):
            self._raise(node, in_handler)
        elif isinstance(node, ast.Try):
            self._try(node, in_handler, in_finally)
            return
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            self._with_items(node)
        elif isinstance(node, ast.Assign):
            self._assign(node)
        elif isinstance(node, (ast.Return, ast.Expr)) and \
                getattr(node, "value", None) is not None:
            self._value_stmt(node)
        elif isinstance(node, ast.Call):
            self._call(node, in_finally)
        for child in ast.iter_child_nodes(node):
            self._walk(child, in_handler, in_finally)

    def _try(self, node: ast.Try, in_handler: bool,
             in_finally: bool) -> None:
        start = node.body[0].lineno if node.body else node.lineno
        end = (getattr(node.body[-1], "end_lineno", None) or start) \
            if node.body else start
        if node.handlers or node.finalbody:
            self.spans.append(ProtectedSpan(
                in_function=self.qualname, start=start, end=end,
                has_finally=bool(node.finalbody),
                has_handlers=bool(node.handlers)))
        for handler in node.handlers:
            caught, is_bare = _caught_names(handler)
            self.handlers.append(HandlerInfo(
                in_function=self.qualname, caught=caught, is_bare=is_bare,
                try_start=start, try_end=end, line=handler.lineno,
                col=handler.col_offset + 1,
                line_text=line_at(self.lines, handler.lineno),
                reraises=self._suite_reraises(handler.body),
                raises_new=self._suite_raises_new(handler.body),
                logs=self._suite_logs(handler.body),
                returns=self._suite_returns(handler.body)))
        for child in node.body:
            self._walk(child, in_handler, in_finally)
        for handler in node.handlers:
            for child in handler.body:
                self._walk(child, True, in_finally)
        for child in node.orelse:
            self._walk(child, in_handler, in_finally)
        for child in node.finalbody:
            self._walk(child, in_handler, True)

    def _raise(self, node: ast.Raise, in_handler: bool) -> None:
        if node.exc is None:
            self.raises.append(RaiseSite(
                exc_type="", in_function=self.qualname,
                in_handler=in_handler, line=node.lineno,
                col=node.col_offset + 1,
                line_text=line_at(self.lines, node.lineno),
                is_reraise=True))
            return
        name = _exc_type_name(node.exc)
        if not name:
            return  # unknowable (a variable): under-approximate
        self.raises.append(RaiseSite(
            exc_type=name, in_function=self.qualname,
            in_handler=in_handler, line=node.lineno,
            col=node.col_offset + 1,
            line_text=line_at(self.lines, node.lineno)))

    # -- handler-suite classification ---------------------------------------

    @staticmethod
    def _suite_walk(body: List[ast.stmt]):
        for stmt in body:
            for sub in ast.walk(stmt):
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.Lambda)):
                    break
                yield sub

    def _suite_reraises(self, body: List[ast.stmt]) -> bool:
        return any(isinstance(sub, ast.Raise) and sub.exc is None
                   for sub in self._suite_walk(body))

    def _suite_raises_new(self, body: List[ast.stmt]) -> bool:
        return any(isinstance(sub, ast.Raise) and sub.exc is not None
                   for sub in self._suite_walk(body))

    def _suite_logs(self, body: List[ast.stmt]) -> bool:
        for sub in self._suite_walk(body):
            if not isinstance(sub, ast.Call):
                continue
            func = sub.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else "")
            if name in _LOG_CALL_NAMES:
                return True
        return False

    def _suite_returns(self, body: List[ast.stmt]) -> bool:
        return any(isinstance(sub, ast.Return)
                   for sub in self._suite_walk(body))

    # -- resources -----------------------------------------------------------

    def _record_resource(self, node: ast.Call, kind: str, api: str,
                         var: str = "", in_with: bool = False,
                         escapes: bool = False) -> None:
        self._claimed.add(id(node))
        site = ResourceSite(
            kind=kind, api=api, var=var, in_function=self.qualname,
            line=node.lineno, col=node.col_offset + 1,
            line_text=line_at(self.lines, node.lineno),
            in_with=in_with, escapes=escapes)
        if var and not in_with and not escapes:
            self._named.append((var, site))
        else:
            self.resources.append(site)

    def _with_items(self, node: ast.AST) -> None:
        for item in node.items:  # type: ignore[attr-defined]
            expr = item.context_expr
            # ``with closing(make())`` / ``with Pool() as p`` both manage.
            calls = [expr] if isinstance(expr, ast.Call) else []
            if isinstance(expr, ast.Call) and \
                    isinstance(expr.func, (ast.Name, ast.Attribute)):
                calls.extend(arg for arg in expr.args
                             if isinstance(arg, ast.Call))
            for call in calls:
                kind, api = _acquisition_kind(call)
                if kind:
                    self._record_resource(call, kind, api, in_with=True)

    def _assign(self, node: ast.Assign) -> None:
        value = node.value
        if isinstance(value, ast.Call):
            kind, api = _acquisition_kind(value)
            if kind:
                target = node.targets[0] if len(node.targets) == 1 else None
                if isinstance(target, ast.Name):
                    self._record_resource(value, kind, api, var=target.id)
                else:
                    # self.x = open(...) / a, b = ... : ownership escapes
                    # the function body (the closer lives elsewhere).
                    self._record_resource(value, kind, api, escapes=True)
        # ``self.x = var`` / containers holding var: the handle escapes.
        for name in self._direct_names(value):
            if any(not isinstance(t, ast.Name) for t in node.targets):
                self._escaped_vars.add(name)

    def _value_stmt(self, node: ast.AST) -> None:
        value = node.value  # type: ignore[attr-defined]
        if isinstance(node, ast.Return):
            if isinstance(value, ast.Call):
                kind, api = _acquisition_kind(value)
                if kind:
                    self._record_resource(value, kind, api, escapes=True)
            for name in self._direct_names(value):
                self._escaped_vars.add(name)

    @staticmethod
    def _direct_names(value: Optional[ast.AST]) -> List[str]:
        """Bare names appearing directly in a value expression."""
        if value is None:
            return []
        roots = [value]
        if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
            roots = list(value.elts)
        elif isinstance(value, ast.Dict):
            roots = [v for v in value.values if v is not None]
        return [root.id for root in roots if isinstance(root, ast.Name)]

    def _call(self, node: ast.Call, in_finally: bool) -> None:
        func = node.func
        # var.close()/terminate()/shutdown(): the matching release site.
        if isinstance(func, ast.Attribute) and \
                func.attr in _CLOSE_METHODS and \
                isinstance(func.value, ast.Name):
            var = func.value.id
            if var not in self._closes or in_finally:
                self._closes[var] = (node.lineno, in_finally)
        # Handles passed to or acquired inside another call escape:
        # ownership is transferred to the callee.
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(arg, ast.Name):
                self._escaped_vars.add(arg.id)
            elif isinstance(arg, ast.Call) and id(arg) not in self._claimed:
                kind, api = _acquisition_kind(arg)
                if kind:
                    self._record_resource(arg, kind, api, escapes=True)
        # Anything not claimed by a statement form by the time the walk
        # reaches it is a dropped handle (``open(p)`` as a bare call).
        kind, api = _acquisition_kind(node)
        if kind and id(node) not in self._claimed:
            self._record_resource(node, kind, api)


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

    # Concurrency model: guarded-by bindings, lock-typed module globals,
    # and the class-body mutable attrs whose mutation is a shared write.
    guarded = _extract_guarded_bindings(tree, lines, guard_pragmas)
    guard_globals = {b.symbol: b.lock for b in guarded
                     if b.scope == "global"}
    guard_attrs = {b.symbol: b.lock for b in guarded if b.scope == "attr"}
    guard_def_lines = frozenset(b.line for b in guarded)
    attr_watch = frozenset(info.attr for info in class_attrs)
    lock_global_names: Set[str] = set()
    for stmt in tree.body:
        value = None
        targets = []
        if isinstance(stmt, ast.Assign):
            targets, value = list(stmt.targets), stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if not isinstance(value, ast.Call):
            continue
        callee = value.func
        callee_name = callee.id if isinstance(callee, ast.Name) else (
            callee.attr if isinstance(callee, ast.Attribute) else "")
        if callee_name in _LOCK_FACTORIES:
            lock_global_names.update(t.id for t in targets
                                     if isinstance(t, ast.Name))

    functions: List[FunctionEffects] = []
    pool_sites: List[PoolSubmission] = []
    spawn_sites: List[SpawnSite] = []
    lock_ops: List[LockOp] = []
    file_writes: List[FileWrite] = []
    raise_sites: List[RaiseSite] = []
    handler_infos: List[HandlerInfo] = []
    protected_spans: List[ProtectedSpan] = []
    resource_sites: List[ResourceSite] = []
    error_boundaries: Set[str] = set()
    nested: Set[str] = set()

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
        lock_spans = _LockSpans(func.body)
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
            lock_spans=lock_spans,
            emit_guarded=func.name not in ("__init__", "__new__"))
        for stmt in func.body:
            visitor.visit(stmt)
        if visitor.effects:
            functions.append(FunctionEffects(
                qualname=qualname, name=func.name, line=func.lineno,
                effects=tuple(visitor.effects)))
        before = len(pool_sites)
        collector = _PoolSiteCollector(lines, qualname, pool_sites)
        for stmt in func.body:
            collector.visit(stmt)
        for index in range(before, len(pool_sites)):
            site = pool_sites[index]
            held = lock_spans.held_at(site.line)
            if held:
                pool_sites[index] = PoolSubmission(
                    **{**site.__dict__, "locks_held": held})
        conc = _ConcurrencyCollector(lines, qualname, lock_spans,
                                     spawn_sites, lock_ops, file_writes)
        conc.run(func.body)
        errflow = _ErrorFlowCollector(lines, qualname, raise_sites,
                                      handler_infos, protected_spans,
                                      resource_sites)
        errflow.run(func.body)
        if func.lineno in boundary_lines:
            error_boundaries.add(qualname)

    def walk_body(body: List[ast.stmt], class_name: str = "",
                  in_function: bool = False) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if in_function:
                    nested.add(stmt.name)
                analyze(stmt, class_name)
                walk_body(stmt.body, class_name=class_name, in_function=True)
            elif isinstance(stmt, ast.ClassDef):
                walk_body(stmt.body, class_name=stmt.name,
                          in_function=in_function)

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
        for stmt in module_stmts:
            collector.visit(stmt)
        conc = _ConcurrencyCollector(
            lines, f"{norm}::<module>", _LockSpans(module_stmts),
            spawn_sites, lock_ops, file_writes)
        conc.run(module_stmts)
        errflow = _ErrorFlowCollector(
            lines, f"{norm}::<module>", raise_sites, handler_infos,
            protected_spans, resource_sites)
        errflow.run(module_stmts)

    return ModuleEffects(
        path=norm,
        functions=tuple(functions),
        pool_submissions=tuple(pool_sites),
        class_mutable_attrs=tuple(class_attrs),
        mutable_globals=frozenset(mutable),
        mutated_globals=frozenset(mutated),
        declared_caches=frozenset(declared),
        nested_functions=frozenset(nested),
        spawn_sites=tuple(spawn_sites),
        lock_ops=tuple(lock_ops),
        guarded_bindings=tuple(guarded),
        file_writes=tuple(file_writes),
        lock_globals=frozenset(lock_global_names),
        raise_sites=tuple(raise_sites),
        handlers=tuple(handler_infos),
        protected_spans=tuple(protected_spans),
        resource_sites=tuple(resource_sites),
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
