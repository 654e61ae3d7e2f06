"""Bottom-up interprocedural effect inference over the call graph.

Each function in the :class:`~repro.analysis.callgraph.CallGraph` is
assigned a set of *effects* — the small lattice the PAR rule family reasons
over:

``mutates-module-global``
    Writes to module-level state: assignment through a ``global``
    declaration, or subscript/attribute stores and mutating method calls
    (``.update``, ``.append``, ...) on a name bound at module level.
``holds-unpicklable-state``
    Stores an unpicklable resource on instance state
    (``self.lock = threading.Lock()``, ``self.handle = open(...)``).
``spawns-process-or-thread``
    Creates processes, threads, pools, or shells.
``writes-filesystem``
    Mutates the filesystem: ``open`` in a writing mode, ``os``/``shutil``
    mutators, or ``Path`` write/mkdir/unlink-style methods.
``nondeterministic``
    Carries a determinism finding (the DET facts of
    :mod:`repro.analysis.determinism`, lifted from lines to functions).
    Sites suppressed with a ``# repro: lint-ignore[DET...]`` pragma are
    *sanctioned* — the package's reviewed clock reader does not poison
    every caller — so they do not contribute the effect.

Direct effects are inferred per function body, then propagated **bottom-up
along call edges to a fixpoint**: a function has every effect of every
function it may call, with a witness chain recording how the effect
reaches it.  The propagation is monotone over a finite lattice, so the
fixpoint exists and the iteration terminates.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .callgraph import MODULE_NODE_SUFFIX, CallGraph, module_aliases
from .determinism import check_determinism
from .rules import SourceModule, is_suppressed, parse_pragmas

__all__ = [
    "MUTATES_GLOBAL",
    "HOLDS_UNPICKLABLE",
    "SPAWNS",
    "WRITES_FS",
    "NONDETERMINISTIC",
    "ALL_EFFECTS",
    "SPAWN_CALLS",
    "FORK_UNSAFE_CONSTRUCTORS",
    "FS_WRITE_CALLS",
    "FS_WRITE_METHODS",
    "EffectSite",
    "EffectSummary",
    "infer_effects",
]

MUTATES_GLOBAL = "mutates-module-global"
HOLDS_UNPICKLABLE = "holds-unpicklable-state"
SPAWNS = "spawns-process-or-thread"
WRITES_FS = "writes-filesystem"
NONDETERMINISTIC = "nondeterministic"

#: The full effect lattice, in severity order for stable reports.
ALL_EFFECTS = (
    MUTATES_GLOBAL,
    HOLDS_UNPICKLABLE,
    SPAWNS,
    WRITES_FS,
    NONDETERMINISTIC,
)

#: Fully-qualified callables that start processes, threads, or shells.
SPAWN_CALLS = frozenset(
    {
        "concurrent.futures.ProcessPoolExecutor",
        "concurrent.futures.ThreadPoolExecutor",
        "concurrent.futures.process.ProcessPoolExecutor",
        "concurrent.futures.thread.ThreadPoolExecutor",
        "multiprocessing.Process",
        "multiprocessing.Pool",
        "multiprocessing.pool.Pool",
        "threading.Thread",
        "threading.Timer",
        "subprocess.Popen",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "os.fork",
        "os.forkpty",
        "os.system",
        "os.posix_spawn",
        "os.posix_spawnp",
    }
)

#: Constructors of resources that must never cross a ``fork``: held locks
#: and condition variables deadlock in the child, executors and queues own
#: worker threads that do not survive it, and open handles share file
#: offsets between processes.
FORK_UNSAFE_CONSTRUCTORS = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
        "threading.Event",
        "threading.Barrier",
        "multiprocessing.Lock",
        "multiprocessing.RLock",
        "multiprocessing.Condition",
        "multiprocessing.Semaphore",
        "multiprocessing.Queue",
        "multiprocessing.Manager",
        "queue.Queue",
        "queue.LifoQueue",
        "queue.PriorityQueue",
        "queue.SimpleQueue",
        "open",
    }
) | SPAWN_CALLS

#: Fully-qualified filesystem mutators.
FS_WRITE_CALLS = frozenset(
    {
        "os.remove",
        "os.unlink",
        "os.rename",
        "os.renames",
        "os.replace",
        "os.mkdir",
        "os.makedirs",
        "os.rmdir",
        "os.removedirs",
        "os.truncate",
        "os.chmod",
        "os.chown",
        "os.link",
        "os.symlink",
        "shutil.rmtree",
        "shutil.move",
        "shutil.copy",
        "shutil.copy2",
        "shutil.copyfile",
        "shutil.copytree",
        "tempfile.mkdtemp",
        "tempfile.mkstemp",
        "tempfile.NamedTemporaryFile",
        "tempfile.TemporaryDirectory",
        "tempfile.TemporaryFile",
        "numpy.save",
        "numpy.savez",
        "numpy.savez_compressed",
        "numpy.savetxt",
    }
)

#: Method names that mutate the filesystem on ``pathlib.Path``-like
#: receivers.  Matching is by attribute name — receiver types are often
#: unknown — which trades a small false-positive risk for never missing a
#: write; false positives carry a reviewable pragma.
FS_WRITE_METHODS = frozenset(
    {
        "write_text",
        "write_bytes",
        "mkdir",
        "touch",
        "unlink",
        "rmdir",
        "rename",
        "replace",
        "symlink_to",
        "hardlink_to",
        "rmtree",
    }
)

#: Method names that mutate their receiver in place — used to detect
#: mutation of module-level containers.
_MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "add",
        "discard",
        "sort",
        "reverse",
        "appendleft",
        "extendleft",
    }
)

#: DET rule ids whose findings constitute the ``nondeterministic`` effect.
_DET_RULES = ("DET001", "DET002", "DET003", "DET004")


@dataclass(frozen=True)
class EffectSite:
    """Where a primitive effect occurs: file, line, and a human detail."""

    effect: str
    path: str
    line: int
    detail: str
    origin: str


@dataclass
class EffectSummary:
    """Per-function effect sets: direct sites and the propagated closure.

    ``direct`` maps function qualname → effect → every witnessing site (in
    source order), so each offending line surfaces as its own finding and
    carries its own pragma.  ``closure`` maps function qualname → effect →
    ``(site, chain)`` where ``site`` is one witness and ``chain`` is the
    call path from the function to the site's origin.
    """

    direct: dict[str, dict[str, tuple[EffectSite, ...]]] = field(default_factory=dict)
    closure: dict[str, dict[str, tuple[EffectSite, tuple[str, ...]]]] = field(
        default_factory=dict
    )

    def effects_of(self, qualname: str) -> dict[str, tuple[EffectSite, tuple[str, ...]]]:
        """The propagated effects of one function (empty for unknown names)."""
        return self.closure.get(qualname, {})


def _dotted(node: ast.expr, aliases: Mapping[str, str]) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    head = aliases.get(node.id, node.id)
    return ".".join([head, *reversed(parts)])


def _own_body(node: ast.AST) -> Iterable[ast.AST]:
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(child))


def _local_names(node: ast.AST) -> set[str]:
    """Names bound locally in a function body (parameters included)."""
    names: set[str] = set()
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        arguments = node.args
        for parameter in (
            *arguments.posonlyargs,
            *arguments.args,
            *arguments.kwonlyargs,
            *filter(None, (arguments.vararg, arguments.kwarg)),
        ):
            names.add(parameter.arg)
    for child in _own_body(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store):
            names.add(child.id)
        elif isinstance(child, (ast.For, ast.AsyncFor)):
            for target in ast.walk(child.target):
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _open_mode_writes(node: ast.Call) -> bool:
    """True when an ``open(...)`` call's mode argument requests writing."""
    mode: ast.expr | None = None
    if len(node.args) >= 2:
        mode = node.args[1]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if mode is None:
        return False
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return any(flag in mode.value for flag in "wax+")
    return True  # dynamic mode: assume the worst


class _DirectEffects:
    """Single-function direct-effect scan."""

    def __init__(
        self,
        graph: CallGraph,
        module: SourceModule,
        aliases: Mapping[str, str],
        qualname: str,
    ) -> None:
        self.graph = graph
        self.module = module
        self.aliases = aliases
        self.qualname = qualname
        self.path = str(module.path)
        self.sites: dict[str, list[EffectSite]] = {}

    def record(self, effect: str, line: int, detail: str) -> None:
        """Record one witnessing site; every site per effect is kept."""
        site = EffectSite(
            effect=effect,
            path=self.path,
            line=line,
            detail=detail,
            origin=self.qualname,
        )
        existing = self.sites.setdefault(effect, [])
        if site not in existing:
            existing.append(site)

    def _module_binding_of(self, node: ast.expr) -> str | None:
        """Resolve an expression to a module-level binding's qualname."""
        dotted = _dotted(node, self.aliases)
        if dotted is None:
            return None
        if dotted in self.graph.module_bindings:
            return dotted
        own = f"{self.module.name}.{dotted}"
        if "." not in dotted and own in self.graph.module_bindings:
            return own
        return None

    def scan(self, body: Iterable[ast.AST], locals_: set[str], is_module: bool) -> None:
        """Populate ``self.sites`` from one function (or module) body."""
        global_names: set[str] = set()
        nodes = list(body)
        for node in nodes:
            if isinstance(node, ast.Global):
                global_names.update(node.names)
        for node in nodes:
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                self._scan_store(node, global_names, locals_, is_module)
            if isinstance(node, ast.Call):
                self._scan_call(node, locals_)

    def _scan_store(
        self,
        node: ast.stmt,
        global_names: set[str],
        locals_: set[str],
        is_module: bool,
    ) -> None:
        if isinstance(node, ast.Assign):
            targets = node.targets
        else:
            targets = [node.target]  # type: ignore[list-item]
        for target in targets:
            # Unpicklable state held on instances: self.<attr> = <resource>()
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and isinstance(node, (ast.Assign, ast.AnnAssign))
                and getattr(node, "value", None) is not None
                and isinstance(node.value, ast.Call)  # type: ignore[union-attr]
            ):
                dotted = _dotted(node.value.func, self.aliases)  # type: ignore[union-attr]
                if dotted in FORK_UNSAFE_CONSTRUCTORS:
                    self.record(
                        HOLDS_UNPICKLABLE,
                        node.lineno,
                        f"stores {dotted}() on self.{target.attr}; instances "
                        f"holding it cannot cross a pickle/fork boundary",
                    )
            if isinstance(target, ast.Name):
                if target.id in global_names:
                    self.record(
                        MUTATES_GLOBAL,
                        node.lineno,
                        f"assigns module global {target.id!r} via a global declaration",
                    )
            elif isinstance(target, (ast.Subscript, ast.Attribute)):
                base = target.value
                if (
                    isinstance(base, ast.Name)
                    and base.id in locals_
                    and base.id not in global_names
                ):
                    continue
                binding = self._module_binding_of(base)
                if binding is not None and not (
                    is_module and binding.startswith(self.module.name + ".")
                ):
                    kind = "item" if isinstance(target, ast.Subscript) else "attribute"
                    self.record(
                        MUTATES_GLOBAL,
                        node.lineno,
                        f"stores an {kind} on module-level binding {binding}",
                    )

    def _scan_call(self, node: ast.Call, locals_: set[str]) -> None:
        dotted = _dotted(node.func, self.aliases)
        if dotted is not None:
            if dotted in SPAWN_CALLS:
                self.record(SPAWNS, node.lineno, f"call to {dotted}()")
            if dotted in FS_WRITE_CALLS:
                self.record(WRITES_FS, node.lineno, f"call to {dotted}()")
            if dotted == "open" and _open_mode_writes(node):
                self.record(WRITES_FS, node.lineno, "open() in a writing mode")
        if isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if attr in FS_WRITE_METHODS and _dotted(node.func, self.aliases) not in (
                FS_WRITE_CALLS
            ):
                self.record(
                    WRITES_FS,
                    node.lineno,
                    f"filesystem-mutating method .{attr}()",
                )
            if attr in _MUTATING_METHODS:
                base = node.func.value
                if (
                    isinstance(base, ast.Name)
                    and base.id in locals_
                ):
                    return
                binding = self._module_binding_of(base)
                if binding is not None:
                    self.record(
                        MUTATES_GLOBAL,
                        node.lineno,
                        f"mutates module-level binding {binding} via .{attr}()",
                    )


def _nondeterminism_sites(
    module: SourceModule, graph: CallGraph
) -> dict[str, list[EffectSite]]:
    """DET findings of one module, lifted to their enclosing functions.

    Pragma-suppressed findings are sanctioned and skipped; each remaining
    finding is attributed to the innermost function whose line range
    contains it (the module pseudo-node catches top-level code).
    """
    pragmas = parse_pragmas(module.lines)
    functions = [
        node for node in graph.functions.values() if node.module == module.name
    ]
    sites: dict[str, list[EffectSite]] = {}
    for finding in check_determinism(module):
        if finding.rule not in _DET_RULES or is_suppressed(finding, pragmas):
            continue
        best = None
        for node in functions:
            if node.line <= finding.line <= node.end_line:
                if best is None or node.line > best.line:
                    best = node
        if best is None:
            continue
        sites.setdefault(best.qualname, []).append(
            EffectSite(
                effect=NONDETERMINISTIC,
                path=finding.path,
                line=finding.line,
                detail=f"{finding.rule}: {finding.message}",
                origin=best.qualname,
            )
        )
    return sites


def infer_effects(graph: CallGraph, modules: list[SourceModule]) -> EffectSummary:
    """Infer direct effects and propagate them along the call graph.

    Returns an :class:`EffectSummary` whose closure maps every function to
    the effects of everything it may transitively call, each with the
    witnessing site and the call chain that reaches it.
    """
    summary = EffectSummary()
    modules_by_name = {module.name: module for module in modules}

    for qualname in sorted(graph.functions):
        node = graph.functions[qualname]
        module = modules_by_name.get(node.module)
        if module is None or node.node is None:
            continue
        aliases = graph.aliases.get(node.module) or module_aliases(module)
        scanner = _DirectEffects(graph, module, aliases, qualname)
        is_module = qualname.endswith(MODULE_NODE_SUFFIX)
        if is_module:
            body: Iterable[ast.AST] = _module_statements(node.node)
            locals_: set[str] = set()
        else:
            body = _own_body(node.node)
            locals_ = _local_names(node.node)
        scanner.scan(body, locals_, is_module)
        if scanner.sites:
            summary.direct[qualname] = {
                effect: tuple(sorted(sites, key=lambda site: site.line))
                for effect, sites in scanner.sites.items()
            }

    for module in modules:
        for qualname, det_sites in _nondeterminism_sites(module, graph).items():
            summary.direct.setdefault(qualname, {}).setdefault(
                NONDETERMINISTIC,
                tuple(sorted(det_sites, key=lambda site: site.line)),
            )

    # Fixpoint propagation: monotone union over a finite lattice.  One
    # witnessing site per effect suffices for the closure — the per-site
    # findings come from ``direct``.
    closure: dict[str, dict[str, tuple[EffectSite, tuple[str, ...]]]] = {
        qualname: {
            effect: (sites[0], (qualname,)) for effect, sites in effect_sites.items()
        }
        for qualname, effect_sites in summary.direct.items()
    }
    changed = True
    while changed:
        changed = False
        for caller in sorted(graph.calls):
            current = closure.setdefault(caller, {})
            for site in graph.calls[caller]:
                for effect, (origin_site, chain) in closure.get(
                    site.callee, {}
                ).items():
                    if effect not in current:
                        current[effect] = (origin_site, (caller, *chain))
                        changed = True
    summary.closure = {
        qualname: effects for qualname, effects in closure.items() if effects
    }
    return summary


def _module_statements(tree: ast.AST) -> list[ast.AST]:
    collected: list[ast.AST] = []
    stack: list[ast.AST] = list(ast.iter_child_nodes(tree))
    while stack:
        node = stack.pop()
        collected.append(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return collected
