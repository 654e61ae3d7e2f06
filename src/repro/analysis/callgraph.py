"""Whole-package interprocedural call graph over :class:`SourceModule` ASTs.

The SER rule family (:mod:`repro.analysis.serialization`) resolves the
functions a persisted artifact's writers call, the dataclasses they
serialize and the module constants they read; this module builds the graph
it walks — purely syntactically, from the same parsed sources every other
check uses, with no imports of the analysed package (the analysis layer
stays a leaf).

Resolution strategy, in order of attempt for each ``Call`` node:

1. **Direct names** through the module's import aliases and its own
   definitions (``run_flow(...)``, ``spec.TraceSpec(...)``), including
   relative imports resolved against the module's package.
2. **Attribute access on known classes**: a parameter or local variable
   whose class is known (from an annotation, a constructor assignment, or a
   dataclass field type) resolves ``obj.method()`` to ``Class.method`` —
   walking base classes declared in the package.  ``self``/``cls`` resolve
   to the enclosing class.  Reading a ``@property`` also creates an edge:
   the body runs even without call syntax.
3. **Instantiation**: calling a known class edges to its ``__init__`` and
   ``__post_init__`` (dataclasses run both).

Everything else — calls into other distributions (stdlib, numpy), dict
dispatch, higher-order values, methods on unknown types — gets no edge.

Nested functions are modelled conservatively: a ``contains`` edge links the
enclosing function to each inner ``def``, so anything an inner function does
is considered reachable wherever the outer one is.  Module top-level code is
its own pseudo-node (``modname.<module>``), which is where module-level
constants such as schema version numbers are read from.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from .rules import SourceModule

__all__ = [
    "CallSite",
    "FunctionNode",
    "ClassNode",
    "FieldInfo",
    "ModuleBinding",
    "CallGraph",
    "build_call_graph",
    "module_aliases",
    "dotted_name",
    "own_body",
]

#: Suffix appended to a module name to form its top-level pseudo-node.
MODULE_NODE_SUFFIX = ".<module>"

#: Names every Python process has without importing anything.
_BUILTIN_NAMES = frozenset(dir(builtins))


@dataclass(frozen=True)
class CallSite:
    """One resolved edge: ``caller`` invokes (or contains, or reads) ``callee``.

    ``kind`` is ``"call"`` for ordinary calls, ``"instantiate"`` for edges
    into ``__init__``/``__post_init__``, ``"property"`` for attribute reads
    that execute a property body, and ``"contains"`` for nested ``def``s.
    """

    caller: str
    callee: str
    path: str
    line: int
    kind: str = "call"


@dataclass(frozen=True)
class FieldInfo:
    """One known attribute of a class and its resolved type."""

    name: str
    line: int
    type_qualname: str | None


@dataclass
class FunctionNode:
    """A function, method, nested function, or module top-level pseudo-node."""

    qualname: str
    module: str
    path: str
    line: int
    node: ast.AST | None
    owner_class: str | None = None
    is_property: bool = False


@dataclass
class ClassNode:
    """A class defined in the scanned tree, with enough shape for dispatch."""

    qualname: str
    module: str
    path: str
    line: int
    methods: dict[str, str] = field(default_factory=dict)
    fields: dict[str, FieldInfo] = field(default_factory=dict)
    bases: tuple[str, ...] = ()


@dataclass(frozen=True)
class ModuleBinding:
    """A module-level name binding, with its initializer call if it has one.

    ``value_call`` is the resolved qualified name of the right-hand side when
    it is a plain call (``LOCK = threading.Lock()`` records
    ``threading.Lock``), so a module-level instance of a known class types
    the name wherever it is used.
    """

    qualname: str
    module: str
    name: str
    value_call: str | None = None


@dataclass
class CallGraph:
    """The package call graph plus the definition and alias indexes."""

    functions: dict[str, FunctionNode] = field(default_factory=dict)
    classes: dict[str, ClassNode] = field(default_factory=dict)
    calls: dict[str, list[CallSite]] = field(default_factory=dict)
    module_bindings: dict[str, ModuleBinding] = field(default_factory=dict)
    aliases: dict[str, dict[str, str]] = field(default_factory=dict)

    def callees(self, qualname: str) -> list[CallSite]:
        """Out-edges of one function node (empty for unknown names)."""
        return self.calls.get(qualname, [])

    def method_of(self, class_qualname: str, method: str) -> str | None:
        """Resolve ``method`` on a class, walking in-package base classes."""
        seen: set[str] = set()
        stack = [class_qualname]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            if method in info.methods:
                return info.methods[method]
            stack.extend(info.bases)
        return None

    def field_of(self, class_qualname: str, name: str) -> FieldInfo | None:
        """Resolve a field/attribute on a class, walking in-package bases."""
        seen: set[str] = set()
        stack = [class_qualname]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            if name in info.fields:
                return info.fields[name]
            stack.extend(info.bases)
        return None

    def reachable(self, entry_points: Sequence[str]) -> dict[str, tuple[str, ...]]:
        """BFS closure from ``entry_points``: qualname → witness chain.

        The chain starts at the entry point and ends at the function itself;
        entries that name nothing in the graph are simply absent from the
        result (callers decide whether that is an error).
        """
        chains: dict[str, tuple[str, ...]] = {}
        queue: list[str] = []
        for entry in entry_points:
            if entry in self.functions and entry not in chains:
                chains[entry] = (entry,)
                queue.append(entry)
        while queue:
            current = queue.pop(0)
            for site in self.calls.get(current, []):
                if site.callee in chains or site.callee not in self.functions:
                    continue
                chains[site.callee] = chains[current] + (site.callee,)
                queue.append(site.callee)
        return chains


def module_aliases(module: SourceModule) -> dict[str, str]:
    """Local name → absolute dotted target, relative imports included.

    ``import numpy as np`` maps ``np`` to ``numpy``; ``from .spec import
    SweepTask`` inside ``repro.batch.runner`` maps ``SweepTask`` to
    ``repro.batch.spec.SweepTask``; module-level assignment aliases of
    dotted names (``now = time.time``) resolve in statement order.  The
    call graph and the DET rules both resolve names through it.
    """
    aliases: dict[str, str] = {}
    package = module.package_parts
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    aliases[top] = top
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                if node.level > len(package):
                    continue
                stem = package[: len(package) - (node.level - 1)]
                base = ".".join(stem)
                if node.module:
                    base = f"{base}.{node.module}" if base else node.module
            if not base:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{base}.{alias.name}"
    # Module-level assignment aliases: NAME = dotted.chain
    for node in module.tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and isinstance(
                node.value, (ast.Name, ast.Attribute)
            ):
                dotted = dotted_name(node.value, aliases)
                if dotted is not None:
                    aliases.setdefault(target.id, dotted)
    return aliases


def dotted_name(node: ast.expr, aliases: Mapping[str, str]) -> str | None:
    """Resolve a Name/Attribute chain through ``aliases`` to a dotted name."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    head = aliases.get(node.id, node.id)
    return ".".join([head, *reversed(parts)])


def _base_name(node: ast.expr) -> str | None:
    """The root ``Name`` id of an attribute chain, or ``None``."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def own_body(node: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested defs or classes.

    Lambdas and comprehensions *are* descended into — they run as part of
    the enclosing function — while nested ``def``/``class`` bodies belong to
    their own graph nodes.
    """
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(child))


class _Builder:
    """Two-pass construction: index definitions, then resolve call sites."""

    def __init__(self, modules: list[SourceModule]) -> None:
        self.modules = modules
        self.graph = CallGraph()

    # -- pass 1: definitions ------------------------------------------------------

    def index(self) -> None:
        for module in self.modules:
            aliases = module_aliases(module)
            self.graph.aliases[module.name] = aliases
            module_node = FunctionNode(
                qualname=module.name + MODULE_NODE_SUFFIX,
                module=module.name,
                path=str(module.path),
                line=1,
                node=module.tree,
            )
            self.graph.functions[module_node.qualname] = module_node
            for statement in module.tree.body:
                self._index_statement(module, statement, aliases)

    def _index_statement(
        self, module: SourceModule, statement: ast.stmt, aliases: Mapping[str, str]
    ) -> None:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._index_function(module, statement, owner=None)
        elif isinstance(statement, ast.ClassDef):
            self._index_class(module, statement, aliases)
        elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
            self._index_binding(module, statement, aliases)
        elif isinstance(statement, (ast.If, ast.Try)):
            for body in _sub_bodies(statement):
                for inner in body:
                    self._index_statement(module, inner, aliases)

    def _index_binding(
        self, module: SourceModule, statement: ast.stmt, aliases: Mapping[str, str]
    ) -> None:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(statement, ast.Assign):
            targets, value = statement.targets, statement.value
        elif isinstance(statement, ast.AnnAssign):
            targets, value = [statement.target], statement.value
        value_call = None
        if isinstance(value, ast.Call):
            value_call = dotted_name(value.func, aliases)
        for target in targets:
            if isinstance(target, ast.Name):
                qualname = f"{module.name}.{target.id}"
                self.graph.module_bindings.setdefault(
                    qualname,
                    ModuleBinding(
                        qualname=qualname,
                        module=module.name,
                        name=target.id,
                        value_call=value_call,
                    ),
                )

    def _index_function(
        self,
        module: SourceModule,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        owner: str | None,
        prefix: str | None = None,
    ) -> str:
        base = prefix or (owner or module.name)
        qualname = f"{base}.{node.name}"
        self.graph.functions[qualname] = FunctionNode(
            qualname=qualname,
            module=module.name,
            path=str(module.path),
            line=node.lineno,
            node=node,
            owner_class=owner,
            is_property=_is_property(node),
        )
        for child in ast.walk(node):
            if child is node:
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Only immediate children get indexed here; deeper nesting is
                # handled by the recursive call.
                if _parent_function(node, child) is node:
                    inner = self._index_function(
                        module, child, owner=None, prefix=f"{qualname}.<locals>"
                    )
                    self._add_edge(
                        CallSite(qualname, inner, str(module.path), child.lineno, "contains")
                    )
        return qualname

    def _index_class(
        self, module: SourceModule, node: ast.ClassDef, aliases: Mapping[str, str]
    ) -> None:
        qualname = f"{module.name}.{node.name}"
        bases = []
        for base in node.bases:
            resolved = self._resolve_type_name(dotted_name(base, aliases), module)
            if resolved is not None:
                bases.append(resolved)
        info = ClassNode(
            qualname=qualname,
            module=module.name,
            path=str(module.path),
            line=node.lineno,
            bases=tuple(bases),
        )
        self.graph.classes[qualname] = info
        for statement in node.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method_qualname = self._index_function(module, statement, owner=qualname)
                info.methods[statement.name] = method_qualname
            elif isinstance(statement, ast.AnnAssign) and isinstance(
                statement.target, ast.Name
            ):
                info.fields[statement.target.id] = FieldInfo(
                    name=statement.target.id,
                    line=statement.lineno,
                    type_qualname=self._resolve_annotation(
                        statement.annotation, module, aliases
                    ),
                )

    # -- shared resolution helpers ------------------------------------------------

    def _resolve_type_name(self, dotted: str | None, module: SourceModule) -> str | None:
        """Map a dotted name to a known class/function qualname if possible."""
        if dotted is None:
            return None
        local = f"{module.name}.{dotted}"
        if local in self.graph.classes or local in self.graph.functions:
            return local
        return dotted

    def _resolve_annotation(
        self, annotation: ast.expr, module: SourceModule, aliases: Mapping[str, str]
    ) -> str | None:
        """Best-effort class qualname of a type annotation.

        Handles plain names, dotted names, string annotations, ``X | None``
        and ``Optional[X]``; anything more elaborate resolves to ``None``
        (unknown), never wrongly.
        """
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            try:
                annotation = ast.parse(annotation.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
            for side in (annotation.left, annotation.right):
                if not (isinstance(side, ast.Constant) and side.value is None):
                    return self._resolve_annotation(side, module, aliases)
            return None
        if isinstance(annotation, ast.Subscript):
            head = dotted_name(annotation.value, aliases)
            if head in ("typing.Optional", "Optional"):
                return self._resolve_annotation(annotation.slice, module, aliases)
            return None
        if isinstance(annotation, (ast.Name, ast.Attribute)):
            dotted = dotted_name(annotation, aliases)
            resolved = self._resolve_type_name(dotted, module)
            if resolved in self.graph.classes:
                return resolved
            return resolved
        return None

    # -- pass 2: call sites -------------------------------------------------------

    def resolve(self) -> None:
        for module in self.modules:
            aliases = self.graph.aliases[module.name]
            module_qualname = module.name + MODULE_NODE_SUFFIX
            scope = _Scope(self, module, aliases, module_qualname, owner=None)
            scope.scan(_module_own_statements(module.tree))
            for qualname, node in list(self.graph.functions.items()):
                if node.module != module.name or node.node is None:
                    continue
                if isinstance(node.node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    function_scope = _Scope(
                        self, module, aliases, qualname, owner=node.owner_class
                    )
                    function_scope.bind_parameters(node.node)
                    function_scope.scan(list(own_body(node.node)))

    def _add_edge(self, site: CallSite) -> None:
        self.graph.calls.setdefault(site.caller, []).append(site)


def _sub_bodies(statement: ast.stmt) -> Iterator[list[ast.stmt]]:
    if isinstance(statement, ast.If):
        yield statement.body
        yield statement.orelse
    elif isinstance(statement, ast.Try):
        yield statement.body
        for handler in statement.handlers:
            yield handler.body
        yield statement.orelse
        yield statement.finalbody


def _module_own_statements(tree: ast.Module) -> list[ast.AST]:
    """Top-level nodes excluding function/class bodies (they have own nodes)."""
    collected: list[ast.AST] = []
    stack: list[ast.AST] = list(tree.body)
    while stack:
        node = stack.pop()
        collected.append(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return collected


def _parent_function(root: ast.AST, target: ast.AST) -> ast.AST | None:
    """The nearest enclosing def of ``target`` within ``root`` (or ``root``)."""
    parent: ast.AST | None = None

    def visit(node: ast.AST, enclosing: ast.AST) -> None:
        nonlocal parent
        for child in ast.iter_child_nodes(node):
            if child is target:
                parent = enclosing
                return
            next_enclosing = (
                child
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                else enclosing
            )
            visit(child, next_enclosing)
            if parent is not None:
                return

    visit(root, root)
    return parent


def _is_property(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Name) and decorator.id == "property":
            return True
        if isinstance(decorator, ast.Attribute) and decorator.attr in (
            "setter",
            "deleter",
        ):
            return True
        if (
            isinstance(decorator, ast.Attribute)
            and decorator.attr == "cached_property"
        ):
            return True
    return False


class _Scope:
    """Call-site resolution inside one function (or module) body."""

    def __init__(
        self,
        builder: _Builder,
        module: SourceModule,
        aliases: Mapping[str, str],
        caller: str,
        owner: str | None,
    ) -> None:
        self.builder = builder
        self.module = module
        self.aliases = aliases
        self.caller = caller
        self.owner = owner
        self.env: dict[str, str] = {}  # local variable -> class qualname
        self.graph = builder.graph
        self.path = str(module.path)

    # -- typing -------------------------------------------------------------------

    def bind_parameters(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        """Seed the local type environment from parameter annotations."""
        arguments = node.args
        parameters = [
            *arguments.posonlyargs,
            *arguments.args,
            *arguments.kwonlyargs,
        ]
        for parameter in parameters:
            if parameter.annotation is not None:
                resolved = self.builder._resolve_annotation(
                    parameter.annotation, self.module, self.aliases
                )
                if resolved in self.graph.classes:
                    self.env[parameter.arg] = resolved
        if self.owner is not None and parameters:
            first = parameters[0].arg
            if first in ("self", "cls"):
                self.env.setdefault(first, self.owner)

    def type_of(self, node: ast.expr, depth: int = 0) -> str | None:
        """Best-effort class qualname of an expression's value."""
        if depth > 8:
            return None
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            dotted = self.aliases.get(node.id, f"{self.module.name}.{node.id}")
            binding = self.graph.module_bindings.get(dotted)
            if binding is not None and binding.value_call in self.graph.classes:
                return binding.value_call
            return None
        if isinstance(node, ast.Attribute):
            base = self.type_of(node.value, depth + 1)
            if base is not None:
                info = self.graph.field_of(base, node.attr)
                if info is not None:
                    return info.type_qualname
                method = self.graph.method_of(base, node.attr)
                if method is not None and self.graph.functions[method].is_property:
                    return self._return_type(method)
            return None
        if isinstance(node, ast.Call):
            target = self.resolve_callable(node.func)
            if target is None:
                return None
            if target in self.graph.classes:
                return target
            if target in self.graph.functions:
                return self._return_type(target)
            return None
        return None

    def _return_type(self, qualname: str) -> str | None:
        function = self.graph.functions.get(qualname)
        if function is None or not isinstance(
            function.node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            return None
        returns = function.node.returns
        if returns is None:
            return None
        function_module = next(
            (m for m in self.builder.modules if m.name == function.module), None
        )
        if function_module is None:
            return None
        resolved = self.builder._resolve_annotation(
            returns, function_module, self.graph.aliases[function.module]
        )
        return resolved if resolved in self.graph.classes else None

    # -- resolution ---------------------------------------------------------------

    def resolve_callable(self, func: ast.expr) -> str | None:
        """Resolve a callable expression to a graph node qualname.

        ``None`` for calls into other distributions (stdlib, numpy,
        builtins) and for calls no syntactic rule resolves (dict dispatch,
        higher-order values, methods on values of unknown type).
        """
        if isinstance(func, ast.Name):
            local = f"{self.module.name}.{func.id}"
            if local in self.graph.functions or local in self.graph.classes:
                return local
            dotted = self.aliases.get(func.id)
            return None if dotted is None else self._resolve_dotted(dotted)
        if isinstance(func, ast.Attribute):
            base_type = self.type_of(func.value)
            if base_type is not None:
                return self.graph.method_of(base_type, func.attr)
            dotted = dotted_name(func, self.aliases)
            if dotted is not None and self._module_scope_name(_base_name(func)):
                return self._resolve_dotted(dotted)
        return None

    def _resolve_dotted(self, dotted: str) -> str | None:
        if dotted in self.graph.functions or dotted in self.graph.classes:
            return dotted
        # Class attribute chain: pkg.mod.Class.method resolved via the index.
        head, _, attr = dotted.rpartition(".")
        if head in self.graph.classes:
            return self.graph.method_of(head, attr)
        return None

    def _module_scope_name(self, name: str) -> bool:
        """True when ``name`` resolves at module scope, not to a local variable."""
        if name in self.aliases or name in _BUILTIN_NAMES:
            return True
        local = f"{self.module.name}.{name}"
        return (
            local in self.graph.functions
            or local in self.graph.classes
            or local in self.graph.module_bindings
        )

    # -- scanning -----------------------------------------------------------------

    def scan(self, nodes: list[ast.AST]) -> None:
        """Record call edges and property reads."""
        self._track_assignments(nodes)
        for node in nodes:
            if isinstance(node, ast.Call):
                self._scan_call(node)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                self._scan_attribute(node)

    def _track_assignments(self, nodes: list[ast.AST]) -> None:
        for node in nodes:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    inferred = self.type_of(node.value)
                    if inferred is not None:
                        self.env[target.id] = inferred
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                resolved = self.builder._resolve_annotation(
                    node.annotation, self.module, self.aliases
                )
                if resolved in self.graph.classes:
                    self.env[node.target.id] = resolved

    def _scan_call(self, node: ast.Call) -> None:
        target = self.resolve_callable(node.func)
        if target is None:
            return
        if target in self.graph.classes:
            for initializer in ("__init__", "__post_init__"):
                method = self.graph.method_of(target, initializer)
                if method is not None:
                    self.builder._add_edge(
                        CallSite(self.caller, method, self.path, node.lineno, "instantiate")
                    )
            return
        self.builder._add_edge(
            CallSite(self.caller, target, self.path, node.lineno, "call")
        )

    def _scan_attribute(self, node: ast.Attribute) -> None:
        # Property reads execute code: edge to the property body.
        base_type = self.type_of(node.value)
        if base_type is not None:
            method = self.graph.method_of(base_type, node.attr)
            if method is not None and self.graph.functions[method].is_property:
                self.builder._add_edge(
                    CallSite(self.caller, method, self.path, node.lineno, "property")
                )


def build_call_graph(modules: list[SourceModule]) -> CallGraph:
    """Build the whole-package call graph over the given parsed modules."""
    builder = _Builder(list(modules))
    builder.index()
    builder.resolve()
    return builder.graph
