"""Import-graph extraction and the layering diagram, enforced as data.

ARCHITECTURE.md draws the dependency diagram; this module *is* that diagram.
:data:`REPRO_LAYER_MODEL` assigns every top-level subpackage a layer and
declares the technique-to-technique edges that are allowed to exist.  The
checks then reduce to set membership:

* a **substrate** package (``trace``, ``memory``, ``bus``, ``cache``, ``isa``,
  ``compress``, ``obs``, the ``units`` helper module) may import other
  substrate packages but never a technique or top-layer package (``LAY001``);
* a **technique** package may import substrate freely, but another technique
  only along a declared edge of the DAG — anything else is a back-edge
  (``LAY002``);
* a **leaf** package (``report``, ``analysis``) imports nothing from the
  package at all, and only the **top** layer may import a leaf (``LAY003``);
* the package-level import graph must stay acyclic (``LAY004``);
* every package must appear in the model — new subpackages declare their
  layer here before they can land (``LAY005``).

Adding a dependency therefore means editing :data:`REPRO_LAYER_MODEL` in the
same commit, which is exactly the review trigger the architecture wants.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from .rules import Finding, SourceModule

__all__ = [
    "ImportEdge",
    "LayerModel",
    "REPRO_LAYER_MODEL",
    "extract_imports",
    "package_graph",
    "check_layering",
]


@dataclass(frozen=True)
class ImportEdge:
    """One import statement, resolved to an absolute dotted target."""

    source: str
    target: str
    line: int


@dataclass(frozen=True)
class LayerModel:
    """Layer assignment for every top-level subpackage of ``root``.

    ``technique_deps`` maps a technique to the set of techniques it is allowed
    to import; absence means "imports no other technique".  Modules directly
    under the root (``cli``, ``__init__``) are assigned via ``top`` or the
    other sets by their module name.
    """

    root: str
    substrate: frozenset[str]
    techniques: frozenset[str]
    leaves: frozenset[str]
    top: frozenset[str]
    technique_deps: Mapping[str, frozenset[str]] = field(default_factory=dict)

    def layer_of(self, package: str) -> str | None:
        """Return the layer name of ``package``, or ``None`` if unassigned."""
        for layer, members in (
            ("substrate", self.substrate),
            ("technique", self.techniques),
            ("leaf", self.leaves),
            ("top", self.top),
        ):
            if package in members:
                return layer
        return None


#: The ARCHITECTURE.md diagram as data.  ``compress`` sits in the substrate:
#: it is a pure codec library with no repro imports, consumed by both the E2
#: platforms and the EX7 test-compression flow.  ``obs`` sits at the very
#: bottom of the substrate — it imports nothing from the package (not even
#: ``trace``), so every layer can record to it without creating cycles;
#: LAY001 pins it below every technique and LAY004 keeps trace→obs one-way.
REPRO_LAYER_MODEL = LayerModel(
    root="repro",
    substrate=frozenset(
        {"trace", "memory", "bus", "cache", "isa", "compress", "units", "obs"}
    ),
    techniques=frozenset(
        {
            "core",
            "partition",
            "platforms",
            "encoding",
            "reconfig",
            "spm",
            "codecomp",
            "testcomp",
            "circuit",
            "batch",
        }
    ),
    leaves=frozenset({"report", "analysis", "benchstats"}),
    top=frozenset({"cli", "__init__"}),
    technique_deps={
        "core": frozenset({"partition"}),
        "spm": frozenset({"platforms"}),
        "circuit": frozenset({"testcomp"}),
        # batch is the sweep fan-out: it drives whole flows, so it sits
        # above the flow-bearing techniques it dispatches into.
        "batch": frozenset({"core", "platforms", "encoding", "reconfig"}),
    },
)


def extract_imports(module: SourceModule) -> list[ImportEdge]:
    """Resolve every import statement in ``module`` to absolute dotted names.

    Relative imports are resolved against the module's package
    (:meth:`SourceModule.import_base`), so ``from ..memory import banks``
    inside ``repro.cache.cache`` yields the target ``repro.memory``.  Imports nested in functions count too:
    a lazily imported dependency is still a dependency of the layer.
    """
    edges: list[ImportEdge] = []
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                edges.append(ImportEdge(module.name, alias.name, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            base = module.import_base(node)
            if base is not None:
                edges.append(ImportEdge(module.name, base, node.lineno))
    return edges


def _package_of(dotted: str, model: LayerModel) -> str | None:
    """Top-level subpackage of ``dotted`` under the model root, if any."""
    parts = dotted.split(".")
    if parts[0] != model.root:
        return None
    if len(parts) == 1:
        return "__init__"
    return parts[1]


def package_graph(
    modules: list[SourceModule], model: LayerModel
) -> dict[str, dict[str, ImportEdge]]:
    """Collapse module imports to a top-level package graph.

    Returns ``{source_pkg: {target_pkg: first witnessing edge}}``; self-edges
    (intra-package imports) are dropped — the layering rules only govern
    cross-package dependencies.
    """
    graph: dict[str, dict[str, ImportEdge]] = {}
    for module in modules:
        source_pkg = _package_of(module.name, model)
        if source_pkg is None:
            continue
        for edge in extract_imports(module):
            target_pkg = _package_of(edge.target, model)
            if target_pkg is None or target_pkg == source_pkg:
                continue
            graph.setdefault(source_pkg, {}).setdefault(target_pkg, edge)
    return graph


def _edge_findings(
    source_pkg: str, target_pkg: str, edge: ImportEdge, model: LayerModel, path: str
) -> Iterator[Finding]:
    source_layer = model.layer_of(source_pkg)
    target_layer = model.layer_of(target_pkg)
    for pkg, layer in ((source_pkg, source_layer), (target_pkg, target_layer)):
        if layer is None:
            yield Finding(
                path,
                edge.line,
                "LAY005",
                f"package {model.root}.{pkg} has no layer assignment in the "
                f"layer model; declare it in REPRO_LAYER_MODEL",
            )
    if source_layer is None or target_layer is None:
        return
    if target_layer == "leaf" and source_layer != "top":
        yield Finding(
            path,
            edge.line,
            "LAY003",
            f"{source_layer} package {model.root}.{source_pkg} imports leaf "
            f"{model.root}.{target_pkg}; leaves are for harnesses only",
        )
        return
    if source_layer == "leaf":
        yield Finding(
            path,
            edge.line,
            "LAY003",
            f"leaf package {model.root}.{source_pkg} imports "
            f"{edge.target}; leaves must not import {model.root}.*",
        )
        return
    if source_layer == "substrate" and target_layer in ("technique", "top"):
        yield Finding(
            path,
            edge.line,
            "LAY001",
            f"substrate package {model.root}.{source_pkg} imports "
            f"{target_layer} package {model.root}.{target_pkg}",
        )
        return
    if source_layer == "technique" and target_layer == "technique":
        allowed = model.technique_deps.get(source_pkg, frozenset())
        if target_pkg not in allowed:
            yield Finding(
                path,
                edge.line,
                "LAY002",
                f"technique {model.root}.{source_pkg} imports technique "
                f"{model.root}.{target_pkg}, which is not a declared edge "
                f"(allowed: {sorted(allowed) or 'none'})",
            )
    if source_layer == "technique" and target_layer == "top":
        yield Finding(
            path,
            edge.line,
            "LAY002",
            f"technique {model.root}.{source_pkg} imports top-layer "
            f"module {model.root}.{target_pkg}",
        )


def _find_cycle(graph: dict[str, dict[str, ImportEdge]]) -> list[str] | None:
    """Return one package cycle as ``[a, b, ..., a]``, or ``None`` if acyclic."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {node: WHITE for node in graph}
    stack: list[str] = []

    def visit(node: str) -> list[str] | None:
        color[node] = GREY
        stack.append(node)
        for target in graph.get(node, {}):
            if color.get(target, WHITE) == GREY:
                return stack[stack.index(target) :] + [target]
            if color.get(target, WHITE) == WHITE and target in graph:
                cycle = visit(target)
                if cycle is not None:
                    return cycle
        stack.pop()
        color[node] = BLACK
        return None

    for node in sorted(graph):
        if color[node] == WHITE:
            cycle = visit(node)
            if cycle is not None:
                return cycle
    return None


def check_layering(
    modules: list[SourceModule], model: LayerModel = REPRO_LAYER_MODEL
) -> Iterator[Finding]:
    """Run every LAY rule over the project's import graph."""
    paths = {module.name: str(module.path) for module in modules}
    graph = package_graph(modules, model)
    for source_pkg, targets in sorted(graph.items()):
        for target_pkg, edge in sorted(targets.items()):
            yield from _edge_findings(
                source_pkg, target_pkg, edge, model, paths.get(edge.source, edge.source)
            )
    cycle = _find_cycle(graph)
    if cycle is not None:
        witness = graph[cycle[0]][cycle[1]]
        yield Finding(
            paths.get(witness.source, witness.source),
            witness.line,
            "LAY004",
            "import cycle between packages: " + " -> ".join(cycle),
        )
