"""Static analysis: the architecture & determinism linter (``repro lint``).

This package machine-enforces the invariants ARCHITECTURE.md documents —
the layering diagram, the determinism policy, the error-handling
conventions, public-API hygiene, the parallel-safety contract of the batch
worker path, and the serialization contracts of every persisted artifact —
by parsing the package with :mod:`ast`.  It is a *leaf*: it imports
nothing from the rest of ``repro``, so it can lint a broken tree.

Usage::

    from repro.analysis import run_lint
    report = run_lint()          # lints the installed package
    assert report.clean, report.render_text()

or from the command line: ``repro lint [--format json] [--select RULE,...]``.

See :data:`repro.analysis.imports.REPRO_LAYER_MODEL` for the layering
diagram as data, :data:`repro.analysis.schemamodel.REPRO_SCHEMA_MODEL`
for the persisted-schema registry, and :data:`repro.analysis.rules.RULES`
for the registry of checks.
"""

from .callgraph import CallGraph, build_call_graph
from .effects import ALL_EFFECTS, EffectSite, EffectSummary, infer_effects
from .imports import REPRO_LAYER_MODEL, ImportEdge, LayerModel, extract_imports
from .parallel import (
    WORKER_ENTRY_POINTS,
    WorkerEntryPoint,
    check_parallel,
    reachability_report,
)
from .rules import RULES, Finding, Rule, SourceModule, load_module
from .runner import LintReport, run_lint
from .schemamodel import (
    REPRO_SCHEMA_MODEL,
    FingerprintSpec,
    SchemaModel,
    SchemaSpec,
)
from .serialization import check_serialization, schema_report

__all__ = [
    "run_lint",
    "LintReport",
    "Finding",
    "Rule",
    "RULES",
    "SourceModule",
    "load_module",
    "LayerModel",
    "REPRO_LAYER_MODEL",
    "ImportEdge",
    "extract_imports",
    "CallGraph",
    "build_call_graph",
    "ALL_EFFECTS",
    "EffectSite",
    "EffectSummary",
    "infer_effects",
    "WorkerEntryPoint",
    "WORKER_ENTRY_POINTS",
    "check_parallel",
    "reachability_report",
    "SchemaModel",
    "SchemaSpec",
    "FingerprintSpec",
    "REPRO_SCHEMA_MODEL",
    "check_serialization",
    "schema_report",
]
