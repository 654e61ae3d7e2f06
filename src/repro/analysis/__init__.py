"""Static analysis: the architecture & determinism linter (``repro lint``).

This package machine-enforces the invariants ARCHITECTURE.md documents —
the layering diagram, the determinism policy, the error-handling
conventions and public-API hygiene — by parsing the package with
:mod:`ast`.  It is a *leaf*: it imports nothing from the rest of
``repro``, so it can lint a broken tree.

Usage::

    from repro.analysis import run_lint
    report = run_lint()          # lints the installed package
    assert report.clean, report.render_text()

or from the command line: ``repro lint [--format json] [--select RULE,...]``.

See :data:`repro.analysis.imports.REPRO_LAYER_MODEL` for the layering
diagram as data and :data:`repro.analysis.rules.RULES` for the registry of
checks.
"""

from .imports import REPRO_LAYER_MODEL, ImportEdge, LayerModel, extract_imports
from .rules import RULES, Finding, Rule, SourceModule, load_module
from .runner import LintReport, run_lint

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
]
