"""Lint runner: file collection, rule dispatch, pragma filtering, reporters.

The entry point is :func:`run_lint`, which parses every ``.py`` file under
the given paths, runs the module-scoped rules file by file and the
project-scoped layering rules over the whole import graph, then drops any
finding suppressed by a ``# repro: lint-ignore[RULE]`` pragma on the
offending line (or on line 1 for a whole file).

Reports
-------
:class:`LintReport` carries the findings plus scan metadata and renders
as text (``path:line: RULE message`` per finding, then a summary), as JSON
with a stable, versioned schema::

    {"version": 1,
     "files_scanned": 82,
     "findings": [{"path": ..., "line": ..., "rule": ..., "name": ...,
                   "message": ...}],
     "rules": ["API001", ...]}

or as SARIF 2.1.0 (``--format sarif``) so CI uploads render findings as
GitHub code-scanning annotations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .api import check_api
from .callgraph import build_call_graph
from .conventions import check_conventions
from .determinism import check_determinism
from .imports import REPRO_LAYER_MODEL, LayerModel, check_layering
from .parallel import check_parallel
from .rules import RULES, Finding, SourceModule, is_suppressed, load_module, parse_pragmas
from .serialization import check_serialization

__all__ = [
    "LintReport",
    "run_lint",
    "collect_files",
    "default_target",
    "SARIF_VERSION",
    "LINT_REPORT_SCHEMA_VERSION",
]

_MODULE_CHECKS = (check_determinism, check_conventions, check_api)

#: Version of the :meth:`LintReport.to_json` payload layout.  Additions
#: (new keys) keep it; renames or removals bump it.
LINT_REPORT_SCHEMA_VERSION = 1

#: The SARIF spec version :meth:`LintReport.to_sarif` emits (the one GitHub
#: code scanning ingests).
SARIF_VERSION = "2.1.0"

_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


@dataclass
class LintReport:
    """The outcome of one lint run."""

    findings: list[Finding]
    files_scanned: int
    rules: list[str] = field(default_factory=lambda: sorted(RULES))

    @property
    def clean(self) -> bool:
        """True when the run produced no findings."""
        return not self.findings

    def statistics(self) -> dict[str, int]:
        """Per-rule finding counts, sorted by rule id (zero-count rules omitted)."""
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))

    def family_statistics(self) -> dict[str, int]:
        """Per-family finding counts (the leading alphabetic prefix of a rule id)."""
        counts: dict[str, int] = {}
        for finding in self.findings:
            family = finding.rule.rstrip("0123456789")
            counts[family] = counts.get(family, 0) + 1
        return dict(sorted(counts.items()))

    def render_text(self, statistics: bool = False) -> str:
        """Human-readable report: one line per finding plus a summary.

        With ``statistics`` a per-rule count block (rule id, name, count)
        and a per-family total block are appended — the ``repro lint
        --statistics`` output CI logs rely on.
        """
        lines = [finding.render() for finding in self.findings]
        noun = "finding" if len(self.findings) == 1 else "findings"
        lines.append(
            f"{len(self.findings)} {noun} in {self.files_scanned} files scanned"
        )
        if statistics:
            for rule, count in self.statistics().items():
                name = RULES[rule].name if rule in RULES else rule
                lines.append(f"{rule} ({name}): {count}")
            for family, count in self.family_statistics().items():
                lines.append(f"{family} family total: {count}")
        return "\n".join(lines)

    def to_json(self, statistics: bool = False) -> str:
        """Machine-readable report with a stable, versioned schema.

        ``statistics`` adds a ``"statistics"`` object mapping rule id to
        finding count and a ``"family_statistics"`` object mapping rule
        family to its total — additive, so the schema version stays 1.
        Emission is canonical (``sort_keys=True``): the report is itself a
        persisted artifact registered in the schema model.
        """
        payload = {
            "version": LINT_REPORT_SCHEMA_VERSION,
            "files_scanned": self.files_scanned,
            "findings": [finding.to_dict() for finding in self.findings],
            "rules": self.rules,
        }
        if statistics:
            payload["statistics"] = self.statistics()
            payload["family_statistics"] = self.family_statistics()
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_sarif(self) -> str:
        """SARIF 2.1.0 report — the schema GitHub code scanning ingests.

        Every registered rule is described in the tool's rule table (so
        annotations carry names and summaries), each finding becomes one
        ``result`` with a physical location, and paths are emitted
        repo-relative (POSIX separators) when they live under the working
        directory — the form code-scanning annotations require.
        """
        rule_ids = sorted(RULES)
        rule_index = {rule_id: position for position, rule_id in enumerate(rule_ids)}
        results = []
        for finding in self.findings:
            result = {
                "ruleId": finding.rule,
                "level": "error",
                "message": {"text": finding.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {"uri": _sarif_uri(finding.path)},
                            "region": {"startLine": max(finding.line, 1)},
                        }
                    }
                ],
            }
            if finding.rule in rule_index:
                result["ruleIndex"] = rule_index[finding.rule]
            results.append(result)
        payload = {
            "$schema": _SARIF_SCHEMA,
            "version": SARIF_VERSION,
            "runs": [
                {
                    "tool": {
                        "driver": {
                            "name": "repro-lint",
                            "informationUri": "https://example.invalid/repro",
                            "rules": [
                                {
                                    "id": rule_id,
                                    "name": RULES[rule_id].name,
                                    "shortDescription": {
                                        "text": RULES[rule_id].summary
                                    },
                                }
                                for rule_id in rule_ids
                            ],
                        }
                    },
                    "results": results,
                }
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _sarif_uri(path: str) -> str:
    """Repo-relative POSIX URI for a finding path (absolute when outside)."""
    candidate = Path(path)
    try:
        return candidate.resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return candidate.as_posix()


def default_target() -> Path:
    """The installed ``repro`` package directory — what ``repro lint`` scans."""
    return Path(__file__).resolve().parent.parent


def collect_files(paths: Sequence[Path]) -> list[Path]:
    """Expand files and directories into a sorted, de-duplicated file list."""
    files: set[Path] = set()
    for path in paths:
        if path.is_dir():
            files.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            files.add(path)
        else:
            raise ValueError(f"not a Python file or directory: {str(path)!r}")
    return sorted(files)


def _validated_selection(select: Iterable[str] | None) -> set[str] | None:
    if select is None:
        return None
    requested = {rule.strip().upper() for rule in select if rule.strip()}
    selection: set[str] = set()
    unknown: set[str] = set()
    for item in requested:
        if item in RULES:
            selection.add(item)
            continue
        # A bare family prefix ("PAR", "LAY") selects the whole family.
        family = {rule for rule in RULES if rule.startswith(item)}
        if family:
            selection.update(family)
        else:
            unknown.add(item)
    if unknown:
        raise ValueError(
            f"unknown rule ids {sorted(unknown)}; known rules: {sorted(RULES)}"
        )
    return selection


def run_lint(
    paths: Sequence[Path] | None = None,
    *,
    select: Iterable[str] | None = None,
    model: LayerModel = REPRO_LAYER_MODEL,
) -> LintReport:
    """Lint ``paths`` (default: the installed package) and return a report.

    ``select`` restricts the run to the given rule ids; a bare family prefix
    (``"PAR"``, ``"LAY"``) selects every rule in the family, and unknown ids
    raise :class:`ValueError` listing the known rules.  ``model`` parameterises the
    layering rules so synthetic trees can be checked in tests.
    """
    selection = _validated_selection(select)
    targets = [Path(p) for p in paths] if paths else [default_target()]
    files = collect_files(targets)

    modules: list[SourceModule] = []
    findings: list[Finding] = []
    pragma_maps: dict[str, dict[int, set[str]]] = {}
    for file in files:
        try:
            module = load_module(file)
        except SyntaxError as error:
            findings.append(
                Finding(str(file), error.lineno or 1, "SYN001", f"syntax error: {error.msg}")
            )
            continue
        modules.append(module)
        pragma_maps[str(module.path)] = parse_pragmas(module.lines)
        for check in _MODULE_CHECKS:
            findings.extend(check(module))

    # One shared call graph for every project-scope family (PAR, SER):
    # building it is the dominant interprocedural cost, so it is computed
    # once here rather than per family.
    graph = build_call_graph(modules)
    findings.extend(check_layering(modules, model))
    findings.extend(check_parallel(modules, graph=graph))
    findings.extend(check_serialization(modules, graph=graph))

    findings = [
        finding
        for finding in findings
        if not is_suppressed(finding, pragma_maps.get(finding.path, {}))
        and (selection is None or finding.rule in selection)
    ]
    findings.sort()
    return LintReport(findings=findings, files_scanned=len(files))
