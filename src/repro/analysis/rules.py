"""Rule registry and the shared vocabulary of the linter.

Every check the linter performs is declared here as a :class:`Rule` with a
stable identifier.  The identifiers are the public contract: they appear in
reports, in ``--select`` lists, and in ``# repro: lint-ignore[RULE]`` pragmas,
so they must never be renamed once released.

Rule families
-------------
``LAY``
    Layering — the ARCHITECTURE.md dependency diagram, enforced as data
    (see :mod:`repro.analysis.imports`).
``DET``
    Determinism — no wall-clock, no global RNG state, every
    ``default_rng`` derived from an explicit seed
    (see :mod:`repro.analysis.determinism`).
``CON``
    Error-handling and signature conventions
    (see :mod:`repro.analysis.conventions`).
``API``
    Public-surface hygiene — ``__all__`` consistency and docstrings
    (see :mod:`repro.analysis.api`).
``SYN``
    Files the linter could not parse at all.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

__all__ = [
    "Rule",
    "RULES",
    "Finding",
    "SourceModule",
    "load_module",
    "module_name_for",
    "module_aliases",
    "dotted_name",
    "parse_pragmas",
    "is_suppressed",
    "ALL_RULES",
]

#: Sentinel used in pragma maps: ``lint-ignore`` with no rule list suppresses
#: every rule on that line.
ALL_RULES = "*"


@dataclass(frozen=True)
class Rule:
    """A single named check.

    ``scope`` is ``"module"`` for checks that look at one file in isolation
    and ``"project"`` for checks that need the whole import graph.
    """

    id: str
    name: str
    summary: str
    scope: str


def _registry(*rules: Rule) -> dict[str, Rule]:
    table = {}
    for rule in rules:
        if rule.id in table:
            raise ValueError(f"duplicate rule id {rule.id!r}")
        table[rule.id] = rule
    return table


#: The full registry, keyed by rule id.  ``--select`` validates against this
#: table; :func:`parse_pragmas` does not, so a pragma naming an unknown id
#: silently suppresses nothing.
RULES: dict[str, Rule] = _registry(
    Rule("SYN001", "syntax-error", "file does not parse as Python", "module"),
    Rule(
        "LAY001",
        "substrate-imports-technique",
        "a substrate package imports a technique or top-layer package",
        "project",
    ),
    Rule(
        "LAY002",
        "undeclared-technique-edge",
        "a technique package imports another technique outside the declared DAG",
        "project",
    ),
    Rule(
        "LAY003",
        "leaf-isolation",
        "a leaf package imports the package, or a non-harness imports a leaf",
        "project",
    ),
    Rule("LAY004", "import-cycle", "top-level packages form an import cycle", "project"),
    Rule(
        "LAY005",
        "unassigned-package",
        "a top-level package has no layer assignment in the layer model",
        "project",
    ),
    Rule("DET001", "wall-clock", "module reads wall-clock time", "module"),
    Rule("DET002", "global-rng", "module uses global RNG state", "module"),
    Rule(
        "DET003",
        "unseeded-default-rng",
        "np.random.default_rng() argument does not trace back to a seed",
        "module",
    ),
    Rule(
        "DET004",
        "os-entropy",
        "module reads OS entropy (os.urandom, uuid.uuid4, secrets)",
        "module",
    ),
    Rule(
        "CON001",
        "valueerror-without-value",
        "raise ValueError without the offending value in the message",
        "module",
    ),
    Rule("CON002", "bare-except", "bare except: clause", "module"),
    Rule("CON003", "mutable-default", "mutable default argument", "module"),
    Rule("API001", "all-drift", "__all__ names a symbol the module does not define", "module"),
    Rule("API002", "missing-from-all", "public definition missing from __all__", "module"),
    Rule("API003", "missing-docstring", "public function or class without a docstring", "module"),
)


@dataclass(frozen=True, order=True)
class Finding:
    """One linter finding, anchored to a file and line."""

    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        """Format as the canonical ``path:line: RULE message`` text line."""
        return f"{self.path}:{self.line}: {self.rule} {self.message}"

    def to_dict(self) -> dict:
        """JSON-serialisable representation (schema in :mod:`.runner`)."""
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "name": RULES[self.rule].name if self.rule in RULES else self.rule,
            "message": self.message,
        }


@dataclass
class SourceModule:
    """A parsed source file plus everything the checkers need about it."""

    path: Path
    name: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)

    @property
    def package_parts(self) -> tuple[str, ...]:
        """Dotted-name parts of the package containing this module."""
        parts = tuple(self.name.split("."))
        if self.path.name == "__init__.py":
            return parts
        return parts[:-1]

    def import_base(self, node: ast.ImportFrom) -> str | None:
        """The absolute dotted module a ``from`` import reads from.

        Relative imports resolve against this module's package, so ``from
        ..memory import banks`` inside ``repro.cache.cache`` reads from
        ``repro.memory``.  ``None`` for a relative import that escapes the
        scanned tree, or one that names no module.
        """
        if node.level == 0:
            return node.module or None
        package = self.package_parts
        if node.level > len(package):
            return None
        base = ".".join(package[: len(package) - (node.level - 1)])
        if node.module:
            base = f"{base}.{node.module}" if base else node.module
        return base or None


def module_name_for(path: Path) -> str:
    """Compute the dotted module name of ``path`` from its package ancestry.

    Walks upward while ``__init__.py`` files exist, so
    ``src/repro/trace/events.py`` maps to ``repro.trace.events`` regardless of
    where the source tree lives on disk.
    """
    path = path.resolve()
    parts = [path.stem] if path.name != "__init__.py" else []
    directory = path.parent
    while (directory / "__init__.py").exists():
        parts.append(directory.name)
        parent = directory.parent
        if parent == directory:
            break
        directory = parent
    return ".".join(reversed(parts)) if parts else path.stem


def load_module(path: Path) -> SourceModule:
    """Parse ``path`` into a :class:`SourceModule`.

    Raises :class:`SyntaxError` if the file does not parse; the runner turns
    that into a ``SYN001`` finding rather than aborting the whole run.
    """
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    return SourceModule(
        path=path, name=module_name_for(path), tree=tree, lines=source.splitlines()
    )


def module_aliases(module: SourceModule) -> dict[str, str]:
    """Local name → absolute dotted target, relative imports included.

    ``import numpy as np`` maps ``np`` to ``numpy``; ``from .spec import
    SweepTask`` inside ``repro.batch.runner`` maps ``SweepTask`` to
    ``repro.batch.spec.SweepTask``; module-level assignment aliases of
    dotted names (``now = time.time``) resolve in statement order.  The DET
    rules resolve names through it, walking each module once.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    aliases[top] = top
        elif isinstance(node, ast.ImportFrom):
            base = module.import_base(node)
            if base is None:
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


_PRAGMA = re.compile(r"#\s*repro:\s*lint-ignore(?:\[([A-Za-z0-9_,\s]+)\])?")


def parse_pragmas(lines: list[str]) -> dict[int, set[str]]:
    """Map 1-based line numbers to the rule ids suppressed on that line.

    ``# repro: lint-ignore[CON001]`` suppresses CON001 findings on its line;
    ``# repro: lint-ignore[CON001,API003]`` suppresses several; the bracket
    list may be omitted entirely to suppress everything on the line (maps to
    :data:`ALL_RULES`).  A pragma on line 1 applies to the whole file.
    """
    pragmas: dict[int, set[str]] = {}
    for lineno, text in enumerate(lines, start=1):
        match = _PRAGMA.search(text)
        if match is None:
            continue
        listed = match.group(1)
        if listed is None:
            pragmas[lineno] = {ALL_RULES}
        else:
            pragmas[lineno] = {item.strip() for item in listed.split(",") if item.strip()}
    return pragmas


def is_suppressed(finding: Finding, pragmas: dict[int, set[str]]) -> bool:
    """True when a pragma in ``pragmas`` silences ``finding``.

    A pragma applies on the finding's own line or on line 1 (file-wide),
    and silences the finding when it names its rule or lists no rules.
    """
    for lineno in (finding.line, 1):
        listed = pragmas.get(lineno)
        if listed and (ALL_RULES in listed or finding.rule in listed):
            return True
    return False
