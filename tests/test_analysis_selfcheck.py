"""The architecture self-check: every lint rule runs clean over ``src/repro``.

This is the test that makes ARCHITECTURE.md's invariants *self-enforcing*: a
PR that introduces a layering violation, an unseeded RNG, a wall-clock read,
a convention breach, or ``__all__``/docstring drift fails here with the exact
file, line, and rule id.  Suppressions require an explicit
``# repro: lint-ignore[RULE]`` pragma at the offending line, which makes
every exception reviewable.
"""

from __future__ import annotations

import tokenize
from pathlib import Path

import repro
from repro.analysis import REPRO_LAYER_MODEL, RULES, run_lint
from repro.analysis.rules import parse_pragmas

PACKAGE_ROOT = Path(repro.__file__).resolve().parent


def test_package_lints_clean():
    report = run_lint([PACKAGE_ROOT])
    assert report.clean, "repro lint found violations:\n" + report.render_text()


def test_selfcheck_covers_every_rule():
    # Guard against a select-list quietly narrowing this check: the default
    # run exercises the full registry.
    report = run_lint([PACKAGE_ROOT])
    assert report.rules == sorted(RULES)


def test_layer_model_matches_package_layout():
    # Every top-level subpackage — and every single-file module directly
    # under the root, like ``repro.units`` — must be assigned a layer.
    # LAY005 enforces this only for *imported* packages, so check the
    # directory listing too.
    model = REPRO_LAYER_MODEL
    assigned = model.substrate | model.techniques | model.leaves | model.top
    on_disk = {
        child.name
        for child in PACKAGE_ROOT.iterdir()
        if child.is_dir() and (child / "__init__.py").exists()
    }
    on_disk |= {
        child.stem
        for child in PACKAGE_ROOT.glob("*.py")
        if child.name != "__init__.py"
    }
    unassigned = on_disk - assigned
    assert not unassigned, f"subpackages missing a layer assignment: {sorted(unassigned)}"
    phantom = assigned - on_disk - {"__init__"}
    assert not phantom, f"layer model names nonexistent packages: {sorted(phantom)}"


def test_no_blanket_pragmas_in_package():
    # ``lint-ignore`` without a rule list is for emergencies; the tree should
    # only ever carry targeted, reviewable suppressions.
    blanket = []
    for path in PACKAGE_ROOT.rglob("*.py"):
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            if "repro: lint-ignore" in line and "lint-ignore[" not in line:
                blanket.append(f"{path}:{lineno}")
    assert not blanket, f"blanket lint-ignore pragmas found: {blanket}"


def test_package_pragmas_name_registered_rules():
    # ``parse_pragmas`` accepts any id, so a pragma naming a deleted or
    # misspelt rule suppresses nothing and would linger unnoticed.  Only
    # comment tokens count: docstrings quote the pragma syntax.
    stale = []
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        with tokenize.open(path) as handle:
            for token in tokenize.generate_tokens(handle.readline):
                if token.type != tokenize.COMMENT:
                    continue
                for rules in parse_pragmas([token.string]).values():
                    stale.extend(
                        f"{path}:{token.start[0]}: {rule}"
                        for rule in sorted(rules - RULES.keys())
                    )
    assert not stale, f"pragmas naming unregistered rules: {stale}"
