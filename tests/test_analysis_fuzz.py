"""Hypothesis self-check: the linter never crashes on parseable sources.

The lint gate runs on every CI push, so an analyzer crash on unusual-but-
legal Python would block every PR with a traceback instead of a finding.
These properties generate arbitrary program shapes — both from a grammar
of the constructs the analyzers special-case (imports, calls, attribute
chains, stores, classes) and from raw token soup filtered to whatever
parses — and assert the full pipeline returns a report, never raises.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import run_lint

NAMES = st.sampled_from(
    ["a", "b", "cls", "self", "os", "time", "np", "data", "run", "Task", "x_pj"]
)

MODULES = st.sampled_from(
    ["os", "time", "json", "numpy", "threading", "secrets", "uuid", "pathlib"]
)


def lines(*parts: str) -> str:
    return "\n".join(parts) + "\n"


@st.composite
def expressions(draw, depth: int = 0) -> str:
    """Expression grammar biased toward analyzer-relevant shapes."""
    if depth >= 3:
        return draw(NAMES)
    choice = draw(st.integers(min_value=0, max_value=5))
    if choice == 0:
        return draw(NAMES)
    if choice == 1:
        return f"{draw(expressions(depth + 1))}.{draw(NAMES)}"
    if choice == 2:
        return f"{draw(expressions(depth + 1))}({draw(expressions(depth + 1))})"
    if choice == 3:
        return f"{draw(expressions(depth + 1))}[{draw(expressions(depth + 1))}]"
    if choice == 4:
        return f"{draw(expressions(depth + 1))} + {draw(expressions(depth + 1))}"
    return str(draw(st.integers(min_value=0, max_value=10**6)))


@st.composite
def statements(draw) -> str:
    choice = draw(st.integers(min_value=0, max_value=8))
    if choice == 0:
        return f"import {draw(MODULES)}"
    if choice == 1:
        return f"from {draw(MODULES)} import {draw(NAMES)} as {draw(NAMES)}"
    if choice == 2:
        return f"{draw(NAMES)} = {draw(expressions())}"
    if choice == 3:
        return f"{draw(expressions())}.{draw(NAMES)} = {draw(expressions())}"
    if choice == 4:
        return draw(expressions())
    if choice == 5:
        return lines(
            f"def {draw(NAMES)}({draw(NAMES)}):",
            f"    return {draw(expressions())}",
        ).rstrip()
    if choice == 6:
        return lines(
            f"class {draw(NAMES)}:",
            f"    field: {draw(NAMES)}",
            f"    def method(self, {draw(NAMES)}):",
            f"        return {draw(expressions())}",
        ).rstrip()
    if choice == 7:
        # Dict payloads and json emission.
        key = draw(st.sampled_from(["a", "b", "kind", "v", ""]))
        return lines(
            "import json",
            f"def write({draw(NAMES)}):",
            f"    payload = {{{key!r}: {draw(expressions())}}}",
            f"    payload[{draw(expressions(2))}] = {draw(expressions())}",
            f"    return json.dumps(payload{draw(st.sampled_from([', sort_keys=True', '']))})",
        ).rstrip()
    return lines(
        "from dataclasses import asdict",
        f"def read({draw(NAMES)}):",
        f"    {draw(NAMES)} = asdict({draw(expressions(2))})",
        f"    return {draw(expressions(2))}.get({draw(expressions(2))})",
    ).rstrip()


@st.composite
def programs(draw) -> str:
    body = draw(st.lists(statements(), min_size=0, max_size=6))
    return "\n".join(body) + "\n"


def lint_source(tmp_path, source: str):
    """Write one module and run the entire linter (all rule families)."""
    target = tmp_path / "fuzz" / "mod.py"
    target.parent.mkdir(exist_ok=True)
    (target.parent / "__init__.py").write_text("")
    target.write_text(source, encoding="utf-8")
    return run_lint([target.parent])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(source=programs())
def test_linter_never_crashes_on_generated_programs(tmp_path, source):
    report = lint_source(tmp_path, source)
    assert report.files_scanned == 2
    for finding in report.findings:
        assert finding.rule
        assert finding.line >= 1


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=st.text(alphabet="abcdef().=:[]\n \"'+@,_0123456789", max_size=120))
def test_linter_never_crashes_on_token_soup(tmp_path, raw):
    # Unparseable text must degrade to a SYN001 finding, never an exception.
    report = lint_source(tmp_path, raw)
    assert all(finding.line >= 1 for finding in report.findings)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(source=programs())
def test_reports_render_in_every_format(tmp_path, source):
    report = lint_source(tmp_path, source)
    assert isinstance(report.render_text(statistics=True), str)
    assert isinstance(report.to_json(statistics=True), str)
    assert isinstance(report.to_sarif(), str)
