"""Unit tests for each linter rule family on small synthetic module trees.

Every rule must demonstrably *fire* on a deliberate violation — otherwise the
self-check in ``test_analysis_selfcheck.py`` proves nothing.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import LayerModel, LintReport, load_module, run_lint
from repro.analysis.api import check_api
from repro.analysis.conventions import check_conventions
from repro.analysis.determinism import check_determinism
from repro.analysis.imports import check_layering, extract_imports
from repro.analysis.rules import RULES, parse_pragmas
from repro.cli import main


def write_tree(root: Path, files: dict[str, str]) -> Path:
    """Materialise ``{relative_path: source}`` under ``root``; return ``root``."""
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return root


def module_findings(tmp_path: Path, source: str, check):
    """Write one module, run a single module-scoped check over it."""
    path = tmp_path / "mod.py"
    path.write_text(textwrap.dedent(source))
    return list(check(load_module(path)))


def rules_fired(findings) -> set[str]:
    return {finding.rule for finding in findings}


# A tiny layered universe for the layering tests: substrate ``base``,
# techniques ``alpha`` -> ``beta`` (declared), leaf ``sink``, top ``cli``.
TOY_MODEL = LayerModel(
    root="toy",
    substrate=frozenset({"base"}),
    techniques=frozenset({"alpha", "beta"}),
    leaves=frozenset({"sink"}),
    top=frozenset({"cli", "__init__"}),
    technique_deps={"alpha": frozenset({"beta"})},
)

CLEAN_TOY = {
    "toy/__init__.py": "",
    "toy/base/__init__.py": "",
    "toy/alpha/__init__.py": "from ..beta import helper\nfrom ..base import thing\n",
    "toy/beta/__init__.py": "from ..base import thing\n",
    "toy/sink/__init__.py": "",
    "toy/cli.py": "from .sink import render\nfrom .alpha import run\n",
}


def layering_findings(tmp_path, overrides):
    files = dict(CLEAN_TOY)
    files.update(overrides)
    root = write_tree(tmp_path, files)
    modules = [load_module(path) for path in sorted(root.rglob("*.py"))]
    return list(check_layering(modules, TOY_MODEL))


class TestImportExtraction:
    def test_absolute_and_relative_imports_resolve(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/sub/__init__.py": "",
                "pkg/sub/mod.py": (
                    "import os\n"
                    "from ..other import thing\n"
                    "from . import sibling\n"
                    "from pkg.direct import x\n"
                ),
                "pkg/other.py": "",
                "pkg/sub/sibling.py": "",
                "pkg/direct.py": "",
            },
        )
        module = load_module(root / "pkg" / "sub" / "mod.py")
        targets = {edge.target for edge in extract_imports(module)}
        assert targets == {"os", "pkg.other", "pkg.sub", "pkg.direct"}

    def test_function_local_imports_count(self, tmp_path):
        module_path = tmp_path / "m.py"
        module_path.write_text("def f():\n    from pkg import lazy\n")
        module = load_module(module_path)
        assert {edge.target for edge in extract_imports(module)} == {"pkg"}


class TestLayeringRules:
    def test_clean_tree_has_no_findings(self, tmp_path):
        assert layering_findings(tmp_path, {}) == []

    def test_substrate_importing_technique_fires_lay001(self, tmp_path):
        findings = layering_findings(
            tmp_path, {"toy/base/__init__.py": "from ..alpha import run\n"}
        )
        assert "LAY001" in rules_fired(findings)

    def test_undeclared_technique_edge_fires_lay002(self, tmp_path):
        # beta -> alpha is the back-edge of the declared alpha -> beta.
        findings = layering_findings(
            tmp_path,
            {"toy/beta/__init__.py": "from ..alpha import run\nfrom ..base import thing\n"},
        )
        assert "LAY002" in rules_fired(findings)

    def test_leaf_importing_package_fires_lay003(self, tmp_path):
        findings = layering_findings(
            tmp_path, {"toy/sink/__init__.py": "from ..base import thing\n"}
        )
        assert "LAY003" in rules_fired(findings)

    def test_technique_importing_leaf_fires_lay003(self, tmp_path):
        findings = layering_findings(
            tmp_path,
            {"toy/alpha/__init__.py": "from ..sink import render\nfrom ..beta import h\n"},
        )
        assert "LAY003" in rules_fired(findings)

    def test_cycle_fires_lay004(self, tmp_path):
        # alpha -> beta is declared; add beta -> alpha to close the loop.
        # The back-edge also fires LAY002 — the cycle must be reported too.
        findings = layering_findings(
            tmp_path,
            {"toy/beta/__init__.py": "from ..alpha import run\nfrom ..base import thing\n"},
        )
        fired = rules_fired(findings)
        assert "LAY004" in fired
        [cycle] = [f for f in findings if f.rule == "LAY004"]
        assert "alpha" in cycle.message and "beta" in cycle.message

    def test_unassigned_package_fires_lay005(self, tmp_path):
        findings = layering_findings(
            tmp_path,
            {
                "toy/mystery/__init__.py": "",
                "toy/cli.py": "from .mystery import thing\n",
            },
        )
        assert "LAY005" in rules_fired(findings)

    def test_top_layer_may_import_anything(self, tmp_path):
        findings = layering_findings(
            tmp_path,
            {"toy/cli.py": "from .sink import r\nfrom .alpha import a\nfrom .base import b\n"},
        )
        assert findings == []


class TestDeterminismRules:
    def test_wall_clock_fires_det001(self, tmp_path):
        findings = module_findings(
            tmp_path,
            """
            import time
            from datetime import datetime

            def stamp():
                return time.time(), datetime.now()
            """,
            check_determinism,
        )
        assert [f.rule for f in findings] == ["DET001", "DET001"]

    def test_alias_resolution_sees_through_import_as(self, tmp_path):
        findings = module_findings(
            tmp_path,
            """
            import time as clock

            def stamp():
                return clock.perf_counter()
            """,
            check_determinism,
        )
        assert rules_fired(findings) == {"DET001"}

    def test_global_rng_fires_det002(self, tmp_path):
        findings = module_findings(
            tmp_path,
            """
            import random
            import numpy as np

            def noise():
                np.random.seed(3)
                return random.random() + np.random.rand()
            """,
            check_determinism,
        )
        assert [f.rule for f in findings] == ["DET002", "DET002", "DET002"]

    def test_unseeded_default_rng_fires_det003(self, tmp_path):
        findings = module_findings(
            tmp_path,
            """
            import numpy as np

            def sample():
                rng = np.random.default_rng()
                return rng.random()
            """,
            check_determinism,
        )
        assert rules_fired(findings) == {"DET003"}

    def test_rng_from_non_seed_variable_fires_det003(self, tmp_path):
        findings = module_findings(
            tmp_path,
            """
            import os
            import numpy as np

            def sample():
                entropy = os.getpid()
                return np.random.default_rng(entropy)
            """,
            check_determinism,
        )
        assert rules_fired(findings) == {"DET003"}

    @pytest.mark.parametrize(
        "argument",
        ["seed", "self.seed", "self._seed + 1", "config.seed_base + index", "12345"],
    )
    def test_seed_derived_rng_is_clean(self, tmp_path, argument):
        findings = module_findings(
            tmp_path,
            f"""
            import numpy as np

            def sample(seed, self=None, config=None, index=0):
                return np.random.default_rng({argument})
            """,
            check_determinism,
        )
        assert findings == []

    def test_from_import_default_rng_resolves(self, tmp_path):
        findings = module_findings(
            tmp_path,
            """
            from numpy.random import default_rng

            def sample():
                return default_rng()
            """,
            check_determinism,
        )
        assert rules_fired(findings) == {"DET003"}

    def test_os_entropy_fires_det004(self, tmp_path):
        findings = module_findings(
            tmp_path,
            """
            import os
            import uuid
            import secrets

            def token():
                return os.urandom(16), uuid.uuid4(), secrets.token_hex(8)
            """,
            check_determinism,
        )
        assert [f.rule for f in findings] == ["DET004", "DET004", "DET004"]

    def test_aliased_entropy_import_fires_det004(self, tmp_path):
        findings = module_findings(
            tmp_path,
            """
            from os import urandom as noise
            from uuid import uuid4

            def token():
                return noise(8) + uuid4().bytes
            """,
            check_determinism,
        )
        assert [f.rule for f in findings] == ["DET004", "DET004"]

    def test_assignment_alias_of_clock_fires_det001(self, tmp_path):
        findings = module_findings(
            tmp_path,
            """
            import time

            now = time.time

            def stamp():
                return now()
            """,
            check_determinism,
        )
        assert rules_fired(findings) == {"DET001"}

    def test_assignment_alias_of_datetime_now_fires_det001(self, tmp_path):
        findings = module_findings(
            tmp_path,
            """
            from datetime import datetime as dt

            wallclock = dt.now

            def stamp():
                return wallclock()
            """,
            check_determinism,
        )
        assert rules_fired(findings) == {"DET001"}

    def test_assignment_alias_of_urandom_fires_det004(self, tmp_path):
        findings = module_findings(
            tmp_path,
            """
            import os

            entropy = os.urandom

            def token():
                return entropy(16)
            """,
            check_determinism,
        )
        assert rules_fired(findings) == {"DET004"}

    def test_det004_pragma_suppresses(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            textwrap.dedent(
                """
                import os

                def token():
                    return os.urandom(16)  # repro: lint-ignore[DET004]
                """
            )
        )
        report = run_lint([tmp_path], select=["DET004"])
        assert report.clean

    def test_assignment_alias_pragma_suppresses_det001(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            textwrap.dedent(
                """
                import time

                now = time.time

                def stamp():
                    return now()  # repro: lint-ignore[DET001]
                """
            )
        )
        report = run_lint([tmp_path], select=["DET001"])
        assert report.clean


class TestConventionRules:
    def test_static_valueerror_message_fires_con001(self, tmp_path):
        findings = module_findings(
            tmp_path,
            """
            def check(x):
                if x < 0:
                    raise ValueError("x must be non-negative")
            """,
            check_conventions,
        )
        assert rules_fired(findings) == {"CON001"}

    def test_interpolated_valueerror_is_clean(self, tmp_path):
        findings = module_findings(
            tmp_path,
            """
            def check(x):
                if x < 0:
                    raise ValueError(f"x must be non-negative, got {x}")
            """,
            check_conventions,
        )
        assert findings == []

    def test_bare_raise_valueerror_fires_con001(self, tmp_path):
        findings = module_findings(
            tmp_path,
            """
            def check(x):
                raise ValueError
            """,
            check_conventions,
        )
        assert rules_fired(findings) == {"CON001"}

    def test_bare_except_fires_con002(self, tmp_path):
        findings = module_findings(
            tmp_path,
            """
            def swallow(f):
                try:
                    f()
                except:
                    pass
            """,
            check_conventions,
        )
        assert rules_fired(findings) == {"CON002"}

    def test_mutable_default_fires_con003(self, tmp_path):
        findings = module_findings(
            tmp_path,
            """
            def collect(item, bucket=[]):
                bucket.append(item)
                return bucket
            """,
            check_conventions,
        )
        assert rules_fired(findings) == {"CON003"}

    def test_mutable_call_default_fires_con003(self, tmp_path):
        findings = module_findings(
            tmp_path,
            "def f(x, table=dict()):\n    return table\n",
            check_conventions,
        )
        assert rules_fired(findings) == {"CON003"}

    def test_none_default_is_clean(self, tmp_path):
        findings = module_findings(
            tmp_path,
            "def f(x, table=None):\n    return table or {}\n",
            check_conventions,
        )
        assert findings == []


class TestApiRules:
    def test_all_naming_missing_symbol_fires_api001(self, tmp_path):
        findings = module_findings(
            tmp_path,
            """
            __all__ = ["gone"]
            """,
            check_api,
        )
        assert rules_fired(findings) == {"API001"}

    def test_public_def_missing_from_all_fires_api002(self, tmp_path):
        findings = module_findings(
            tmp_path,
            """
            __all__ = ["listed"]

            def listed():
                "Docs."

            def unlisted():
                "Docs."
            """,
            check_api,
        )
        assert rules_fired(findings) == {"API002"}
        [finding] = findings
        assert "unlisted" in finding.message

    def test_module_without_all_but_public_defs_fires_api002(self, tmp_path):
        findings = module_findings(
            tmp_path,
            """
            def orphan():
                "Docs."
            """,
            check_api,
        )
        assert rules_fired(findings) == {"API002"}

    def test_missing_docstring_fires_api003(self, tmp_path):
        findings = module_findings(
            tmp_path,
            """
            __all__ = ["Widget", "helper"]

            class Widget:
                "Docs."

                def method(self):
                    return 1

            def helper():
                return 2
            """,
            check_api,
        )
        assert [f.rule for f in findings] == ["API003", "API003"]
        messages = " ".join(finding.message for finding in findings)
        assert "Widget.method" in messages and "helper" in messages

    def test_private_and_dunder_names_are_exempt(self, tmp_path):
        findings = module_findings(
            tmp_path,
            """
            __all__ = ["Widget"]

            class Widget:
                "Docs."

                def __init__(self):
                    self.x = 1

                def _internal(self):
                    return self.x

            def _helper():
                return 3
            """,
            check_api,
        )
        assert findings == []

    def test_reexports_satisfy_all(self, tmp_path):
        findings = module_findings(
            tmp_path,
            """
            from os.path import join
            from collections import OrderedDict as OD

            __all__ = ["join", "OD"]
            """,
            check_api,
        )
        assert findings == []


class TestPragmasAndRunner:
    def test_pragma_suppresses_named_rule(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            'def f(x):\n'
            '    raise ValueError("static")  # repro: lint-ignore[CON001]\n'
        )
        report = run_lint([path], select=["CON001"])
        assert report.clean

    def test_pragma_does_not_suppress_other_rules(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            'def f(x, b=[]):  # repro: lint-ignore[CON001]\n'
            '    return b\n'
        )
        report = run_lint([path], select=["CON003"])
        assert [finding.rule for finding in report.findings] == ["CON003"]

    def test_file_level_pragma_on_line_one(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            "# repro: lint-ignore[CON001]\n"
            'def f(x):\n'
            '    raise ValueError("static one")\n'
            'def g(x):\n'
            '    raise ValueError("static two")\n'
        )
        report = run_lint([path], select=["CON001"])
        assert report.clean

    def test_bare_pragma_suppresses_everything(self):
        pragmas = parse_pragmas(["x = 1  # repro: lint-ignore"])
        assert pragmas == {1: {"*"}}

    def test_unknown_select_rule_raises_with_known_rules(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("")
        with pytest.raises(ValueError, match="NOPE"):
            run_lint([path], select=["NOPE"])

    def test_syntax_error_becomes_syn001(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def f(:\n")
        report = run_lint([path])
        assert [finding.rule for finding in report.findings] == ["SYN001"]

    def test_findings_sorted_and_counted(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "b.py": 'def f(x):\n    raise ValueError("static")\n',
                "a.py": "def g(x, b=[]):\n    return b\n",
            },
        )
        report = run_lint([tmp_path], select=["CON001", "CON003"])
        assert report.files_scanned == 2
        assert [finding.rule for finding in report.findings] == ["CON003", "CON001"]
        assert report.findings[0].path.endswith("a.py")

    def test_every_registered_rule_has_metadata(self):
        for rule_id, rule in RULES.items():
            assert rule.id == rule_id
            assert rule.scope in ("module", "project")
            assert rule.summary


STATIC_VALUEERROR = 'def f(x):\n    raise ValueError("static")\n'


class TestStatistics:
    def test_statistics_counts_by_rule(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            "def f(x, b=[]):\n"
            "    if x:\n"
            '        raise ValueError("static one")\n'
            '    raise ValueError("static two")\n'
        )
        report = run_lint([path], select=["CON001", "CON003"])
        assert report.statistics() == {"CON001": 2, "CON003": 1}

    def test_render_text_appends_statistics_block(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(STATIC_VALUEERROR)
        report = run_lint([path], select=["CON001"])
        text = report.render_text(statistics=True)
        assert "CON001 (valueerror-without-value): 1" in text
        assert "CON001 (" not in report.render_text()

    def test_json_statistics_are_additive_to_schema_v1(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(STATIC_VALUEERROR)
        report = run_lint([path], select=["CON001"])
        payload = json.loads(report.to_json(statistics=True))
        assert payload["version"] == 1
        assert payload["statistics"] == {"CON001": 1}
        assert "statistics" not in json.loads(report.to_json())

    def test_select_family_prefix_expands_to_all_con_rules(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            "def f(x, b=[]):\n"
            "    try:\n"
            "        return b[x]\n"
            "    except:\n"
            '        raise ValueError("static")\n'
        )
        report = run_lint([path], select=["CON"])
        assert rules_fired(report.findings) == {"CON001", "CON002", "CON003"}

    def test_cli_statistics_flag(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text(STATIC_VALUEERROR)
        assert main(["lint", str(path), "--select", "CON001", "--statistics"]) == 1
        assert "CON001 (valueerror-without-value): 1" in capsys.readouterr().out


class TestReporting:
    def test_family_statistics_appear_in_json_and_text(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/io.py": """
                    def write(x, payload={}):
                        if x is None:
                            raise ValueError("static")
                        return payload
                """,
            },
        )
        modules = [load_module(path) for path in sorted(root.rglob("*.py"))]
        findings = [
            finding for module in modules for finding in check_conventions(module)
        ]
        report = LintReport(findings=findings, files_scanned=len(modules))
        payload = json.loads(report.to_json(statistics=True))
        assert payload["family_statistics"] == {"CON": len(findings)}
        assert payload["files_scanned"] == len(modules)
        assert "CON family total: 2" in report.render_text(statistics=True)

    def test_plain_json_report_omits_statistics(self):
        payload = json.loads(LintReport(findings=[], files_scanned=0).to_json())
        assert "statistics" not in payload
        assert "family_statistics" not in payload


class TestSingleAliasWalk:
    """A lint walks each module's imports for aliases ONCE, for DET."""

    def test_run_lint_walks_each_module_once(self, tmp_path, monkeypatch):
        from repro.analysis import determinism, rules, runner

        walks = []
        real_walk = rules.module_aliases

        def counting_walk(module):
            walks.append(module.name)
            return real_walk(module)

        # Count every reader: the checkers bind the walk by name.
        monkeypatch.setattr(rules, "module_aliases", counting_walk)
        monkeypatch.setattr(determinism, "module_aliases", counting_walk)

        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "__init__.py").write_text("")
        (tmp_path / "pkg" / "mod.py").write_text(
            "from time import time as now\n\n\ndef run():\n    return now()\n"
        )
        report = runner.run_lint([tmp_path])
        assert sorted(walks) == ["pkg", "pkg.mod"]
        # DET still resolves names through the shared aliases.
        assert "DET001" in {finding.rule for finding in report.findings}
