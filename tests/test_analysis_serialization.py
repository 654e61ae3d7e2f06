"""Fire and pragma-suppression fixtures for every SER rule, plus the pins.

Each SER rule gets (at least) one synthetic tree where it demonstrably
fires and one where the identical violation is either pragma-suppressed
with a ``# repro: lint-ignore[SER...]`` comment or sanctioned by a
registry declaration (``write_only``, ``exempt``) — proving both halves
of the contract: the analyzer sees the hazard, and a reviewed
justification can silence it.

The trees declare their own :class:`SchemaModel`, so the fixtures do not
depend on the shipped registry; the shipped registry is covered by the
package-baseline and golden-pin tests at the bottom.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import load_module, run_lint, schema_report
from repro.analysis.rules import RULES, is_suppressed, parse_pragmas
from repro.analysis.schemamodel import (
    REPRO_SCHEMA_MODEL,
    FingerprintSpec,
    SchemaModel,
    SchemaSpec,
)
from repro.analysis.serialization import check_serialization

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "schemas.json"
SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def modules_of(tmp_path: Path, files: dict[str, str]):
    for relative, source in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return [load_module(path) for path in sorted(tmp_path.rglob("*.py"))]


def ser_findings(tmp_path, files, model):
    """Run check_serialization with pragma filtering, as the runner would."""
    modules = modules_of(tmp_path, files)
    pragma_maps = {
        str(module.path): parse_pragmas(module.lines) for module in modules
    }
    findings = []
    for finding in check_serialization(modules, model=model):
        if not is_suppressed(finding, pragma_maps.get(finding.path, {})):
            findings.append(finding)
    return findings


def rules_fired(findings):
    return {finding.rule for finding in findings}


def model_for(**overrides):
    """One-schema model around pkg.io.write / pkg.io.read."""
    spec = {
        "name": "t",
        "writers": ("pkg.io.write",),
        "readers": ("pkg.io.read",),
        "persist": ("pkg.io.write",),
        "fields": ("a", "b"),
    }
    spec.update(overrides)
    return SchemaModel(schemas=(SchemaSpec(**spec),))


class TestSER001FieldDrift:
    WRITE_NEVER_READ = {
        "pkg/__init__.py": "",
        "pkg/io.py": """
            import json
            def write(x):
                payload = {"a": x, "b": x}
                json.dumps(payload, sort_keys=True)
                return payload
            def read(payload):
                return payload["a"]
        """,
    }

    def test_written_key_never_read_fires(self, tmp_path):
        findings = ser_findings(tmp_path, self.WRITE_NEVER_READ, model_for())
        assert rules_fired(findings) == {"SER001"}
        (finding,) = findings
        assert "'b'" in finding.message and "never read" in finding.message

    def test_write_only_declaration_silences(self, tmp_path):
        model = model_for(write_only=(("b", "external consumers only"),))
        assert ser_findings(tmp_path, self.WRITE_NEVER_READ, model) == []

    def test_pragma_suppresses(self, tmp_path):
        files = dict(self.WRITE_NEVER_READ)
        files["pkg/io.py"] = files["pkg/io.py"].replace(
            'payload = {"a": x, "b": x}',
            'payload = {"a": x, "b": x}  # repro: lint-ignore[SER001]',
        )
        assert ser_findings(tmp_path, files, model_for()) == []

    def test_read_key_never_written_fires(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            "pkg/io.py": """
                import json
                def write(x):
                    payload = {"a": x, "b": x}
                    json.dumps(payload, sort_keys=True)
                    return payload
                def read(payload):
                    return payload["a"], payload["b"], payload["ghost"]
            """,
        }
        findings = ser_findings(tmp_path, files, model_for())
        assert rules_fired(findings) == {"SER001"}
        (finding,) = findings
        assert "'ghost'" in finding.message and "never written" in finding.message

    def test_read_only_declaration_silences(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            "pkg/io.py": """
                import json
                def write(x):
                    payload = {"a": x, "b": x}
                    json.dumps(payload, sort_keys=True)
                    return payload
                def read(payload):
                    return payload["a"], payload["b"], payload.get("legacy")
            """,
        }
        model = model_for(read_only=(("legacy", "v0 payloads carried it"),))
        assert ser_findings(tmp_path, files, model) == []

    def test_dynamic_reader_satisfies_every_written_key(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            "pkg/io.py": """
                import json
                def write(x):
                    payload = {"a": x, "b": x}
                    json.dumps(payload, sort_keys=True)
                    return payload
                def read(payload):
                    return {key: value for key, value in payload.items()}
            """,
        }
        assert ser_findings(tmp_path, files, model_for()) == []

    def test_stale_write_only_declaration_fires(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            "pkg/io.py": """
                import json
                def write(x):
                    payload = {"a": x, "b": x}
                    json.dumps(payload, sort_keys=True)
                    return payload
                def read(payload):
                    return payload["a"], payload["b"]
            """,
        }
        model = model_for(write_only=(("b", "supposedly unread"),))
        findings = ser_findings(tmp_path, files, model)
        assert rules_fired(findings) == {"SER001"}
        assert "stale" in findings[0].message

    def test_label_keys_excluded_both_directions(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            "pkg/io.py": """
                import json
                def write(x):
                    payload = {"a": x, "b": x, "stage": "play"}
                    json.dumps(payload, sort_keys=True)
                    return payload
                def read(payload):
                    return payload["a"], payload["b"]
            """,
        }
        model = model_for(label_keys=("stage",), fields=("a", "b", "stage"))
        assert ser_findings(tmp_path, files, model) == []


class TestSER002CanonicalEmission:
    def test_json_dumps_without_sort_keys_fires(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            "pkg/io.py": """
                import json
                def write(x):
                    payload = {"a": x, "b": x}
                    return _persist(payload)
                def _persist(payload):
                    return json.dumps(payload)
                def read(payload):
                    return payload["a"], payload["b"]
            """,
        }
        findings = ser_findings(tmp_path, files, model_for())
        assert rules_fired(findings) == {"SER002"}
        (finding,) = findings
        # The witness chain names the emission path from the writer.
        assert "pkg.io.write" in finding.message
        assert "pkg.io._persist" in finding.message

    def test_sort_keys_true_is_clean(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            "pkg/io.py": """
                import json
                def write(x):
                    payload = {"a": x, "b": x}
                    return json.dumps(payload, sort_keys=True)
                def read(payload):
                    return payload["a"], payload["b"]
            """,
        }
        assert ser_findings(tmp_path, files, model_for()) == []

    def test_set_valued_payload_fires(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            "pkg/io.py": """
                import json
                def write(x):
                    payload = {"a": x, "b": list({name for name in x})}
                    json.dumps(payload, sort_keys=True)
                    return payload
                def read(payload):
                    return payload["a"], payload["b"]
            """,
        }
        findings = ser_findings(tmp_path, files, model_for())
        assert rules_fired(findings) == {"SER002"}
        assert "iteration order" in findings[0].message

    def test_sorted_wrapping_sanctions_the_set(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            "pkg/io.py": """
                import json
                def write(x):
                    payload = {"a": x, "b": sorted({name for name in x})}
                    json.dumps(payload, sort_keys=True)
                    return payload
                def read(payload):
                    return payload["a"], payload["b"]
            """,
        }
        assert ser_findings(tmp_path, files, model_for()) == []

    def test_pragma_suppresses(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            "pkg/io.py": """
                import json
                def write(x):
                    payload = {"a": x, "b": x}
                    return json.dumps(payload)  # repro: lint-ignore[SER002]
                def read(payload):
                    return payload["a"], payload["b"]
            """,
        }
        assert ser_findings(tmp_path, files, model_for()) == []


class TestSER003VersionPin:
    def test_field_drift_from_pin_fires(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            "pkg/io.py": """
                import json
                def write(x):
                    payload = {"a": x, "b": x, "c": x}
                    json.dumps(payload, sort_keys=True)
                    return payload
                def read(payload):
                    return payload["a"], payload["b"], payload["c"]
            """,
        }
        findings = ser_findings(tmp_path, files, model_for())
        assert rules_fired(findings) == {"SER003"}
        assert "'c'" in findings[0].message

    def test_version_constant_mismatch_fires(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            "pkg/io.py": """
                import json
                VER = 1
                def write(x):
                    payload = {"a": x, "b": x}
                    json.dumps(payload, sort_keys=True)
                    return payload
                def read(payload):
                    return payload["a"], payload["b"]
            """,
        }
        model = model_for(version_constant="pkg.io.VER", version=2)
        findings = ser_findings(tmp_path, files, model)
        assert rules_fired(findings) == {"SER003"}
        assert "pkg.io.VER" in findings[0].message

    def test_matching_pin_and_constant_is_clean(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            "pkg/io.py": """
                import json
                VER = 1
                def write(x):
                    payload = {"a": x, "b": x}
                    json.dumps(payload, sort_keys=True)
                    return payload
                def read(payload):
                    return payload["a"], payload["b"]
            """,
        }
        model = model_for(version_constant="pkg.io.VER", version=1)
        assert ser_findings(tmp_path, files, model) == []

    def test_unresolvable_asdict_skips_field_comparison(self, tmp_path):
        # ``asdict`` over a value of unknown type means the extracted key
        # set under-approximates; SER003 must not condemn the schema on a
        # partial view.
        files = {
            "pkg/__init__.py": "",
            "pkg/io.py": """
                import json
                from dataclasses import asdict
                def write(cfg):
                    payload = dict(asdict(cfg))
                    payload["a"] = 1
                    json.dumps(payload, sort_keys=True)
                    return payload
                def read(payload):
                    return payload["a"], payload["b"]
            """,
        }
        findings = ser_findings(tmp_path, files, model_for())
        assert "SER003" not in rules_fired(findings)
        # The read-never-written direction of SER001 is skipped too.
        assert "SER001" not in rules_fired(findings)


class TestSER004Fingerprint:
    FILES = {
        "pkg/__init__.py": "",
        "pkg/cfg.py": """
            from dataclasses import dataclass

            @dataclass
            class Cfg:
                seed: int
                width: int

                def describe(self):
                    return {"seed": self.seed}
        """,
    }

    def fingerprint_model(self, exempt=()):
        return SchemaModel(
            fingerprints=(
                FingerprintSpec(
                    name="cfg",
                    function="pkg.cfg.Cfg.describe",
                    subject="pkg.cfg.Cfg",
                    exempt=exempt,
                ),
            )
        )

    def test_omitted_field_fires(self, tmp_path):
        findings = ser_findings(tmp_path, self.FILES, self.fingerprint_model())
        assert rules_fired(findings) == {"SER004"}
        assert "pkg.cfg.Cfg.width" in findings[0].message

    def test_exemption_silences(self, tmp_path):
        model = self.fingerprint_model(
            exempt=(("width", "display-only; never affects results"),)
        )
        assert ser_findings(tmp_path, self.FILES, model) == []

    def test_stale_exemption_fires(self, tmp_path):
        model = self.fingerprint_model(
            exempt=(
                ("seed", "supposedly uncovered"),
                ("width", "display-only; never affects results"),
            )
        )
        findings = ser_findings(tmp_path, self.FILES, model)
        assert rules_fired(findings) == {"SER004"}
        (finding,) = findings
        assert "stale" in finding.message and "seed" in finding.message

    def test_pragma_suppresses(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            # Line-1 pragma applies to the whole file.
            "pkg/cfg.py": "# repro: lint-ignore[SER004]\n"
            + textwrap.dedent(self.FILES["pkg/cfg.py"]).lstrip("\n"),
        }
        assert ser_findings(tmp_path, files, self.fingerprint_model()) == []


class TestSER005ReprHazard:
    def test_round_fires(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            "pkg/io.py": """
                import json
                def write(x):
                    payload = {"a": round(x, 3), "b": x}
                    json.dumps(payload, sort_keys=True)
                    return payload
                def read(payload):
                    return payload["a"], payload["b"]
            """,
        }
        findings = ser_findings(tmp_path, files, model_for())
        assert rules_fired(findings) == {"SER005"}
        assert "round()" in findings[0].message

    def test_format_spec_fires(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            "pkg/io.py": """
                import json
                def write(x):
                    payload = {"a": f"{x:.2f}", "b": x}
                    json.dumps(payload, sort_keys=True)
                    return payload
                def read(payload):
                    return payload["a"], payload["b"]
            """,
        }
        findings = ser_findings(tmp_path, files, model_for())
        assert rules_fired(findings) == {"SER005"}

    def test_full_precision_payload_is_clean(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            "pkg/io.py": """
                import json
                def write(x):
                    payload = {"a": x * 2.0, "b": x}
                    json.dumps(payload, sort_keys=True)
                    return payload
                def read(payload):
                    return payload["a"], payload["b"]
            """,
        }
        assert ser_findings(tmp_path, files, model_for()) == []

    def test_pragma_suppresses(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            "pkg/io.py": """
                import json
                def write(x):
                    payload = {"a": round(x, 3), "b": x}  # repro: lint-ignore[SER005]
                    json.dumps(payload, sort_keys=True)
                    return payload
                def read(payload):
                    return payload["a"], payload["b"]
            """,
        }
        assert ser_findings(tmp_path, files, model_for()) == []


class TestPartialScanSkips:
    """A schema the scan can only half see must be skipped, not condemned."""

    def test_missing_writer_skips_schema_entirely(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            "pkg/io.py": """
                def read(payload):
                    return payload["ghost"]
            """,
        }
        assert ser_findings(tmp_path, files, model_for()) == []

    def test_missing_reader_skips_ser001_only(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            "pkg/io.py": """
                import json
                def write(x):
                    payload = {"a": x, "b": x}
                    return json.dumps(payload)
            """,
        }
        findings = ser_findings(tmp_path, files, model_for())
        assert rules_fired(findings) == {"SER002"}

    def test_schema_report_omits_half_seen_schemas(self, tmp_path):
        modules = modules_of(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/io.py": "def unrelated():\n    return 1\n",
            },
        )
        report = schema_report(modules, model=model_for())
        assert report["schemas"] == {}


class TestRegistryValidation:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            SchemaModel(
                schemas=(
                    SchemaSpec(name="t", writers=("a.w",)),
                    SchemaSpec(name="t", writers=("b.w",)),
                )
            )

    def test_shipped_registry_schema_lookup(self):
        spec = REPRO_SCHEMA_MODEL.schema("obs-jsonl")
        # Replay reads t_seconds (span start times) and never reads span.
        assert spec.write_only_names() == {"span"}
        with pytest.raises(KeyError):
            REPRO_SCHEMA_MODEL.schema("no-such-schema")


class TestReporting:
    def test_sarif_rule_table_includes_ser_family(self):
        ser_rules = sorted(rule for rule in RULES if rule.startswith("SER"))
        assert ser_rules == ["SER001", "SER002", "SER003", "SER004", "SER005"]
        from repro.analysis import LintReport

        sarif = json.loads(LintReport(findings=[], files_scanned=0).to_sarif())
        listed = {
            rule["id"] for rule in sarif["runs"][0]["tool"]["driver"]["rules"]
        }
        assert set(ser_rules) <= listed

    def test_family_statistics_appear_in_json_and_text(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            "pkg/io.py": """
                import json
                def write(x):
                    payload = {"a": x, "b": x}
                    return json.dumps(payload)
                def read(payload):
                    return payload["a"], payload["b"]
            """,
        }
        modules = modules_of(tmp_path, files)
        from repro.analysis import LintReport

        findings = list(check_serialization(modules, model=model_for()))
        report = LintReport(findings=findings, files_scanned=len(modules))
        payload = json.loads(report.to_json(statistics=True))
        assert payload["family_statistics"] == {"SER": len(findings)}
        assert payload["files_scanned"] == len(modules)
        assert "SER family total: 1" in report.render_text(statistics=True)

    def test_plain_json_report_omits_statistics(self):
        from repro.analysis import LintReport

        payload = json.loads(LintReport(findings=[], files_scanned=0).to_json())
        assert "statistics" not in payload
        assert "family_statistics" not in payload


class TestSingleGraphBuild:
    """A lint builds ONE call graph, in the SER family that walks it."""

    def test_run_lint_builds_the_graph_exactly_once(self, tmp_path, monkeypatch):
        from repro.analysis import callgraph, runner, serialization

        builds = []
        real_build = callgraph.build_call_graph

        def counting_build(modules):
            builds.append(len(modules))
            return real_build(modules)

        monkeypatch.setattr(serialization, "build_call_graph", counting_build)

        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "__init__.py").write_text("")
        (tmp_path / "pkg" / "mod.py").write_text("def run():\n    return 1\n")
        report = runner.run_lint([tmp_path])
        assert builds == [2]
        assert report.files_scanned == 2


class TestSingleAliasWalk:
    """A lint walks each module's imports for aliases ONCE, for DET and the graph."""

    def test_run_lint_walks_each_module_once(self, tmp_path, monkeypatch):
        from repro.analysis import rules, runner

        walks = []
        real_walk = rules.module_aliases

        def counting_walk(module):
            walks.append(module.name)
            return real_walk(module)

        monkeypatch.setattr(rules, "module_aliases", counting_walk)

        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "__init__.py").write_text("")
        (tmp_path / "pkg" / "mod.py").write_text(
            "from time import time as now\n\n\ndef run():\n    return now()\n"
        )
        report = runner.run_lint([tmp_path])
        assert sorted(walks) == ["pkg", "pkg.mod"]
        # DET still resolves names through the shared aliases.
        assert "DET001" in {finding.rule for finding in report.findings}


class TestPackageBaseline:
    """The shipped package is SER-clean — the CI gate, run as a test."""

    def test_src_repro_has_zero_ser_findings(self):
        report = run_lint([SRC_ROOT], select=["SER"])
        assert report.clean, report.render_text(statistics=True)


class TestSchemaGolden:
    """``tests/golden/schemas.json`` pins the extracted schema report.

    Regenerate with::

        pytest tests/test_analysis_serialization.py --update-golden

    (or ``repro lint --schemas > tests/golden/schemas.json``).
    """

    def extracted(self):
        modules = [load_module(path) for path in sorted(SRC_ROOT.rglob("*.py"))]
        return schema_report(modules)

    def test_schema_report_matches_golden(self, update_golden):
        actual = self.extracted()
        if update_golden:
            GOLDEN_PATH.write_text(
                json.dumps(actual, indent=1, sort_keys=True) + "\n"
            )
            return
        assert GOLDEN_PATH.exists(), (
            "schemas golden missing; regenerate with "
            "pytest tests/test_analysis_serialization.py --update-golden"
        )
        pinned = json.loads(GOLDEN_PATH.read_text())
        assert actual["schema"] == pinned["schema"]
        assert sorted(actual["schemas"]) == sorted(pinned["schemas"]), (
            "the set of persisted schemas drifted; review, then regenerate "
            "with --update-golden"
        )
        for name, pinned_schema in pinned["schemas"].items():
            extracted_schema = actual["schemas"][name]
            added = sorted(
                set(extracted_schema["fields"]) - set(pinned_schema["fields"])
            )
            removed = sorted(
                set(pinned_schema["fields"]) - set(extracted_schema["fields"])
            )
            assert not added and not removed, (
                f"schema {name!r} field drift (added: {added}, removed: "
                f"{removed}); decide the version-bump question, update the "
                f"registry, then regenerate with --update-golden"
            )
            assert extracted_schema["version"] == pinned_schema["version"], (
                f"schema {name!r} version drifted; regenerate with "
                f"--update-golden"
            )

    def test_golden_covers_every_registered_schema(self):
        # Every registry entry must extract on a full-package scan — a
        # schema silently dropping out of the report (writer renamed,
        # extraction gone incomplete) would otherwise go unnoticed.
        pinned = json.loads(GOLDEN_PATH.read_text())
        registered = {spec.name for spec in REPRO_SCHEMA_MODEL.schemas}
        assert set(pinned["schemas"]) == registered
