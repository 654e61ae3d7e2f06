"""CLI tests for the observability surface: ``--obs-out`` and ``repro obs``."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def run_log(tmp_path_factory):
    """A real instrumented E1 run, recorded once for the read-only tests."""
    path = tmp_path_factory.mktemp("obs") / "run.jsonl"
    assert main(["optimize", "table_lookup", "--obs-out", str(path)]) == 0
    return path


#: One stage.energy_pj component line, with no flow.total_pj beside it.
STAGE_COMPONENT = {
    "v": 1,
    "kind": "counter",
    "name": "stage.energy_pj",
    "value": 1.0,
    "span": None,
    "attrs": {"stage": "clustered", "component": "bank"},
}


class TestOptimizeObsOut:
    def test_writes_log_and_points_at_it(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert main(["optimize", "table_lookup", "--obs-out", str(path)]) == 0
        out = capsys.readouterr().out
        assert path.exists()
        assert f"repro obs {path}" in out

    def test_log_is_schema_valid_jsonl(self, run_log):
        from repro.obs import read_log

        log = read_log(run_log)
        assert log.manifest is not None
        assert {event["kind"] for event in log.events} >= {
            "manifest",
            "span_start",
            "span_end",
            "counter",
        }

    def test_without_obs_out_no_pointer_printed(self, capsys):
        assert main(["optimize", "table_lookup"]) == 0
        assert "run log" not in capsys.readouterr().out


class TestObsCommand:
    def test_renders_every_section(self, run_log, capsys):
        assert main(["obs", str(run_log)]) == 0
        out = capsys.readouterr().out
        assert "run manifest:" in out
        assert "config_hash:" in out
        assert "stages" in out
        assert "trace_load" in out and "playback" in out
        assert "per-stage energy" in out
        assert "energy reconciliation" in out

    def test_reconciliation_is_exact_on_a_real_run(self, run_log, capsys):
        assert main(["obs", str(run_log)]) == 0
        out = capsys.readouterr().out
        assert "NO" not in out
        assert "do not reconcile" not in out

    def test_missing_file_exits_with_error(self, tmp_path):
        with pytest.raises(SystemExit, match="error:"):
            main(["obs", str(tmp_path / "nope.jsonl")])

    def test_unsupported_schema_version_exits_with_error(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps({"v": 99, "kind": "counter"}) + "\n")
        with pytest.raises(SystemExit, match="unsupported schema version"):
            main(["obs", str(path)])

    def test_unreconciled_counters_fail_the_gate(self, tmp_path, capsys):
        # A doctored log whose stage components do not sum to the reported
        # total: the command doubles as a CI gate and must exit 1.
        path = tmp_path / "doctored.jsonl"
        lines = [
            {
                "v": 1,
                "kind": "counter",
                "name": "stage.energy_pj",
                "value": 1.0,
                "span": None,
                "attrs": {"stage": "clustered", "component": "bank"},
            },
            {
                "v": 1,
                "kind": "counter",
                "name": "flow.total_pj",
                "value": 2.0,
                "span": None,
                "attrs": {"stage": "clustered"},
            },
        ]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        assert main(["obs", str(path)]) == 1
        out = capsys.readouterr().out
        assert "NO" in out
        assert "do not reconcile" in out

    def test_empty_log_renders_without_sections(self, tmp_path, capsys):
        # Renders what there is, then fails: no total means nothing reconciled.
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["obs", str(path)]) == 1
        out = capsys.readouterr().out
        assert "(none recorded)" in out
        assert "no flow.total_pj counter recorded" in out

    def test_components_without_a_total_fail_the_gate(self, tmp_path, capsys):
        path = tmp_path / "no_total.jsonl"
        path.write_text(json.dumps(STAGE_COMPONENT) + "\n")
        assert main(["obs", str(path)]) == 1
        out = capsys.readouterr().out
        assert "missing" in out
        assert (
            "stage 'clustered' has stage.energy_pj components but no "
            "flow.total_pj counter" in out
        )


class TestObsJsonFormat:
    def test_json_document_is_canonical_and_versioned(self, run_log, capsys):
        from repro.obs import OBS_REPORT_SCHEMA_VERSION

        assert main(["obs", str(run_log), "--format", "json"]) == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        assert report["schema"] == OBS_REPORT_SCHEMA_VERSION
        assert report["generated_by"] == "repro obs"
        assert report["manifest"]["config_hash"]
        assert report["reconciled"] is True
        assert {span["name"] for span in report["spans"]} >= {"trace_load", "playback"}
        assert all(row["exact"] for row in report["reconciliation"])
        # sort_keys=True emission: the document round-trips canonically.
        assert out.strip() == json.dumps(report, sort_keys=True, indent=1)

    def test_empty_log_json_exits_one(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["obs", str(path), "--format", "json"]) == 1
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["reconciliation"] == []
        assert report["reconciled"] is False
        assert "no flow.total_pj counter recorded" in captured.err

    def test_components_without_a_total_json_exits_one(self, tmp_path, capsys):
        path = tmp_path / "no_total.jsonl"
        path.write_text(json.dumps(STAGE_COMPONENT) + "\n")
        assert main(["obs", str(path), "--format", "json"]) == 1
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["reconciliation"] == [
            {
                "stage": "clustered",
                "component_sum_pj": 1.0,
                "reported_total_pj": None,
                "exact": False,
            }
        ]
        assert report["reconciled"] is False
        assert "no flow.total_pj counter" in captured.err

    def test_unreconciled_json_exits_one(self, tmp_path, capsys):
        path = tmp_path / "doctored.jsonl"
        lines = [
            {
                "v": 1,
                "kind": "counter",
                "name": "stage.energy_pj",
                "value": 1.0,
                "span": None,
                "attrs": {"stage": "clustered", "component": "bank"},
            },
            {
                "v": 1,
                "kind": "counter",
                "name": "flow.total_pj",
                "value": 2.0,
                "span": None,
                "attrs": {"stage": "clustered"},
            },
        ]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        assert main(["obs", str(path), "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["reconciled"] is False
