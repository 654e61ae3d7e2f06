"""CLI tests for the cross-process sweep surface: ``repro timeline`` and
``repro sweep --obs-dir/--progress``."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs import TIMELINE_SCHEMA_VERSION


@pytest.fixture(scope="module")
def sweep_run(tmp_path_factory):
    """One real instrumented jobs=2 sweep, recorded once for read-only tests."""
    root = tmp_path_factory.mktemp("sweep")
    obs_dir = root / "obs"
    code = main(
        [
            "sweep",
            "synth:scattered_hot:accesses=1500,num_blocks=60,seed=1",
            "synth:scattered_hot:accesses=1500,num_blocks=60,seed=2",
            "--set", "max_banks=2",
            "--set", "max_banks=4",
            "--jobs", "2",
            "--cache-dir", str(root / "cache"),
            "--obs-dir", str(obs_dir),
            "--progress",
        ]
    )
    assert code == 0
    return obs_dir


class TestSweepObsDir:
    def test_writes_shards_and_points_at_timeline(self, tmp_path, capsys):
        obs_dir = tmp_path / "obs"
        code = main(
            [
                "sweep",
                "synth:strided_sweep:sweeps=1",
                "--no-cache",
                "--obs-dir", str(obs_dir),
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert f"repro timeline {obs_dir}" in err
        shards = sorted(path.name for path in obs_dir.glob("??/*/*.jsonl"))
        assert "parent.jsonl" in shards
        assert any(name.startswith("w") for name in shards)

    def test_progress_line_reports_completion(self, tmp_path, capsys):
        code = main(
            [
                "sweep",
                "synth:strided_sweep:sweeps=1",
                "--no-cache",
                "--progress",
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "1/1 tasks (1 run, 0 cached, 0 failed)" in err


class TestTimelineCommand:
    def test_renders_html_gantt(self, sweep_run, tmp_path, capsys):
        out = tmp_path / "timeline.html"
        assert main(["timeline", str(sweep_run), "--out", str(out)]) == 0
        html_text = out.read_text()
        assert html_text.startswith("<!DOCTYPE html>")
        assert "<svg" in html_text
        assert "Sweep timeline" in html_text
        assert "energy reconciles exactly" in html_text
        assert str(out) in capsys.readouterr().out

    def test_json_out_is_canonical_and_versioned(self, sweep_run, tmp_path):
        out = tmp_path / "timeline.html"
        json_out = tmp_path / "timeline.json"
        code = main(
            [
                "timeline", str(sweep_run),
                "--out", str(out),
                "--json-out", str(json_out),
            ]
        )
        assert code == 0
        text = json_out.read_text()
        payload = json.loads(text)
        assert payload["schema"] == TIMELINE_SCHEMA_VERSION
        assert payload["reconciled"] is True
        assert len(payload["tasks"]) == 4
        # `reconciled` is all() over the rows, so it alone would pass on a
        # shard set whose tasks recorded no flow.total_pj counter at all.
        stages_of = {task["task"]: [] for task in payload["tasks"]}
        for row in payload["reconciliation"]:
            stages_of[row["task"]].append(row["stage"])
        assert all(
            sorted(stages) == ["clustered", "monolithic", "partitioned"]
            for stages in stages_of.values()
        ), stages_of
        assert [worker["worker"] for worker in payload["workers"]] == [
            f"w{i}" for i in range(len(payload["workers"]))
        ]
        assert text == json.dumps(payload, indent=1, sort_keys=True) + "\n"

    def test_missing_run_dir_exits_with_error(self, tmp_path):
        with pytest.raises(SystemExit, match="error:.*no observability shards"):
            main(["timeline", str(tmp_path / "nope")])

    def test_reconciliation_drift_fails_the_gate(self, sweep_run, tmp_path, capsys):
        # Copy the shards and doctor one worker's reported flow total: the
        # command doubles as the CI drift gate and must exit 1.
        import shutil

        copy = tmp_path / "doctored"
        for path in sweep_run.glob("??/*/*.jsonl"):
            target = copy / path.relative_to(sweep_run)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(path, target)
        doctored = False
        for path in sorted(copy.glob("??/*/w*.jsonl")):
            lines = [json.loads(line) for line in path.read_text().splitlines()]
            for line in lines:
                if line.get("kind") == "counter" and line["name"] == "flow.total_pj":
                    line["value"] += 1.0
                    doctored = True
            path.write_text(
                "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)
            )
        assert doctored
        out = tmp_path / "timeline.html"
        assert main(["timeline", str(copy), "--out", str(out)]) == 1
        assert "does not reconcile" in capsys.readouterr().err
