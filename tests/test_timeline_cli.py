"""CLI tests for the cross-process sweep surface: ``repro timeline`` and
``repro sweep --obs-dir/--progress``."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs import TIMELINE_SCHEMA_VERSION, reconciliation_failure


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
        # `reconciled` alone would pass a shard set in which some tasks
        # reconcile only some of their stages.
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

    def test_stripped_totals_fail_the_gate(self, sweep_run, tmp_path, capsys):
        # Drop every flow.total_pj line: each task keeps its stage
        # components but reports no total, which must not pass.
        copy = tmp_path / "stripped"
        stripped = 0
        for path in sweep_run.glob("??/*/*.jsonl"):
            target = copy / path.relative_to(sweep_run)
            target.parent.mkdir(parents=True, exist_ok=True)
            kept = []
            for line in path.read_text().splitlines(keepends=True):
                if json.loads(line).get("name") == "flow.total_pj":
                    stripped += 1
                else:
                    kept.append(line)
            target.write_text("".join(kept))
        assert stripped == 12
        out = tmp_path / "timeline.html"
        json_out = tmp_path / "timeline.json"
        code = main(
            ["timeline", str(copy), "--out", str(out), "--json-out", str(json_out)]
        )
        assert code == 1
        assert "but no flow.total_pj counter" in capsys.readouterr().err
        payload = json.loads(json_out.read_text())
        assert payload["reconciled"] is False
        assert len(payload["reconciliation"]) == 12
        assert all(row["reported_total_pj"] is None for row in payload["reconciliation"])
        assert "missing" in out.read_text()

    def test_an_e1_task_without_energy_rows_fails_the_gate(
        self, sweep_run, tmp_path, capsys
    ):
        # Strip every energy counter of one task only: the other three still
        # reconcile, but a completed E1 task that reconciles nothing must not
        # pass beside them.
        copy = tmp_path / "one-task-stripped"
        victim = None
        for path in sorted(sweep_run.glob("??/*/*.jsonl")):
            target = copy / path.relative_to(sweep_run)
            target.parent.mkdir(parents=True, exist_ok=True)
            kept = []
            task = None
            for line in path.read_text().splitlines(keepends=True):
                event = json.loads(line)
                if event.get("kind") == "task_start":
                    task = event["task"]
                    victim = victim or task
                energy = event.get("name") in ("stage.energy_pj", "flow.total_pj")
                if not (energy and task == victim):
                    kept.append(line)
            target.write_text("".join(kept))
        json_out = tmp_path / "timeline.json"
        code = main(
            [
                "timeline", str(copy),
                "--out", str(tmp_path / "timeline.html"),
                "--json-out", str(json_out),
            ]
        )
        assert code == 1
        payload = json.loads(json_out.read_text())
        (label,) = [task["label"] for task in payload["tasks"] if task["task"] == victim]
        assert f"task {label} recorded no flow.total_pj counter" in capsys.readouterr().err
        assert payload["reconciled"] is False
        assert len(payload["reconciliation"]) == 9
        assert all(row["exact"] for row in payload["reconciliation"])
        assert victim not in {row["task"] for row in payload["reconciliation"]}

    @pytest.mark.parametrize("flow", ["e2_compression", "e3_encoding", "e4_reconfig"])
    def test_sweep_of_a_flow_without_energy_counters_passes(self, flow, tmp_path):
        # Only E1 records stage.energy_pj and flow.total_pj, so these tasks
        # add no reconciliation rows and owe none.
        obs_dir = tmp_path / "obs"
        code = main(
            ["sweep", "saxpy", "--flow", flow, "--no-cache", "--obs-dir", str(obs_dir)]
        )
        assert code == 0
        json_out = tmp_path / "timeline.json"
        code = main(
            [
                "timeline", str(obs_dir),
                "--out", str(tmp_path / "timeline.html"),
                "--json-out", str(json_out),
            ]
        )
        assert code == 0
        payload = json.loads(json_out.read_text())
        assert [task["flow"] for task in payload["tasks"]] == [flow]
        assert payload["reconciliation"] == []
        assert payload["reconciled"] is True


class TestReconciliationVerdict:
    """``reconciliation_failure`` over a timeline's task rows."""

    @staticmethod
    def task(flow, status="ok"):
        return {"task": "f1", "label": "t1", "flow": flow, "status": status}

    def test_only_a_completed_e1_task_owes_rows(self):
        assert "task t1 recorded no flow.total_pj" in reconciliation_failure(
            [], [self.task("e1_clustering")]
        )
        # A failed task recorded no energy to reconcile; its failure shows
        # in its status.
        assert reconciliation_failure([], [self.task("e1_clustering", "error")]) is None
        assert reconciliation_failure([], [self.task("e2_compression")]) is None
        # A sweep whose tasks were all cache hits merged no task blocks.
        assert reconciliation_failure([], []) is None
