"""Unit tests for deterministic shard merging (``repro.obs.merge``).

The canonical-timeline determinism contract itself is pinned end-to-end
(on real sweeps) by the hypothesis suite; these tests cover the parsing
and merging machinery directly on hand-built shards: torn-block framing,
duplicate-block deduplication, lifecycle-derived metrics, and the
discovery/validation behavior of :func:`load_shards`.  One real jobs=2
sweep checks that every counter its workers emit is a declared name.
"""

from __future__ import annotations

import json

import pytest

from repro.batch import SweepTask, TraceSpec, run_sweep
from repro.batch.flows import FLOW_NAMES
from repro.obs import ShardRecorder, counters, load_merged, load_shards, merge_shards
from repro.obs.clock import TickClock
from repro.obs.merge import _parse_shard
from repro.obs.spans import recording, span


def worker_shard(path, worker_id, tasks, sweep_id="s1"):
    """Record one worker shard with one (fingerprint, value, status) per task."""
    recorder = ShardRecorder(
        path, sweep_id=sweep_id, worker_id=worker_id, clock_factory=TickClock
    )
    for fingerprint, value, status in tasks:
        recorder.begin_task(fingerprint, label=f"L-{fingerprint}", flow="e1")
        with recording(recorder), span("sweep.task"):
            recorder.counter("events", value)
        recorder.end_task(status=status)
    return path


def parent_shard(path, events, sweep_id="s1"):
    """Record the parent lifecycle shard from (event, fingerprint, attrs)."""
    recorder = ShardRecorder(
        path, sweep_id=sweep_id, worker_id="parent", role="parent",
        clock_factory=TickClock,
    )
    for event, fingerprint, attrs in events:
        recorder.task_event(event, fingerprint, **attrs)
    recorder.flush()
    return path


class TestParseShard:
    def test_segments_frame_task_blocks(self, tmp_path):
        path = worker_shard(tmp_path / "w1.jsonl", "w1", [("t1", 3, "ok")])
        shard = _parse_shard(path)
        assert shard.worker == "w1"
        assert shard.role == "worker"
        assert shard.sweep == "s1"
        assert [seg.fingerprint for seg in shard.segments] == ["t1"]
        segment = shard.segments[0]
        assert segment.status == "ok"
        assert segment.attrs["label"] == "L-t1"
        assert segment.log().counters().grand_total("events") == 3

    def test_torn_block_is_discarded_and_counted(self, tmp_path):
        path = worker_shard(tmp_path / "w1.jsonl", "w1", [("t1", 1, "ok")])
        lines = path.read_text().splitlines()
        # Re-open a task and crash before task_end: keep the header, the
        # complete block, then a dangling task_start.
        torn = dict(json.loads(lines[1]))  # the t1 task_start
        torn["task"] = "t-torn"
        path.write_text("\n".join(lines + [json.dumps(torn)]) + "\n")
        shard = _parse_shard(path)
        assert [seg.fingerprint for seg in shard.segments] == ["t1"]
        assert shard.incomplete == 1

    def test_torn_trailing_line_is_discarded(self, tmp_path):
        # A writer crashing mid-publish leaves a partial final line; the
        # parser must drop it rather than reject the whole shard.
        path = worker_shard(tmp_path / "w1.jsonl", "w1", [("t1", 1, "ok")])
        with path.open("a") as stream:
            stream.write('{"v": 1, "kind": "task_st')  # no newline
        shard = _parse_shard(path)
        assert [seg.fingerprint for seg in shard.segments] == ["t1"]
        assert shard.incomplete == 0

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "w1.jsonl"
        path.write_text(json.dumps({"v": 1, "kind": "counter"}) + "\n")
        with pytest.raises(ValueError, match="missing shard_header"):
            _parse_shard(path)

    def test_future_shard_schema_rejected(self, tmp_path):
        path = worker_shard(tmp_path / "w1.jsonl", "w1", [("t1", 1, "ok")])
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["shard_schema"] = 99
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(ValueError, match="unsupported shard schema 99"):
            _parse_shard(path)


class TestMergeShards:
    def test_tasks_ordered_by_fingerprint_not_worker(self, tmp_path):
        shards = [
            _parse_shard(worker_shard(tmp_path / "w2.jsonl", "w2", [("b", 1, "ok")])),
            _parse_shard(worker_shard(tmp_path / "w1.jsonl", "w1", [("c", 2, "ok")])),
            _parse_shard(worker_shard(tmp_path / "w3.jsonl", "w3", [("a", 3, "ok")])),
        ]
        merged = merge_shards(shards)
        assert [fingerprint for fingerprint, _ in merged.tasks] == ["a", "b", "c"]

    def test_ok_block_beats_failed_block(self, tmp_path):
        shards = [
            _parse_shard(worker_shard(tmp_path / "w1.jsonl", "w1", [("t", 1, "error")])),
            _parse_shard(worker_shard(tmp_path / "w2.jsonl", "w2", [("t", 2, "ok")])),
        ]
        merged = merge_shards(shards)
        assert len(merged.tasks) == 1
        assert merged.tasks[0][1].status == "ok"
        assert merged.tasks[0][1].worker == "w2"
        assert len(merged.superseded) == 1
        assert merged.metrics()["superseded_blocks"] == 1

    def test_duplicate_ok_blocks_tie_break_on_worker(self, tmp_path):
        shards = [
            _parse_shard(worker_shard(tmp_path / "w2.jsonl", "w2", [("t", 1, "ok")])),
            _parse_shard(worker_shard(tmp_path / "w1.jsonl", "w1", [("t", 1, "ok")])),
        ]
        merged = merge_shards(shards)
        assert merged.tasks[0][1].worker == "w1"

    def test_mixed_sweeps_rejected(self, tmp_path):
        shards = [
            _parse_shard(
                worker_shard(tmp_path / "a.jsonl", "w1", [("t", 1, "ok")], sweep_id="s1")
            ),
            _parse_shard(
                worker_shard(tmp_path / "b.jsonl", "w2", [("u", 1, "ok")], sweep_id="s2")
            ),
        ]
        with pytest.raises(ValueError, match="cannot merge shards from sweeps"):
            merge_shards(shards)

    def test_canonical_excludes_workers_and_wall_anchors(self, tmp_path):
        shards = [
            _parse_shard(worker_shard(tmp_path / "w1.jsonl", "w1", [("t1", 5, "ok")])),
        ]
        canonical = merge_shards(shards).canonical()
        text = json.dumps(canonical, sort_keys=True)
        assert "w1" not in text
        assert "t_wall_seconds" not in text
        assert canonical["tasks"][0]["counters"] == [
            {"name": "events", "attrs": {}, "value": 5}
        ]


class TestMetrics:
    def test_worker_utilization_and_queue_latency(self, tmp_path):
        worker_shard(tmp_path / "w1.jsonl", "w1", [("t1", 1, "ok"), ("t2", 2, "ok")])
        parent_shard(
            tmp_path / "parent.jsonl",
            [
                ("submitted", "t1", {"label": "L-t1"}),
                ("submitted", "t2", {"label": "L-t2"}),
                ("merged", "t1", {"label": "L-t1", "elapsed_seconds": 2.0}),
                ("cache_hit", "t3", {"label": "L-t3"}),
                ("retry", "t2", {"label": "L-t2", "wave": 1}),
            ],
        )
        merged = load_merged(tmp_path)
        metrics = merged.metrics()
        workers = {row["worker"]: row for row in metrics["workers"]}
        assert workers["w1"]["tasks"] == 2
        assert workers["w1"]["busy_seconds"] > 0
        assert 0 < workers["w1"]["utilization"] <= 1.0
        assert {row["task"] for row in metrics["queue"]} == {"t1", "t2"}
        assert metrics["cache"]["hits"] == 1
        assert metrics["cache"]["mean_task_seconds"] == 2.0
        assert metrics["cache"]["saved_seconds_estimate"] == 2.0
        assert metrics["retry_waves"] == [{"wave": 1, "tasks": ["L-t2"]}]


class TestLoadShards:
    def test_loads_direct_sweep_directory(self, tmp_path):
        worker_shard(tmp_path / "w1.jsonl", "w1", [("t1", 1, "ok")])
        parent_shard(tmp_path / "parent.jsonl", [])
        shards = load_shards(tmp_path)
        assert [shard.worker for shard in shards] == ["parent", "w1"]

    def test_loads_fanout_root_with_single_sweep(self, tmp_path):
        sweep_dir = tmp_path / "ab" / "abcdef"
        sweep_dir.mkdir(parents=True)
        worker_shard(sweep_dir / "w1.jsonl", "w1", [("t1", 1, "ok")])
        shards = load_shards(tmp_path)
        assert [shard.worker for shard in shards] == ["w1"]

    def test_multi_sweep_root_requires_selection(self, tmp_path):
        for sweep_id in ("abcd", "efgh"):
            sweep_dir = tmp_path / sweep_id[:2] / sweep_id
            sweep_dir.mkdir(parents=True)
            worker_shard(
                sweep_dir / "w1.jsonl", "w1", [("t1", 1, "ok")], sweep_id=sweep_id
            )
        with pytest.raises(ValueError, match="holds 2 sweeps"):
            load_shards(tmp_path)
        shards = load_shards(tmp_path, sweep="efgh")
        assert shards[0].sweep == "efgh"

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no observability shards"):
            load_shards(tmp_path)


class TestWorkerCounters:
    def test_worker_counter_names_are_declared(self, tmp_path):
        # Every counter a worker emits on a real sweep is one of the names
        # repro.obs.counters declares, so `repro obs` and the tests agree on
        # the vocabulary.
        spec = TraceSpec.synthetic("value", lines=64, seed=3)
        tasks = [SweepTask.make(flow, spec) for flow in FLOW_NAMES]
        run_sweep(tasks, jobs=2, shard_dir=tmp_path)
        declared = {
            value
            for value in (getattr(counters, name) for name in counters.__all__)
            if isinstance(value, str)
        }
        emitted = load_merged(tmp_path).counter_totals().names()
        assert emitted
        assert set(emitted) <= declared, sorted(set(emitted) - declared)
