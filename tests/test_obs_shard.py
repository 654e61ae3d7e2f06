"""Unit tests for worker observability shards (``repro.obs.shard``).

Covers the shard line extensions (header, task framing, context stamps),
the prefix-complete suffix-append publication idiom, the per-task clock/span-id
reset that underwrites merge determinism, and — as a regression test for
the recorder substrate — the post-fork reopen guard of
:class:`~repro.obs.recorder.JsonlRecorder` path sinks.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro.obs import (
    SCHEMA_VERSION,
    WORKER_SHARD_SCHEMA_VERSION,
    JsonlRecorder,
    ShardRecorder,
    read_log,
)
from repro.obs.clock import TickClock
from repro.obs.spans import recording, span


def shard_lines(path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestShardRecorder:
    def test_header_is_first_line_and_versioned(self, tmp_path):
        recorder = ShardRecorder(
            tmp_path / "w1.jsonl", sweep_id="s1", worker_id="w1", clock_factory=TickClock
        )
        recorder.begin_task("t1")
        recorder.end_task()
        header = shard_lines(tmp_path / "w1.jsonl")[0]
        assert header["kind"] == "shard_header"
        assert header["shard_schema"] == WORKER_SHARD_SCHEMA_VERSION
        assert header["v"] == SCHEMA_VERSION
        assert header["role"] == "worker"

    def test_every_line_carries_sweep_and_worker_context(self, tmp_path):
        recorder = ShardRecorder(
            tmp_path / "w1.jsonl", sweep_id="s1", worker_id="w1", clock_factory=TickClock
        )
        recorder.begin_task("t1", label="a")
        with recording(recorder), span("stage"):
            recorder.counter("events", 3)
        recorder.end_task()
        lines = shard_lines(tmp_path / "w1.jsonl")
        assert all(line["sweep"] == "s1" for line in lines)
        assert all(line["worker"] == "w1" for line in lines)

    def test_task_context_stamped_only_inside_the_block(self, tmp_path):
        recorder = ShardRecorder(
            tmp_path / "w1.jsonl", sweep_id="s1", worker_id="w1", clock_factory=TickClock
        )
        recorder.begin_task("t1")
        recorder.counter("events", 1)
        recorder.end_task()
        recorder.task_event("merged", "t2", label="b")
        recorder.flush()
        lines = shard_lines(tmp_path / "w1.jsonl")
        assert "task" not in lines[0]  # the header precedes any task
        in_block = [line for line in lines if line["kind"] in ("task_start", "counter")]
        assert all(line["task"] == "t1" for line in in_block)
        lifecycle = [line for line in lines if line["kind"] == "task_event"]
        assert lifecycle[0]["task"] == "t2"

    def test_nothing_on_disk_until_flush(self, tmp_path):
        path = tmp_path / "w1.jsonl"
        recorder = ShardRecorder(
            path, sweep_id="s1", worker_id="w1", clock_factory=TickClock
        )
        recorder.begin_task("t1")
        assert not path.exists()
        recorder.end_task()  # flushes
        assert path.exists()

    def test_flush_publishes_prefix_complete_suffix_appends(self, tmp_path):
        path = tmp_path / "w1.jsonl"
        recorder = ShardRecorder(
            path, sweep_id="s1", worker_id="w1", clock_factory=TickClock
        )
        recorder.begin_task("t1")
        recorder.end_task()
        first = path.read_text()
        assert first.endswith("\n")  # whole lines only, never a torn tail
        recorder.begin_task("t2")
        recorder.end_task()
        second = path.read_text()
        assert second.startswith(first)  # publishes append, never rewrite
        assert second.endswith("\n")

    def test_sweep_writes_each_shard_byte_once(self, tmp_path, monkeypatch):
        # Publishes append only the new lines, so the bytes os.write sends
        # to each shard sum to its final size.  A whole-file rewrite per
        # task (quadratic volume) would pass every other test here, and
        # timing cannot tell it apart from one append per task.
        from repro.batch import SweepTask, TraceSpec, run_sweep

        real_open, real_write, real_close = os.open, os.write, os.close
        open_paths: dict = {}
        publishes: dict = {}
        written: dict = {}

        def counting_open(path, flags, *args, **kwargs):
            fd = real_open(path, flags, *args, **kwargs)
            open_paths[fd] = os.path.realpath(path)
            publishes[open_paths[fd]] = publishes.get(open_paths[fd], 0) + 1
            return fd

        def counting_write(fd, data):
            count = real_write(fd, data)
            if fd in open_paths:
                written[open_paths[fd]] = written.get(open_paths[fd], 0) + count
            return count

        def forgetting_close(fd):
            open_paths.pop(fd, None)
            real_close(fd)

        monkeypatch.setattr(os, "open", counting_open)
        monkeypatch.setattr(os, "write", counting_write)
        monkeypatch.setattr(os, "close", forgetting_close)
        tasks = [
            SweepTask.make(
                "e1_clustering",
                TraceSpec.synthetic("scattered_hot", accesses=600, num_blocks=40, seed=seed),
                {"max_banks": 2},
            )
            for seed in (1, 2, 3, 4)
        ]
        run_sweep(tasks, jobs=1, cache=None, shard_dir=tmp_path / "obs")
        monkeypatch.undo()
        shards = sorted((tmp_path / "obs").rglob("*.jsonl"))
        assert {path.stem.startswith("w") for path in shards} == {True, False}
        for path in shards:
            assert written[os.path.realpath(path)] == path.stat().st_size, path.name
        worker = next(path for path in shards if path.stem.startswith("w"))
        assert publishes[os.path.realpath(worker)] == len(tasks)

    def test_first_publish_truncates_a_stale_shard(self, tmp_path):
        path = tmp_path / "w1.jsonl"
        path.write_text('{"stale": true}\n')
        recorder = ShardRecorder(
            path, sweep_id="s1", worker_id="w1", clock_factory=TickClock
        )
        recorder.begin_task("t1")
        recorder.end_task()
        assert "stale" not in path.read_text()

    def test_blocks_are_pure_functions_of_the_task(self, tmp_path):
        # Same task recorded by two different "workers", after different
        # prior histories, yields byte-identical event blocks under
        # TickClock — up to the wall anchors (t_wall_seconds), which are
        # execution facts the merge layer excludes from the canonical
        # timeline.  This is the reset contract behind merge determinism.
        def block(path, warmup):
            recorder = ShardRecorder(
                path, sweep_id="s1", worker_id="wX", clock_factory=TickClock
            )
            for index in range(warmup):
                recorder.begin_task(f"warm{index}")
                recorder.counter("events", index)
                recorder.end_task()
            recorder.begin_task("target", label="t")
            with recording(recorder), span("stage"):
                recorder.counter("events", 7)
            recorder.end_task()
            lines = shard_lines(path)
            start = max(
                i for i, line in enumerate(lines) if line.get("task") == "target"
                and line["kind"] == "task_start"
            )
            scrubbed = [
                {k: v for k, v in line.items() if k != "t_wall_seconds"}
                for line in lines[start:]
            ]
            return json.dumps(scrubbed, sort_keys=True)

        cold = block(tmp_path / "a.jsonl", warmup=0)
        warm = block(tmp_path / "b.jsonl", warmup=3)
        assert cold == warm

    def test_nested_begin_task_rejected(self, tmp_path):
        recorder = ShardRecorder(
            tmp_path / "w1.jsonl", sweep_id="s1", worker_id="w1", clock_factory=TickClock
        )
        recorder.begin_task("t1")
        with pytest.raises(ValueError, match="while task 't1' is open"):
            recorder.begin_task("t2")

    def test_end_task_without_begin_rejected(self, tmp_path):
        recorder = ShardRecorder(
            tmp_path / "w1.jsonl", sweep_id="s1", worker_id="w1", clock_factory=TickClock
        )
        with pytest.raises(ValueError, match="without a matching begin_task"):
            recorder.end_task()

    def test_shard_parses_as_plain_obs_jsonl(self, tmp_path):
        path = tmp_path / "w1.jsonl"
        recorder = ShardRecorder(
            path, sweep_id="s1", worker_id="w1", clock_factory=TickClock
        )
        recorder.begin_task("t1")
        recorder.counter("events", 2)
        recorder.end_task()
        log = read_log(path)  # the shared line parser accepts shard kinds
        assert log.counters().grand_total("events") == 2


def _fork_child():
    """Child half of the fork-guard regression: emit after the fork."""
    _FORK_RECORDER.counter("events", 1, side="child")
    _FORK_RECORDER._stream.flush()


_FORK_RECORDER = None


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable on this platform",
)
class TestForkGuard:
    def test_post_fork_emit_reopens_the_sink(self, tmp_path):
        # A JsonlRecorder opened in the parent and inherited through fork
        # must not share a file offset with the parent: the guard reopens
        # the path (append mode) on the first post-fork emit, so both
        # processes' lines land intact.
        global _FORK_RECORDER
        path = tmp_path / "run.jsonl"
        recorder = JsonlRecorder(path, clock=TickClock())
        recorder.counter("events", 1, side="parent-before")
        _FORK_RECORDER = recorder
        try:
            context = multiprocessing.get_context("fork")
            child = context.Process(target=_fork_child)
            child.start()
            child.join(timeout=30)
            assert child.exitcode == 0
            recorder.counter("events", 1, side="parent-after")
            recorder.close()
        finally:
            _FORK_RECORDER = None
        sides = [
            event["attrs"]["side"]
            for event in read_log(path).events
            if event["kind"] == "counter"
        ]
        assert sorted(sides) == ["child", "parent-after", "parent-before"]

    def test_borrowed_streams_are_not_guarded(self, tmp_path):
        # ShardRecorder buffers into a borrowed StringIO; the guard must
        # stay inert for it (reopening an in-memory buffer is meaningless).
        recorder = ShardRecorder(
            tmp_path / "w1.jsonl", sweep_id="s1", worker_id="w1", clock_factory=TickClock
        )
        assert recorder._owns_stream is False
        recorder._pid = -1  # simulate "wrong pid"; emit must not reopen
        recorder.begin_task("t1")
        recorder.end_task()
        assert shard_lines(tmp_path / "w1.jsonl")[-1]["kind"] == "task_end"
