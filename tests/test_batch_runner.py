"""Unit tests for the sweep work queue (``repro.batch.runner``).

The headline contract — serial, parallel, and warm-cache executions of
the same sweep merge to bit-identical results in submission order — is
asserted directly here on a small real sweep; the randomized version
lives in ``test_batch_properties.py``.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.batch import ResultCache, SweepTask, TraceSpec, run_sweep
from repro.obs import JsonlRecorder
from repro.obs.clock import TickClock
from repro.obs.counters import (
    BATCH_CACHE_HITS,
    BATCH_CACHE_MISSES,
    BATCH_RETRIES,
    BATCH_TASKS,
    CounterRegistry,
)


def small_sweep():
    """Four quick e1 tasks over two tiny synthetic traces."""
    specs = [
        TraceSpec.synthetic("scattered_hot", accesses=1500, num_blocks=60, seed=seed)
        for seed in (1, 2)
    ]
    return [
        SweepTask.make("e1_clustering", spec, {"max_banks": banks})
        for spec in specs
        for banks in (2, 4)
    ]


def flaky_task(tmp_path, name, fail_times=1, mode="raise"):
    """One task on the fault-injection flow, counting attempts in tmp_path."""
    return SweepTask.make(
        "_flaky",
        TraceSpec.synthetic("strided_sweep", sweeps=1),
        {"marker_dir": str(tmp_path / name), "fail_times": fail_times, "mode": mode},
    )


def replayed_counters(sink: io.StringIO) -> CounterRegistry:
    events = [json.loads(line) for line in sink.getvalue().splitlines()]
    return CounterRegistry.from_events(events)


class TestMergeContract:
    def test_serial_parallel_and_cached_results_are_bit_identical(self, tmp_path):
        tasks = small_sweep()
        cache = ResultCache(tmp_path / "cache")
        serial = run_sweep(tasks, jobs=1, cache=cache)
        parallel = run_sweep(tasks, jobs=2, cache=None)
        cached = run_sweep(tasks, jobs=2, cache=cache)
        assert serial.results == parallel.results == cached.results
        assert (serial.hits, serial.misses) == (0, 4)
        assert (cached.hits, cached.misses) == (4, 0)

    def test_results_merge_in_submission_order(self):
        tasks = small_sweep()
        report = run_sweep(tasks, jobs=2)
        for task, outcome in zip(tasks, report.outcomes):
            assert outcome.task == task
        labels = [outcome.result["config"]["max_banks"] for outcome in report.outcomes]
        assert labels == [2, 4, 2, 4]

    def test_results_survive_json_roundtrip_identically(self):
        tasks = small_sweep()[:1]
        report = run_sweep(tasks, jobs=1)
        result = report.results[0]
        assert json.loads(json.dumps(result, sort_keys=True)) == result

    def test_partial_cache_mixes_hits_and_misses(self, tmp_path):
        tasks = small_sweep()
        cache = ResultCache(tmp_path / "cache")
        run_sweep(tasks[:2], jobs=1, cache=cache)
        report = run_sweep(tasks, jobs=1, cache=cache)
        assert (report.hits, report.misses) == (2, 2)
        assert [outcome.cached for outcome in report.outcomes] == [
            True,
            True,
            False,
            False,
        ]

    def test_trace_digest_addressing_ignores_spec_shape(self, tmp_path):
        # The same event stream described two ways (synthetic spec vs
        # inlined events) must share cache entries: content addressing.
        spec = TraceSpec.synthetic("strided_sweep", sweeps=2, seed=9)
        inline = TraceSpec.inline(spec.load())
        cache = ResultCache(tmp_path / "cache")
        first = run_sweep(
            [SweepTask.make("e1_clustering", spec, {})], jobs=1, cache=cache
        )
        second = run_sweep(
            [SweepTask.make("e1_clustering", inline, {})], jobs=1, cache=cache
        )
        assert first.misses == 1
        assert second.hits == 1
        assert first.results == second.results


class TestValidation:
    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError, match="got 0"):
            run_sweep([], jobs=0)

    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError, match="got -1"):
            run_sweep([], retries=-1)

    @pytest.mark.parametrize("flow", ["e1_clustering", "e4_reconfig"])
    def test_inline_trace_with_decreasing_timestamps_fails_loudly(self, flow):
        events = tuple(
            (time, 4 * index, 4, "R", "D", None)
            for index, time in enumerate((500, 0, 1000))
        )
        spec = TraceSpec(kind="inline", name="travel", events=events)
        with pytest.raises(ValueError, match="'travel': event 1 has timestamp 0"):
            run_sweep([SweepTask.make(flow, spec)])

    def test_empty_sweep_is_a_noop(self):
        report = run_sweep([], jobs=2)
        assert report.outcomes == ()
        assert report.summary().startswith("0 tasks")


class TestRetries:
    def test_serial_soft_failure_retries_then_succeeds(self, tmp_path):
        task = flaky_task(tmp_path, "soft", fail_times=1)
        report = run_sweep([task], jobs=1, backoff_seconds=0.01)
        assert report.retries == 1
        assert report.outcomes[0].attempts == 2
        assert report.results[0]["attempts"] == 2

    def test_parallel_soft_failure_retries_then_succeeds(self, tmp_path):
        task = flaky_task(tmp_path, "psoft", fail_times=1)
        report = run_sweep([task], jobs=2, backoff_seconds=0.01)
        assert report.retries == 1
        assert report.outcomes[0].attempts == 2

    def test_parallel_worker_crash_rebuilds_pool_and_retries(self, tmp_path):
        # mode="exit" kills the worker process outright (BrokenProcessPool);
        # healthy sibling tasks in the same wave must still merge.
        crash = flaky_task(tmp_path, "crash", fail_times=1, mode="exit")
        healthy = small_sweep()[:1]
        report = run_sweep(healthy + [crash], jobs=2, backoff_seconds=0.01)
        assert report.retries >= 1
        assert report.outcomes[1].result["attempts"] >= 2
        assert "variants" in report.outcomes[0].result

    def test_exhausted_retries_raise_with_label(self, tmp_path):
        task = flaky_task(tmp_path, "doomed", fail_times=99)
        with pytest.raises(RuntimeError, match="_flaky.*failed after 2 attempts"):
            run_sweep([task], jobs=1, retries=1, backoff_seconds=0.01)

    def test_exhausted_retries_raise_in_parallel_mode_too(self, tmp_path):
        task = flaky_task(tmp_path, "pdoomed", fail_times=99)
        with pytest.raises(RuntimeError, match="exhausted retries"):
            run_sweep([task], jobs=2, retries=1, backoff_seconds=0.01)

    def test_exhausted_task_raises_after_its_wave(self, tmp_path):
        # jobs=1 runs the whole wave before raising, so a healthy task
        # queued behind a doomed one still runs and reaches the cache.
        cache = ResultCache(tmp_path / "cache")
        doomed = flaky_task(tmp_path, "doomed-first", fail_times=99)
        healthy = small_sweep()[0]
        with pytest.raises(RuntimeError, match="1 of 2 tasks exhausted retries"):
            run_sweep(
                [doomed, healthy], jobs=1, cache=cache, retries=1, backoff_seconds=0.01
            )
        assert run_sweep([healthy], jobs=1, cache=cache).hits == 1

    def test_flaky_and_healthy_sweep_agrees_across_jobs(self, tmp_path):
        from repro.obs import load_shards

        reports = {}
        for jobs in (1, 2):
            tasks = [flaky_task(tmp_path, f"mixed-{jobs}"), small_sweep()[0]]
            obs_dir = tmp_path / f"obs-{jobs}"
            reports[jobs] = run_sweep(
                tasks, jobs=jobs, shard_dir=obs_dir, backoff_seconds=0.01
            )
            (parent,) = [
                shard
                for shard in load_shards(obs_dir, sweep=reports[jobs].sweep_id)
                if shard.role == "parent"
            ]
            retries = [e["attrs"] for e in parent.lifecycle if e["event"] == "retry"]
            assert [attrs["wave"] for attrs in retries] == [1]
        serial, pooled = reports[1], reports[2]
        assert serial.results == pooled.results
        assert [o.attempts for o in serial.outcomes] == [2, 1]
        assert [o.attempts for o in pooled.outcomes] == [2, 1]
        assert serial.retries == pooled.retries == 1

    def test_retried_task_result_still_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        task = flaky_task(tmp_path, "cached-flaky", fail_times=1)
        first = run_sweep([task], jobs=1, cache=cache, backoff_seconds=0.01)
        assert first.retries == 1
        second = run_sweep([task], jobs=1, cache=cache)
        assert second.hits == 1
        assert second.results == first.results


class TestObservability:
    def test_counters_account_every_task(self, tmp_path):
        tasks = small_sweep()
        cache = ResultCache(tmp_path / "cache")
        sink = io.StringIO()
        recorder = JsonlRecorder(sink, clock=TickClock())
        run_sweep(tasks, jobs=1, cache=cache, recorder=recorder)
        recorder.close()
        counters = replayed_counters(sink)
        assert counters.grand_total(BATCH_TASKS) == 4
        assert counters.grand_total(BATCH_CACHE_MISSES) == 4
        assert counters.grand_total(BATCH_CACHE_HITS) == 0

        sink = io.StringIO()
        recorder = JsonlRecorder(sink, clock=TickClock())
        run_sweep(tasks, jobs=1, cache=cache, recorder=recorder)
        recorder.close()
        counters = replayed_counters(sink)
        assert counters.grand_total(BATCH_CACHE_HITS) == 4
        assert counters.grand_total(BATCH_CACHE_MISSES) == 0

    def test_retry_counter_incremented(self, tmp_path):
        sink = io.StringIO()
        recorder = JsonlRecorder(sink, clock=TickClock())
        task = flaky_task(tmp_path, "counted", fail_times=1)
        run_sweep([task], jobs=1, recorder=recorder, backoff_seconds=0.01)
        recorder.close()
        counters = replayed_counters(sink)
        assert counters.total(BATCH_RETRIES, flow="_flaky") == 1

    def test_spans_bracket_sweep_and_tasks(self):
        sink = io.StringIO()
        recorder = JsonlRecorder(sink, clock=TickClock())
        run_sweep(small_sweep()[:2], jobs=1, recorder=recorder)
        recorder.close()
        events = [json.loads(line) for line in sink.getvalue().splitlines()]
        names = [event["name"] for event in events if event["kind"] == "span_start"]
        assert names[0] == "sweep"
        assert names.count("sweep.task") == 2

    def test_outcome_rows_are_table_ready(self):
        report = run_sweep(small_sweep()[:1], jobs=1)
        row = report.outcomes[0].row()
        assert row["flow"] == "e1_clustering"
        assert row["cached"] is False
        assert row["attempts"] == 1
        assert row["elapsed_seconds"] >= 0


class TestWorkerShards:
    def test_shard_layout_and_sweep_id(self, tmp_path):
        from repro.batch import shard_path, sweep_fingerprint

        tasks = small_sweep()
        obs_dir = tmp_path / "obs"
        report = run_sweep(tasks, jobs=1, shard_dir=obs_dir)
        assert report.sweep_id == sweep_fingerprint(tasks)
        sweep_dir = obs_dir / report.sweep_id[:2] / report.sweep_id
        shards = sorted(path.name for path in sweep_dir.glob("*.jsonl"))
        assert "parent.jsonl" in shards
        assert sum(name.startswith("w") for name in shards) == 1  # jobs=1
        assert shard_path(obs_dir, report.sweep_id, "parent") in sweep_dir.iterdir()

    def test_no_shard_dir_means_no_shards_and_empty_sweep_id(self, tmp_path):
        report = run_sweep(small_sweep()[:1], jobs=1)
        assert report.sweep_id == ""

    def test_parent_shard_records_lifecycle(self, tmp_path):
        from repro.obs import load_shards

        tasks = small_sweep()
        cache = ResultCache(tmp_path / "cache")
        run_sweep(tasks[:2], jobs=1, cache=cache)  # warm two entries
        report = run_sweep(tasks, jobs=1, cache=cache, shard_dir=tmp_path / "obs")
        parent = next(
            shard
            for shard in load_shards(tmp_path / "obs", sweep=report.sweep_id)
            if shard.role == "parent"
        )
        events = [event["event"] for event in parent.lifecycle]
        assert events.count("cache_hit") == 2
        assert events.count("submitted") == 2
        assert events.count("merged") == 2

    def test_retry_attribution_lands_in_parent_shard(self, tmp_path):
        from repro.obs import load_merged

        task = flaky_task(tmp_path, "shard-flaky", fail_times=1)
        report = run_sweep(
            [task], jobs=1, shard_dir=tmp_path / "obs", backoff_seconds=0.01
        )
        merged = load_merged(tmp_path / "obs", sweep=report.sweep_id)
        waves = merged.metrics()["retry_waves"]
        assert len(waves) == 1
        assert waves[0]["tasks"] == [task.label()]


class TestProgressEvents:
    def test_events_account_every_task(self, tmp_path):
        from repro.batch import SweepEvent

        tasks = small_sweep()
        cache = ResultCache(tmp_path / "cache")
        run_sweep(tasks[:2], jobs=1, cache=cache)
        events: list[SweepEvent] = []
        run_sweep(tasks, jobs=2, cache=cache, on_event=events.append)
        assert [event.kind for event in events].count("task_done") == 2
        assert [event.kind for event in events].count("cache_hit") == 2
        final = events[-1]
        assert (final.done, final.cached, final.failed) == (2, 2, 0)
        assert all(event.total == 4 for event in events)
        assert all(event.elapsed_seconds >= 0 for event in events)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_retry_wave_events_carry_labels(self, tmp_path, jobs):
        events = []
        task = flaky_task(tmp_path, "event-flaky", fail_times=1)
        run_sweep([task], jobs=jobs, backoff_seconds=0.01, on_event=events.append)
        kinds = [event.kind for event in events]
        assert kinds == ["task_failed", "retry_wave", "task_done"]
        assert all(event.label == task.label() for event in events)


class TestSharding:
    def test_outcome_shards_deterministic_across_runs(self):
        tasks = small_sweep()
        first = run_sweep(tasks, jobs=2)
        second = run_sweep(tasks, jobs=2)
        assert [o.shard for o in first.outcomes] == [o.shard for o in second.outcomes]
