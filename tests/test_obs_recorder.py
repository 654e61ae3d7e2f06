"""Unit tests for the observability substrate (``repro.obs``).

Recorders, spans, clocks, counters, manifests, and the JSONL replayer are
exercised in isolation here — always with :class:`TickClock` injected, so
every expected log line is an exact function of the instrumented code path.
Pipeline-level integration lives in ``test_obs_pipeline.py``.
"""

from __future__ import annotations

import dataclasses
import io
import json

import pytest

from repro.obs import JsonlRecorder, NullRecorder, Recorder, RunManifest, read_log
from repro.obs.clock import TickClock, WallClock
from repro.obs.counters import CounterRegistry
from repro.obs.manifest import collect_manifest, config_fingerprint
from repro.obs.recorder import SCHEMA_VERSION
from repro.obs.spans import span


def make_recorder() -> tuple[JsonlRecorder, io.StringIO]:
    """A deterministic recorder writing to an in-memory sink."""
    sink = io.StringIO()
    return JsonlRecorder(sink, clock=TickClock()), sink


def lines_of(sink: io.StringIO) -> list[dict]:
    return [json.loads(line) for line in sink.getvalue().splitlines()]


class TestClocks:
    def test_tick_clock_advances_by_fixed_step(self):
        clock = TickClock(step_seconds=0.5)
        assert [clock.now_seconds() for _ in range(3)] == [0.5, 1.0, 1.5]

    def test_tick_clock_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            TickClock(step_seconds=0.0)

    def test_wall_clock_is_monotonic(self):
        clock = WallClock()
        assert clock.now_seconds() <= clock.now_seconds()


class TestNullRecorder:
    def test_disabled_by_default(self):
        assert NullRecorder().enabled is False

    def test_every_hook_is_a_noop(self):
        recorder = NullRecorder()
        assert recorder.span_start("anything", attr=1) == 0
        recorder.span_end(0)
        recorder.counter("x", 1.0)
        recorder.record_manifest({"k": "v"})
        recorder.close()

    def test_usable_as_context_manager(self):
        with NullRecorder() as recorder:
            assert isinstance(recorder, Recorder)


class _ProbeRecorder(Recorder):
    """Disabled recorder that would fail loudly if any hook were invoked."""

    enabled = False

    def span_start(self, name, **attrs):  # pragma: no cover - must not run
        raise AssertionError("span_start called on a disabled recorder")

    def counter(self, name, value, **attrs):  # pragma: no cover - must not run
        raise AssertionError("counter called on a disabled recorder")


class TestSpanHelper:
    def test_none_recorder_runs_body_unbracketed(self):
        ran = []
        with span(None, "stage"):
            ran.append(True)
        assert ran == [True]

    def test_disabled_recorder_never_sees_events(self):
        with span(_ProbeRecorder(), "stage", attr=1):
            pass

    def test_exception_closes_span_with_error_and_reraises(self):
        recorder, sink = make_recorder()
        with pytest.raises(KeyError):
            with span(recorder, "boom"):
                raise KeyError("missing")
        end = [e for e in lines_of(sink) if e["kind"] == "span_end"]
        assert len(end) == 1
        assert end[0]["status"] == "error"
        assert end[0]["attrs"]["error"] == "KeyError"


class TestJsonlRecorder:
    def test_every_line_carries_schema_version(self):
        recorder, sink = make_recorder()
        with span(recorder, "outer"):
            recorder.counter("c", 1.0)
        recorder.record_manifest({"k": "v"})
        events = lines_of(sink)
        assert len(events) == 4
        assert all(event["v"] == SCHEMA_VERSION for event in events)
        assert [e["kind"] for e in events] == [
            "span_start",
            "counter",
            "span_end",
            "manifest",
        ]

    def test_nested_spans_record_parent_ids(self):
        recorder, sink = make_recorder()
        with span(recorder, "outer"):
            with span(recorder, "inner"):
                pass
        starts = {e["name"]: e for e in lines_of(sink) if e["kind"] == "span_start"}
        assert starts["outer"]["parent"] is None
        assert starts["inner"]["parent"] == starts["outer"]["id"]

    def test_tick_clock_makes_timings_exact(self):
        # TickClock: origin reading 1.0; each subsequent reading +1.0.
        recorder, sink = make_recorder()
        with span(recorder, "stage"):
            pass
        start, end = lines_of(sink)
        assert start["t_seconds"] == 1.0
        assert end["t_seconds"] == 2.0
        assert end["elapsed_seconds"] == 1.0

    def test_counter_attributed_to_innermost_open_span(self):
        recorder, sink = make_recorder()
        recorder.counter("outside", 1.0)
        with span(recorder, "outer"):
            with span(recorder, "inner"):
                recorder.counter("inside", 2.0)
        counters = {e["name"]: e for e in lines_of(sink) if e["kind"] == "counter"}
        starts = {e["name"]: e for e in lines_of(sink) if e["kind"] == "span_start"}
        assert counters["outside"]["span"] is None
        assert counters["inside"]["span"] == starts["inner"]["id"]

    def test_ending_an_outer_span_closes_open_descendants(self):
        recorder, sink = make_recorder()
        outer = recorder.span_start("outer")
        recorder.span_start("inner")
        recorder.span_end(outer)
        ends = [e for e in lines_of(sink) if e["kind"] == "span_end"]
        assert [e["name"] for e in ends] == ["inner", "outer"]

    def test_unknown_span_id_rejected(self):
        recorder, _sink = make_recorder()
        with pytest.raises(ValueError, match="unknown or already-closed"):
            recorder.span_end(42)

    def test_path_sink_is_owned_and_closed(self, tmp_path):
        path = tmp_path / "run.jsonl"
        recorder = JsonlRecorder(path, clock=TickClock())
        recorder.counter("c", 1.0)
        recorder.close()
        assert recorder._stream.closed
        assert read_log(path).counters().total("c") == 1.0

    def test_borrowed_stream_left_open(self):
        recorder, sink = make_recorder()
        recorder.close()
        assert not sink.closed

    def test_manifest_round_trips_through_read_log(self):
        recorder, sink = make_recorder()
        manifest = collect_manifest(seed=3, kernel="fir")
        recorder.record_manifest(manifest.to_dict())
        log = read_log(sink.getvalue().splitlines())
        assert log.manifest == manifest.to_dict()
        assert RunManifest.from_dict(log.manifest) == manifest


class TestReadLog:
    def test_accepts_path_file_and_iterable(self, tmp_path):
        recorder, sink = make_recorder()
        with span(recorder, "stage"):
            recorder.counter("c", 2.0)
        text = sink.getvalue()
        path = tmp_path / "run.jsonl"
        path.write_text(text)
        from_path = read_log(path).events
        from_file = read_log(io.StringIO(text)).events
        from_lines = read_log(text.splitlines()).events
        assert from_path == from_file == from_lines

    def test_blank_lines_skipped(self):
        line = json.dumps({"v": 1, "kind": "counter", "name": "c", "value": 1.0})
        assert len(read_log(["", line, "   ", line]).events) == 2

    def test_invalid_json_names_the_line(self):
        good = json.dumps({"v": 1, "kind": "counter", "name": "c", "value": 1.0})
        with pytest.raises(ValueError, match="line 2"):
            read_log([good, "{not json"])

    def test_newer_schema_version_rejected(self):
        with pytest.raises(ValueError, match="unsupported schema version"):
            read_log([json.dumps({"v": SCHEMA_VERSION + 1, "kind": "counter"})])

    def test_missing_version_rejected(self):
        with pytest.raises(ValueError, match="unsupported schema version"):
            read_log([json.dumps({"kind": "counter", "name": "c", "value": 1.0})])

    def test_unclosed_spans_omitted_from_span_view(self):
        recorder, sink = make_recorder()
        recorder.span_start("crashed")
        log = read_log(sink.getvalue().splitlines())
        assert log.spans() == []


class TestCounterRegistry:
    def test_totals_accumulate_per_attrs_series(self):
        registry = CounterRegistry()
        registry.add("energy", 1.5, stage="a")
        registry.add("energy", 2.5, stage="a")
        registry.add("energy", 4.0, stage="b")
        assert registry.total("energy", stage="a") == 4.0
        assert registry.total("energy", stage="b") == 4.0
        assert registry.grand_total("energy") == 8.0

    def test_unseen_series_totals_zero(self):
        registry = CounterRegistry()
        assert registry.total("nope") == 0
        assert registry.grand_total("nope") == 0
        assert registry.series("nope") == {}

    def test_from_events_ignores_non_counter_kinds(self):
        events = [
            {"kind": "span_start", "id": 1, "name": "s"},
            {"kind": "counter", "name": "c", "value": 3.0, "attrs": {"k": "v"}},
            {"kind": "manifest", "data": {}},
        ]
        registry = CounterRegistry.from_events(events)
        assert registry.names() == ["c"]
        assert registry.total("c", k="v") == 3.0


class TestManifest:
    def test_collect_manifest_is_deterministic(self):
        first = collect_manifest(seed=1, kernel="fir")
        second = collect_manifest(seed=1, kernel="fir")
        assert first == second

    def test_config_fingerprint_stable_across_key_order(self):
        forward = config_fingerprint({"a": 1, "b": [2, 3]})
        backward = config_fingerprint({"b": [2, 3], "a": 1})
        assert forward == backward
        assert len(forward) == 16
        int(forward, 16)  # hex digest

    def test_config_fingerprint_distinguishes_configs(self):
        assert config_fingerprint({"a": 1}) != config_fingerprint({"a": 2})

    def test_differences_ignore_run_specific_keys(self):
        base = collect_manifest(seed=1, config_hash="aaaa")
        other = collect_manifest(seed=2, config_hash="bbbb", kernel="fir")
        assert base.differences(other) == []

    def test_differences_report_environment_drift(self):
        base = collect_manifest()
        other = dataclasses.replace(base, python_version="2.7.18")
        drift = base.differences(other)
        assert len(drift) == 1
        assert drift[0].startswith("python_version:")

    def test_from_dict_ignores_unknown_keys(self):
        manifest = collect_manifest(seed=9)
        payload = dict(manifest.to_dict(), future_field="ignored")
        assert RunManifest.from_dict(payload) == manifest
