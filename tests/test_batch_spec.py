"""Unit tests for batch task specifications (``repro.batch.spec``).

Pins the determinism contracts the sweep machinery builds on: a spec
always reloads the same trace, config fingerprints ignore mapping order,
and shard assignment is a pure function of the task description.
"""

from __future__ import annotations

import pickle

import pytest

from repro.batch.spec import (
    SweepTask,
    TraceSpec,
    assign_shards,
    parse_assignments,
    parse_scalar,
    shard_of,
)
from repro.trace import Trace, trace_digest
from repro.trace.synthetic import StridedSweepGenerator


class TestTraceSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown trace-spec kind"):
            TraceSpec(kind="nope", name="x")

    def test_inline_requires_events(self):
        with pytest.raises(ValueError, match="must carry an events tuple"):
            TraceSpec(kind="inline", name="x")

    def test_synthetic_load_is_deterministic(self):
        spec = TraceSpec.synthetic("strided_sweep", sweeps=2, seed=7)
        assert trace_digest(spec.load()) == trace_digest(spec.load())

    def test_synthetic_rejects_unknown_generator(self):
        with pytest.raises(ValueError, match="unknown generator 'bogus'"):
            TraceSpec.synthetic("bogus")

    def test_kernel_spec_loads_data_trace(self):
        spec = TraceSpec.kernel("dot_product")
        trace = spec.load()
        assert len(trace) > 0
        assert all(event.space.value == "D" for event in trace)

    def test_kernel_spec_instruction_space(self):
        spec = TraceSpec.kernel("dot_product", space="instruction")
        trace = spec.load()
        assert all(event.space.value == "I" for event in trace)

    def test_kernel_spec_rejects_bad_space(self):
        with pytest.raises(ValueError, match="'registers'"):
            TraceSpec.kernel("dot_product", space="registers")

    def test_file_spec_roundtrip(self, tmp_path):
        from repro.trace import save_npz

        trace = StridedSweepGenerator(sweeps=1).generate()
        path = tmp_path / "t.npz"
        save_npz(trace, path)
        loaded = TraceSpec.file(path).load()
        assert trace_digest(loaded) == trace_digest(trace)

    def test_inline_spec_preserves_content(self):
        trace = StridedSweepGenerator(sweeps=1, write_fraction=0.5).generate()
        loaded = TraceSpec.inline(trace).load()
        assert trace_digest(loaded) == trace_digest(trace)
        assert loaded.name == trace.name

    def test_specs_are_picklable(self):
        trace = Trace.from_events([], name="empty")
        for spec in (
            TraceSpec.kernel("fir"),
            TraceSpec.synthetic("hot_cold", accesses=10),
            TraceSpec.inline(trace),
        ):
            assert pickle.loads(pickle.dumps(spec)) == spec

    def test_from_source_parses_synth_spec(self):
        spec = TraceSpec.from_source("synth:strided_sweep:sweeps=2,write_fraction=0.5")
        assert spec.kind == "synthetic"
        assert spec.params_dict == {"sweeps": 2, "write_fraction": 0.5}

    def test_from_source_rejects_malformed_synth_param(self):
        with pytest.raises(ValueError, match="expected key=value"):
            TraceSpec.from_source("synth:strided_sweep:sweeps")

    def test_from_source_rejects_unknown_synth_param(self):
        with pytest.raises(
            ValueError,
            match="generator 'hot_cold' has no parameter 'bogus'; accepted: .*accesses",
        ):
            TraceSpec.from_source("synth:hot_cold:accesses=500,seed=1,bogus=3")

    def test_from_source_resolves_kernel(self):
        assert TraceSpec.from_source("fir") == TraceSpec.kernel("fir")

    def test_from_source_rejects_garbage(self):
        with pytest.raises(ValueError, match="'no_such_thing'"):
            TraceSpec.from_source("no_such_thing")


class TestParseScalar:
    @pytest.mark.parametrize(
        ("raw", "expected"),
        [("3", 3), ("0.5", 0.5), ("true", True), ("false", False), ("bdi", "bdi")],
    )
    def test_parses_in_priority_order(self, raw, expected):
        assert parse_scalar(raw) == expected
        assert type(parse_scalar(raw)) is type(expected)


class TestParseAssignments:
    def test_strips_and_parses_each_pair(self):
        assert parse_assignments(" max_banks = 4 ,strategy=affinity,") == {
            "max_banks": 4,
            "strategy": "affinity",
        }

    def test_malformed_pair_is_named(self):
        with pytest.raises(ValueError, match="malformed pair 'sweeps'; expected key=value"):
            parse_assignments("seed=1,sweeps")


class TestSweepTask:
    def test_config_hash_ignores_mapping_order(self):
        spec = TraceSpec.kernel("fir")
        a = SweepTask.make("e1_clustering", spec, {"max_banks": 4, "block_size": 16})
        b = SweepTask.make("e1_clustering", spec, {"block_size": 16, "max_banks": 4})
        assert a == b
        assert a.config_hash == b.config_hash

    def test_config_hash_takes_the_typed_values(self):
        # A float key given an int runs as the float, so both share one hash;
        # a config already in its declared types keeps its raw-mapping hash.
        from repro.obs.manifest import config_fingerprint

        spec = TraceSpec.kernel("fir")
        as_int = SweepTask.make("e3_encoding", spec, {"train_fraction": 1})
        as_float = SweepTask.make("e3_encoding", spec, {"train_fraction": 1.0})
        assert as_int.config_hash == as_float.config_hash
        for flow, config in (
            ("e1_clustering", {"max_banks": 4, "strategy": "frequency"}),
            ("e3_encoding", {"train_fraction": 1.0, "width": 16}),
        ):
            raw = config_fingerprint({"flow": flow, "config": config})
            assert SweepTask.make(flow, spec, config).config_hash == raw

    def test_config_hash_separates_flows(self):
        spec = TraceSpec.kernel("fir")
        a = SweepTask.make("e1_clustering", spec, {})
        b = SweepTask.make("e2_compression", spec, {})
        assert a.config_hash != b.config_hash

    def test_spec_fingerprint_covers_trace_description(self):
        a = SweepTask.make("e1_clustering", TraceSpec.kernel("fir"), {})
        b = SweepTask.make("e1_clustering", TraceSpec.kernel("saxpy"), {})
        assert a.spec_fingerprint() != b.spec_fingerprint()

    def test_inline_traces_of_one_name_and_length_stay_apart(self, tmp_path):
        # Both traces are named hot_cold and hold 400 events: a fingerprint
        # that covers inline events by their count merges the two tasks into
        # one block and marks the other superseded.
        from repro.batch import run_sweep
        from repro.obs import load_merged
        from repro.trace.synthetic import HotColdGenerator

        tasks = [
            SweepTask.make(
                "e1_clustering",
                TraceSpec.inline(HotColdGenerator(accesses=400, seed=seed).generate()),
            )
            for seed in (1, 2)
        ]
        report = run_sweep(tasks, jobs=1, shard_dir=tmp_path)
        assert report.results[0] != report.results[1]
        merged = load_merged(tmp_path)
        assert len(merged.tasks) == 2
        assert len(merged.superseded) == 0

    def test_label_is_compact(self):
        task = SweepTask.make("e1_clustering", TraceSpec.kernel("fir"), {})
        assert task.label().startswith("e1_clustering:fir:")


class TestSharding:
    def test_shard_of_is_stable_and_in_range(self):
        fingerprint = "deadbeef" * 8
        first = shard_of(fingerprint, 4)
        assert first == shard_of(fingerprint, 4)
        assert 0 <= first < 4

    def test_shard_of_rejects_nonpositive_count(self):
        with pytest.raises(ValueError, match="got 0"):
            shard_of("deadbeef", 0)

    def test_assign_shards_independent_of_task_order(self):
        tasks = [
            SweepTask.make("e1_clustering", TraceSpec.kernel(name), {"max_banks": b})
            for name in ("fir", "saxpy", "matmul")
            for b in (2, 4)
        ]
        forward = dict(zip(tasks, assign_shards(tasks, 3)))
        reordered = list(reversed(tasks))
        backward = dict(zip(reordered, assign_shards(reordered, 3)))
        assert forward == backward
