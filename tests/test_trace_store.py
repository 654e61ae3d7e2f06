"""The on-disk columnar trace store: round-trips, corruption, batch wiring.

Covers the three contracts :mod:`repro.trace.store` makes:

* **Round-trip bit-identity** — ``save_store``/``load_store`` reproduce
  every column and every event exactly, and the header's ``trace_digest``
  equals :func:`repro.trace.io.trace_digest` of the packed trace; a trace
  failing the column check is never packed.
* **Loud corruption** — a truncated column, a flipped header byte, a
  wrong schema version, or tampered column data each raise
  :class:`~repro.trace.store.StoreError` chained onto a cause, never
  replay wrong events; on the batch path a corrupt *spill* degrades to a
  cache miss (recipe re-derivation) while a corrupt store-kind *spec*
  fails the sweep loudly.
* **Golden headers** — packing the golden-corpus traces yields pinned
  headers (``tests/golden/trace_store.json``), diffed field-by-field and
  regenerated with ``--update-golden``.
"""

from __future__ import annotations

import json

import pytest

from repro.batch import ResultCache, SweepTask, TraceSpec, run_sweep
from repro.batch import runner as batch_runner
from repro.trace import ColumnarTrace, Trace
from repro.trace.io import trace_digest
from repro.trace.store import (
    DEFAULT_CHUNK_EVENTS,
    TRACE_STORE_SCHEMA_VERSION,
    StoreError,
    _header_digest,
    load_store,
    open_store,
    read_store_header,
    save_store,
    store_digest,
    verify_store,
)
from repro.trace.synthetic import HotColdGenerator, ValueTraceGenerator

from .test_golden_flows import GOLDEN_CASES, GOLDEN_DIR, field_diffs


def hot_cold_trace(accesses: int = 1500, seed: int = 7) -> Trace:
    return HotColdGenerator(accesses=accesses, seed=seed).generate()


def value_trace(lines: int = 96, seed: int = 11) -> Trace:
    return ValueTraceGenerator(lines=lines, seed=seed).generate()


@pytest.fixture(autouse=True)
def fresh_trace_memo():
    """Isolate the batch runner's per-process trace memo between tests."""
    batch_runner._TRACE_MEMO.clear()
    yield
    batch_runner._TRACE_MEMO.clear()


def assert_traces_equal(expected: Trace, actual: Trace) -> None:
    assert len(expected) == len(actual)
    for want, got in zip(expected, actual):
        assert want == got


class TestRoundTrip:
    def test_events_round_trip_bit_identically(self, tmp_path):
        trace = hot_cold_trace()
        path = save_store(trace, tmp_path / "hc.tstore")
        loaded = load_store(path)
        assert_traces_equal(trace, loaded.to_trace())
        assert loaded.name == trace.name

    def test_value_payloads_round_trip(self, tmp_path):
        trace = value_trace()
        assert any(event.value is not None for event in trace)
        path = save_store(trace, tmp_path / "val.tstore")
        assert_traces_equal(trace, load_store(path).to_trace())

    def test_empty_trace_round_trips(self, tmp_path):
        trace = Trace([], name="empty")
        path = save_store(trace, tmp_path / "empty.tstore")
        loaded = load_store(path)
        assert len(loaded) == 0
        assert loaded.name == "empty"

    def test_header_digest_matches_scalar_trace_digest(self, tmp_path):
        trace = hot_cold_trace()
        path = save_store(trace, tmp_path / "hc.tstore")
        assert store_digest(path) == trace_digest(trace)

    def test_columnar_input_and_scalar_input_produce_identical_stores(
        self, tmp_path
    ):
        trace = hot_cold_trace()
        from_scalar = save_store(trace, tmp_path / "scalar.tstore")
        from_columnar = save_store(trace.columnar(), tmp_path / "columnar.tstore")
        scalar_header = read_store_header(from_scalar)
        columnar_header = read_store_header(from_columnar)
        assert scalar_header == columnar_header

    def test_repacking_over_an_existing_store_replaces_it(self, tmp_path):
        first = hot_cold_trace(accesses=300, seed=1)
        second = hot_cold_trace(accesses=500, seed=2)
        path = tmp_path / "swap.tstore"
        save_store(first, path)
        save_store(second, path)
        assert read_store_header(path)["events"] == len(second)
        assert_traces_equal(second, load_store(path).to_trace())

    def test_rejects_an_invalid_trace_before_writing(self, tmp_path):
        travel = ColumnarTrace.from_arrays([0, 4, 8], [500, 0, 1000])
        path = tmp_path / "travel.tstore"
        with pytest.raises(ValueError, match="event 1 has timestamp 0"):
            save_store(travel, path)
        assert not path.exists()

    def test_rejects_nonpositive_chunk_size(self, tmp_path):
        with pytest.raises(ValueError, match="chunk_size"):
            save_store(hot_cold_trace(accesses=10), tmp_path / "bad.tstore", 0)


class TestHeader:
    def test_header_carries_the_pinned_vocabulary(self, tmp_path):
        path = save_store(hot_cold_trace(), tmp_path / "hc.tstore", chunk_size=256)
        header = read_store_header(path)
        assert sorted(header) == [
            "chunk_size",
            "columns",
            "events",
            "header_digest",
            "name",
            "schema",
            "trace_digest",
        ]
        assert header["schema"] == TRACE_STORE_SCHEMA_VERSION
        assert header["chunk_size"] == 256
        assert sorted(header["columns"]) == [
            "addresses",
            "kinds",
            "sizes",
            "spaces",
            "timestamps",
        ]

    def test_value_traces_declare_both_value_columns(self, tmp_path):
        path = save_store(value_trace(), tmp_path / "val.tstore")
        columns = read_store_header(path)["columns"]
        assert "values" in columns and "value_mask" in columns

    def test_verify_store_accepts_a_pristine_store(self, tmp_path):
        path = save_store(hot_cold_trace(), tmp_path / "hc.tstore")
        header = verify_store(path)
        assert header == read_store_header(path)


class TestStreaming:
    def test_chunks_partition_the_trace_in_order(self, tmp_path):
        trace = hot_cold_trace(accesses=1000)
        path = save_store(trace, tmp_path / "hc.tstore", chunk_size=300)
        streamed = open_store(path)
        lengths = [len(chunk) for chunk in streamed.chunks()]
        assert lengths == [300, 300, 300, 100]
        assert len(streamed) == 1000
        assert streamed.digest == store_digest(path)
        assert_traces_equal(trace, streamed.materialize().to_trace())

    def test_chunk_size_override_and_oversized_chunks(self, tmp_path):
        trace = hot_cold_trace(accesses=100)
        path = save_store(trace, tmp_path / "hc.tstore", chunk_size=7)
        assert [len(c) for c in open_store(path, chunk_size=1).chunks()] == [1] * 100
        assert [len(c) for c in open_store(path, chunk_size=10**6).chunks()] == [100]
        assert open_store(path).chunk_size == 7
        with pytest.raises(ValueError, match="chunk_size"):
            open_store(path, chunk_size=0)

    def test_filtered_views_agree_with_scalar_filters(self, tmp_path):
        trace = hot_cold_trace(accesses=800)
        path = save_store(trace, tmp_path / "hc.tstore", chunk_size=97)
        streamed = open_store(path)
        assert len(streamed.reads()) == len(trace.reads())
        assert len(streamed.writes()) == len(trace.writes())
        assert_traces_equal(
            trace.reads(), streamed.reads().materialize().to_trace()
        )

    def test_default_chunk_size_is_recorded(self, tmp_path):
        path = save_store(hot_cold_trace(accesses=10), tmp_path / "hc.tstore")
        assert read_store_header(path)["chunk_size"] == DEFAULT_CHUNK_EVENTS


def corrupt_header_text(path, mutate) -> None:
    """Rewrite ``header.json`` through ``mutate`` (text -> text)."""
    header_path = path / "header.json"
    header_path.write_text(mutate(header_path.read_text()))


class TestCorruption:
    def test_missing_header_fails_with_oserror_cause(self, tmp_path):
        with pytest.raises(StoreError) as excinfo:
            read_store_header(tmp_path / "nowhere.tstore")
        assert isinstance(excinfo.value.__cause__, OSError)

    def test_unparseable_header_fails_with_json_cause(self, tmp_path):
        path = save_store(hot_cold_trace(accesses=50), tmp_path / "hc.tstore")
        corrupt_header_text(path, lambda text: text[: len(text) // 2])
        with pytest.raises(StoreError, match="corrupt trace-store header") as excinfo:
            read_store_header(path)
        assert isinstance(excinfo.value.__cause__, json.JSONDecodeError)

    def test_flipped_header_byte_fails_the_self_digest(self, tmp_path):
        path = save_store(hot_cold_trace(accesses=50), tmp_path / "hc.tstore")
        digest = read_store_header(path)["trace_digest"]
        flipped = ("0" if digest[0] != "0" else "1") + digest[1:]
        corrupt_header_text(path, lambda text: text.replace(digest, flipped))
        with pytest.raises(StoreError, match="invalid trace-store header") as excinfo:
            read_store_header(path)
        assert isinstance(excinfo.value.__cause__, ValueError)
        assert "header digest mismatch" in str(excinfo.value.__cause__)

    def test_wrong_schema_version_is_rejected(self, tmp_path):
        path = save_store(hot_cold_trace(accesses=50), tmp_path / "hc.tstore")
        header = json.loads((path / "header.json").read_text())
        header["schema"] = TRACE_STORE_SCHEMA_VERSION + 1
        header["header_digest"] = _header_digest(header)
        (path / "header.json").write_text(json.dumps(header, sort_keys=True))
        with pytest.raises(StoreError) as excinfo:
            load_store(path)
        assert "unsupported store schema version" in str(excinfo.value.__cause__)

    def test_truncated_column_file_fails_loudly(self, tmp_path):
        path = save_store(hot_cold_trace(accesses=200), tmp_path / "hc.tstore")
        column = path / "addresses.npy"
        raw = column.read_bytes()
        column.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(StoreError) as excinfo:
            load_store(path)
        assert excinfo.value.__cause__ is not None

    def test_tampered_column_data_fails_verification(self, tmp_path):
        path = save_store(hot_cold_trace(accesses=200), tmp_path / "hc.tstore")
        column = path / "addresses.npy"
        raw = bytearray(column.read_bytes())
        raw[-1] ^= 0xFF
        column.write_bytes(bytes(raw))
        with pytest.raises(StoreError, match="corrupt trace-store column") as excinfo:
            load_store(path, verify=True)
        assert "digest mismatch" in str(excinfo.value.__cause__)
        with pytest.raises(StoreError):
            verify_store(path)

    def test_missing_required_column_declaration_is_rejected(self, tmp_path):
        path = save_store(hot_cold_trace(accesses=50), tmp_path / "hc.tstore")
        header = json.loads((path / "header.json").read_text())
        del header["columns"]["sizes"]
        header["header_digest"] = _header_digest(header)
        (path / "header.json").write_text(json.dumps(header, sort_keys=True))
        with pytest.raises(StoreError) as excinfo:
            read_store_header(path)
        assert "missing required column" in str(excinfo.value.__cause__)


class TestBatchIntegration:
    def test_store_spec_resolves_and_loads(self, tmp_path):
        trace = hot_cold_trace(accesses=300)
        path = save_store(trace, tmp_path / "hc.tstore")
        spec = TraceSpec.from_source(str(path))
        assert spec.kind == "store"
        assert_traces_equal(trace, spec.load())

    def test_store_and_recipe_specs_share_cache_entries(self, tmp_path):
        recipe = TraceSpec.synthetic("hot_cold", accesses=300, seed=5)
        path = save_store(recipe.load(), tmp_path / "hc.tstore")
        cache = ResultCache(tmp_path / "cache")
        first = run_sweep(
            [SweepTask.make("e1_clustering", recipe, {"max_banks": 4})],
            jobs=1,
            cache=cache,
        )
        second = run_sweep(
            [SweepTask.make("e1_clustering", TraceSpec.store(path), {"max_banks": 4})],
            jobs=1,
            cache=cache,
        )
        assert second.hits == 1
        assert first.results == second.results

    def test_corrupt_spill_degrades_to_recipe_reload(self, tmp_path):
        spec = TraceSpec.synthetic("hot_cold", accesses=200, seed=6)
        path = save_store(spec.load(), tmp_path / "hc.tstore")
        (path / "addresses.npy").write_bytes(b"not a column")
        trace = batch_runner._load_task_trace(spec, {spec: str(path)})
        assert_traces_equal(spec.load(), trace)

    def test_corrupt_store_spec_fails_the_sweep_loudly(self, tmp_path):
        path = save_store(hot_cold_trace(accesses=100), tmp_path / "hc.tstore")
        corrupt_header_text(path, lambda text: text[:10])
        with pytest.raises(StoreError):
            run_sweep(
                [SweepTask.make("e1_clustering", TraceSpec.store(path), {})],
                jobs=1,
            )

    def test_sixteen_task_sweep_parses_each_trace_at_most_once(
        self, tmp_path, monkeypatch
    ):
        loads: dict = {}
        original_load = TraceSpec.load

        def counting_load(self):
            loads[self] = loads.get(self, 0) + 1
            return original_load(self)

        monkeypatch.setattr(TraceSpec, "load", counting_load)
        specs = [
            TraceSpec.synthetic("hot_cold", accesses=200, seed=seed)
            for seed in (1, 2, 3, 4)
        ]
        tasks = [
            SweepTask.make("e1_clustering", spec, {"max_banks": banks})
            for spec in specs
            for banks in (2, 3, 4, 5)
        ]
        assert len(tasks) == 16
        cache = ResultCache(tmp_path / "cache")
        run_sweep(tasks, jobs=1, cache=cache)
        assert loads, "expected the sweep to load traces"
        assert all(count <= 1 for count in loads.values()), loads

    def test_warm_cache_store_sweep_materializes_zero_events(
        self, tmp_path, monkeypatch
    ):
        specs = [
            TraceSpec.store(
                save_store(
                    hot_cold_trace(accesses=200, seed=seed),
                    tmp_path / f"hc{seed}.tstore",
                )
            )
            for seed in (1, 2)
        ]
        tasks = [
            SweepTask.make("e1_clustering", spec, {"max_banks": banks})
            for spec in specs
            for banks in (2, 4)
        ]
        cache = ResultCache(tmp_path / "cache")
        cold = run_sweep(tasks, jobs=1, cache=cache)
        assert cold.hits == 0
        batch_runner._TRACE_MEMO.clear()

        def forbidden_load(self):
            raise AssertionError(f"warm-cache sweep materialized {self!r}")

        monkeypatch.setattr(TraceSpec, "load", forbidden_load)
        warm = run_sweep(tasks, jobs=1, cache=cache)
        assert warm.hits == len(tasks)
        assert warm.results == cold.results

    def test_pack_trace_is_idempotent_and_content_addressed(self, tmp_path):
        trace = hot_cold_trace(accesses=150)
        digest = trace_digest(trace)
        cache = ResultCache(tmp_path / "cache")
        first = cache.pack_trace(trace, digest)
        second = cache.pack_trace(trace, digest)
        assert first == second == cache.trace_store_path(digest)
        assert first.name == f"{digest}.tstore"
        assert store_digest(first) == digest
        assert len(cache) == 0  # packed traces are not result entries


#: Distinct golden-corpus trace specs, keyed by a stable case name.
GOLDEN_STORE_SPECS = {
    f"{spec.name}_seed{dict(spec.params)['seed']}": spec
    for _, _, spec, _ in GOLDEN_CASES
}

#: Chunk size used when packing the golden corpus (pinned in the golden file).
GOLDEN_STORE_CHUNK = 512


class TestGoldenStoreHeaders:
    """Pin the packed headers of the golden corpus, field by field."""

    def compute_headers(self, tmp_path) -> dict:
        headers = {}
        for name, spec in sorted(GOLDEN_STORE_SPECS.items()):
            path = save_store(
                spec.load(), tmp_path / f"{name}.tstore", chunk_size=GOLDEN_STORE_CHUNK
            )
            headers[name] = read_store_header(path)
        return headers

    def test_store_headers_match_golden(self, tmp_path, update_golden):
        golden_path = GOLDEN_DIR / "trace_store.json"
        actual = self.compute_headers(tmp_path)
        if update_golden:
            golden_path.write_text(
                json.dumps(actual, sort_keys=True, indent=1) + "\n"
            )
            return
        if not golden_path.is_file():
            pytest.fail(
                f"golden file {golden_path} is missing; regenerate with "
                f"pytest tests/test_trace_store.py --update-golden"
            )
        expected = json.loads(golden_path.read_text())
        diffs = field_diffs(expected, actual)
        if diffs:
            listing = "\n  ".join(diffs[:40])
            pytest.fail(
                f"trace-store headers diverged from the golden pin "
                f"({len(diffs)} field(s)):\n  {listing}\n"
                f"A format change must bump TRACE_STORE_SCHEMA_VERSION; "
                f"refresh with --update-golden."
            )

    def test_golden_digests_match_scalar_digests(self, tmp_path):
        for name, spec in sorted(GOLDEN_STORE_SPECS.items()):
            path = save_store(spec.load(), tmp_path / f"{name}.tstore")
            assert store_digest(path) == trace_digest(spec.load()), name


class TestTraceCli:
    def test_pack_then_info_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "packed.tstore"
        assert (
            main(
                [
                    "trace",
                    "pack",
                    "synth:hot_cold:accesses=500,seed=13",
                    str(out),
                    "--chunk-size",
                    "128",
                ]
            )
            == 0
        )
        packed = capsys.readouterr().out
        assert "packed 500 events" in packed
        assert main(["trace", "info", str(out), "--verify"]) == 0
        info = capsys.readouterr().out
        assert "schema       1" in info
        assert "events       500" in info
        assert store_digest(out) in info

    def test_info_on_corrupt_store_exits_with_error(self, tmp_path, capsys):
        from repro.cli import main

        path = save_store(hot_cold_trace(accesses=40), tmp_path / "hc.tstore")
        corrupt_header_text(path, lambda text: text[:5])
        with pytest.raises(SystemExit, match="error:"):
            main(["trace", "info", str(path)])

    def test_pack_rejects_non_tstore_output(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match=".tstore"):
            main(["trace", "pack", "synth:hot_cold:accesses=10", str(tmp_path / "x.zip")])

    def test_optimize_streams_a_store(self, tmp_path, capsys):
        from repro.cli import main

        save_store(hot_cold_trace(accesses=600, seed=3), tmp_path / "hc.tstore")
        assert main(["optimize", str(tmp_path / "hc.tstore"), "--banks", "4"]) == 0
        assert "monolithic" in capsys.readouterr().out
