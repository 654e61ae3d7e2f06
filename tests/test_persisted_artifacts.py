"""Runtime contracts of every persisted artifact, checked on the real bytes.

One small real run builds each artifact the package writes: a result-cache
entry and the ``header.json`` of the trace store it spills, a JSONL run log
with its manifest line, a jobs=1 sweep's parent and worker shards, the JSON
documents of ``repro obs``, ``repro timeline``, ``repro benchreport``,
``repro lint`` and ``repro sweep``, the canonical text a sweep task returns
to the parent, and ``FlowResult.to_dict()``.  Three contracts are checked:

* **Canonical bytes.**  Every JSON object in every artifact is written with
  its keys sorted, and the two content hashes over JSON (a store's
  ``header_digest`` and :func:`~repro.obs.manifest.config_fingerprint`) do
  not depend on the order in which a mapping's keys were inserted.  Cache
  keys and golden diffs hash these bytes.
* **Vocabulary next to version.**  :data:`VOCABULARY` holds, per document,
  the value of its version constant and the keys its writer spells.  A
  payload that gains or loses a key fails right beside its version
  constant, which is where the version-bump question belongs.
* **Fingerprint coverage.**  Changing any one field of a ``FlowConfig``, a
  ``TraceSpec`` or a ``SweepTask`` changes its fingerprint, so no two
  configurations that run differently share a cache entry or a shard block.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import pytest

import repro
from repro.analysis.runner import LINT_REPORT_SCHEMA_VERSION
from repro.batch import ResultCache, SweepTask, TraceSpec, run_sweep
from repro.batch.cache import CACHE_SCHEMA_VERSION
from repro.batch.runner import ShardConfig, _execute_task
from repro.benchstats.report import BENCH_REPORT_SCHEMA_VERSION
from repro.cli import main
from repro.core.clustering import AffinityClustering
from repro.core.pipeline import FlowConfig, MemoryOptimizationFlow
from repro.obs import read_log
from repro.obs.manifest import MANIFEST_SCHEMA_VERSION, config_fingerprint
from repro.obs.recorder import SCHEMA_VERSION
from repro.obs.replay import OBS_REPORT_SCHEMA_VERSION
from repro.obs.shard import WORKER_SHARD_SCHEMA_VERSION
from repro.obs.timeline import TIMELINE_SCHEMA_VERSION
from repro.trace.store import TRACE_STORE_SCHEMA_VERSION, read_store_header
from repro.trace.synthetic import HotColdGenerator

SOURCE = "synth:hot_cold:accesses=400,seed=1"

#: A module with one CON001 and one CON003 finding, so the lint report
#: carries finding rows and statistics.
LINT_FIXTURE = 'def write(x, payload={}):\n    raise ValueError("static")\n'


def _cli(argv) -> str:
    """Run the CLI in-process; return its stdout (stderr is discarded)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        main(argv)
    return out.getvalue()


def _bench_runs(directory: Path, side: str) -> list:
    """Four pytest-benchmark exports: enough runs for the paired gate."""
    paths = []
    for run in range(4):
        benchmarks = [
            {"fullname": name, "name": name, "stats": {"median": median}}
            for name, median in (("s::a", 0.01 + run / 5000), ("s::b", 0.02))
        ]
        path = directory / f"{side}-{run}.json"
        path.write_text(json.dumps({"benchmarks": benchmarks}))
        paths.append(str(path))
    return paths


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Every persisted artifact of one small real run, as written.

    Maps a document name to its text; JSONL documents map to their list of
    lines.
    """
    root = tmp_path_factory.mktemp("artifacts")
    docs: dict = {}

    _cli(["optimize", SOURCE, "--obs-out", str(root / "run.jsonl")])
    docs["run-log"] = (root / "run.jsonl").read_text().splitlines()
    docs["obs-report"] = _cli(["obs", str(root / "run.jsonl"), "--format", "json"])

    task = SweepTask.make("e1_clustering", TraceSpec.from_source(SOURCE), {"max_banks": 2})
    report = run_sweep(
        [task], jobs=1, cache=ResultCache(root / "cache"), shard_dir=root / "obs"
    )
    (entry,) = (root / "cache").glob("??/*.json")
    docs["cache-entry"] = entry.read_text()
    (header,) = (root / "cache").rglob("header.json")
    docs["store-header"] = header.read_text()
    for shard in (root / "obs").glob("??/*/*.jsonl"):
        role = "parent-shard" if shard.name == "parent.jsonl" else "worker-shard"
        docs[role] = shard.read_text().splitlines()
    _cli(
        [
            "timeline", str(root / "obs"),
            "--out", str(root / "timeline.html"),
            "--json-out", str(root / "timeline.json"),
        ]
    )
    docs["timeline"] = (root / "timeline.json").read_text()

    docs["task-result"] = _execute_task(task)
    docs["task-result-shard"] = _execute_task(
        task, ShardConfig(root=str(root / "task-obs"), sweep_id=report.sweep_id)
    )
    docs["sweep-json"] = _cli(["sweep", SOURCE, "--no-cache", "--format", "json"])

    bench = root / "bench"
    bench.mkdir()
    _cli(
        [
            "benchreport", *_bench_runs(bench, "change"),
            "--baseline", *_bench_runs(bench, "base"),
            "--out", str(bench / "report.html"),
            "--json-out", str(bench / "summary.json"),
        ]
    )
    docs["bench-report"] = (bench / "summary.json").read_text()

    lint_target = root / "lintee" / "mod.py"
    lint_target.parent.mkdir()
    lint_target.write_text(LINT_FIXTURE)
    docs["lint-report"] = _cli(
        ["lint", str(lint_target), "--format", "json", "--statistics"]
    )
    docs["lint-sarif"] = _cli(["lint", str(lint_target), "--format", "sarif"])
    return docs


def _lines(document) -> list:
    return document if isinstance(document, list) else [document]


def _parse(document) -> list:
    """The JSON values of a document: one per line for JSONL."""
    return [json.loads(line) for line in _lines(document)]


# -- canonical bytes ------------------------------------------------------------------

#: The ``json.dump``/``json.dumps`` call in ``src/`` that writes each document.
CANONICAL_WRITERS = {
    "cache-entry": "repro.batch.cache.ResultCache.store",
    "store-header": "repro.trace.store.save_store",
    "run-log": "repro.obs.recorder.JsonlRecorder._emit",
    "parent-shard": "repro.obs.recorder.JsonlRecorder._emit (via ShardRecorder)",
    "worker-shard": "repro.obs.recorder.JsonlRecorder._emit (via ShardRecorder)",
    "obs-report": "repro.cli._cmd_obs",
    "timeline": "repro.cli._cmd_timeline",
    "bench-report": "repro.cli._cmd_benchreport",
    "sweep-json": "repro.cli._cmd_sweep",
    "lint-report": "repro.analysis.runner.LintReport.to_json",
    "lint-sarif": "repro.analysis.runner.LintReport.to_sarif",
    "task-result": "repro.batch.runner._execute_task (no shard)",
    "task-result-shard": "repro.batch.runner._execute_task (with a shard)",
}


@pytest.mark.parametrize("name", sorted(CANONICAL_WRITERS))
def test_every_object_is_written_with_sorted_keys(artifacts, name):
    def sorted_pairs(pairs):
        keys = [key for key, _value in pairs]
        assert keys == sorted(keys), (
            f"{name} (written by {CANONICAL_WRITERS[name]}) holds an object "
            f"whose keys are not sorted: {keys}"
        )
        return dict(pairs)

    lines = _lines(artifacts[name])
    assert lines and all(line.strip() for line in lines)
    for line in lines:
        json.loads(line, object_pairs_hook=sorted_pairs)


def _reinserted(value):
    """``value`` with every mapping's keys inserted in reverse order."""
    if isinstance(value, dict):
        return {key: _reinserted(value[key]) for key in reversed(list(value))}
    if isinstance(value, list):
        return [_reinserted(item) for item in value]
    return value


def test_store_header_digest_ignores_key_insertion_order(artifacts, tmp_path):
    header = json.loads(artifacts["store-header"])
    reordered = _reinserted(header)
    assert list(reordered) != sorted(reordered)
    store = tmp_path / "reordered.tstore"
    store.mkdir()
    (store / "header.json").write_text(json.dumps(reordered))
    # The reader re-derives header_digest from the parsed mapping; a digest
    # over unsorted JSON would reject this header as corrupted.
    assert read_store_header(store) == header


def test_config_fingerprint_ignores_key_insertion_order():
    config = FlowConfig(strategy_options={"window": 8, "refine_passes": 1})
    description = config.describe()
    reordered = _reinserted(description)
    assert list(reordered) != list(description)
    assert list(reordered["sram_model"]) != list(description["sram_model"])
    assert config_fingerprint(reordered) == config_fingerprint(description)


def _sorts_keys(call: ast.Call) -> bool:
    return any(
        keyword.arg == "sort_keys"
        and isinstance(keyword.value, ast.Constant)
        and keyword.value.value is True
        for keyword in call.keywords
    )


def test_every_json_writer_in_the_package_sorts_its_keys():
    # The artifacts above cover today's writers; this covers the next one.
    package = Path(repro.__file__).parent
    unsorted = [
        f"{path.relative_to(package)}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("dump", "dumps")
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "json"
        and not _sorts_keys(node)
    ]
    assert unsorted == [], f"json.dump(s) without sort_keys=True: {unsorted}"


# -- vocabulary next to version -------------------------------------------------------

#: Mappings keyed by data (benchmark names, store column names, rule ids,
#: profile measures, flow variant labels): only the keys inside their values
#: are the writer's.
DATA_KEYED = frozenset(
    {
        "benchmarks", "columns", "family_statistics", "profile_summary",
        "statistics", "variants",
    }
)

#: Values left out entirely: label attrs, free-form options, nested flow
#: results, and the run manifest (its own row below).
OPAQUE = frozenset(
    {"attrs", "data", "extra", "manifest", "result", "results", "strategy_options"}
)


def spelled_keys(value) -> set:
    """Every key the writer spells in ``value``, data-keyed mappings aside."""
    keys: set = set()
    if isinstance(value, dict):
        for key, item in value.items():
            keys.add(key)
            if key in OPAQUE:
                continue
            if key in DATA_KEYED and isinstance(item, dict):
                for nested in item.values():
                    keys |= spelled_keys(nested)
            else:
                keys |= spelled_keys(item)
    elif isinstance(value, list):
        for item in value:
            keys |= spelled_keys(item)
    return keys


_OBS_EVENT_KEYS = {
    "attrs", "data", "elapsed_seconds", "id", "kind", "name", "parent", "span",
    "status", "t_seconds", "v", "value",
}
_SHARD_FRAMING_KEYS = {
    "origin_seconds", "role", "shard_schema", "sweep", "t_wall_seconds", "task",
    "worker",
}

#: document → (its version constant, the value pinned here, the keys its
#: writer spells).  A failure on the keys asks whether the version must
#: bump; update the pinned value and the keys together.
VOCABULARY = {
    "cache-entry": (
        CACHE_SCHEMA_VERSION, 1,
        {"config_hash", "flow", "key", "result", "trace_digest", "v"},
    ),
    "store-header": (
        TRACE_STORE_SCHEMA_VERSION, 1,
        {
            "chunk_size", "columns", "dtype", "events", "header_digest", "name",
            "schema", "sha256", "trace_digest",
        },
    ),
    "run-log": (SCHEMA_VERSION, 1, _OBS_EVENT_KEYS),
    "run-manifest": (
        MANIFEST_SCHEMA_VERSION, 2,
        {
            "config_hash", "extra", "package_version", "platform",
            "python_version", "schema", "seed",
        },
    ),
    "parent-shard": (
        WORKER_SHARD_SCHEMA_VERSION, 1,
        {"attrs", "event", "kind", "v"} | _SHARD_FRAMING_KEYS,
    ),
    # A worker shard frames the obs events of the E1 flow it ran.
    "worker-shard": (
        WORKER_SHARD_SCHEMA_VERSION, 1, _OBS_EVENT_KEYS | _SHARD_FRAMING_KEYS,
    ),
    "obs-report": (
        OBS_REPORT_SCHEMA_VERSION, 2,
        {
            "attrs", "component", "component_sum_pj", "counters", "depth",
            "elapsed_seconds", "energy_pj", "exact", "generated_by", "manifest",
            "name", "reconciled", "reconciliation", "reported_total_pj", "schema",
            "spans", "stage", "stage_energy", "status", "value",
        },
    ),
    "timeline": (
        TIMELINE_SCHEMA_VERSION, 1,
        {
            "attrs", "busy_seconds", "cache", "cached", "component_sum_pj",
            "counters", "depth", "elapsed_seconds", "exact", "flow",
            "generated_by", "hits", "incomplete_blocks", "label",
            "mean_task_seconds", "metrics", "name", "queue_seconds",
            "reconciled", "reconciliation", "reported_total_pj", "retry_waves",
            "saved_seconds_estimate", "schema", "source", "span_seconds", "spans",
            "stage", "start_seconds", "status", "superseded_blocks", "sweep",
            "task", "tasks", "timeline", "utilization", "value", "worker",
            "workers",
        },
    ),
    "bench-report": (
        BENCH_REPORT_SCHEMA_VERSION, 2,
        {
            "benchmarks", "ci_high", "ci_low", "confidence", "count",
            "generated_by", "iqr", "jitter_p95", "jitter_p99", "median_ratio",
            "median_regressed", "p50", "p95", "p99", "p99_ratio", "samples",
            "schema", "tail_regressed",
        },
    ),
    "lint-report": (
        LINT_REPORT_SCHEMA_VERSION, 1,
        {
            "family_statistics", "files_scanned", "findings", "line", "message",
            "name", "path", "rule", "rules", "statistics", "version",
        },
    ),
    # No version constant: the golden flow corpus pins this payload.
    "flow-result": (
        None, None,
        {
            "accesses", "bank_access_counts", "bank_blocks", "bank_energy",
            "block_size", "config", "decoder_energy", "decoder_model", "e_array",
            "e_decode", "e_fixed", "e_per_bank_wire", "e_per_select_bit",
            "include_leakage", "label", "leakage_energy", "leakage_pw_per_bit",
            "max_banks", "num_banks", "partitioner",
            "partitioning_saving_vs_monolithic", "predicted_energy",
            "profile_summary", "round_pow2", "saving_vs_monolithic",
            "saving_vs_partitioned", "simulated", "sram_model", "strategy",
            "strategy_options", "total", "trace_name", "variants", "write_factor",
        },
    ),
}


def _vocabulary_values(artifacts, name) -> list:
    if name == "run-manifest":
        return [read_log(artifacts["run-log"]).manifest]
    if name == "flow-result":
        trace = TraceSpec.from_source(SOURCE).load()
        return [MemoryOptimizationFlow(FlowConfig(max_banks=2)).run(trace).to_dict()]
    return _parse(artifacts[name])


@pytest.mark.parametrize("name", sorted(VOCABULARY))
def test_vocabulary_sits_next_to_its_version(artifacts, name):
    constant, pinned, keys = VOCABULARY[name]
    assert constant == pinned, f"{name}: version constant {constant}, pinned {pinned}"
    values = _vocabulary_values(artifacts, name)
    spelled = set().union(*(spelled_keys(value) for value in values))
    assert spelled == keys, (
        f"{name} (version {constant}) gained {sorted(spelled - keys)} and lost "
        f"{sorted(keys - spelled)}: decide whether the version bumps, then "
        f"update this row"
    )


# -- fingerprint coverage -------------------------------------------------------------


def _flow_fingerprint(config: FlowConfig) -> str:
    return config_fingerprint(config.describe())


#: One other valid value per ``FlowConfig`` field that is not an energy model.
FLOW_CONFIG_CHANGES = {
    "block_size": 64,
    "max_banks": 4,
    "strategy": "frequency",
    "partitioner": "greedy",
    "round_pow2": True,
    "include_leakage": True,
    "strategy_options": {"window": 8},
}

@pytest.mark.parametrize("name", [item.name for item in fields(FlowConfig)])
def test_every_flow_config_field_moves_the_fingerprint(name):
    base = FlowConfig()
    model = getattr(base, name)
    if is_dataclass(model):  # an energy model: every one of its fields counts
        for item in fields(model):
            changed = replace(model, **{item.name: getattr(model, item.name) * 2 + 1})
            moved = replace(base, **{name: changed})
            assert _flow_fingerprint(moved) != _flow_fingerprint(base), (
                f"FlowConfig.{name}.{item.name}"
            )
        return
    changed = replace(base, **{name: FLOW_CONFIG_CHANGES[name]})
    assert _flow_fingerprint(changed) != _flow_fingerprint(base), f"FlowConfig.{name}"


def test_an_instantiated_strategy_fingerprints_by_its_class_name():
    # The documented exemption of FlowConfig.describe: a strategy instance's
    # options are not read, so two tunings of one class share a fingerprint.
    narrow = FlowConfig(strategy=AffinityClustering(window=8))
    wide = FlowConfig(strategy=AffinityClustering(window=32))
    assert narrow.describe()["strategy"] == "AffinityClustering"
    assert _flow_fingerprint(narrow) == _flow_fingerprint(wide)


def _inline(seed: int) -> TraceSpec:
    return TraceSpec.inline(HotColdGenerator(accesses=50, seed=seed).generate())


def _spec_fingerprint(spec: TraceSpec) -> str:
    return SweepTask.make("e1_clustering", spec).spec_fingerprint()


#: One other value per ``TraceSpec`` field, applied to ``_inline(1)``.  The
#: other events share the name ``hot_cold`` and the length.
TRACE_SPEC_CHANGES = {
    "kind": "file",
    "name": "other",
    "params": (("space", "instruction"),),
    "events": _inline(2).events,
}


@pytest.mark.parametrize("name", [item.name for item in fields(TraceSpec)])
def test_every_trace_spec_field_moves_the_spec_fingerprint(name):
    base = _inline(1)
    changed = replace(base, **{name: TRACE_SPEC_CHANGES[name]})
    assert len(changed.events) == len(base.events)
    assert _spec_fingerprint(changed) != _spec_fingerprint(base), f"TraceSpec.{name}"


#: One other value per ``SweepTask`` field.
SWEEP_TASK_CHANGES = {
    "flow": "e4_reconfig",
    "trace": TraceSpec.kernel("saxpy"),
    "config": (("max_banks", 4),),
}


@pytest.mark.parametrize("name", [item.name for item in fields(SweepTask)])
def test_every_sweep_task_field_moves_the_spec_fingerprint(name):
    base = SweepTask.make("e1_clustering", TraceSpec.kernel("fir"), {"max_banks": 2})
    changed = replace(base, **{name: SWEEP_TASK_CHANGES[name]})
    assert changed.spec_fingerprint() != base.spec_fingerprint(), f"SweepTask.{name}"


@pytest.mark.parametrize(
    ("spec", "fingerprint"),
    [
        (TraceSpec.kernel("fir"), "eef4079c57093158"),
        (TraceSpec.kernel("fir", space="instruction"), "089ebf6c31fbf5ef"),
        (TraceSpec.file("traces/app.npz"), "4c949ab8600ea681"),
        (TraceSpec.store("traces/app.tstore"), "aed8da18f98257e9"),
        (TraceSpec.synthetic("hot_cold", accesses=400, seed=1), "2c0b3528e644a77c"),
    ],
    ids=["kernel", "kernel-instruction", "file", "store", "synthetic"],
)
def test_specs_without_events_keep_their_fingerprints(spec, fingerprint):
    # Sweep ids and shard assignment of existing sweeps hang on these.
    task = SweepTask.make("e1_clustering", spec, {"max_banks": 2})
    assert task.spec_fingerprint() == fingerprint
