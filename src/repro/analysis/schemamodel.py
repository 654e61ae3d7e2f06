"""The persisted-schema registry: every on-disk artifact, declared as data.

The package persists several schema'd artifacts — result-cache entries,
JSONL run logs, run manifests, golden-corpus flow results, bench
reports, lint reports — and each one carries contracts the tests can
only probe dynamically: writers and readers must agree on the field set,
emission must be canonical (``sort_keys=True``), field-set changes must
bump the schema version, and fingerprint functions must cover every field
that influences results.  This module declares those contracts as data,
exactly like :data:`repro.analysis.imports.REPRO_LAYER_MODEL` declares the
layering diagram; :mod:`repro.analysis.serialization` then *proves* them
statically (the SER rule family).

Policy: editing this registry is the review trigger.  Adding a field to a
persisted payload forces an update of the matching :class:`SchemaSpec`
(and of ``tests/golden/schemas.json``), which puts the schema change —
and the version-bump question — in front of a reviewer in the same diff.
Every deliberate asymmetry (a key written for external consumers and never
read back, a label key only readers mention) is declared here with a
justification string, the registry's equivalent of a lint pragma.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "FingerprintSpec",
    "SchemaSpec",
    "SchemaModel",
    "REPRO_SCHEMA_MODEL",
]


@dataclass(frozen=True)
class FingerprintSpec:
    """One fingerprint function and the dataclass it must fully cover.

    ``function`` builds the mapping fed to
    :func:`repro.obs.manifest.config_fingerprint`; ``subject`` is the
    dataclass whose fields all must appear as keys of that mapping (or be
    listed in ``exempt`` with a justification).  A field missing from both
    is a cache-correctness bug: two configurations differing only in that
    field would collide on one cache key (rule ``SER004``).
    """

    name: str
    function: str
    subject: str
    #: ``(field_name, justification)`` pairs deliberately excluded from the
    #: fingerprint — each one is a reviewed decision, like a lint pragma.
    exempt: tuple = ()

    def exempt_names(self) -> frozenset:
        """The exempted field names (justifications stripped)."""
        return frozenset(name for name, _ in self.exempt)


@dataclass(frozen=True)
class SchemaSpec:
    """One persisted schema: its writer/reader pair and its pinned shape.

    Parameters
    ----------
    name:
        Stable registry key (also the key in ``tests/golden/schemas.json``).
    writers:
        Qualified names of the functions that *assemble* the persisted
        payload (``to_dict``/``to_record``/emit methods).  Dict keys they
        write are extracted by abstract interpretation.
    readers:
        Qualified names of the functions that consume the payload.  Empty
        when nothing in-package reads the artifact back — then
        ``external_reader`` must say who does, and the writer/reader drift
        rule (``SER001``) does not apply.
    persist:
        Functions that put the payload on a persisted path (the
        ``json.dump(s)`` call sites); together with ``writers`` these seed
        the canonical-emission reachability check (``SER002``).
    version_constant:
        Qualified name of the module-level schema-version constant, checked
        against ``version`` so a drifted pin is itself a finding.
    version:
        The pinned schema version (``SER003`` cross-checks the constant).
    fields:
        The pinned, sorted field vocabulary of the payload.  ``SER003``
        compares the extracted set against this pin: growing the payload
        without touching the registry (and the version question) is a
        finding.
    write_only:
        ``(key, justification)`` pairs written for external consumers and
        deliberately never read in-package.
    read_only:
        ``(key, justification)`` pairs readers accept for compatibility
        although no current writer emits them.
    label_keys:
        Sub-keys of label/attrs mappings that readers mention by name;
        they live *inside* a payload value, not at top level, so they are
        excluded from drift comparison in both directions.
    external_reader:
        Who consumes the artifact when ``readers`` is empty (CI, humans,
        the golden corpus) — documentation, and the justification for
        skipping ``SER001``.
    """

    name: str
    writers: tuple
    readers: tuple = ()
    persist: tuple = ()
    version_constant: str | None = None
    version: int | None = None
    fields: tuple = ()
    write_only: tuple = ()
    read_only: tuple = ()
    label_keys: tuple = ()
    external_reader: str | None = None

    def write_only_names(self) -> frozenset:
        """The write-only key names (justifications stripped)."""
        return frozenset(name for name, _ in self.write_only)

    def read_only_names(self) -> frozenset:
        """The read-only key names (justifications stripped)."""
        return frozenset(name for name, _ in self.read_only)


@dataclass(frozen=True)
class SchemaModel:
    """The full registry: persisted schemas plus fingerprint contracts."""

    schemas: tuple = ()
    fingerprints: tuple = ()

    def __post_init__(self) -> None:
        """Reject duplicate schema or fingerprint names at construction."""
        seen: set = set()
        for spec in (*self.schemas, *self.fingerprints):
            if spec.name in seen:
                raise ValueError(f"duplicate schema-model entry name {spec.name!r}")
            seen.add(spec.name)

    def schema(self, name: str) -> SchemaSpec:
        """Look up one schema spec by name."""
        for spec in self.schemas:
            if spec.name == name:
                return spec
        raise KeyError(f"no schema named {name!r} in the model")


#: The shipped registry.  One entry per persisted artifact; the pinned
#: ``fields`` tuples are regenerated by ``repro lint --schemas`` (and the
#: committed copy in ``tests/golden/schemas.json`` is the second pin).
REPRO_SCHEMA_MODEL = SchemaModel(
    schemas=(
        SchemaSpec(
            name="batch-cache-entry",
            writers=("repro.batch.cache.CacheEntry.to_record",),
            readers=("repro.batch.cache.ResultCache.load",),
            persist=("repro.batch.cache.ResultCache.store",),
            version_constant="repro.batch.cache.CACHE_SCHEMA_VERSION",
            version=1,
            fields=(
                "config_hash",
                "flow",
                "key",
                "result",
                "trace_digest",
                "v",
            ),
        ),
        SchemaSpec(
            name="trace-store",
            writers=("repro.trace.store.build_store_header",),
            readers=(
                "repro.trace.store.read_store_header",
                "repro.trace.store._validate_header",
                "repro.trace.store._open_columns",
                "repro.trace.store._verify_columns",
                "repro.trace.store.store_digest",
                "repro.trace.store.load_store",
                "repro.trace.store.open_store",
            ),
            persist=("repro.trace.store.save_store",),
            version_constant="repro.trace.store.TRACE_STORE_SCHEMA_VERSION",
            version=1,
            fields=(
                "chunk_size",
                "columns",
                "dtype",
                "events",
                "header_digest",
                "name",
                "schema",
                "sha256",
                "trace_digest",
            ),
        ),
        SchemaSpec(
            name="obs-jsonl",
            writers=(
                "repro.obs.recorder.JsonlRecorder.span_start",
                "repro.obs.recorder.JsonlRecorder.span_end",
                "repro.obs.recorder.JsonlRecorder.counter",
                "repro.obs.recorder.JsonlRecorder.record_manifest",
            ),
            readers=(
                "repro.obs.replay.read_log",
                "repro.obs.replay.ObsLog.spans",
                "repro.obs.replay.ObsLog.reconcile_energy",
                "repro.obs.counters.CounterRegistry.from_events",
            ),
            persist=("repro.obs.recorder.JsonlRecorder._emit",),
            version_constant="repro.obs.recorder.SCHEMA_VERSION",
            version=1,
            fields=(
                "attrs",
                "data",
                "elapsed_seconds",
                "id",
                "kind",
                "name",
                "parent",
                "span",
                "status",
                "t_seconds",
                "v",
                "value",
            ),
            write_only=(
                (
                    "t_seconds",
                    "absolute span timeline for external log viewers; replay "
                    "derives all timing views from elapsed_seconds",
                ),
                (
                    "span",
                    "counter-to-span attribution kept for external analysis; "
                    "replay aggregates counters by name and attrs only",
                ),
            ),
            label_keys=("component", "path", "stage"),
        ),
        SchemaSpec(
            name="obs-worker-shard",
            writers=(
                "repro.obs.shard.ShardRecorder.__init__",
                "repro.obs.shard.ShardRecorder._emit",
                "repro.obs.shard.ShardRecorder.begin_task",
                "repro.obs.shard.ShardRecorder.end_task",
                "repro.obs.shard.ShardRecorder.task_event",
            ),
            readers=(
                "repro.obs.replay.read_log",
                "repro.obs.merge._parse_shard",
                "repro.obs.merge.load_shards",
                "repro.obs.merge.MergedSweep.metrics",
            ),
            persist=("repro.obs.shard.ShardRecorder.flush",),
            version_constant="repro.obs.shard.WORKER_SHARD_SCHEMA_VERSION",
            version=1,
            fields=(
                "attrs",
                "event",
                "kind",
                "origin_seconds",
                "role",
                "shard_schema",
                "status",
                "sweep",
                "t_wall_seconds",
                "task",
                "v",
                "worker",
            ),
            read_only=(
                (
                    "data",
                    "manifest-event payload key in the shared obs-JSONL line "
                    "parser (read_log); shard recorders never emit manifests",
                ),
            ),
            label_keys=(
                "attempt",
                "elapsed_seconds",
                "flow",
                "label",
                "wave",
            ),
        ),
        SchemaSpec(
            name="obs-report",
            writers=("repro.obs.replay.ObsLog.to_report",),
            persist=("repro.cli._cmd_obs",),
            version_constant="repro.obs.replay.OBS_REPORT_SCHEMA_VERSION",
            version=2,
            fields=(
                "attrs",
                "component",
                "component_sum_pj",
                "counters",
                "depth",
                "elapsed_seconds",
                "energy_pj",
                "exact",
                "generated_by",
                "manifest",
                "name",
                "reconciled",
                "reconciliation",
                "reported_total_pj",
                "schema",
                "spans",
                "stage",
                "stage_energy",
                "status",
                "value",
            ),
            external_reader=(
                "CI asserts on the JSON document's reconciliation fields; "
                "in-package consumers hold the ObsLog object"
            ),
        ),
        SchemaSpec(
            name="sweep-timeline",
            writers=("repro.obs.timeline.build_timeline_payload",),
            persist=("repro.cli._cmd_timeline",),
            version_constant="repro.obs.timeline.TIMELINE_SCHEMA_VERSION",
            version=1,
            fields=(
                "busy_seconds",
                "cache",
                "cached",
                "component_sum_pj",
                "elapsed_seconds",
                "exact",
                "flow",
                "generated_by",
                "incomplete_blocks",
                "label",
                "metrics",
                "queue_seconds",
                "reconciled",
                "reconciliation",
                "reported_total_pj",
                "retry_waves",
                "schema",
                "source",
                "span_seconds",
                "spans",
                "stage",
                "start_seconds",
                "status",
                "superseded_blocks",
                "sweep",
                "task",
                "tasks",
                "timeline",
                "utilization",
                "worker",
                "workers",
            ),
            external_reader=(
                "the HTML Gantt renders the in-memory payload in the same "
                "process; the --json-out artifact is consumed by humans and "
                "CI artifact review, never parsed in-package"
            ),
        ),
        SchemaSpec(
            name="run-manifest",
            writers=("repro.obs.manifest.RunManifest.to_dict",),
            readers=("repro.obs.manifest.RunManifest.from_dict",),
            version_constant="repro.obs.manifest.MANIFEST_SCHEMA_VERSION",
            version=2,
            fields=(
                "config_hash",
                "extra",
                "package_version",
                "platform",
                "python_version",
                "schema",
                "seed",
            ),
        ),
        SchemaSpec(
            name="flow-result",
            writers=(
                "repro.core.pipeline.FlowResult.to_dict",
                "repro.core.pipeline.FlowVariant.to_dict",
                "repro.core.pipeline.FlowConfig.describe",
            ),
            version_constant="repro.core.pipeline.FLOW_RESULT_SCHEMA_VERSION",
            version=1,
            fields=(
                "accesses",
                "bank_access_counts",
                "bank_blocks",
                "bank_energy",
                "block_size",
                "config",
                "decoder_energy",
                "decoder_model",
                "e_array",
                "e_decode",
                "e_fixed",
                "e_per_bank_wire",
                "e_per_select_bit",
                "include_leakage",
                "label",
                "leakage_energy",
                "leakage_pw_per_bit",
                "max_banks",
                "num_banks",
                "partitioner",
                "partitioning_saving_vs_monolithic",
                "predicted_energy",
                "profile_summary",
                "round_pow2",
                "saving_vs_monolithic",
                "saving_vs_partitioned",
                "simulated",
                "sram_model",
                "strategy",
                "strategy_options",
                "total",
                "trace_name",
                "variants",
                "write_factor",
            ),
            external_reader=(
                "tests/golden flow corpus and the batch result cache; both "
                "compare payloads structurally rather than reading named keys"
            ),
        ),
        SchemaSpec(
            name="bench-report",
            writers=("repro.benchstats.report.build_report_payload",),
            persist=("repro.cli._cmd_benchreport",),
            version_constant=(
                "repro.benchstats.report.BENCH_REPORT_SCHEMA_VERSION"
            ),
            version=2,
            fields=(
                "benchmarks",
                "ci_high",
                "ci_low",
                "confidence",
                "count",
                "generated_by",
                "iqr",
                "jitter_p95",
                "jitter_p99",
                "median_ratio",
                "median_regressed",
                "p50",
                "p95",
                "p99",
                "p99_ratio",
                "samples",
                "schema",
                "tail_regressed",
            ),
            external_reader=(
                "the HTML report renders the in-memory payload in the same "
                "process; the JSON artifact uploaded by CI is consumed by "
                "humans and downstream dashboards, never parsed in-package"
            ),
        ),
        SchemaSpec(
            name="lint-report",
            writers=(
                "repro.analysis.runner.LintReport.to_json",
                "repro.analysis.rules.Finding.to_dict",
            ),
            persist=("repro.analysis.runner.LintReport.to_json",),
            version_constant="repro.analysis.runner.LINT_REPORT_SCHEMA_VERSION",
            version=1,
            fields=(
                "family_statistics",
                "files_scanned",
                "findings",
                "line",
                "message",
                "name",
                "path",
                "rule",
                "rules",
                "statistics",
                "version",
            ),
            external_reader=(
                "CI log scraping and downstream tooling consume the JSON "
                "report; in-package consumers hold the LintReport object"
            ),
        ),
    ),
    fingerprints=(
        FingerprintSpec(
            name="flow-config",
            function="repro.core.pipeline.FlowConfig.describe",
            subject="repro.core.pipeline.FlowConfig",
        ),
        FingerprintSpec(
            name="trace-spec",
            function="repro.batch.spec.TraceSpec.describe",
            subject="repro.batch.spec.TraceSpec",
        ),
        FingerprintSpec(
            name="sweep-task",
            function="repro.batch.spec.SweepTask.spec_fingerprint",
            subject="repro.batch.spec.SweepTask",
        ),
    ),
)
