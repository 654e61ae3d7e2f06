"""Observability: structured instrumentation for the reproduction pipelines.

Every headline number the package regenerates comes out of a multi-stage
pipeline (trace → profile → cluster → partition → playback).  This package
makes those stages *accountable*: where the wall-clock time went, and how
the per-stage energy contributions add up to the reported totals.

Design constraints, in order:

1. **Zero overhead when off.**  Instrumented code reads the one active
   recorder (:func:`current_recorder`; :func:`recording` sets it for a
   block), whose default is a shared no-op :class:`NullRecorder`.  Hot
   paths guard every emission with a single ``recorder.enabled`` check per
   call and never emit per-event — counters are flushed once per playback
   call from totals the simulation computes anyway.
2. **Recording never changes results.**  Instrumentation reads the numbers
   the engines produce; it does not participate in producing them.  The
   test suite asserts bit-identical energy reports with recording on/off.
3. **Determinism stays machine-checkable.**  Span timing goes through an
   injected :class:`~repro.obs.clock.Clock`; the only wall-clock read in
   the package lives in :mod:`repro.obs.clock` behind a lint pragma, and
   deterministic clocks make recorded logs reproducible in tests.
4. **Nothing above the substrate.**  ``obs`` imports only the standard
   library; the layer model (``REPRO_LAYER_MODEL``) pins it to the
   substrate so the linter rejects any future upward import.

See ARCHITECTURE.md "Observability" for the span taxonomy and the JSONL
schema (v1).
"""

from .clock import Clock, TickClock, WallClock
from .counters import CounterRegistry, attrs_key
from .manifest import RunManifest, collect_manifest, config_fingerprint
from .merge import MergedSweep, ShardLog, TaskSegment, load_merged, load_shards, merge_shards
from .recorder import SCHEMA_VERSION, JsonlRecorder, NullRecorder, Recorder
from .replay import (
    OBS_REPORT_SCHEMA_VERSION,
    ObsLog,
    SpanRecord,
    read_log,
    reconciliation_failure,
)
from .shard import WORKER_SHARD_SCHEMA_VERSION, ShardRecorder
from .spans import current_recorder, recording, span
from .timeline import TIMELINE_SCHEMA_VERSION, build_timeline_payload

__all__ = [
    "Clock",
    "WallClock",
    "TickClock",
    "Recorder",
    "NullRecorder",
    "JsonlRecorder",
    "SCHEMA_VERSION",
    "span",
    "recording",
    "current_recorder",
    "CounterRegistry",
    "attrs_key",
    "RunManifest",
    "collect_manifest",
    "config_fingerprint",
    "ObsLog",
    "SpanRecord",
    "read_log",
    "reconciliation_failure",
    "OBS_REPORT_SCHEMA_VERSION",
    "WORKER_SHARD_SCHEMA_VERSION",
    "TIMELINE_SCHEMA_VERSION",
    "ShardRecorder",
    "ShardLog",
    "TaskSegment",
    "MergedSweep",
    "load_shards",
    "merge_shards",
    "load_merged",
    "build_timeline_payload",
]
