"""The sweep-timeline document: merged shards shaped for rendering.

:func:`build_timeline_payload` turns a :class:`~repro.obs.merge.MergedSweep`
into the ``sweep-timeline`` JSON document (:data:`TIMELINE_SCHEMA_VERSION`)
that ``repro timeline`` persists next to its HTML and hands to the
renderer (:mod:`repro.benchstats.timeline` — a leaf module, so it
receives this plain mapping and never imports ``repro.obs``).

The document carries both faces of the merge: the execution view (worker
lanes, Gantt rows with wall-clock extents, queue latency, metrics,
reconciliation) and the canonical timeline under ``"timeline"`` — the
bit-identity artifact itself, so a persisted document doubles as a
determinism witness.  Worker identities are normalized to ``w0..wN``
(ordered by first task start, then source id) because raw worker ids are
pids — meaningless across runs; the source id is kept per lane.

All values are raw floats — formatting is the renderer's job.
"""

from __future__ import annotations

from .merge import MergedSweep
from .replay import reconciliation_failure

__all__ = ["TIMELINE_SCHEMA_VERSION", "build_timeline_payload"]

#: Version of the persisted ``sweep-timeline`` JSON document layout.
TIMELINE_SCHEMA_VERSION = 1


def _flame_rows(segment) -> list:
    """Per-span flame rows for one task block: name, depth, start, elapsed.

    Unclosed spans are omitted, as in :meth:`repro.obs.replay.ObsLog.spans`.
    """
    return [
        {
            "name": record.name,
            "depth": record.depth,
            "start_seconds": record.start_seconds,
            "elapsed_seconds": record.elapsed_seconds,
            "status": record.status,
        }
        for record in segment.log().spans()
    ]


def build_timeline_payload(merged: MergedSweep) -> dict:
    """Assemble the ``sweep-timeline`` document for ``merged``."""
    metrics = merged.metrics()

    first_start: dict = {}
    for _fingerprint, segment in merged.tasks:
        current = first_start.get(segment.worker)
        if current is None or segment.start_wall_seconds < current:
            first_start[segment.worker] = segment.start_wall_seconds
    worker_rows = [row for row in metrics["workers"]]
    worker_rows.sort(
        key=lambda row: (first_start.get(row["worker"], float("inf")), row["worker"])
    )
    lane_of = {row["worker"]: f"w{lane}" for lane, row in enumerate(worker_rows)}

    starts = [segment.start_wall_seconds for _fp, segment in merged.tasks]
    origin_seconds = min(starts) if starts else 0.0

    queue_of = {row["task"]: row["queue_seconds"] for row in metrics["queue"]}
    tasks: list = []
    for fingerprint, segment in merged.tasks:
        row = {
            "task": fingerprint,
            "label": str(segment.attrs.get("label", "")),
            "flow": str(segment.attrs.get("flow", "")),
            "worker": lane_of.get(segment.worker, segment.worker),
            "start_seconds": segment.start_wall_seconds - origin_seconds,
            "elapsed_seconds": segment.elapsed_wall_seconds,
            "status": segment.status,
            "spans": _flame_rows(segment),
        }
        if fingerprint in queue_of:
            row["queue_seconds"] = queue_of[fingerprint]
        tasks.append(row)

    cached = [
        {
            "task": str(event.get("task", "")),
            "label": str(event.get("attrs", {}).get("label", "")),
        }
        for event in merged.lifecycle
        if event.get("event") == "cache_hit"
    ]

    reconciliation = [
        {
            "task": fingerprint,
            "label": label,
            "stage": stage,
            "component_sum_pj": summed,
            "reported_total_pj": reported,
            "exact": exact,
        }
        for fingerprint, label, stage, summed, reported, exact in (
            merged.reconciliation()
        )
    ]

    workers = [
        {
            "worker": lane_of[row["worker"]],
            "source": row["worker"],
            "tasks": row["tasks"],
            "busy_seconds": row["busy_seconds"],
            "span_seconds": row["span_seconds"],
            "utilization": row["utilization"],
        }
        for row in worker_rows
    ]

    return {
        "schema": TIMELINE_SCHEMA_VERSION,
        "generated_by": "repro timeline",
        "sweep": merged.sweep_id,
        "workers": workers,
        "tasks": tasks,
        "cached": cached,
        "metrics": {
            "cache": metrics["cache"],
            "retry_waves": metrics["retry_waves"],
            "superseded_blocks": metrics["superseded_blocks"],
            "incomplete_blocks": metrics["incomplete_blocks"],
        },
        "reconciliation": reconciliation,
        "reconciled": reconciliation_failure(reconciliation, tasks) is None,
        "timeline": merged.canonical(),
    }
