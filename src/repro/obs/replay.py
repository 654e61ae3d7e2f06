"""Reading and aggregating JSONL run logs (the ``repro obs`` backend).

This module turns a recorded log back into answers: which stages ran and
how long each took (span tree), how the per-stage energy counters add
up, and whether those sums reconcile *exactly* with the flow's reported
totals.

It returns plain data (dataclasses, lists of rows); rendering belongs to
the CLI, which may use :mod:`repro.report` — a leaf this substrate package
must not import.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Union

from .counters import FLOW_TOTAL_PJ, STAGE_ENERGY_PJ, CounterRegistry
from .recorder import SCHEMA_VERSION

__all__ = ["OBS_REPORT_SCHEMA_VERSION", "SpanRecord", "ObsLog", "read_log"]

#: Version of the machine-readable ``repro obs --format json`` document.
OBS_REPORT_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class SpanRecord:
    """One completed span, reconstructed from its start/end event pair."""

    span_id: int
    name: str
    depth: int
    elapsed_seconds: float
    status: str
    attrs: dict = field(default_factory=dict)


@dataclass
class ObsLog:
    """A parsed run log: raw events plus derived views."""

    events: list[dict]
    manifest: dict | None = None

    def counters(self) -> CounterRegistry:
        """Aggregate every counter event, in log order."""
        return CounterRegistry.from_events(self.events)

    def spans(self) -> list[SpanRecord]:
        """Completed spans in start order, with nesting depth.

        Unclosed spans (a crashed run) are omitted; their children still
        appear if closed.  Start and end attrs are merged (end wins).
        """
        depth_of: dict[int, int] = {}
        start_of: dict[int, dict] = {}
        order: list[int] = []
        records: dict[int, SpanRecord] = {}
        for event in self.events:
            kind = event.get("kind")
            if kind == "span_start":
                parent = event.get("parent")
                depth_of[event["id"]] = depth_of.get(parent, -1) + 1 if parent else 0
                start_of[event["id"]] = event
                order.append(event["id"])
            elif kind == "span_end" and event["id"] in start_of:
                start = start_of[event["id"]]
                attrs = dict(start.get("attrs", {}))
                attrs.update(event.get("attrs", {}))
                records[event["id"]] = SpanRecord(
                    span_id=event["id"],
                    name=event["name"],
                    depth=depth_of[event["id"]],
                    elapsed_seconds=event["elapsed_seconds"],
                    status=event.get("status", "ok"),
                    attrs=attrs,
                )
        return [records[span_id] for span_id in order if span_id in records]

    def stage_energy_rows(self) -> list[tuple[str, str, float]]:
        """Per-stage energy contributions: ``(stage, component, pJ)`` rows."""
        rows: list[tuple[str, str, float]] = []
        for key, value in self.counters().series(STAGE_ENERGY_PJ).items():
            labels = dict(key)
            rows.append(
                (str(labels.get("stage", "?")), str(labels.get("component", "?")), value)
            )
        return rows

    def reconcile_energy(self) -> list[tuple[str, float, float, bool]]:
        """Check per-stage component sums against reported stage totals.

        Returns ``(stage, component_sum_pj, reported_total_pj, exact)``
        rows, one per stage that reported a total.  Component values are
        summed in recorded order, so an instrumented flow whose counters
        are complete reconciles *exactly* (``==``, not approximately) —
        the acceptance contract of the instrumentation layer.
        """
        components: dict[str, float] = {}
        for event in self.events:
            if event.get("kind") != "counter" or event.get("name") != STAGE_ENERGY_PJ:
                continue
            stage = str(event.get("attrs", {}).get("stage", "?"))
            components[stage] = components.get(stage, 0.0) + event["value"]
        rows: list[tuple[str, float, float, bool]] = []
        for key, reported in self.counters().series(FLOW_TOTAL_PJ).items():
            stage = str(dict(key).get("stage", "?"))
            summed = components.get(stage, 0.0)
            rows.append((stage, summed, reported, summed == reported))
        return rows

    def to_report(self) -> dict:
        """The machine-readable ``obs-report`` document for this log.

        Everything ``repro obs`` renders as tables, as one JSON-ready dict
        (:data:`OBS_REPORT_SCHEMA_VERSION`): the manifest, the span tree,
        counter totals, per-stage energy, and the exact reconciliation
        verdicts — so CI asserts on fields instead of scraping table text.
        Values stay full-precision floats.
        """
        registry = self.counters()
        counters = [
            {"name": name, "attrs": dict(key), "value": value}
            for name in registry.names()
            for key, value in registry.series(name).items()
        ]
        reconciliation = [
            {
                "stage": stage,
                "component_sum_pj": summed,
                "reported_total_pj": reported,
                "exact": exact,
            }
            for stage, summed, reported, exact in self.reconcile_energy()
        ]
        return {
            "schema": OBS_REPORT_SCHEMA_VERSION,
            "generated_by": "repro obs",
            "manifest": self.manifest,
            "spans": [
                {
                    "name": record.name,
                    "depth": record.depth,
                    "elapsed_seconds": record.elapsed_seconds,
                    "status": record.status,
                    "attrs": record.attrs,
                }
                for record in self.spans()
            ],
            "counters": counters,
            "stage_energy": [
                {"stage": stage, "component": component, "energy_pj": value}
                for stage, component, value in self.stage_energy_rows()
            ],
            "reconciliation": reconciliation,
            "reconciled": all(row["exact"] for row in reconciliation),
        }


def read_log(source: Union[str, Path, IO[str], Iterable[str]]) -> ObsLog:
    """Parse a JSONL run log from a path, open file, or iterable of lines.

    Every line must be a JSON object carrying ``"v"``; a version newer
    than :data:`~repro.obs.recorder.SCHEMA_VERSION` is rejected rather
    than misread.  The last ``manifest`` event (normally the only one)
    populates :attr:`ObsLog.manifest`.
    """
    if isinstance(source, (str, Path)):
        with Path(source).open("r", encoding="utf-8") as stream:
            lines = stream.readlines()
    else:
        lines = list(source)
    events: list[dict] = []
    manifest: dict | None = None
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError(f"line {number} is not valid JSON: {error.msg}") from None
        version = event.get("v")
        if not isinstance(version, int) or version > SCHEMA_VERSION:
            raise ValueError(
                f"line {number} has unsupported schema version {version!r} "
                f"(this reader understands <= {SCHEMA_VERSION})"
            )
        if event.get("kind") == "manifest":
            manifest = event.get("data")
        events.append(event)
    return ObsLog(events=events, manifest=manifest)
