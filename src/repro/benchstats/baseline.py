"""The committed benchmark baseline: schema v2 with per-iteration samples.

A v2 baseline document stores, per benchmark, the raw median in seconds
*and* the suite-normalized per-iteration samples the CI-overlap gate
resamples.  Suite normalization (divide by the run's suite median — the
median of the per-benchmark medians) is what makes samples comparable
across machines: each benchmark is measured as a share of its own suite.

The document
------------
``{"schema": 2, "suite_median_seconds": s, "benchmarks": {name:
{"median_seconds": m, "samples": [...]}}}`` plus the optional environment
``manifest`` and a human-facing ``note``.  :func:`parse_baseline` reads
schema 2 only; any other document (the median-only v1 layout had no
``schema`` key) is rejected with the refresh command,
``compare.py <run.json> --update-baseline``.

The payload shape is registered in
:data:`repro.analysis.schemamodel.REPRO_SCHEMA_MODEL` (schema
``bench-baseline``); growing it without bumping
:data:`BENCH_BASELINE_SCHEMA_VERSION` is a SER003 finding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .stats import median

__all__ = [
    "BENCH_BASELINE_SCHEMA_VERSION",
    "BenchRecord",
    "BenchRun",
    "extract_run",
    "parse_baseline",
    "build_baseline_payload",
    "save_baseline",
]

#: Version of the committed ``benchmarks/baseline.json`` document.  v1 was
#: the median-only layout (no ``schema`` key); v2 adds suite-normalized
#: per-iteration samples for the CI-overlap gate and is the only one read.
BENCH_BASELINE_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark's measurements within one run.

    ``samples`` are suite-normalized per-iteration times (dimensionless
    shares of the suite median); ``median_seconds`` keeps the raw median
    for the report and for humans.
    """

    name: str
    median_seconds: float
    samples: tuple


@dataclass(frozen=True)
class BenchRun:
    """A full benchmark run (or committed baseline) in normalized form."""

    records: Mapping[str, BenchRecord]
    suite_median_seconds: float
    manifest: "dict | None" = None

    def names(self) -> list:
        """Sorted benchmark names present in this run."""
        return sorted(self.records)


def _suite_median_seconds(medians: Mapping[str, float]) -> float:
    """The suite median: median of the per-benchmark raw medians."""
    if not medians:
        return 0.0
    return median(list(medians.values()))


def extract_run(data: dict) -> BenchRun:
    """Build a :class:`BenchRun` from a pytest-benchmark JSON export.

    Uses each benchmark's raw per-iteration data when the export carries
    it (``--benchmark-save-data``); otherwise falls back to the single
    median, which the gate judges by its median fallback threshold.  All
    samples are normalized by the run's suite median.
    """
    raw_samples: dict = {}
    medians: dict = {}
    for entry in data.get("benchmarks", []):
        name = entry.get("fullname") or entry["name"]
        stats = entry["stats"]
        medians[name] = float(stats["median"])
        data_points = stats.get("data")
        if data_points:
            raw_samples[name] = [float(value) for value in data_points]
        else:
            raw_samples[name] = [medians[name]]
    suite_median = _suite_median_seconds(medians)
    scale = suite_median if suite_median > 0.0 else 1.0
    records = {
        name: BenchRecord(
            name=name,
            median_seconds=medians[name],
            samples=tuple(value / scale for value in raw_samples[name]),
        )
        for name in medians
    }
    manifest = data.get("manifest")
    return BenchRun(
        records=records,
        suite_median_seconds=suite_median,
        manifest=manifest if isinstance(manifest, dict) else None,
    )


def parse_baseline(data: dict) -> BenchRun:
    """Parse a committed schema-v2 baseline document.

    Any other schema raises a ``ValueError`` naming it and the refresh
    command rather than being misread; a document without a ``schema`` key
    is the median-only v1 layout.  A benchmark stored without samples gets
    its suite-normalized median as its one sample.
    """
    schema = data.get("schema", 1)
    if schema != BENCH_BASELINE_SCHEMA_VERSION:
        raise ValueError(
            f"baseline schema {schema!r} is unsupported (this reader "
            f"understands schema {BENCH_BASELINE_SCHEMA_VERSION} only); "
            f"regenerate it with `python benchmarks/compare.py <run.json> "
            f"--update-baseline`"
        )
    manifest = data.get("manifest")
    suite_median = float(data["suite_median_seconds"])
    scale = suite_median if suite_median > 0.0 else 1.0
    records = {}
    for name, entry in data["benchmarks"].items():
        median_seconds = float(entry["median_seconds"])
        samples = tuple(float(value) for value in entry.get("samples") or ())
        records[name] = BenchRecord(
            name=name,
            median_seconds=median_seconds,
            samples=samples or (median_seconds / scale,),
        )
    return BenchRun(
        records=records,
        suite_median_seconds=suite_median,
        manifest=manifest if isinstance(manifest, dict) else None,
    )


def build_baseline_payload(run: BenchRun, note: str | None = None) -> dict:
    """Assemble the persisted v2 baseline document for ``run``.

    This is the registered writer of the ``bench-baseline`` schema: every
    key of the persisted payload is emitted here, at full float precision
    (formatting belongs to render time).
    """
    payload: dict = {
        "schema": BENCH_BASELINE_SCHEMA_VERSION,
        "note": note
        or (
            "Committed benchmark baseline (schema v2: suite-normalized "
            "per-iteration samples); regenerate with "
            "`python benchmarks/compare.py <run.json> --update-baseline`."
        ),
        "suite_median_seconds": run.suite_median_seconds,
        "benchmarks": {
            name: {
                "median_seconds": record.median_seconds,
                "samples": list(record.samples),
            }
            for name, record in sorted(run.records.items())
        },
    }
    if run.manifest is not None:
        payload["manifest"] = run.manifest
    return payload


def save_baseline(payload: dict, path: Path) -> None:
    """Persist a baseline document canonically (sorted keys, trailing \\n)."""
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
