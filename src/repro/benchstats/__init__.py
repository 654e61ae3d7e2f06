"""Distribution-aware benchmark statistics (the ``benchstats`` leaf).

The statistics layer under the benchmark pipeline: percentile summaries
and seeded bootstrap confidence intervals (:mod:`~repro.benchstats.stats`),
the CI-overlap + tail regression gate (:mod:`~repro.benchstats.gate`),
the reader that turns pytest-benchmark exports into one sample per run
(:mod:`~repro.benchstats.runs`), and the zero-dependency HTML perf report
(:mod:`~repro.benchstats.report`).

A *leaf* package in the layer model: it imports nothing from the rest of
the package, so both the standalone CI gate (``benchmarks/compare.py``)
and the top-layer CLI (``repro benchreport``) can build on it without
creating cycles.
"""

from __future__ import annotations

from .gate import (
    BenchComparison,
    GateConfig,
    compare_runs,
    evaluate_benchmark,
)
from .report import (
    BENCH_REPORT_SCHEMA_VERSION,
    build_report_payload,
    render_html,
)
from .runs import BenchRun, load_runs
from .stats import (
    DistributionSummary,
    RatioCI,
    bootstrap_median_ci,
    bootstrap_median_ratio_ci,
    median,
    percentile,
    summarize,
)
from .svg import BASE_STYLE, fmt, scale
from .timeline import render_timeline_html

__all__ = [
    "BENCH_REPORT_SCHEMA_VERSION",
    "BenchComparison",
    "BenchRun",
    "DistributionSummary",
    "GateConfig",
    "RatioCI",
    "bootstrap_median_ci",
    "bootstrap_median_ratio_ci",
    "build_report_payload",
    "compare_runs",
    "evaluate_benchmark",
    "load_runs",
    "median",
    "percentile",
    "render_html",
    "render_timeline_html",
    "summarize",
    "BASE_STYLE",
    "fmt",
    "scale",
]
