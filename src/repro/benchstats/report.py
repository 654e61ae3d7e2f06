"""Zero-dependency static HTML perf report with inline SVG strips.

Renders the runs of a change (plus optional base runs and gate verdicts,
plus optional ``repro.obs`` per-stage timing/energy sections)
into one self-contained HTML file: no JavaScript, no external assets,
inline SVG distribution strips per benchmark, and full data tables so
every number shown in a mark is also readable as text.

The machine-readable side is :func:`build_report_payload` — the
registered writer of the ``bench-report`` schema — which the CLI can dump
next to the HTML as a CI artifact.  Payload values stay full-precision
floats; all formatting happens here, at render time.
"""

from __future__ import annotations

import html
from typing import Iterable, Mapping, Sequence

from .gate import BenchComparison
from .runs import BenchRun
from .stats import summarize
from .svg import BASE_STYLE, fmt, scale

__all__ = [
    "BENCH_REPORT_SCHEMA_VERSION",
    "build_report_payload",
    "render_html",
]

#: Version of the ``bench-report`` JSON payload layout (the machine-
#: readable summary written next to the HTML report).  v2 samples are
#: per-run medians in seconds; v1 carried suite-normalized samples.
BENCH_REPORT_SCHEMA_VERSION = 2


def build_report_payload(
    run: BenchRun,
    comparisons: Sequence[BenchComparison] = (),
) -> dict:
    """Assemble the machine-readable report document for ``run``.

    One entry per benchmark: the distribution summary of its samples
    (one median in seconds per run), plus — when a gate comparison exists
    for it — the median/p99 ratios, the bootstrap interval, and both
    verdicts.
    """
    verdicts = {comparison.name: comparison for comparison in comparisons}
    benchmarks: dict = {}
    for name in run.names():
        samples = run.samples[name]
        summary = summarize(samples)
        entry: dict = {
            "samples": list(samples),
            "count": summary.count,
            "p50": summary.p50,
            "p95": summary.p95,
            "p99": summary.p99,
            "iqr": summary.iqr,
            "jitter_p95": summary.jitter_p95,
            "jitter_p99": summary.jitter_p99,
        }
        comparison = verdicts.get(name)
        if comparison is not None:
            entry["median_ratio"] = comparison.median_ratio
            entry["p99_ratio"] = comparison.p99_ratio
            entry["median_regressed"] = comparison.median_regressed
            entry["tail_regressed"] = comparison.tail_regressed
            entry["ci_low"] = comparison.ci.low
            entry["ci_high"] = comparison.ci.high
            entry["confidence"] = comparison.ci.confidence
        benchmarks[name] = entry
    return {
        "schema": BENCH_REPORT_SCHEMA_VERSION,
        "generated_by": "repro benchreport",
        "benchmarks": benchmarks,
    }


# -- rendering --------------------------------------------------------------------
# The stylesheet and the fmt/scale helpers live in .svg, shared with the
# sweep-timeline renderer.


def _series_strip(
    x_of,
    samples: Sequence[float],
    y_center: float,
    color_var: str,
    label: str,
) -> list:
    """SVG fragments for one series row of a distribution strip."""
    summary = summarize(samples)
    parts = [
        f'<text x="0" y="{y_center + 4:.0f}">{html.escape(label)}</text>'
    ]
    for value in samples:
        x = 90 + x_of(value)
        parts.append(
            f'<rect x="{x - 1:.1f}" y="{y_center - 7:.0f}" width="2" '
            f'height="14" fill="var({color_var})" opacity="0.4">'
            f"<title>{html.escape(label)} sample: {fmt(value)}</title></rect>"
        )
    for tag, value, dash in (
        ("p95", summary.p95, ""),
        ("p99", summary.p99, ' stroke-dasharray="3 2"'),
    ):
        x = 90 + x_of(value)
        parts.append(
            f'<line x1="{x:.1f}" y1="{y_center - 10:.0f}" x2="{x:.1f}" '
            f'y2="{y_center + 10:.0f}" stroke="var({color_var})" '
            f'stroke-width="2"{dash}>'
            f"<title>{html.escape(label)} {tag}: {fmt(value)}</title></line>"
        )
    x = 90 + x_of(summary.p50)
    parts.append(
        f'<circle cx="{x:.1f}" cy="{y_center:.0f}" r="4.5" '
        f'fill="var({color_var})" stroke="var(--surface-1)" stroke-width="2">'
        f"<title>{html.escape(label)} p50: {fmt(summary.p50)}</title></circle>"
    )
    return parts


def _benchmark_strip(
    name: str,
    candidate_samples: Sequence[float],
    baseline_samples: Sequence[float] = (),
) -> str:
    """One inline-SVG distribution strip (baseline row + candidate row)."""
    pooled = list(candidate_samples) + list(baseline_samples)
    lo, hi = min(pooled), max(pooled)
    pad = (hi - lo) * 0.04 or abs(hi) * 0.04 or 0.5
    lo, hi = lo - pad, hi + pad
    width = 540.0
    x_of = scale(lo, hi, width)
    rows: list = []
    height = 64 if baseline_samples else 42
    if baseline_samples:
        rows += _series_strip(x_of, baseline_samples, 16, "--series-base", "baseline")
        rows += _series_strip(x_of, candidate_samples, 42, "--series-cand", "candidate")
        axis_y = 58
    else:
        rows += _series_strip(x_of, candidate_samples, 16, "--series-cand", "candidate")
        axis_y = 36
    rows.append(
        f'<line x1="90" y1="{axis_y - 6}" x2="{90 + width:.0f}" '
        f'y2="{axis_y - 6}" stroke="var(--grid)" stroke-width="1"/>'
    )
    rows.append(f'<text x="90" y="{axis_y + 6}">{fmt(lo)}</text>')
    rows.append(
        f'<text x="{90 + width:.0f}" y="{axis_y + 6}" '
        f'text-anchor="end">{fmt(hi)}</text>'
    )
    return (
        f'<div class="strip" role="img" aria-label="latency distribution of '
        f'{html.escape(name)}">'
        f'<svg width="{90 + width + 10:.0f}" height="{height + 14}" '
        f'viewBox="0 0 {90 + width + 10:.0f} {height + 14}">'
        + "".join(rows)
        + "</svg></div>"
    )


def _verdict_badge(entry: Mapping) -> str:
    if "median_ratio" not in entry:
        return '<span class="badge">–</span>'
    if entry.get("median_regressed") or entry.get("tail_regressed"):
        return '<span class="badge fail">✗ regressed</span>'
    return '<span class="badge pass">✓ pass</span>'


def _benchmark_table(payload: Mapping) -> str:
    header = (
        "<tr><th>benchmark</th><th class=num>n</th><th class=num>p50</th>"
        "<th class=num>p95</th><th class=num>p99</th><th class=num>IQR</th>"
        "<th class=num>jitter p99−p50</th><th class=num>median ratio</th>"
        "<th class=num>ratio CI</th><th>verdict</th></tr>"
    )
    rows = []
    for name in sorted(payload["benchmarks"]):
        entry = payload["benchmarks"][name]
        ratio = (
            f"{entry['median_ratio']:.3f}" if "median_ratio" in entry else "–"
        )
        ci = (
            f"[{entry['ci_low']:.3f}, {entry['ci_high']:.3f}]"
            if "ci_low" in entry
            else "–"
        )
        rows.append(
            f"<tr><td>{html.escape(name)}</td>"
            f"<td class=num>{entry['count']}</td>"
            f"<td class=num>{fmt(entry['p50'])}</td>"
            f"<td class=num>{fmt(entry['p95'])}</td>"
            f"<td class=num>{fmt(entry['p99'])}</td>"
            f"<td class=num>{fmt(entry['iqr'])}</td>"
            f"<td class=num>{fmt(entry['jitter_p99'])}</td>"
            f"<td class=num>{ratio}</td><td class=num>{ci}</td>"
            f"<td>{_verdict_badge(entry)}</td></tr>"
        )
    return f"<table>{header}{''.join(rows)}</table>"


def _obs_section(section: Mapping) -> str:
    """Per-stage wall-time and energy tables for one obs JSONL log."""
    parts = [f"<h3>run log: {html.escape(str(section.get('label', '?')))}</h3>"]
    stages = section.get("stages") or []
    if stages:
        total_seconds = sum(row["elapsed_seconds"] for row in stages if row["depth"] == 0)
        header = (
            "<tr><th>stage</th><th class=num>time (ms)</th>"
            "<th>share of run</th><th>status</th></tr>"
        )
        rows = []
        for row in stages:
            share = (
                row["elapsed_seconds"] / total_seconds if total_seconds > 0 else 0.0
            )
            indent = "&nbsp;&nbsp;" * row["depth"]
            rows.append(
                f"<tr><td>{indent}{html.escape(row['name'])}</td>"
                f"<td class=num>{row['elapsed_seconds'] * 1e3:.3f}</td>"
                f'<td><div class="bar-track" style="width:160px">'
                f'<div class="bar-fill" style="width:{share * 160:.0f}px">'
                f"</div></div></td>"
                f"<td>{html.escape(row['status'])}</td></tr>"
            )
        parts.append(f"<table>{header}{''.join(rows)}</table>")
    energy = section.get("energy") or []
    if energy:
        header = (
            "<tr><th>stage</th><th>component</th><th class=num>energy (pJ)</th></tr>"
        )
        rows = [
            f"<tr><td>{html.escape(stage)}</td><td>{html.escape(component)}</td>"
            f"<td class=num>{value:.3f}</td></tr>"
            for stage, component, value in energy
        ]
        parts.append(f"<table>{header}{''.join(rows)}</table>")
    return "".join(parts)


def render_html(
    payload: Mapping,
    baseline: "BenchRun | None" = None,
    obs_sections: Iterable[Mapping] = (),
    title: str = "Benchmark report",
) -> str:
    """Render the full report document as a standalone HTML string.

    ``payload`` is the :func:`build_report_payload` document; ``baseline``
    (the base runs) supplies the second series of each strip; each obs
    section is a mapping with ``label``, ``stages`` (rows with ``name``,
    ``depth``, ``elapsed_seconds``, ``status``) and ``energy``
    (``(stage, component, pj)`` tuples), pre-parsed by the caller so this
    module stays free of ``repro.obs`` imports.
    """
    benchmarks = payload["benchmarks"]
    gated = [e for e in benchmarks.values() if "median_ratio" in e]
    failed = [
        e for e in gated if e.get("median_regressed") or e.get("tail_regressed")
    ]
    summary_line = (
        f"{len(benchmarks)} benchmarks; {len(gated)} gated against the "
        f"base runs, {len(failed)} regressed"
        if gated
        else f"{len(benchmarks)} benchmarks (no baseline comparison)"
    )
    parts = [
        "<!DOCTYPE html><html lang=\"en\"><head><meta charset=\"utf-8\">",
        f"<title>{html.escape(title)}</title>",
        f"<style>{BASE_STYLE}</style></head><body>",
        f"<h1>{html.escape(title)}</h1>",
        f'<p class="meta">{summary_line}. Each sample is the median of one '
        "run, in seconds; the gate compares bootstrap confidence intervals on "
        "the median ratio, with a separate looser p99 tail gate "
        "(Kalibera &amp; Jones, ISMM 2013).</p>",
    ]
    parts.append("<h2>Distribution summary</h2>")
    parts.append(_benchmark_table(payload))
    parts.append("<h2>Distribution strips</h2>")
    if baseline is not None:
        parts.append(
            '<div class="legend">'
            '<span><span class="swatch" style="background:var(--series-base)">'
            "</span>baseline</span>"
            '<span><span class="swatch" style="background:var(--series-cand)">'
            "</span>candidate</span>"
            "<span>ticks: samples · dot: p50 · line: p95 · dashed: p99</span>"
            "</div>"
        )
    else:
        parts.append(
            '<div class="legend">'
            "<span>ticks: samples · dot: p50 · line: p95 · dashed: p99</span>"
            "</div>"
        )
    for name in sorted(benchmarks):
        entry = benchmarks[name]
        baseline_samples: Sequence[float] = ()
        if baseline is not None:
            baseline_samples = baseline.samples.get(name, ())
        parts.append(f"<h3>{html.escape(name)} {_verdict_badge(entry)}</h3>")
        parts.append(_benchmark_strip(name, entry["samples"], baseline_samples))
    obs_sections = list(obs_sections)
    if obs_sections:
        parts.append("<h2>Per-stage timings (obs run logs)</h2>")
        for section in obs_sections:
            parts.append(_obs_section(section))
    parts.append("</body></html>")
    return "".join(parts)
