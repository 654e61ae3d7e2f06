"""Zero-dependency HTML rendering of a sweep timeline.

Renders the ``sweep-timeline`` document (built by
:mod:`repro.obs.timeline` and passed in as a plain mapping — this is a
leaf module and imports nothing from the rest of the package) into one
self-contained HTML file: a workers × tasks Gantt chart, a per-task stage
flamegraph behind a ``<details>`` disclosure, the derived sweep metrics,
and the energy-reconciliation table with pass/fail badges.  Everything is
inline SVG on the shared light/dark substrate (:mod:`.svg`); every number
drawn in a mark is also readable as text or a tooltip.
"""

from __future__ import annotations

import html
from typing import Mapping

from .svg import BASE_STYLE, fmt, scale

__all__ = ["render_timeline_html"]

#: Extra styles for the Gantt/flame layout, appended to the shared base.
_TIMELINE_STYLE = """
details { margin: 0.4rem 0; }
details summary { cursor: pointer; color: var(--text-secondary); }
.lane-label { font-weight: 600; }
"""

_LANE_HEIGHT = 26
_CHART_WIDTH = 560.0
_LABEL_WIDTH = 90


def _bar_color(status: str) -> str:
    return "var(--status-bad)" if status != "ok" else "var(--series-base)"


def _gantt(payload: Mapping) -> str:
    """The workers × tasks Gantt chart as one inline SVG."""
    workers = payload["workers"]
    tasks = payload["tasks"]
    if not workers or not tasks:
        return '<p class="meta">no executed tasks to chart</p>'
    lane_y = {
        row["worker"]: index * _LANE_HEIGHT + 18 for index, row in enumerate(workers)
    }
    hi = max(task["start_seconds"] + task["elapsed_seconds"] for task in tasks)
    x_of = scale(0.0, hi or 1.0, _CHART_WIDTH)
    height = len(workers) * _LANE_HEIGHT + 34
    parts = [
        f'<div class="strip" role="img" aria-label="sweep Gantt chart">'
        f'<svg width="{_LABEL_WIDTH + _CHART_WIDTH + 10:.0f}" height="{height}" '
        f'viewBox="0 0 {_LABEL_WIDTH + _CHART_WIDTH + 10:.0f} {height}">'
    ]
    for row in workers:
        y = lane_y[row["worker"]]
        parts.append(
            f'<text x="0" y="{y + 4}" class="lane-label">'
            f"{html.escape(row['worker'])}</text>"
        )
        parts.append(
            f'<line x1="{_LABEL_WIDTH}" y1="{y}" '
            f'x2="{_LABEL_WIDTH + _CHART_WIDTH:.0f}" y2="{y}" '
            f'stroke="var(--grid)" stroke-width="1"/>'
        )
    for task in tasks:
        y = lane_y.get(task["worker"])
        if y is None:
            continue
        x = _LABEL_WIDTH + x_of(task["start_seconds"])
        width = max(x_of(task["start_seconds"] + task["elapsed_seconds"])
                    - x_of(task["start_seconds"]), 2.0)
        tip = (
            f"{task['label']} · {fmt(task['elapsed_seconds'])}s"
            + (
                f" · queued {fmt(task['queue_seconds'])}s"
                if "queue_seconds" in task
                else ""
            )
            + (f" · {task['status']}" if task["status"] != "ok" else "")
        )
        parts.append(
            f'<rect x="{x:.1f}" y="{y - 8}" width="{width:.1f}" height="16" '
            f'rx="2" fill="{_bar_color(task["status"])}" opacity="0.85">'
            f"<title>{html.escape(tip)}</title></rect>"
        )
    axis_y = len(workers) * _LANE_HEIGHT + 16
    parts.append(
        f'<line x1="{_LABEL_WIDTH}" y1="{axis_y}" '
        f'x2="{_LABEL_WIDTH + _CHART_WIDTH:.0f}" y2="{axis_y}" '
        f'stroke="var(--grid)" stroke-width="1"/>'
    )
    parts.append(f'<text x="{_LABEL_WIDTH}" y="{axis_y + 14}">0 s</text>')
    parts.append(
        f'<text x="{_LABEL_WIDTH + _CHART_WIDTH:.0f}" y="{axis_y + 14}" '
        f'text-anchor="end">{fmt(hi)} s</text>'
    )
    parts.append("</svg></div>")
    return "".join(parts)


def _flamegraph(task: Mapping) -> str:
    """One task's stage flamegraph: span rows stacked by depth."""
    spans = task.get("spans") or []
    if not spans:
        return '<p class="meta">no spans recorded</p>'
    hi = max(row["start_seconds"] + row["elapsed_seconds"] for row in spans)
    x_of = scale(0.0, hi or 1.0, _CHART_WIDTH)
    depth_max = max(row["depth"] for row in spans)
    height = (depth_max + 1) * 20 + 24
    parts = [
        f'<div class="strip" role="img" aria-label="stage flamegraph of '
        f'{html.escape(task["label"])}">'
        f'<svg width="{_CHART_WIDTH + 10:.0f}" height="{height}" '
        f'viewBox="0 0 {_CHART_WIDTH + 10:.0f} {height}">'
    ]
    for row in spans:
        x = x_of(row["start_seconds"])
        width = max(
            x_of(row["start_seconds"] + row["elapsed_seconds"]) - x, 2.0
        )
        y = row["depth"] * 20 + 4
        color = (
            "var(--status-bad)" if row["status"] != "ok" else "var(--series-cand)"
        )
        opacity = 0.9 - 0.15 * (row["depth"] % 3)
        parts.append(
            f'<rect x="{x:.1f}" y="{y}" width="{width:.1f}" height="16" rx="2" '
            f'fill="{color}" opacity="{opacity:.2f}">'
            f"<title>{html.escape(row['name'])}: "
            f"{fmt(row['elapsed_seconds'])}s</title></rect>"
        )
        if width > 60:
            parts.append(
                f'<text x="{x + 4:.1f}" y="{y + 12}">'
                f"{html.escape(row['name'])}</text>"
            )
    axis_y = (depth_max + 1) * 20 + 8
    parts.append(
        f'<text x="{_CHART_WIDTH:.0f}" y="{axis_y + 10}" text-anchor="end">'
        f"{fmt(hi)} s</text>"
    )
    parts.append("</svg></div>")
    return "".join(parts)


def _worker_table(payload: Mapping) -> str:
    header = (
        "<tr><th>worker</th><th>source</th><th class=num>tasks</th>"
        "<th class=num>busy (s)</th><th class=num>span (s)</th>"
        "<th>utilization</th></tr>"
    )
    rows = []
    for row in payload["workers"]:
        share = min(max(row["utilization"], 0.0), 1.0)
        rows.append(
            f"<tr><td>{html.escape(row['worker'])}</td>"
            f"<td>{html.escape(row['source'])}</td>"
            f"<td class=num>{row['tasks']}</td>"
            f"<td class=num>{fmt(row['busy_seconds'])}</td>"
            f"<td class=num>{fmt(row['span_seconds'])}</td>"
            f'<td><div class="bar-track" style="width:160px">'
            f'<div class="bar-fill" style="width:{share * 160:.0f}px"></div></div>'
            f" {share * 100:.0f}%</td></tr>"
        )
    return f"<table>{header}{''.join(rows)}</table>"


def _energy_cell(value) -> str:
    """A reconciliation cell: the energy, or ``missing`` when unrecorded."""
    return "missing" if value is None else f"{value:.3f}"


def _reconciliation_table(payload: Mapping) -> str:
    header = (
        "<tr><th>task</th><th>stage</th><th class=num>component sum (pJ)</th>"
        "<th class=num>reported (pJ)</th><th>verdict</th></tr>"
    )
    rows = []
    for row in payload["reconciliation"]:
        badge = (
            '<span class="badge pass">✓ exact</span>'
            if row["exact"]
            else '<span class="badge fail">✗ drift</span>'
        )
        rows.append(
            f"<tr><td>{html.escape(row['label'])}</td>"
            f"<td>{html.escape(row['stage'])}</td>"
            f"<td class=num>{_energy_cell(row['component_sum_pj'])}</td>"
            f"<td class=num>{_energy_cell(row['reported_total_pj'])}</td>"
            f"<td>{badge}</td></tr>"
        )
    return f"<table>{header}{''.join(rows)}</table>"


def render_timeline_html(payload: Mapping, title: str = "Sweep timeline") -> str:
    """Render the ``sweep-timeline`` document as a standalone HTML string."""
    tasks = payload["tasks"]
    cached = payload.get("cached") or []
    metrics = payload.get("metrics") or {}
    reconciled = payload.get("reconciled", True)
    badge = (
        '<span class="badge pass">✓ energy reconciles exactly</span>'
        if reconciled
        else '<span class="badge fail">✗ energy reconciliation drift</span>'
    )
    parts = [
        '<!DOCTYPE html><html lang="en"><head><meta charset="utf-8">',
        f"<title>{html.escape(title)}</title>",
        f"<style>{BASE_STYLE}{_TIMELINE_STYLE}</style></head><body>",
        f"<h1>{html.escape(title)}</h1>",
        f'<p class="meta">sweep {html.escape(str(payload.get("sweep", "?")))} · '
        f"{len(tasks)} executed tasks on {len(payload['workers'])} workers · "
        f"{len(cached)} cache hits · {badge}</p>",
        "<h2>Workers × tasks</h2>",
        _gantt(payload),
        "<h2>Worker utilization</h2>",
        _worker_table(payload),
    ]
    cache = metrics.get("cache") or {}
    if cache.get("hits"):
        parts.append(
            f'<p class="meta">cache short-circuited {cache["hits"]} tasks, '
            f"saving an estimated {fmt(cache['saved_seconds_estimate'])}s "
            f"(mean executed task: {fmt(cache['mean_task_seconds'])}s).</p>"
        )
    waves = metrics.get("retry_waves") or []
    if waves:
        parts.append("<h2>Retry waves</h2><ul>")
        for wave in waves:
            names = ", ".join(html.escape(name) for name in wave["tasks"])
            parts.append(f"<li>wave {wave['wave']}: {names}</li>")
        parts.append("</ul>")
    parts.append("<h2>Per-task stage flamegraphs</h2>")
    for task in tasks:
        summary = (
            f"{html.escape(task['label'])} · {html.escape(task['worker'])} · "
            f"{fmt(task['elapsed_seconds'])}s"
        )
        parts.append(
            f"<details><summary>{summary}</summary>{_flamegraph(task)}</details>"
        )
    if cached:
        parts.append("<h2>Cache hits (not executed)</h2><ul>")
        for row in cached:
            parts.append(f"<li>{html.escape(row['label'])}</li>")
        parts.append("</ul>")
    parts.append("<h2>Energy reconciliation</h2>")
    parts.append(_reconciliation_table(payload))
    parts.append("</body></html>")
    return "".join(parts)
