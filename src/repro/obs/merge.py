"""Deterministic merging of per-worker observability shards.

:func:`load_shards` reads every shard a sweep produced (see
:mod:`repro.obs.shard`) and :func:`merge_shards` reassembles them into one
:class:`MergedSweep` with two distinct faces:

* **The canonical timeline** (:meth:`MergedSweep.canonical`) — ordered by
  task fingerprint and span tree, *never* by wall clock or worker
  identity.  Each task's span/counter block is a pure function of the
  task (workers reset clock and span ids per task), so the canonical
  timeline of a sweep is bit-identical whether it ran with ``jobs=1`` or
  ``jobs=N``, and no matter how the shard files are enumerated — the
  merge-determinism contract the hypothesis suite pins.
* **Derived sweep metrics** (:meth:`MergedSweep.metrics`) — per-worker
  utilization, queue latency, cache-hit short-circuiting, and retry-wave
  attribution, computed from the wall-clock anchors (``t_wall_seconds``)
  and the parent shard's lifecycle events.  These describe *this
  execution* and are deliberately outside the bit-identity contract.

Duplicate task blocks are expected — a broken pool re-runs tasks that had
already finished, and retries append a block per attempt — and are
resolved deterministically: completed ``ok`` blocks win over failed ones,
ties break on (worker id, position in shard), and the losers are counted,
never silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Union

from .counters import CounterRegistry
from .replay import ObsLog, read_log
from .shard import WORKER_SHARD_SCHEMA_VERSION

__all__ = [
    "TaskSegment",
    "ShardLog",
    "MergedSweep",
    "load_shards",
    "merge_shards",
    "load_merged",
]

#: Line kinds introduced by the shard layer; everything else between a
#: ``task_start``/``task_end`` pair is an ordinary obs-JSONL event.
_FRAMING_KINDS = frozenset({"shard_header", "task_start", "task_end", "task_event"})


@dataclass(frozen=True)
class TaskSegment:
    """One task's event block as recorded by one worker (one attempt)."""

    fingerprint: str
    worker: str
    status: str
    start_wall_seconds: float
    end_wall_seconds: float
    attrs: dict
    events: tuple

    @property
    def elapsed_wall_seconds(self) -> float:
        """Wall-clock duration of the block on its worker's shard clock."""
        return self.end_wall_seconds - self.start_wall_seconds

    def log(self) -> ObsLog:
        """The block's events as an :class:`~repro.obs.replay.ObsLog`."""
        return ObsLog(events=list(self.events))


@dataclass(frozen=True)
class ShardLog:
    """One parsed shard file: identity, task blocks, lifecycle events."""

    worker: str
    role: str
    sweep: str
    origin_seconds: float
    segments: tuple
    lifecycle: tuple
    incomplete: int


def _parse_shard(path: Union[str, Path]) -> ShardLog:
    """Parse one shard file into a :class:`ShardLog`.

    Shards are published as complete-line suffix appends, so a writer
    crashing mid-publish leaves at most one torn trailing line — anything
    after the last newline is discarded before parsing.  A ``task_start``
    with no matching ``task_end`` (a crashed worker) likewise ends parsing
    for that block: its events are discarded and counted in ``incomplete``
    — a torn block must never contaminate the canonical timeline.
    """
    text = Path(path).read_text(encoding="utf-8")
    complete, newline, _torn_tail = text.rpartition("\n")
    events = read_log(complete.splitlines() if newline else []).events
    if not events or events[0].get("kind") != "shard_header":
        raise ValueError(f"{path}: not a shard log (missing shard_header)")
    header = events[0]
    shard_schema = header.get("shard_schema")
    if not isinstance(shard_schema, int) or shard_schema > WORKER_SHARD_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported shard schema {shard_schema!r} "
            f"(this reader understands <= {WORKER_SHARD_SCHEMA_VERSION})"
        )
    segments: list = []
    lifecycle: list = []
    incomplete = 0
    open_task: dict | None = None
    block: list = []
    for event in events[1:]:
        kind = event.get("kind")
        if kind == "task_start":
            if open_task is not None:
                incomplete += 1
            open_task = event
            block = []
        elif kind == "task_end":
            if open_task is None:
                continue
            segments.append(
                TaskSegment(
                    fingerprint=str(open_task.get("task", "")),
                    worker=str(header.get("worker", "")),
                    status=str(event.get("status", "ok")),
                    start_wall_seconds=float(open_task.get("t_wall_seconds", 0.0)),
                    end_wall_seconds=float(event.get("t_wall_seconds", 0.0)),
                    attrs=dict(open_task.get("attrs", {})),
                    events=tuple(block),
                )
            )
            open_task = None
            block = []
        elif kind == "task_event":
            lifecycle.append(event)
        elif open_task is not None and kind not in _FRAMING_KINDS:
            block.append(event)
    if open_task is not None:
        incomplete += 1
    return ShardLog(
        worker=str(header.get("worker", "")),
        role=str(header.get("role", "")),
        sweep=str(header.get("sweep", "")),
        origin_seconds=float(header.get("origin_seconds", 0.0)),
        segments=tuple(segments),
        lifecycle=tuple(lifecycle),
        incomplete=incomplete,
    )


def load_shards(run_dir: Union[str, Path], sweep: str | None = None) -> list:
    """Load every shard of one sweep under ``run_dir``, sorted by worker id.

    ``run_dir`` may be the sweep's own directory (containing ``*.jsonl``)
    or a shard root (``<prefix>/<sweep_id>/*.jsonl`` fan-out, the
    ``--obs-dir`` layout).  A root holding several sweeps is ambiguous and
    raises unless ``sweep`` selects one.
    """
    root = Path(run_dir)
    files = sorted(root.glob("*.jsonl"))
    if not files:
        by_sweep: dict = {}
        for candidate in root.glob("??/*/*.jsonl"):
            by_sweep.setdefault(candidate.parent.name, []).append(candidate)
        if sweep is not None:
            files = sorted(by_sweep.get(sweep, []))
        elif len(by_sweep) == 1:
            files = sorted(next(iter(by_sweep.values())))
        elif by_sweep:
            names = ", ".join(sorted(by_sweep))
            raise ValueError(
                f"{run_dir} holds {len(by_sweep)} sweeps ({names}); "
                "pass the sweep id to select one"
            )
    if not files:
        raise FileNotFoundError(f"no observability shards under {run_dir}")
    shards = sorted((_parse_shard(path) for path in files), key=lambda s: s.worker)
    sweeps = {shard.sweep for shard in shards}
    if len(sweeps) > 1:
        raise ValueError(
            f"shards under {run_dir} belong to different sweeps: "
            f"{', '.join(sorted(sweeps))}"
        )
    return shards


@dataclass(frozen=True)
class MergedSweep:
    """All shards of one sweep, reassembled."""

    sweep_id: str
    shards: tuple
    #: ``(fingerprint, chosen TaskSegment)`` pairs sorted by fingerprint —
    #: the canonical task order.
    tasks: tuple
    #: Task blocks that lost deduplication (failed attempts, pool-broken
    #: re-runs), still available for retry attribution.
    superseded: tuple
    #: Parent-side lifecycle events in recorded order.
    lifecycle: tuple

    # -- canonical face ----------------------------------------------------------

    def canonical(self) -> dict:
        """The deterministic merged timeline (the bit-identity artifact).

        Ordered by task fingerprint, then span tree; worker identities,
        wall-clock anchors, and attempt counts are excluded — everything
        here is a pure function of the task list, so under
        :class:`~repro.obs.clock.TickClock` this dict is ``==``-identical
        across ``jobs=1`` / ``jobs=N`` / shuffled shard enumeration.
        """
        rows: list = []
        for fingerprint, segment in self.tasks:
            log = segment.log()
            rows.append(
                {
                    "task": fingerprint,
                    "label": str(segment.attrs.get("label", "")),
                    "flow": str(segment.attrs.get("flow", "")),
                    "status": segment.status,
                    "spans": [record.row() for record in log.spans()],
                    "counters": log.counters().rows(),
                }
            )
        return {"sweep": self.sweep_id, "tasks": rows}

    def counter_totals(self) -> CounterRegistry:
        """Every chosen block's counters aggregated in canonical task order."""
        events: list = []
        for _fingerprint, segment in self.tasks:
            events.extend(segment.events)
        return CounterRegistry.from_events(events)

    def reconciliation(self) -> list:
        """Per-task energy reconciliation rows from the merged blocks.

        ``(fingerprint, label, stage, component_sum_pj, reported_total_pj,
        exact)`` — the merged counterpart of
        :meth:`repro.obs.replay.ObsLog.reconcile_energy`; a complete sweep
        reconciles exactly on every row.
        """
        rows: list = []
        for fingerprint, segment in self.tasks:
            label = str(segment.attrs.get("label", ""))
            for stage, summed, reported, exact in segment.log().reconcile_energy():
                rows.append((fingerprint, label, stage, summed, reported, exact))
        return rows

    # -- execution face ----------------------------------------------------------

    def metrics(self) -> dict:
        """Derived execution metrics (outside the bit-identity contract).

        Wall-clock anchors are comparable across shards because fork
        workers inherit the parent's monotonic clock origin; the metrics
        are deterministic functions of the recorded anchors either way.
        """
        workers: list = []
        for shard in self.shards:
            if shard.role != "worker":
                continue
            complete = [seg for seg in shard.segments]
            busy_seconds = sum(seg.elapsed_wall_seconds for seg in complete)
            if complete:
                span_seconds = max(s.end_wall_seconds for s in complete) - min(
                    s.start_wall_seconds for s in complete
                )
            else:
                span_seconds = 0.0
            workers.append(
                {
                    "worker": shard.worker,
                    "tasks": len(complete),
                    "busy_seconds": busy_seconds,
                    "span_seconds": span_seconds,
                    "utilization": (
                        busy_seconds / span_seconds if span_seconds > 0 else 1.0
                    ),
                }
            )

        submitted: dict = {}
        for event in self.lifecycle:
            if event.get("event") == "submitted":
                submitted.setdefault(
                    str(event.get("task", "")), float(event.get("t_wall_seconds", 0.0))
                )
        queue_rows: list = []
        for fingerprint, segment in self.tasks:
            if fingerprint in submitted:
                queue_rows.append(
                    {
                        "task": fingerprint,
                        "label": str(segment.attrs.get("label", "")),
                        "queue_seconds": segment.start_wall_seconds
                        - submitted[fingerprint],
                    }
                )

        cache_hits = [
            event for event in self.lifecycle if event.get("event") == "cache_hit"
        ]
        merged_elapsed = [
            float(event.get("attrs", {}).get("elapsed_seconds", 0.0))
            for event in self.lifecycle
            if event.get("event") == "merged"
        ]
        mean_task_seconds = (
            sum(merged_elapsed) / len(merged_elapsed) if merged_elapsed else 0.0
        )
        cache = {
            "hits": len(cache_hits),
            "mean_task_seconds": mean_task_seconds,
            # The counterfactual cost of the hits had they executed — the
            # "short-circuit time" the cache bought this sweep.
            "saved_seconds_estimate": len(cache_hits) * mean_task_seconds,
        }

        waves: dict = {}
        for event in self.lifecycle:
            if event.get("event") != "retry":
                continue
            attrs = event.get("attrs", {})
            wave = int(attrs.get("wave", attrs.get("attempt", 0)))
            waves.setdefault(wave, []).append(str(attrs.get("label", "")))
        retry_waves = [
            {"wave": wave, "tasks": sorted(labels)}
            for wave, labels in sorted(waves.items())
        ]

        return {
            "workers": workers,
            "queue": queue_rows,
            "cache": cache,
            "retry_waves": retry_waves,
            "superseded_blocks": len(self.superseded),
            "incomplete_blocks": sum(shard.incomplete for shard in self.shards),
        }


def merge_shards(shards) -> MergedSweep:
    """Merge parsed shards into one :class:`MergedSweep`.

    Deduplication is deterministic and independent of enumeration order:
    candidates for one fingerprint are ranked (``ok`` first, then worker
    id, then position within the shard) and the best wins.  Determinism
    makes the choice inconsequential for ``ok``-vs-``ok`` ties — a re-run
    block is bit-identical to the original.
    """
    shards = sorted(shards, key=lambda s: (s.role, s.worker))
    sweeps = {shard.sweep for shard in shards}
    if len(sweeps) != 1:
        raise ValueError(f"cannot merge shards from sweeps: {sorted(sweeps)}")

    candidates: dict = {}
    for shard in shards:
        if shard.role != "worker":
            continue
        for position, segment in enumerate(shard.segments):
            candidates.setdefault(segment.fingerprint, []).append(
                (segment.status != "ok", segment.worker, position, segment)
            )

    tasks: list = []
    superseded: list = []
    for fingerprint in sorted(candidates):
        ranked = sorted(candidates[fingerprint], key=lambda entry: entry[:3])
        tasks.append((fingerprint, ranked[0][3]))
        superseded.extend(entry[3] for entry in ranked[1:])

    lifecycle: list = []
    for shard in shards:
        if shard.role == "parent":
            lifecycle.extend(shard.lifecycle)

    return MergedSweep(
        sweep_id=sorted(sweeps)[0],
        shards=tuple(shards),
        tasks=tuple(tasks),
        superseded=tuple(superseded),
        lifecycle=tuple(lifecycle),
    )


def load_merged(run_dir: Union[str, Path], sweep: str | None = None) -> MergedSweep:
    """Load and merge every shard of one sweep under ``run_dir``."""
    return merge_shards(load_shards(run_dir, sweep=sweep))
