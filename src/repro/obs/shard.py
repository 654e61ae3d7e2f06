"""Per-worker observability shards: context-stamped, atomically published.

A batch sweep fans tasks over worker processes, so a single shared run log
would need cross-process write coordination.  Instead each worker owns one
*shard* — a JSONL file named after the worker inside a directory named
after the sweep — and the parent owns a ``parent`` shard carrying task
lifecycle events (submitted / cache hit / merged / failed / retry waves).
:mod:`repro.obs.merge` later interleaves the shards deterministically.

Shard lines are obs-JSONL schema v1 events (see
:mod:`repro.obs.recorder`) with three additive extensions, together the
``obs-worker-shard`` schema (:data:`WORKER_SHARD_SCHEMA_VERSION`):

* **Span context on every line** — ``"sweep"`` (sweep id) and
  ``"worker"`` (worker id) are stamped onto every event, and ``"task"``
  (the task's spec fingerprint) onto every event emitted between
  :meth:`ShardRecorder.begin_task` and :meth:`ShardRecorder.end_task`.
* **Task framing** — ``task_start`` / ``task_end`` lines anchor each
  task's event block to the shard clock (``t_wall_seconds``), and
  ``task_event`` lines carry parent-side lifecycle events.
* **A header** — the first line (``shard_header``) records the shard
  schema version, the worker's role, and the shard clock's origin so the
  merger can align shards recorded by different processes.

Two properties make the shards safe and mergeable:

* **Prefix-complete publication.**  Events accumulate in an in-memory
  buffer; :meth:`ShardRecorder.flush` publishes the buffered *complete
  lines* as one suffix append (a single :func:`os.write` of whole lines,
  truncating stale content on the first publish), so the on-disk shard is
  always a prefix of the final log plus at most one torn trailing line —
  which :mod:`repro.obs.merge` discards by construction.  A crashed
  worker therefore leaves every completed task block intact.  Publishing
  per task, not per event, keeps write volume linear in the log size
  (a whole-file rewrite per task is quadratic).  One file per worker
  means no two processes ever write the same path: the shard counterpart
  of the ``batch/cache.py`` discipline.
* **Per-task clock reset.**  ``begin_task`` restarts span ids and creates
  a fresh clock from ``clock_factory``, so a task's span/counter block is
  a pure function of the task — under
  :class:`~repro.obs.clock.TickClock` the block is bit-identical no
  matter which worker (or how many workers) executed it, which is what
  makes the merged timeline's determinism contract provable.
"""

from __future__ import annotations

import io
import os
from pathlib import Path
from typing import Union

from .clock import WallClock
from .recorder import SCHEMA_VERSION, JsonlRecorder

__all__ = [
    "WORKER_SHARD_SCHEMA_VERSION",
    "ShardRecorder",
]

#: Version of the shard-line extensions (header, task framing, context
#: stamps) layered over the obs-JSONL line schema.  Additions must stay
#: additive (new keys, new kinds) to keep version 1.
WORKER_SHARD_SCHEMA_VERSION = 1


class ShardRecorder(JsonlRecorder):
    """One worker's (or the parent's) shard of a sweep's observability log.

    Parameters
    ----------
    path:
        The shard file this recorder owns.  Nothing is written until the
        first :meth:`flush` (``end_task`` and ``close`` flush implicitly).
    sweep_id:
        Deterministic sweep identity, stamped on every line.
    worker_id:
        This writer's identity (``w<pid>`` for workers, ``parent`` for the
        parent), stamped on every line.
    role:
        ``"worker"`` for task-executing shards, ``"parent"`` for the
        lifecycle shard.  The merger treats them differently.
    clock_factory:
        Zero-argument callable producing the shard clock *and* each
        per-task clock (default :class:`~repro.obs.clock.WallClock`).
        Inject :class:`~repro.obs.clock.TickClock` for deterministic
        shards.
    """

    def __init__(
        self,
        path: Union[str, Path],
        sweep_id: str,
        worker_id: str,
        role: str = "worker",
        clock_factory=None,
    ) -> None:
        self._sweep_id = sweep_id
        self._worker_id = worker_id
        self._task: str | None = None
        buffer = io.StringIO()
        factory = clock_factory if clock_factory is not None else WallClock
        super().__init__(buffer, clock=factory())
        self._buffer = buffer
        self._clock_factory = factory
        self._shard_clock = factory()
        self._path = Path(path)
        self._published = False
        self._dirty = False
        self._emit(
            {
                "v": SCHEMA_VERSION,
                "kind": "shard_header",
                "shard_schema": WORKER_SHARD_SCHEMA_VERSION,
                "role": role,
                "origin_seconds": self._shard_clock.now_seconds(),
            }
        )

    # -- context stamping --------------------------------------------------------

    def _emit(self, payload: dict) -> None:
        """Stamp sweep / worker / task context, then buffer the line."""
        stamped = dict(payload)
        stamped["sweep"] = self._sweep_id
        stamped["worker"] = self._worker_id
        if self._task is not None and "task" not in stamped:
            stamped["task"] = self._task
        super()._emit(stamped)
        self._dirty = True

    # -- task framing ------------------------------------------------------------

    def begin_task(self, fingerprint: str, **attrs) -> None:
        """Open the event block for one task (resets span ids and the clock).

        The reset makes the block self-contained: span ids restart at 1 and
        timing restarts at a fresh ``clock_factory()`` reading, so the block
        depends only on the task, never on what this worker ran before it.
        """
        if self._task is not None:
            raise ValueError(
                f"begin_task({fingerprint!r}) while task {self._task!r} is open"
            )
        self._clock = self._clock_factory()
        self._origin_seconds = self._clock.now_seconds()
        self._next_id = 1
        del self._stack[:]
        self._task = fingerprint
        self._emit(
            {
                "v": SCHEMA_VERSION,
                "kind": "task_start",
                "t_wall_seconds": self._shard_clock.now_seconds(),
                "attrs": attrs,
            }
        )

    def end_task(self, status: str = "ok", **attrs) -> None:
        """Close the current task block and atomically publish the shard."""
        if self._task is None:
            raise ValueError(
                f"end_task(status={status!r}) without a matching begin_task"
            )
        self._emit(
            {
                "v": SCHEMA_VERSION,
                "kind": "task_end",
                "t_wall_seconds": self._shard_clock.now_seconds(),
                "status": status,
                "attrs": attrs,
            }
        )
        self._task = None
        self.flush()

    def task_event(self, event: str, fingerprint: str, **attrs) -> None:
        """Record one parent-side lifecycle event for a task.

        ``event`` is ``submitted`` / ``cache_hit`` / ``merged`` /
        ``failed`` / ``retry_wave``; ``attrs`` carry the specifics (label,
        attempt, wave, elapsed_seconds).
        """
        self._emit(
            {
                "v": SCHEMA_VERSION,
                "kind": "task_event",
                "event": event,
                "task": fingerprint,
                "t_wall_seconds": self._shard_clock.now_seconds(),
                "attrs": attrs,
            }
        )

    # -- publication -------------------------------------------------------------

    def flush(self) -> None:
        """Publish the buffered complete lines as one suffix append.

        The first publish truncates stale content from a previous run of
        the same sweep; every later one appends.  Each publish is a single
        :func:`os.write` of whole lines, so the on-disk file is always a
        prefix-complete log (plus, after a crash mid-write, at most one
        torn trailing line, which the merger's parser discards).  The
        buffer is drained on publish, keeping total write volume linear in
        the log size — a per-task whole-file rewrite would be quadratic.
        """
        if not self._dirty:
            return
        data = self._buffer.getvalue().encode("utf-8")
        self._buffer.seek(0)
        self._buffer.truncate()
        self._path.parent.mkdir(parents=True, exist_ok=True)
        flags = os.O_WRONLY | os.O_CREAT
        flags |= os.O_APPEND if self._published else os.O_TRUNC
        fd = os.open(str(self._path), flags, 0o644)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        self._published = True
        self._dirty = False

    def close(self) -> None:
        """Publish any buffered events (the buffer itself needs no closing)."""
        self.flush()
