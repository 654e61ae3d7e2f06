"""The recorder protocol and its two implementations.

A :class:`Recorder` receives four kinds of structured events from
instrumented code: span starts, span ends, counter samples, and run
manifests.  :class:`NullRecorder` (the default active recorder, see
:mod:`repro.obs.spans`) ignores all of them — it exists so hot paths can
hold an object reference without branching on ``None`` at every site —
and :class:`JsonlRecorder` appends one JSON object per event to a sink.

JSONL schema, version 1 (one object per line, ``"v": 1`` on every line):

``{"v": 1, "kind": "span_start", "id": I, "parent": P|null, "name": N,
"t_seconds": T, "attrs": {...}}``
    A span opened.  ``id`` is unique within the log; ``parent`` is the
    enclosing span's id.  ``t_seconds`` is relative to recorder creation.

``{"v": 1, "kind": "span_end", "id": I, "name": N, "t_seconds": T,
"elapsed_seconds": E, "status": "ok"|"error", "attrs": {...}}``
    The matching close.  ``status`` is ``"error"`` when the span body
    raised; the exception type is in ``attrs["error"]`` and the exception
    itself propagates (spans never swallow).

``{"v": 1, "kind": "counter", "name": N, "value": V, "span": I|null,
"attrs": {...}}``
    One counter sample, attributed to the innermost open span.

``{"v": 1, "kind": "manifest", "data": {...}}``
    The run manifest (see :mod:`repro.obs.manifest`).

Additions to the schema must be additive (new keys, new kinds) to keep
version 1; anything else bumps :data:`SCHEMA_VERSION`.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import IO, Mapping, Union

from .clock import Clock, WallClock

__all__ = ["SCHEMA_VERSION", "Recorder", "NullRecorder", "JsonlRecorder"]

#: Version stamped into every emitted line and checked by the replayer.
SCHEMA_VERSION = 1


class Recorder:
    """Protocol for instrumentation sinks.

    The base class implements every hook as a no-op so that duck-typed
    subclasses only override what they need; ``enabled`` is the single
    flag hot paths check before assembling any event payload.
    """

    #: Whether this recorder wants events at all.  Instrumented code reads
    #: this once per *call* (never per event) and skips all payload
    #: assembly when it is false.
    enabled: bool = False

    def span_start(self, name: str, **attrs) -> int:
        """Open a span named ``name``; return its id (0 for no-op sinks)."""
        return 0

    def span_end(self, span_id: int, status: str = "ok", **attrs) -> None:
        """Close the span ``span_id`` with the given status."""

    def counter(self, name: str, value: float, **attrs) -> None:
        """Record one counter sample ``name``/``value`` with label attrs."""

    def record_manifest(self, manifest: Mapping) -> None:
        """Record the run manifest (a JSON-serializable mapping)."""

    def close(self) -> None:
        """Flush and release the sink (no-op for sinks we do not own)."""

    def __enter__(self) -> "Recorder":
        """Context-manager entry: the recorder itself."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: close the sink."""
        self.close()


class NullRecorder(Recorder):
    """The default recorder: accepts everything, records nothing.

    Kept deliberately free of state so a single shared instance is safe
    across threads and call sites; ``enabled`` stays ``False`` so
    instrumented code skips even the event assembly.
    """


class JsonlRecorder(Recorder):
    """Recorder emitting one JSON object per event to a sink.

    Parameters
    ----------
    sink:
        A path (opened for writing and owned — closed by :meth:`close`)
        or a file-like object with ``write`` (borrowed — left open).
    clock:
        Time source for span timing; defaults to the wall clock.  Inject
        :class:`~repro.obs.clock.TickClock` for deterministic logs.

    Path sinks are fork-safe: the file is opened ``O_APPEND`` with line
    buffering, and every emit checks the pid.  A forked child that
    inherits this recorder reopens the path (append mode, fresh fd) on
    its first emit instead of writing through the parent's inherited file
    position — ``O_APPEND`` on both fds makes parent and child lines
    interleave without clobbering, and line buffering means the stream
    abandoned to the child's GC holds no partial line to double-flush.
    """

    enabled = True

    def __init__(
        self, sink: Union[str, Path, IO[str]], clock: Clock | None = None
    ) -> None:
        if isinstance(sink, (str, Path)):
            self._sink_path: Path | None = Path(sink)
            self._stream: IO[str] = self._open_sink(truncate=True)
            self._owns_stream = True
        else:
            self._sink_path = None
            self._stream = sink
            self._owns_stream = False
        self._pid = os.getpid()
        self._clock = clock if clock is not None else WallClock()
        self._origin_seconds = self._clock.now_seconds()
        self._next_id = 1
        # Open spans, innermost last: (id, name, start_seconds).
        self._stack: list[tuple[int, str, float]] = []

    # -- event emission ----------------------------------------------------------

    def _open_sink(self, truncate: bool) -> IO[str]:
        flags = os.O_WRONLY | os.O_CREAT | os.O_APPEND
        if truncate:
            flags |= os.O_TRUNC
        fd = os.open(str(self._sink_path), flags, 0o644)
        return os.fdopen(fd, "w", encoding="utf-8", buffering=1)

    def _emit(self, payload: dict) -> None:
        if self._owns_stream and os.getpid() != self._pid:
            # First emit after a fork: take a child-owned fd (append mode —
            # never truncate the parent's lines) and leave the inherited
            # stream untouched for the parent.
            self._stream = self._open_sink(truncate=False)
            self._pid = os.getpid()
        self._stream.write(json.dumps(payload, sort_keys=True) + "\n")

    def _elapsed_origin_seconds(self) -> float:
        return self._clock.now_seconds() - self._origin_seconds

    def span_start(self, name: str, **attrs) -> int:
        """Open a span; returns the id :meth:`span_end` must be given."""
        span_id = self._next_id
        self._next_id += 1
        start_seconds = self._elapsed_origin_seconds()
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((span_id, name, start_seconds))
        self._emit(
            {
                "v": SCHEMA_VERSION,
                "kind": "span_start",
                "id": span_id,
                "parent": parent,
                "name": name,
                "t_seconds": start_seconds,
                "attrs": attrs,
            }
        )
        return span_id

    def span_end(self, span_id: int, status: str = "ok", **attrs) -> None:
        """Close ``span_id`` (and any open descendants, innermost first)."""
        while self._stack:
            open_id, name, start_seconds = self._stack.pop()
            end_seconds = self._elapsed_origin_seconds()
            self._emit(
                {
                    "v": SCHEMA_VERSION,
                    "kind": "span_end",
                    "id": open_id,
                    "name": name,
                    "t_seconds": end_seconds,
                    "elapsed_seconds": end_seconds - start_seconds,
                    "status": status,
                    "attrs": attrs,
                }
            )
            if open_id == span_id:
                return
        raise ValueError(f"span_end for unknown or already-closed span id {span_id}")

    def counter(self, name: str, value: float, **attrs) -> None:
        """Record one counter sample, attributed to the innermost open span."""
        self._emit(
            {
                "v": SCHEMA_VERSION,
                "kind": "counter",
                "name": name,
                "value": value,
                "span": self._stack[-1][0] if self._stack else None,
                "attrs": attrs,
            }
        )

    def record_manifest(self, manifest: Mapping) -> None:
        """Record the run manifest as a ``manifest`` line."""
        self._emit({"v": SCHEMA_VERSION, "kind": "manifest", "data": dict(manifest)})

    def close(self) -> None:
        """Flush the sink; close it if this recorder opened it."""
        self._stream.flush()
        if self._owns_stream:
            self._stream.close()
