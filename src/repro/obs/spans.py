"""The active recorder and hierarchical spans.

Instrumented code never receives a recorder as an argument.  It reads the
one *active* recorder, held in a :class:`~contextvars.ContextVar` whose
default is a shared :class:`~repro.obs.recorder.NullRecorder`:
:func:`recording` makes a recorder active for a block, and
:func:`current_recorder` and :func:`span` read it.  A stage deep in a
flow therefore records wherever a caller opened a recording, and every
signature between them stays free of observability plumbing.

A span brackets one pipeline stage.  Nesting is implicit — the recorder
tracks the innermost open span, so a playback layer's span opened inside a
flow stage's span becomes its child without any plumbing.  The helper is
exception-safe by construction: a raising body closes the span with
``status="error"`` and the exception type, then re-raises.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

from .recorder import NullRecorder, Recorder

__all__ = ["current_recorder", "recording", "span"]

_ACTIVE: ContextVar[Recorder] = ContextVar("repro_obs_recorder", default=NullRecorder())


def current_recorder() -> Recorder:
    """The active recorder: the shared :class:`NullRecorder` unless one is set.

    Instrumented code reads it once per *call* and checks ``enabled``
    before assembling any event, so a disabled recorder costs one lookup
    and one flag check per call, never one per event.
    """
    return _ACTIVE.get()


@contextmanager
def recording(recorder: Recorder) -> Iterator[None]:
    """Make ``recorder`` the active recorder for the block.

    On exit the previously active recorder is restored, also when the
    block raises.  The recorder's sink is not closed here: a recorder used
    as a context manager (``with JsonlRecorder(path) as recorder,
    recording(recorder):``) owns and closes its sink itself.
    """
    token = _ACTIVE.set(recorder)
    try:
        yield
    finally:
        _ACTIVE.reset(token)


@contextmanager
def span(name: str, **attrs) -> Iterator[None]:
    """Bracket a block as a named span on the active recorder.

    When the active recorder is disabled the block runs unbracketed with
    no per-entry cost beyond one lookup and one attribute check — the
    contract that keeps default (uninstrumented) runs unmeasurably close
    to uninstrumented code.
    """
    recorder = _ACTIVE.get()
    if not recorder.enabled:
        yield
        return
    span_id = recorder.span_start(name, **attrs)
    try:
        yield
    except BaseException as error:
        recorder.span_end(span_id, status="error", error=type(error).__name__)
        raise
    recorder.span_end(span_id, status="ok")
