"""Trace file input/output and content digesting.

Two formats are supported:

* a human-readable text format (``.trc``), one event per line:
  ``<time> <kind> <space> <address-hex> <size> [value-hex]`` — convenient for
  small fixtures and for eyeballing simulator output;
* a compact NumPy ``.npz`` format for large traces.

Both round-trip losslessly through :class:`~repro.trace.trace.Trace`.

:func:`trace_digest` hashes a trace's *content* (every field of every
event, in order) into a stable hex string — the trace half of the
``repro.batch`` cache key, pairing with the flow-config fingerprint from
:func:`repro.obs.manifest.config_fingerprint`.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from .events import AccessKind, AddressSpace, MemoryAccess
from .trace import Trace

__all__ = [
    "save_text",
    "load_text",
    "save_npz",
    "load_npz",
    "save_store",
    "load_store",
    "trace_digest",
    "TRACE_DIGEST_VERSION",
]

#: Version tag mixed into every trace digest; bump when the hashed event
#: encoding changes so stale batch-cache entries can never be mistaken for
#: fresh ones.
TRACE_DIGEST_VERSION = 1

_NO_VALUE = -1  # sentinel for "event carries no payload" in the npz format

#: Arrays every npz trace archive carries (what :func:`save_npz` writes).
_NPZ_KEYS = ("times", "addresses", "sizes", "kinds", "spaces", "values", "name")


def save_text(trace: Trace, path: str | Path) -> None:
    """Write ``trace`` to ``path`` in the text format."""
    path = Path(path)
    with path.open("w") as handle:
        handle.write(f"# trace {trace.name}\n")
        for event in trace:
            line = (
                f"{event.time} {event.kind.value} {event.space.value} "
                f"{event.address:#x} {event.size}"
            )
            if event.value is not None:
                line += f" {event.value:#x}"
            handle.write(line + "\n")


def load_text(path: str | Path) -> Trace:
    """Read a text-format trace from ``path``.

    A malformed line, or a timestamp lower than its predecessor's, raises
    ``ValueError`` naming ``path:line``.
    """
    path = Path(path)
    events = []
    name = path.stem
    with path.open() as handle:
        for number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line.startswith("# trace "):
                    name = line[len("# trace ") :].strip()
                continue
            fields = line.split()
            try:
                if len(fields) not in (5, 6):
                    raise ValueError(f"expected 5 or 6 fields, got {len(fields)}")
                time, kind, space, address, size = fields[:5]
                value = int(fields[5], 16) if len(fields) == 6 else None
                event = MemoryAccess(
                    time=int(time),
                    address=int(address, 16),
                    size=int(size),
                    kind=AccessKind.from_str(kind),
                    space=AddressSpace.from_str(space),
                    value=value,
                )
            except ValueError as error:
                raise ValueError(
                    f"{path}:{number}: malformed trace line {line!r}: {error}"
                ) from error
            if events and event.time < events[-1].time:
                raise ValueError(
                    f"{path}:{number}: timestamp {event.time} is lower than "
                    f"the previous event's {events[-1].time}"
                )
            events.append(event)
    return Trace(events, name=name)


def save_npz(trace: Trace, path: str | Path) -> None:
    """Write ``trace`` to ``path`` as a compressed NumPy archive."""
    n = len(trace)
    times = np.empty(n, dtype=np.int64)
    addresses = np.empty(n, dtype=np.int64)
    sizes = np.empty(n, dtype=np.int32)
    kinds = np.empty(n, dtype=np.uint8)
    spaces = np.empty(n, dtype=np.uint8)
    values = np.empty(n, dtype=np.int64)
    for index, event in enumerate(trace):
        times[index] = event.time
        addresses[index] = event.address
        sizes[index] = event.size
        kinds[index] = 1 if event.is_write else 0
        spaces[index] = 1 if event.space is AddressSpace.INSTRUCTION else 0
        values[index] = event.value if event.value is not None else _NO_VALUE
    np.savez_compressed(
        Path(path),
        times=times,
        addresses=addresses,
        sizes=sizes,
        kinds=kinds,
        spaces=spaces,
        values=values,
        name=np.array(trace.name),
    )


def save_store(trace: Trace, path: str | Path, chunk_size: int | None = None) -> Path:
    """Pack ``trace`` into an on-disk columnar store directory.

    Thin convenience over :func:`repro.trace.store.save_store` (imported
    lazily; the store module depends on this one for the digest version).
    """
    from .store import DEFAULT_CHUNK_EVENTS
    from .store import save_store as _save_store

    if chunk_size is None:
        chunk_size = DEFAULT_CHUNK_EVENTS
    return _save_store(trace, path, chunk_size=chunk_size)


def load_store(path: str | Path, verify: bool = False) -> Trace:
    """Load a store directory back as a scalar :class:`Trace`.

    Materializes every event (one O(n) pass) — the symmetric counterpart
    of :func:`save_store` for consumers that want event objects.  Use
    :func:`repro.trace.store.load_store`/``open_store`` for the zero-copy
    columnar and streamed views.
    """
    from .store import load_store as _load_store

    return _load_store(path, verify=verify).to_trace()


def trace_digest(trace: Trace) -> str:
    """Content digest of ``trace``: SHA-256 hex over the canonical event stream.

    Every event contributes all of its fields (time, kind, space, address,
    size, payload) in trace order; the trace *name* is deliberately excluded
    so two identical event streams digest alike regardless of labelling —
    the content-addressing property the batch result cache relies on.
    """
    hasher = hashlib.sha256()
    hasher.update(f"repro-trace-digest-v{TRACE_DIGEST_VERSION}\n".encode("ascii"))
    for event in trace:
        hasher.update(
            (
                f"{event.time} {event.kind.value} {event.space.value} "
                f"{event.address:#x} {event.size} {event.value}\n"
            ).encode("ascii")
        )
    return hasher.hexdigest()


def load_npz(path: str | Path) -> Trace:
    """Read an npz-format trace from ``path``.

    A missing archive key, or a timestamp lower than its predecessor's,
    raises ``ValueError`` naming the file (and the key or event index).
    """
    with np.load(Path(path)) as data:
        missing = [key for key in _NPZ_KEYS if key not in data.files]
        if missing:
            raise ValueError(f"{path}: npz trace archive is missing key {missing[0]!r}")
        times = data["times"]
        backwards = np.flatnonzero(np.diff(times) < 0)
        if len(backwards):
            index = int(backwards[0]) + 1
            raise ValueError(
                f"{path}: event {index} has timestamp {int(times[index])}, lower "
                f"than the previous event's {int(times[index - 1])}"
            )
        events = [
            MemoryAccess(
                time=int(time),
                address=int(address),
                size=int(size),
                kind=AccessKind.WRITE if kind else AccessKind.READ,
                space=AddressSpace.INSTRUCTION if space else AddressSpace.DATA,
                value=int(value) if value != _NO_VALUE else None,
            )
            for time, address, size, kind, space, value in zip(
                times,
                data["addresses"],
                data["sizes"],
                data["kinds"],
                data["spaces"],
                data["values"],
            )
        ]
        name = str(data["name"])
    return Trace(events, name=name)
