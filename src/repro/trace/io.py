"""Trace file input/output and content digesting.

Two formats are supported:

* a human-readable text format (``.trc``), one event per line:
  ``<time> <kind> <space> <address-hex> <size> [value-hex]`` — convenient for
  small fixtures and for eyeballing simulator output;
* a compact NumPy ``.npz`` format for large traces.

Both round-trip losslessly through :class:`~repro.trace.trace.Trace`, and
both readers reject an invalid trace with a ``ValueError`` naming the file.

:func:`trace_digest` hashes a trace's *content* (every field of every
event, in order) into a stable hex string — the trace half of the
``repro.batch`` cache key, pairing with the flow-config fingerprint from
:func:`repro.obs.manifest.config_fingerprint`.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from .columnar import ColumnarTrace
from .events import AccessKind, AddressSpace, MemoryAccess
from .trace import Trace

__all__ = [
    "save_text",
    "load_text",
    "save_npz",
    "load_npz",
    "trace_digest",
    "TRACE_DIGEST_VERSION",
]

#: Version tag mixed into every trace digest; bump when the hashed event
#: encoding changes so stale batch-cache entries can never be mistaken for
#: fresh ones.
TRACE_DIGEST_VERSION = 1

#: Events digested per block: bounds the Python lists one block unpacks.
_DIGEST_BLOCK = 65536

_NO_VALUE = -1  # sentinel for "event carries no payload" in the npz format

#: Numeric arrays every npz trace archive carries (what :func:`save_npz`
#: writes, besides ``name``), and the dtype each loads as.
_NPZ_COLUMNS = {
    "times": np.int64,
    "addresses": np.int64,
    "sizes": np.int64,
    "kinds": np.uint8,
    "spaces": np.uint8,
    "values": np.int64,
}


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

    A malformed line, a number outside int64, or a timestamp lower than its
    predecessor's raises ``ValueError`` naming ``path:line``.
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
                for integer in (event.time, event.address, event.size, value or 0):
                    if not -(2**63) <= integer < 2**63:
                        raise ValueError(f"{integer} does not fit in int64")
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
    """Write ``trace.columnar()``'s columns to ``path`` as a compressed archive.

    ``sizes`` is stored as int32 and a ``values`` entry of -1 means "no
    payload", so a size beyond int32 or a payload of -1 raises ``ValueError``
    naming the event rather than change on reload.
    """
    columnar = trace.columnar()
    oversized = np.flatnonzero(columnar.sizes > np.iinfo(np.int32).max)
    if len(oversized):
        index = int(oversized[0])
        raise ValueError(
            f"event {index} has size {int(columnar.sizes[index])}, beyond the "
            f"npz format's int32 sizes"
        )
    values = np.full(len(columnar), _NO_VALUE, dtype=np.int64)
    if columnar.values is not None and columnar.value_mask is not None:
        mask = columnar.value_mask
        collides = np.flatnonzero(mask & (columnar.values == _NO_VALUE))
        if len(collides):
            raise ValueError(
                f"event {int(collides[0])} carries payload {_NO_VALUE}, which the "
                f"npz format reserves for 'no payload'"
            )
        values[mask] = columnar.values[mask]
    np.savez_compressed(
        Path(path),
        times=columnar.timestamps,
        addresses=columnar.addresses,
        sizes=columnar.sizes.astype(np.int32),
        kinds=columnar.kinds,
        spaces=columnar.spaces,
        values=values,
        name=np.array(trace.name),
    )


def trace_digest(trace) -> str:
    """Content digest of ``trace``: SHA-256 hex over the canonical event stream.

    One fold over ``trace.chunks()``, so a :class:`Trace`, a ``ColumnarTrace``
    and a ``StreamedTrace`` of the same events digest alike.  Every event
    contributes all of its fields (time, kind, space, address, size,
    payload) in trace order; the trace *name* is deliberately excluded so
    two identical event streams digest alike regardless of labelling — the
    content-addressing property the batch result cache relies on.
    """
    hasher = hashlib.sha256()
    hasher.update(f"repro-trace-digest-v{TRACE_DIGEST_VERSION}\n".encode("ascii"))
    kind_codes = (AccessKind.READ.value, AccessKind.WRITE.value)
    space_codes = (AddressSpace.DATA.value, AddressSpace.INSTRUCTION.value)
    for chunk in trace.chunks():
        for start in range(0, len(chunk), _DIGEST_BLOCK):
            block = slice(start, start + _DIGEST_BLOCK)
            times = chunk.timestamps[block].tolist()
            addresses = chunk.addresses[block].tolist()
            sizes = chunk.sizes[block].tolist()
            kinds = chunk.kinds[block].tolist()
            spaces = chunk.spaces[block].tolist()
            if chunk.values is not None and chunk.value_mask is not None:
                raw = chunk.values[block].tolist()
                mask = chunk.value_mask[block].tolist()
                values = [value if has else None for value, has in zip(raw, mask)]
            else:
                values = [None] * len(times)
            for index in range(len(times)):
                hasher.update(
                    (
                        f"{times[index]} {kind_codes[kinds[index]]} "
                        f"{space_codes[spaces[index]]} {addresses[index]:#x} "
                        f"{sizes[index]} {values[index]}\n"
                    ).encode("ascii")
                )
    return hasher.hexdigest()


def load_npz(path: str | Path) -> Trace:
    """Read an npz-format trace from ``path``.

    Each key :func:`save_npz` writes must be present, each numeric one a 1-D
    integer array within its dtype; the columns then convert through one
    ``ColumnarTrace`` that must pass ``validate()``.  A violation raises
    ``ValueError`` naming the file (and the key or event index).
    """
    columns = {}
    with np.load(Path(path)) as data:
        missing = [key for key in (*_NPZ_COLUMNS, "name") if key not in data.files]
        if missing:
            raise ValueError(f"{path}: npz trace archive is missing key {missing[0]!r}")
        for key, dtype in _NPZ_COLUMNS.items():
            column = data[key]
            columns[key] = column.astype(dtype, copy=False)
            fits = np.array_equal(columns[key], column)
            if column.ndim != 1 or column.dtype.kind not in "iu" or not fits:
                raise ValueError(
                    f"{path}: npz key {key!r} must be a 1-D integer array within "
                    f"{np.dtype(dtype)}, got {column.ndim}-D {column.dtype}"
                )
        name = str(data["name"])
    try:
        columnar = ColumnarTrace(
            columns["addresses"],
            columns["times"],
            columns["kinds"],
            columns["sizes"],
            spaces=columns["spaces"],
            values=columns["values"],
            value_mask=columns["values"] != _NO_VALUE,
            name=name,
        )
        columnar.validate()
    except ValueError as error:
        raise ValueError(f"{path}: {error}") from error
    return columnar.to_trace()
