"""Trace file input/output and content digesting.

Two formats are supported:

* a human-readable text format (``.trc``), one event per line:
  ``<time> <kind> <space> <address-hex> <size> [value-hex]`` — convenient for
  small fixtures and for eyeballing simulator output;
* a compact NumPy ``.npz`` format for large traces.

Both round-trip losslessly, both readers return a
:class:`~repro.trace.trace.Trace` written column by column, and both reject
an invalid trace with a ``ValueError`` naming the file.

:func:`trace_digest` hashes a trace's *content* (every field of every
event, in order) into a stable hex string — the trace half of the
``repro.batch`` cache key, pairing with the flow-config fingerprint from
:func:`repro.obs.manifest.config_fingerprint`.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from .events import AccessKind, AddressSpace
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

#: Text letters of the kind and space column codes.
_KIND_LETTERS = (AccessKind.READ.value, AccessKind.WRITE.value)
_SPACE_LETTERS = (AddressSpace.DATA.value, AddressSpace.INSTRUCTION.value)

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
        for time, address, size, kind, space, value in trace.rows():
            line = f"{time} {_KIND_LETTERS[kind]} {_SPACE_LETTERS[space]} {address:#x} {size}"
            if value is not None:
                line += f" {value:#x}"
            handle.write(line + "\n")


def _text_row(fields: list[str]) -> tuple:
    """``(time, address, size, kind code, space code, payload or None)`` of one line."""
    if len(fields) not in (5, 6):
        raise ValueError(f"expected 5 or 6 fields, got {len(fields)}")
    time, address, size = int(fields[0]), int(fields[3], 16), int(fields[4])
    kind = AccessKind.from_str(fields[1]) is AccessKind.WRITE
    space = AddressSpace.from_str(fields[2]) is AddressSpace.INSTRUCTION
    value = int(fields[5], 16) if len(fields) == 6 else None
    for integer in (time, address, size, value or 0):
        if not -(2**63) <= integer < 2**63:
            raise ValueError(f"{integer} does not fit in int64")
    if address < 0:
        raise ValueError(f"address must be non-negative, got {address}")
    if size <= 0:
        raise ValueError(f"size must be positive, got {size}")
    if time < 0:
        raise ValueError(f"time must be non-negative, got {time}")
    return time, address, size, kind, space, value


def load_text(path: str | Path) -> Trace:
    """Read a text-format trace from ``path``.

    A malformed line (field count, kind or space letter, a number outside
    int64, a negative time or address, a size below 1) or a timestamp lower
    than its predecessor's raises ``ValueError`` naming ``path:line``.
    """
    path = Path(path)
    rows = []
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
            try:
                row = _text_row(line.split())
            except ValueError as error:
                raise ValueError(
                    f"{path}:{number}: malformed trace line {line!r}: {error}"
                ) from error
            if rows and row[0] < rows[-1][0]:
                raise ValueError(
                    f"{path}:{number}: timestamp {row[0]} is lower than "
                    f"the previous event's {rows[-1][0]}"
                )
            rows.append(row)
    times, addresses, sizes, kinds, spaces, values = zip(*rows) if rows else [()] * 6
    has_value = [value is not None for value in values]
    return Trace(
        addresses,
        times,
        kinds,
        sizes,
        spaces=spaces,
        values=[value or 0 for value in values] if any(has_value) else None,
        value_mask=has_value if any(has_value) else None,
        name=name,
    )


def save_npz(trace: Trace, path: str | Path) -> None:
    """Write the trace's columns to ``path`` as a compressed archive.

    ``sizes`` is stored as int32 and a ``values`` entry of -1 means "no
    payload", so a size beyond int32 or a payload of -1 raises ``ValueError``
    naming the event rather than change on reload.
    """
    oversized = np.flatnonzero(trace.sizes > np.iinfo(np.int32).max)
    if len(oversized):
        index = int(oversized[0])
        raise ValueError(
            f"event {index} has size {int(trace.sizes[index])}, beyond the "
            f"npz format's int32 sizes"
        )
    values = np.full(len(trace), _NO_VALUE, dtype=np.int64)
    if trace.values is not None and trace.value_mask is not None:
        mask = trace.value_mask
        collides = np.flatnonzero(mask & (trace.values == _NO_VALUE))
        if len(collides):
            raise ValueError(
                f"event {int(collides[0])} carries payload {_NO_VALUE}, which the "
                f"npz format reserves for 'no payload'"
            )
        values[mask] = trace.values[mask]
    np.savez_compressed(
        Path(path),
        times=trace.timestamps,
        addresses=trace.addresses,
        sizes=trace.sizes.astype(np.int32),
        kinds=trace.kinds,
        spaces=trace.spaces,
        values=values,
        name=np.array(trace.name),
    )


def trace_digest(trace) -> str:
    """Content digest of ``trace``: SHA-256 hex over the canonical event stream.

    One fold over ``trace.chunks()``, so a :class:`Trace` and a
    ``StreamedTrace`` of the same events digest alike.  Every event
    contributes all of its fields (time, kind, space, address, size,
    payload) in trace order; the trace *name* is deliberately excluded so
    two identical event streams digest alike regardless of labelling — the
    content-addressing property the batch result cache relies on.
    """
    hasher = hashlib.sha256()
    hasher.update(f"repro-trace-digest-v{TRACE_DIGEST_VERSION}\n".encode("ascii"))
    for chunk in trace.chunks():
        for start in range(0, len(chunk), _DIGEST_BLOCK):
            block = chunk[start : start + _DIGEST_BLOCK]
            for time, address, size, kind, space, value in block.rows():
                hasher.update(
                    f"{time} {_KIND_LETTERS[kind]} {_SPACE_LETTERS[space]} {address:#x} "
                    f"{size} {value}\n".encode("ascii")
                )
    return hasher.hexdigest()


def load_npz(path: str | Path) -> Trace:
    """Read an npz-format trace from ``path``.

    Each key :func:`save_npz` writes must be present, each numeric one a 1-D
    integer array within its dtype, and the columns must pass
    ``Trace.validate()``.  A violation raises ``ValueError`` naming
    the file (and the key or event index).
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
        trace = Trace(
            columns["addresses"],
            columns["times"],
            columns["kinds"],
            columns["sizes"],
            spaces=columns["spaces"],
            values=columns["values"],
            value_mask=columns["values"] != _NO_VALUE,
            name=name,
        )
        trace.validate()
    except ValueError as error:
        raise ValueError(f"{path}: {error}") from error
    return trace
