"""Versioned, memory-mapped on-disk columnar trace store.

A *trace store* is a directory (conventionally ``*.tstore``) holding one
``.npy`` file per trace column (``addresses``, ``timestamps``, ``kinds``,
``sizes``, ``spaces``, optionally ``values``/``value_mask``) plus a
``header.json`` describing the layout: schema version, event count, chunk
size, per-column dtypes and content digests, and the trace's
:func:`~repro.trace.io.trace_digest` as its content identity.  Per-column
``.npy`` files (rather than one ``.npz`` archive) are what make the format
*memory-mapped*: :func:`numpy.load` only supports ``mmap_mode`` for bare
``.npy`` files, so every column opens as a zero-copy view over the page
cache and a trace much larger than RAM never has to be resident at once.

Two readers are provided:

* :func:`load_store` — the whole trace as one
  :class:`~repro.trace.columnar.ColumnarTrace` whose columns are memory
  maps (zero-copy; the OS pages data in on demand);
* :func:`open_store` — a :class:`StreamedTrace` that replays the trace
  chunk-by-chunk through the existing vectorized kernels, bounding peak
  memory by the chunk size instead of the trace size.

Integrity contract
------------------
Every header carries a ``header_digest`` (SHA-256 of its own canonical
JSON), and every column's raw bytes are digested into the header.  A
truncated column, a flipped header byte, a wrong schema version, or a
tampered column therefore fails *loudly* — always as a :class:`StoreError`
chained onto the underlying cause — and never plays back wrong events.
Callers that treat the store as a cache (the batch runner) catch
:class:`StoreError` and fall back to re-deriving the trace from its
recipe: corruption degrades to a cache miss, never to wrong results.

Bit-identity contract
---------------------
A round trip through :func:`save_store`/:func:`load_store` reproduces
every column bit-for-bit, and streamed playback of a store agrees exactly
with the per-event reference of the same trace at any chunk size — the
``oracle == kernel`` contract pinned by ``tests/test_properties_store.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path
from typing import Callable, Iterator, Optional

import numpy as np

from .columnar import ColumnarTrace
from .io import trace_digest

__all__ = [
    "TRACE_STORE_SCHEMA_VERSION",
    "STORE_SUFFIX",
    "DEFAULT_CHUNK_EVENTS",
    "StoreError",
    "StreamedTrace",
    "build_store_header",
    "save_store",
    "read_store_header",
    "load_store",
    "open_store",
    "verify_store",
    "store_digest",
]

#: Version of the on-disk store layout (the ``"schema"`` header key).  Bump
#: when the directory layout, the header vocabulary, or a column encoding
#: changes; readers reject any other version rather than guess.
TRACE_STORE_SCHEMA_VERSION = 1

#: Conventional directory suffix for trace stores (what the CLI and the
#: batch spec resolver recognise).
STORE_SUFFIX = ".tstore"

#: Default events per playback chunk.  Small enough that a chunk's working
#: copies stay a few megabytes; large enough that per-chunk Python overhead
#: is noise next to the vectorized kernels.
DEFAULT_CHUNK_EVENTS = 65536

#: Required columns, in canonical order, with their pinned dtypes.
_REQUIRED_COLUMNS = (
    ("addresses", "int64"),
    ("timestamps", "int64"),
    ("kinds", "uint8"),
    ("sizes", "int64"),
    ("spaces", "uint8"),
)

#: Optional value-payload columns (present together or not at all).
_VALUE_COLUMNS = (("values", "int64"), ("value_mask", "bool"))


class StoreError(RuntimeError):
    """A trace store failed validation (corrupt, truncated, or mismatched).

    Always raised ``from`` the underlying cause (a JSON decode error, a
    NumPy load failure, or a :class:`ValueError` naming the violated
    invariant), so ``__cause__`` explains *why* the store was rejected.
    """


def _column_arrays(columnar: ColumnarTrace) -> dict:
    """The store's column name → array mapping for one columnar trace."""
    columns = {
        "addresses": columnar.addresses,
        "timestamps": columnar.timestamps,
        "kinds": columnar.kinds,
        "sizes": columnar.sizes,
        "spaces": columnar.spaces,
    }
    if columnar.values is not None and columnar.value_mask is not None:
        columns["values"] = columnar.values
        columns["value_mask"] = columnar.value_mask
    return columns


def _header_digest(header: dict) -> str:
    """SHA-256 over the header's canonical JSON, ``header_digest`` excluded."""
    pruned = {key: value for key, value in header.items() if key != "header_digest"}
    return hashlib.sha256(
        json.dumps(pruned, sort_keys=True).encode("ascii")
    ).hexdigest()


def build_store_header(
    columnar: ColumnarTrace, chunk_size: int, digest: str
) -> dict:
    """Assemble the ``header.json`` payload for one trace.

    ``digest`` is the trace's content digest
    (:func:`~repro.trace.io.trace_digest`); the per-column SHA-256 digests
    and the self-describing ``header_digest`` are computed here.  Keys are
    emitted sorted (canonical JSON) by :func:`save_store`.
    """
    columns = {
        name: {
            "dtype": str(array.dtype),
            "sha256": hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest(),
        }
        for name, array in _column_arrays(columnar).items()
    }
    header = {
        "schema": TRACE_STORE_SCHEMA_VERSION,
        "name": columnar.name,
        "events": len(columnar),
        "chunk_size": int(chunk_size),
        "trace_digest": digest,
        "columns": columns,
    }
    header["header_digest"] = _header_digest(header)
    return header


def save_store(
    trace, path, chunk_size: int = DEFAULT_CHUNK_EVENTS
) -> Path:
    """Pack a trace into an on-disk store directory; return its path.

    ``trace`` may be a scalar :class:`~repro.trace.trace.Trace` or a
    :class:`~repro.trace.columnar.ColumnarTrace`; an invalid one raises
    ``ValueError`` before anything is written.  The store is assembled in a
    scratch sibling directory and renamed into place, so a crash mid-pack
    never leaves a half-written store under the target name.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    columnar = trace if isinstance(trace, ColumnarTrace) else trace.columnar()
    columnar.validate()
    path = Path(path)
    header = build_store_header(columnar, chunk_size, trace_digest(columnar))
    scratch = path.with_name(f"{path.name}.packing-{os.getpid()}")
    if scratch.exists():
        shutil.rmtree(scratch)
    scratch.mkdir(parents=True)
    try:
        for name, array in _column_arrays(columnar).items():
            np.save(scratch / f"{name}.npy", np.ascontiguousarray(array))
        with (scratch / "header.json").open("w") as handle:
            json.dump(header, handle, sort_keys=True, indent=1)
            handle.write("\n")
        if path.exists():
            shutil.rmtree(path)
        os.rename(scratch, path)
    finally:
        if scratch.exists():
            shutil.rmtree(scratch)
    return path


def _validate_header(header: dict) -> None:
    """Check a parsed header's invariants; raise ``ValueError`` on violation."""
    digest = header.get("header_digest")
    if digest != _header_digest(header):
        raise ValueError(
            f"header digest mismatch: recorded {digest!r}, "
            f"recomputed {_header_digest(header)!r} (header bytes corrupted)"
        )
    schema = header.get("schema")
    if schema != TRACE_STORE_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported store schema version {schema!r}; this reader "
            f"supports version {TRACE_STORE_SCHEMA_VERSION}"
        )
    events = header.get("events")
    if not isinstance(events, int) or events < 0:
        raise ValueError(f"invalid event count {events!r} in store header")
    chunk = header.get("chunk_size")
    if not isinstance(chunk, int) or chunk <= 0:
        raise ValueError(f"invalid chunk_size {chunk!r} in store header")
    columns = header.get("columns")
    if not isinstance(columns, dict):
        raise ValueError(f"invalid columns table {columns!r} in store header")
    declared = {name: spec for name, spec in _REQUIRED_COLUMNS}
    declared.update(dict(_VALUE_COLUMNS))
    for name, dtype in _REQUIRED_COLUMNS:
        if name not in columns:
            raise ValueError(f"store header is missing required column {name!r}")
    has_values = [name for name, _ in _VALUE_COLUMNS if name in columns]
    if has_values and len(has_values) != len(_VALUE_COLUMNS):
        raise ValueError(
            f"store header declares {has_values} without its partner; value "
            f"columns must appear together"
        )
    for name, spec in columns.items():
        if name not in declared:
            raise ValueError(f"store header declares unknown column {name!r}")
        if not isinstance(spec, dict) or spec.get("dtype") != declared[name]:
            raise ValueError(
                f"column {name!r} declares dtype "
                f"{spec.get('dtype') if isinstance(spec, dict) else spec!r}, "
                f"expected {declared[name]!r}"
            )


def read_store_header(path) -> dict:
    """Read and validate ``header.json`` of the store at ``path``.

    Validation covers the header itself (its self-digest, the schema
    version, the column table); column *data* is only checked by
    :func:`verify_store` or the loaders' length checks.  Any failure
    raises :class:`StoreError` chained onto the cause.
    """
    path = Path(path)
    header_path = path / "header.json"
    try:
        text = header_path.read_text()
    except OSError as error:
        raise StoreError(f"cannot read trace-store header {header_path}") from error
    try:
        header = json.loads(text)
    except json.JSONDecodeError as error:
        raise StoreError(f"corrupt trace-store header {header_path}") from error
    try:
        _validate_header(header)
    except ValueError as error:
        raise StoreError(f"invalid trace-store header {header_path}") from error
    return header


def store_digest(path) -> str:
    """The stored trace's content digest, read from the header alone.

    This is what lets the batch runner key its result cache on a store
    without materializing a single event.
    """
    return str(read_store_header(path)["trace_digest"])


def _open_columns(path: Path, header: dict) -> dict:
    """Memory-map every column declared in ``header``; verify lengths."""
    events = header["events"]
    columns = {}
    for name, spec in header["columns"].items():
        column_path = path / f"{name}.npy"
        try:
            array = np.load(column_path, mmap_mode="r")
        except (OSError, ValueError) as error:
            raise StoreError(
                f"cannot map trace-store column {column_path}"
            ) from error
        try:
            if str(array.dtype) != spec["dtype"]:
                raise ValueError(
                    f"column {name!r} file has dtype {array.dtype}, header "
                    f"declares {spec['dtype']!r}"
                )
            if len(array) != events:
                raise ValueError(
                    f"column {name!r} holds {len(array)} rows, header "
                    f"declares {events}"
                )
        except ValueError as error:
            raise StoreError(f"inconsistent trace-store column {column_path}") from error
        columns[name] = array
    return columns


def _verify_columns(path: Path, header: dict, columns: dict) -> None:
    """Check every column's bytes against the header digests."""
    for name, spec in header["columns"].items():
        recorded = spec["sha256"]
        actual = hashlib.sha256(
            np.ascontiguousarray(columns[name]).tobytes()
        ).hexdigest()
        if actual != recorded:
            try:
                raise ValueError(
                    f"column {name!r} digest mismatch: header records "
                    f"{recorded}, data hashes to {actual}"
                )
            except ValueError as error:
                raise StoreError(
                    f"corrupt trace-store column data in {path}"
                ) from error


def _columnar_from(columns: dict, name: str) -> ColumnarTrace:
    """Wrap mapped columns as a zero-copy :class:`ColumnarTrace`."""
    return ColumnarTrace(
        columns["addresses"],
        columns["timestamps"],
        columns["kinds"],
        columns["sizes"],
        spaces=columns["spaces"],
        values=columns.get("values"),
        value_mask=columns.get("value_mask"),
        name=name,
    )


def load_store(path, verify: bool = False) -> ColumnarTrace:
    """Open the store at ``path`` as one memory-mapped :class:`ColumnarTrace`.

    Columns are zero-copy views over the mapped files — the OS pages event
    data in on first touch.  ``verify=True`` additionally hashes every
    column against the header digests (one sequential read, no parsing):
    the mode the batch workers use, where a corrupt store must surface as
    a :class:`StoreError` rather than as wrong results.
    """
    path = Path(path)
    header = read_store_header(path)
    columns = _open_columns(path, header)
    if verify:
        _verify_columns(path, header, columns)
    return _columnar_from(columns, str(header["name"]))


def verify_store(path) -> dict:
    """Fully validate the store at ``path``; return its header.

    Checks the header self-digest, schema version, column table, column
    lengths, and every column's content digest.  Raises :class:`StoreError`
    (cause-chained) on the first violation.
    """
    path = Path(path)
    header = read_store_header(path)
    columns = _open_columns(path, header)
    _verify_columns(path, header, columns)
    return header


def open_store(
    path, chunk_size: Optional[int] = None, verify: bool = False
) -> "StreamedTrace":
    """Open the store at ``path`` for chunked streaming playback.

    ``chunk_size`` overrides the header's packing chunk size (events per
    chunk); ``verify`` is as in :func:`load_store`.  The returned
    :class:`StreamedTrace` yields zero-copy columnar chunks, so playback
    memory is bounded by the chunk size regardless of trace length.
    """
    path = Path(path)
    header = read_store_header(path)
    columns = _open_columns(path, header)
    if verify:
        _verify_columns(path, header, columns)
    if chunk_size is None:
        chunk_size = int(header["chunk_size"])
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    events = int(header["events"])
    name = str(header["name"])
    base = _columnar_from(columns, name)

    def _chunks() -> Iterator[ColumnarTrace]:
        for start in range(0, events, chunk_size):
            yield base[start : start + chunk_size]

    return StreamedTrace(
        _chunks,
        name=name,
        digest=str(header["trace_digest"]),
        length=events,
        chunk_size=chunk_size,
    )


class StreamedTrace:
    """A trace replayed as a sequence of columnar chunks.

    Implements the chunk protocol (``chunks``/``map_chunks``) that every
    trace consumer folds over, so the playback layers accumulate per-chunk
    integer counters into one merge point whatever the chunking — which is
    what makes streamed reports bit-identical to in-memory ones.

    Parameters
    ----------
    chunk_factory:
        Zero-argument callable returning a fresh iterator of
        :class:`~repro.trace.columnar.ColumnarTrace` chunks.  Chunks
        arrive in trace order; a derived view (filter, remap) may yield
        empty chunks.
    name:
        Trace label, mirroring ``Trace.name``.
    digest:
        Content digest when known (stores carry it in their header);
        ``None`` for derived views.
    length:
        Total event count when known; ``None`` defers to a counting pass
        over the chunks on first :func:`len`.
    chunk_size:
        Nominal events per chunk of the *base* store (views keep their
        parent's value for reporting; filtered chunks may be shorter).
    """

    def __init__(
        self,
        chunk_factory: Callable[[], Iterator[ColumnarTrace]],
        name: str = "trace",
        digest: Optional[str] = None,
        length: Optional[int] = None,
        chunk_size: int = DEFAULT_CHUNK_EVENTS,
    ) -> None:
        self._chunk_factory = chunk_factory
        self.name = name
        self.digest = digest
        self._length = length
        self.chunk_size = chunk_size

    def chunks(self) -> Iterator[ColumnarTrace]:
        """A fresh iterator over the trace's columnar chunks, in order."""
        return self._chunk_factory()

    def __len__(self) -> int:
        if self._length is None:
            self._length = sum(len(chunk) for chunk in self.chunks())
        return self._length

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        size = "?" if self._length is None else str(self._length)
        return f"StreamedTrace(name={self.name!r}, events={size})"

    # -- derived views ------------------------------------------------------------

    def map_chunks(
        self,
        transform: Callable[[ColumnarTrace], ColumnarTrace],
        name: Optional[str] = None,
    ) -> "StreamedTrace":
        """A lazily-transformed view applying ``transform`` per chunk.

        The transform must preserve event count (remaps, translations);
        length is inherited so no counting pass is triggered.
        """
        return StreamedTrace(
            lambda: (transform(chunk) for chunk in self.chunks()),
            name=self.name if name is None else name,
            length=self._length,
            chunk_size=self.chunk_size,
        )

    def _filtered(self, method: str) -> "StreamedTrace":
        """A lazily-filtered view calling ``method`` on every chunk."""
        return StreamedTrace(
            lambda: (getattr(chunk, method)() for chunk in self.chunks()),
            name=self.name,
            length=None,
            chunk_size=self.chunk_size,
        )

    def data_accesses(self) -> "StreamedTrace":
        """Events targeting the data address space."""
        return self._filtered("data_accesses")

    def instruction_accesses(self) -> "StreamedTrace":
        """Events targeting the instruction address space."""
        return self._filtered("instruction_accesses")

    def reads(self) -> "StreamedTrace":
        """Read events only."""
        return self._filtered("reads")

    def writes(self) -> "StreamedTrace":
        """Write events only."""
        return self._filtered("writes")

    # -- materialization ----------------------------------------------------------

    def materialize(self) -> ColumnarTrace:
        """Concatenate every chunk into one in-memory :class:`ColumnarTrace`.

        For tests and small traces; defeats the memory bound by design.
        """
        chunks = [chunk for chunk in self.chunks() if len(chunk)]
        if not chunks:
            return ColumnarTrace(
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.uint8),
                np.empty(0, dtype=np.int64),
                name=self.name,
            )
        has_values = all(
            chunk.values is not None and chunk.value_mask is not None
            for chunk in chunks
        )
        return ColumnarTrace(
            np.concatenate([chunk.addresses for chunk in chunks]),
            np.concatenate([chunk.timestamps for chunk in chunks]),
            np.concatenate([chunk.kinds for chunk in chunks]),
            np.concatenate([chunk.sizes for chunk in chunks]),
            spaces=np.concatenate([chunk.spaces for chunk in chunks]),
            values=(
                np.concatenate([chunk.values for chunk in chunks])
                if has_values
                else None
            ),
            value_mask=(
                np.concatenate([chunk.value_mask for chunk in chunks])
                if has_values
                else None
            ),
            name=self.name,
        )
