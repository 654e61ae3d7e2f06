"""The in-memory trace: parallel NumPy columns, one row per event.

A :class:`Trace` is the hand-off object between trace *producers* (the ISS,
synthetic generators, file readers) and trace *consumers* (profiles,
partitioners, caches, platforms).  It holds its events as parallel columns
(``addresses``, ``timestamps``, ``kinds``, ``sizes``, ``spaces`` and optional
value payloads), so the hot consumers (memory playback, sleep simulation,
profiling, affinity construction) run as vectorized kernels: bank assignment
is one :func:`numpy.searchsorted`, per-bank access counts one
:func:`numpy.bincount`, idle-interval detection one :func:`numpy.diff`.

Rows and events
---------------
``rows()`` yields each row's fields as plain Python values, the form the
per-row loops (text files, digests, inline specs) consume.  Iterating a trace
yields one :class:`~repro.trace.events.MemoryAccess` per row, built on the
first pass and kept: the only code that builds events from columns.
:meth:`Trace.from_events` is the one path the other way, for traces built
event by event (tests, oracles, inline specs).

Chunk protocol
--------------
Every trace consumer is one fold over columnar chunks.  ``Trace`` and
:class:`~repro.trace.store.StreamedTrace` share two methods: ``chunks()``
yields the trace as ``Trace`` chunks in trace order, and ``map_chunks(fn)``
applies a per-chunk, count-preserving transform.  A ``Trace`` is a one-chunk
stream: itself.

Equivalence contract
--------------------
Each kernel is pinned against a per-event reference implementation kept in
``tests/playback_oracle.py``: integer results (counts, cycles, wake events)
are identical by construction, and energy totals are bit-identical because
oracle and kernel feed the same per-bank merge point.  An in-memory trace
and the same trace streamed from a store agree exactly (see
``tests/test_properties_store.py``).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator

import numpy as np

from .events import AccessKind, AddressSpace, MemoryAccess

__all__ = ["KIND_READ", "KIND_WRITE", "SPACE_DATA", "SPACE_INSTRUCTION", "Trace"]

#: ``kinds`` column encoding (matches :class:`AccessKind` declaration order).
KIND_READ = 0
KIND_WRITE = 1

#: ``spaces`` column encoding (matches :class:`AddressSpace` declaration order).
SPACE_DATA = 0
SPACE_INSTRUCTION = 1


class Trace:
    """An ordered sequence of memory accesses, as parallel columns.

    Parameters
    ----------
    addresses:
        Byte address per event (``int64``).
    timestamps:
        Logical timestamp per event (``int64``); non-decreasing by
        convention, checked by :meth:`validate`, not at construction, to
        keep bulk loads cheap.
    kinds:
        :data:`KIND_READ`/:data:`KIND_WRITE` per event (``uint8``).
    sizes:
        Access width in bytes per event (``int64``).
    spaces:
        :data:`SPACE_DATA`/:data:`SPACE_INSTRUCTION` per event (``uint8``);
        defaults to all-data.
    values:
        Optional data payloads (``int64``); entries are meaningful only where
        ``value_mask`` is ``True``.
    value_mask:
        Boolean mask of events that carry a payload; ``None`` (the default)
        means no event does.
    name:
        Human-readable label (benchmark name, generator id).
    """

    def __init__(
        self,
        addresses: np.ndarray,
        timestamps: np.ndarray,
        kinds: np.ndarray,
        sizes: np.ndarray,
        spaces: np.ndarray | None = None,
        values: np.ndarray | None = None,
        value_mask: np.ndarray | None = None,
        name: str = "trace",
    ) -> None:
        self.addresses = np.asarray(addresses, dtype=np.int64)
        self.timestamps = np.asarray(timestamps, dtype=np.int64)
        self.kinds = np.asarray(kinds, dtype=np.uint8)
        self.sizes = np.asarray(sizes, dtype=np.int64)
        if spaces is None:
            spaces = np.zeros(len(self.addresses), dtype=np.uint8)
        self.spaces = np.asarray(spaces, dtype=np.uint8)
        self.values = None if values is None else np.asarray(values, dtype=np.int64)
        self.value_mask = (
            None if value_mask is None else np.asarray(value_mask, dtype=bool)
        )
        self.name = name
        self._events: list[MemoryAccess] | None = None
        n = len(self.addresses)
        for label, column in (
            ("timestamps", self.timestamps),
            ("kinds", self.kinds),
            ("sizes", self.sizes),
            ("spaces", self.spaces),
            ("values", self.values),
            ("value_mask", self.value_mask),
        ):
            if column is not None and len(column) != n:
                raise ValueError(
                    f"column {label} has {len(column)} rows, expected {n}"
                )

    # -- construction -------------------------------------------------------------

    @classmethod
    def from_events(cls, events: Iterable[MemoryAccess], name: str = "trace") -> "Trace":
        """The trace of ``events``, in one pass per column.

        Payload columns are present when any event carries a value.
        """
        events = list(events)
        n = len(events)
        addresses = np.fromiter((e.address for e in events), dtype=np.int64, count=n)
        timestamps = np.fromiter((e.time for e in events), dtype=np.int64, count=n)
        kinds = np.fromiter(
            (KIND_WRITE if e.kind is AccessKind.WRITE else KIND_READ for e in events),
            dtype=np.uint8,
            count=n,
        )
        sizes = np.fromiter((e.size for e in events), dtype=np.int64, count=n)
        spaces = np.fromiter(
            (
                SPACE_INSTRUCTION if e.space is AddressSpace.INSTRUCTION else SPACE_DATA
                for e in events
            ),
            dtype=np.uint8,
            count=n,
        )
        values = None
        value_mask = None
        if any(e.value is not None for e in events):
            values = np.fromiter(
                (0 if e.value is None else e.value for e in events),
                dtype=np.int64,
                count=n,
            )
            value_mask = np.fromiter(
                (e.value is not None for e in events), dtype=bool, count=n
            )
        return cls(
            addresses,
            timestamps,
            kinds,
            sizes,
            spaces=spaces,
            values=values,
            value_mask=value_mask,
            name=name,
        )

    @classmethod
    def from_arrays(
        cls,
        addresses: Iterable[int],
        timestamps: Iterable[int],
        kinds: Iterable[int] | None = None,
        sizes: Iterable[int] | None = None,
        name: str = "trace",
    ) -> "Trace":
        """Build from address/timestamp arrays with defaulted columns.

        ``kinds`` defaults to all-reads and ``sizes`` to 4-byte accesses —
        the common shape of synthetic address traces.  Existing ``int64``
        inputs are kept by reference (zero-copy).
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        timestamps = np.asarray(timestamps, dtype=np.int64)
        if kinds is None:
            kinds = np.zeros(len(addresses), dtype=np.uint8)
        if sizes is None:
            sizes = np.full(len(addresses), 4, dtype=np.int64)
        return cls(addresses, timestamps, kinds, sizes, name=name)

    # The benchmark tracer (``SPAN_ENTRY_POINTS`` in ``perfbench/tracer.py``)
    # still times these three names; nothing in the package calls them.

    def columnar(self) -> "Trace":
        """The trace itself (a ``SPAN_ENTRY_POINTS`` name)."""
        return self

    def to_trace(self) -> "Trace":
        """The trace itself (a ``SPAN_ENTRY_POINTS`` name)."""
        return self

    @classmethod
    def from_trace(cls, trace: "Trace") -> "Trace":
        """``trace`` itself (a ``SPAN_ENTRY_POINTS`` name)."""
        return trace

    # -- container protocol -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.addresses)

    def __iter__(self) -> Iterator[MemoryAccess]:
        """One :class:`MemoryAccess` per row: the only code building events.

        The event list is built on the first pass and kept, so every later
        pass yields the same objects.
        """
        if self._events is None:
            kinds = (AccessKind.READ, AccessKind.WRITE)
            spaces = (AddressSpace.DATA, AddressSpace.INSTRUCTION)
            self._events = [
                MemoryAccess(time, address, size, kinds[kind], spaces[space], value)
                for time, address, size, kind, space, value in self.rows()
            ]
        return iter(self._events)

    def rows(self) -> Iterator[tuple]:
        """``(time, address, size, kind code, space code, payload or None)`` per row."""
        values = [None] * len(self)
        if self.values is not None and self.value_mask is not None:
            mask = self.value_mask.tolist()
            values = [value if has else None for value, has in zip(self.values.tolist(), mask)]
        columns = (self.timestamps, self.addresses, self.sizes, self.kinds, self.spaces)
        return zip(*(column.tolist() for column in columns), values)

    def __getitem__(self, rows: "slice | np.ndarray") -> "Trace":
        """The rows of a slice or a boolean mask, as a new ``Trace``.

        An integer index raises ``TypeError``: iterate for events.
        """
        if isinstance(rows, (int, np.integer)):
            raise TypeError(f"a trace is indexed by a slice or a mask, not {rows!r}")
        return Trace(
            self.addresses[rows],
            self.timestamps[rows],
            self.kinds[rows],
            self.sizes[rows],
            spaces=self.spaces[rows],
            values=None if self.values is None else self.values[rows],
            value_mask=None if self.value_mask is None else self.value_mask[rows],
            name=self.name,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Trace(name={self.name!r}, events={len(self)})"

    # -- chunk protocol -----------------------------------------------------------

    def chunks(self) -> Iterator["Trace"]:
        """The trace as one chunk: itself."""
        yield self

    def map_chunks(self, transform: Callable[["Trace"], "Trace"]) -> "Trace":
        """``transform`` applied to the trace's only chunk."""
        return transform(self)

    # -- filters ------------------------------------------------------------------

    def _kept(self, mask: np.ndarray) -> "Trace":
        """The rows of ``mask``; the trace itself when every row is kept."""
        return self if mask.all() else self[mask]

    def data_accesses(self) -> "Trace":
        """Events targeting the data address space."""
        return self._kept(self.spaces == SPACE_DATA)

    def instruction_accesses(self) -> "Trace":
        """Events targeting the instruction address space."""
        return self._kept(self.spaces == SPACE_INSTRUCTION)

    def reads(self) -> "Trace":
        """Read events only."""
        return self._kept(self.kinds == KIND_READ)

    def writes(self) -> "Trace":
        """Write events only."""
        return self._kept(self.kinds == KIND_WRITE)

    # -- summaries ----------------------------------------------------------------

    def block_ids(self, block_size: int) -> np.ndarray:
        """Block index of every event, in trace order."""
        if block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        return self.addresses // block_size

    def footprint(self, block_size: int = 4) -> int:
        """Number of distinct ``block_size``-byte blocks touched."""
        return len(np.unique(self.block_ids(block_size)))

    def read_write_counts(self) -> tuple[int, int]:
        """``(number of reads, number of writes)``."""
        writes = int(np.count_nonzero(self.kinds == KIND_WRITE))
        return len(self) - writes, writes

    def validate(self) -> None:
        """Check the trace invariants, one vectorized pass per column.

        Timestamps are non-negative and non-decreasing, addresses are
        non-negative, sizes are positive, and kind and space codes are 0 or
        1.  A violation raises ``ValueError`` naming the first offending
        event's index and value.
        """
        times, addresses, sizes = self.timestamps, self.addresses, self.sizes
        decreasing = np.diff(times, prepend=times[:1]) < 0
        for field, column, bad, rule in (
            ("timestamp", times, times < 0, "timestamps must be non-negative"),
            ("timestamp", times, decreasing, "timestamps must be non-decreasing"),
            ("address", addresses, addresses < 0, "addresses must be non-negative"),
            ("size", sizes, sizes <= 0, "sizes must be positive"),
            ("kind code", self.kinds, self.kinds > 1, "kind codes must be 0 or 1"),
            ("space code", self.spaces, self.spaces > 1, "space codes must be 0 or 1"),
        ):
            if bad.any():
                index = int(np.argmax(bad))
                raise ValueError(f"event {index} has {field} {int(column[index])}, but {rule}")
