"""Columnar (structure-of-arrays) trace representation and vectorized kernels.

The scalar :class:`~repro.trace.trace.Trace` stores one Python object per
event, which is the right interface for producers — but every hot consumer
(memory playback, sleep simulation, profiling, affinity construction) would
then pay a Python-level loop per event.  A :class:`ColumnarTrace` holds the
same information as parallel NumPy arrays (``addresses``, ``timestamps``,
``kinds``, ``sizes``, ``spaces``), so those consumers run as vectorized
kernels instead: bank assignment is one :func:`numpy.searchsorted`, per-bank
access counts are one :func:`numpy.bincount`, idle-interval detection is one
:func:`numpy.diff`.

Conversion contract
-------------------
``from_arrays`` is zero-copy (the arrays are kept by reference, only dtype
coerced); ``from_trace`` is one O(n) pass.  Iteration yields one
:class:`MemoryAccess` per row, built on the first pass and kept, and
``to_trace`` copies those events into a fresh ``Trace``.  A round trip
through ``from_trace``/``to_trace`` reproduces every event field, including
optional value payloads.

Chunk protocol
--------------
Every trace consumer is one fold over columnar chunks.  ``Trace``,
:class:`ColumnarTrace` and :class:`~repro.trace.store.StreamedTrace` share
two methods: ``chunks()`` yields the trace as columnar chunks in trace
order, and ``map_chunks(fn)`` applies a per-chunk, count-preserving
transform.  A :class:`ColumnarTrace` is a one-chunk stream; a ``Trace`` is
its cached ``.columnar()`` view.

Equivalence contract
--------------------
Each kernel is pinned against a per-event reference implementation kept in
``tests/playback_oracle.py``: integer results (counts, cycles, wake events)
are identical by construction, and energy totals are bit-identical because
oracle and kernel feed the same per-bank merge point (see
``tests/test_properties_store.py``).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator

import numpy as np

from .events import AccessKind, AddressSpace, MemoryAccess
from .trace import Trace

__all__ = [
    "KIND_READ",
    "KIND_WRITE",
    "SPACE_DATA",
    "SPACE_INSTRUCTION",
    "ColumnarTrace",
    "assign_banks",
    "per_bank_read_write_counts",
    "idle_interval_split",
]

#: ``kinds`` column encoding (matches :class:`AccessKind` declaration order).
KIND_READ = 0
KIND_WRITE = 1

#: ``spaces`` column encoding (matches :class:`AddressSpace` declaration order).
SPACE_DATA = 0
SPACE_INSTRUCTION = 1


class ColumnarTrace:
    """A trace as parallel NumPy columns, one row per event.

    Parameters
    ----------
    addresses:
        Byte address per event (``int64``).
    timestamps:
        Logical timestamp per event (``int64``), non-decreasing by the same
        convention as :class:`~repro.trace.trace.Trace`.
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
        Human-readable label, mirroring ``Trace.name``.
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
    def from_trace(cls, trace: Trace) -> "ColumnarTrace":
        """Convert a scalar :class:`Trace` in one pass per column."""
        n = len(trace)
        events = trace.events
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
            name=trace.name,
        )

    @classmethod
    def from_arrays(
        cls,
        addresses: Iterable[int],
        timestamps: Iterable[int],
        kinds: Iterable[int] | None = None,
        sizes: Iterable[int] | None = None,
        name: str = "trace",
    ) -> "ColumnarTrace":
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

    def to_trace(self) -> Trace:
        """A fresh scalar :class:`Trace` of this trace's events (see ``__iter__``)."""
        return Trace(self, name=self.name)

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

    def __getitem__(self, index: slice) -> "ColumnarTrace":
        """The rows of a slice, as a ``ColumnarTrace`` (events: iterate)."""
        return self._masked(index)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ColumnarTrace(name={self.name!r}, events={len(self)})"

    # -- chunk protocol -----------------------------------------------------------

    def chunks(self) -> Iterator["ColumnarTrace"]:
        """The trace as one chunk: itself."""
        yield self

    def map_chunks(
        self, transform: Callable[["ColumnarTrace"], "ColumnarTrace"]
    ) -> "ColumnarTrace":
        """``transform`` applied to the trace's only chunk."""
        return transform(self)

    # -- views --------------------------------------------------------------------

    def _masked(self, mask: "np.ndarray | slice") -> "ColumnarTrace":
        if isinstance(mask, np.ndarray) and mask.all():
            return self  # every row kept: share the columns and the kept events
        return ColumnarTrace(
            self.addresses[mask],
            self.timestamps[mask],
            self.kinds[mask],
            self.sizes[mask],
            spaces=self.spaces[mask],
            values=None if self.values is None else self.values[mask],
            value_mask=None if self.value_mask is None else self.value_mask[mask],
            name=self.name,
        )

    def data_accesses(self) -> "ColumnarTrace":
        """Events targeting the data address space."""
        return self._masked(self.spaces == SPACE_DATA)

    def instruction_accesses(self) -> "ColumnarTrace":
        """Events targeting the instruction address space."""
        return self._masked(self.spaces == SPACE_INSTRUCTION)

    def reads(self) -> "ColumnarTrace":
        """Read events only."""
        return self._masked(self.kinds == KIND_READ)

    def writes(self) -> "ColumnarTrace":
        """Write events only."""
        return self._masked(self.kinds == KIND_WRITE)

    # -- summaries ----------------------------------------------------------------

    def block_ids(self, block_size: int) -> np.ndarray:
        """Block index of every event, in trace order."""
        if block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        return self.addresses // block_size

    def read_write_counts(self) -> tuple[int, int]:
        """``(number of reads, number of writes)``."""
        writes = int(np.count_nonzero(self.kinds == KIND_WRITE))
        return len(self) - writes, writes

    def address_range(self) -> tuple[int, int]:
        """``(lowest address, one past highest byte touched)``; ``(0, 0)`` if empty."""
        if not len(self):
            return (0, 0)
        low = int(self.addresses.min())
        high = int((self.addresses + self.sizes).max())
        return (low, high)

    def duration_cycles(self) -> int:
        """Timestamp span ``last - first + 1`` (0 for an empty trace)."""
        if not len(self):
            return 0
        return int(self.timestamps[-1]) - int(self.timestamps[0]) + 1

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


# -- vectorized kernels ----------------------------------------------------------


def assign_banks(
    addresses: np.ndarray, bank_bases: np.ndarray, bank_limits: np.ndarray
) -> np.ndarray:
    """Map each address to the index of the bank window containing it.

    ``bank_bases``/``bank_limits`` describe ascending, non-overlapping
    address windows (gaps between windows are allowed).  One
    :func:`numpy.searchsorted` replaces a per-event scan of the windows;
    any address outside every window raises ``ValueError`` naming
    the first offender in trace order.
    """
    bank_bases = np.asarray(bank_bases, dtype=np.int64)
    bank_limits = np.asarray(bank_limits, dtype=np.int64)
    addresses = np.asarray(addresses, dtype=np.int64)
    bank_ids = np.searchsorted(bank_bases, addresses, side="right") - 1
    clipped = np.clip(bank_ids, 0, len(bank_bases) - 1)
    outside = (bank_ids < 0) | (addresses >= bank_limits[clipped])
    if np.any(outside):
        offender = int(addresses[np.argmax(outside)])
        raise ValueError(f"address {offender:#x} outside every bank")
    return clipped


def per_bank_read_write_counts(
    bank_ids: np.ndarray, kinds: np.ndarray, num_banks: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-bank ``(reads, writes)`` counts via :func:`numpy.bincount`."""
    if num_banks <= 0:
        raise ValueError(f"num_banks must be positive, got {num_banks}")
    write_mask = np.asarray(kinds) == KIND_WRITE
    bank_ids = np.asarray(bank_ids)
    writes = np.bincount(bank_ids[write_mask], minlength=num_banks)
    totals = np.bincount(bank_ids, minlength=num_banks)
    return totals - writes, writes


def idle_interval_split(
    times: np.ndarray, timeout_cycles: int
) -> tuple[int, int, int]:
    """Split one bank's inter-access gaps into awake/asleep cycles.

    For the sorted access-time array of a single bank, returns
    ``(awake_cycles, asleep_cycles, wake_events)`` contributed by the gaps
    *between* consecutive accesses: a gap spends ``min(gap, timeout)`` cycles
    awake and the remainder asleep, and every gap exceeding the timeout
    costs one wake-up.  Lead-in and tail intervals are the caller's business
    (they depend on trace-global start/end times).
    """
    if timeout_cycles < 0:
        raise ValueError(f"timeout_cycles must be non-negative, got {timeout_cycles}")
    if len(times) < 2:
        return (0, 0, 0)
    gaps = np.diff(np.asarray(times, dtype=np.int64))
    over = gaps > timeout_cycles
    awake_cycles = int(np.minimum(gaps, timeout_cycles).sum())
    asleep_cycles = int((gaps[over] - timeout_cycles).sum())
    return awake_cycles, asleep_cycles, int(np.count_nonzero(over))
