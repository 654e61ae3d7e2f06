"""Trace containers.

A :class:`Trace` is an ordered collection of :class:`~repro.trace.events.MemoryAccess`
events plus convenience queries (filtering, block views, address statistics).
It is the hand-off object between trace *producers* (the ISS, synthetic
generators, file readers) and trace *consumers* (profiles, partitioners,
caches, platforms).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import TYPE_CHECKING, Callable

import numpy as np

from .events import AccessKind, AddressSpace, MemoryAccess

if TYPE_CHECKING:
    from .columnar import ColumnarTrace

__all__ = ["Trace"]


class Trace:
    """An ordered sequence of memory accesses.

    Parameters
    ----------
    events:
        Iterable of :class:`MemoryAccess`.  Events are stored in the order
        given; timestamps are expected to be non-decreasing (checked by
        :meth:`validate`, not at construction, to keep bulk loads cheap).
    name:
        Optional human-readable label (benchmark name, generator id).
    """

    def __init__(self, events: Iterable[MemoryAccess] = (), name: str = "trace") -> None:
        self._events: list[MemoryAccess] = list(events)
        self.name = name
        self._columnar = None

    # -- basic container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[MemoryAccess]:
        return iter(self._events)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trace(self._events[index], name=self.name)
        return self._events[index]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Trace(name={self.name!r}, events={len(self._events)})"

    def append(self, event: MemoryAccess) -> None:
        """Append one event to the trace."""
        self._events.append(event)
        self._columnar = None

    def extend(self, events: Iterable[MemoryAccess]) -> None:
        """Append many events to the trace."""
        self._events.extend(events)
        self._columnar = None

    def columnar(self):
        """Columnar (structure-of-arrays) view of this trace, cached.

        The first call pays one O(n) conversion; the view is invalidated by
        :meth:`append`/:meth:`extend`.  See :mod:`repro.trace.columnar`.
        """
        if self._columnar is None:
            from .columnar import ColumnarTrace

            self._columnar = ColumnarTrace.from_trace(self)
        return self._columnar

    def chunks(self) -> Iterator[ColumnarTrace]:
        """The trace as columnar chunks: its cached :meth:`columnar` view, once."""
        yield self.columnar()

    def map_chunks(
        self, transform: Callable[[ColumnarTrace], ColumnarTrace]
    ) -> ColumnarTrace:
        """``transform`` applied to the cached :meth:`columnar` view."""
        return transform(self.columnar())

    @property
    def events(self) -> Sequence[MemoryAccess]:
        """The underlying event list (read-only view by convention)."""
        return self._events

    # -- validation ---------------------------------------------------------------

    def validate(self) -> None:
        """Raise ``ValueError`` if ``ColumnarTrace.validate`` rejects :meth:`columnar`."""
        self.columnar().validate()

    # -- filtering ----------------------------------------------------------------

    def filter(self, predicate: Callable[[MemoryAccess], bool], name: str | None = None) -> "Trace":
        """Return a new trace containing only events matching ``predicate``."""
        return Trace(
            (event for event in self._events if predicate(event)),
            name=name if name is not None else self.name,
        )

    def reads(self) -> "Trace":
        """Events with :class:`AccessKind.READ`."""
        return self.filter(lambda event: event.kind is AccessKind.READ)

    def writes(self) -> "Trace":
        """Events with :class:`AccessKind.WRITE`."""
        return self.filter(lambda event: event.kind is AccessKind.WRITE)

    def data_accesses(self) -> "Trace":
        """Events targeting the data address space."""
        return self.filter(lambda event: event.space is AddressSpace.DATA)

    def instruction_accesses(self) -> "Trace":
        """Events targeting the instruction address space."""
        return self.filter(lambda event: event.space is AddressSpace.INSTRUCTION)

    # -- summaries ----------------------------------------------------------------

    def addresses(self) -> np.ndarray:
        """All addresses as a numpy ``int64`` array (in trace order)."""
        return np.fromiter(
            (event.address for event in self._events), dtype=np.int64, count=len(self._events)
        )

    def address_range(self) -> tuple[int, int]:
        """``(lowest address, one past highest byte touched)``; ``(0, 0)`` if empty."""
        if not self._events:
            return (0, 0)
        low = min(event.address for event in self._events)
        high = max(event.end_address for event in self._events)
        return (low, high)

    def footprint(self, block_size: int = 4) -> int:
        """Number of distinct ``block_size``-byte blocks touched."""
        return len({event.block(block_size) for event in self._events})

    def block_ids(self, block_size: int) -> np.ndarray:
        """Block index of every event, in trace order."""
        return self.addresses() // block_size

    def read_write_counts(self) -> tuple[int, int]:
        """``(number of reads, number of writes)``."""
        reads = sum(1 for event in self._events if event.is_read)
        return reads, len(self._events) - reads

    # -- transformation -----------------------------------------------------------

    def remap(self, mapping: Callable[[int], int], name: str | None = None) -> "Trace":
        """Apply an address mapping function to every event.

        Used by address clustering: the mapping moves blocks around, and the
        remapped trace is what the partitioned memory actually sees.
        """
        remapped = (event.with_address(mapping(event.address)) for event in self._events)
        return Trace(remapped, name=name if name is not None else f"{self.name}+remap")

    def concatenate(self, other: "Trace", name: str | None = None) -> "Trace":
        """Concatenate another trace after this one, shifting its timestamps."""
        offset = (self._events[-1].time + 1) if self._events else 0
        shifted = [
            MemoryAccess(
                time=event.time + offset,
                address=event.address,
                size=event.size,
                kind=event.kind,
                space=event.space,
                value=event.value,
            )
            for event in other
        ]
        return Trace(
            self._events + shifted,
            name=name if name is not None else f"{self.name}+{other.name}",
        )
