"""Set-associative cache simulator: LRU, write-back, write-allocate.

The cache is a *traffic transformer*: it consumes word accesses and produces
line transfers (refills from and write-backs to the next memory level).  The
compression experiments (E2) hang off exactly those line transfers, so
:meth:`Cache.run` returns them explicitly, each with the index of the access
that caused it, instead of hiding them inside statistics.

The geometry is any power-of-two total size / line size / associativity.
The policy is the one the Lx-ST200 and the MIPS baseline of 1B-2 use: LRU
replacement, write-back, write-allocate.

Under LRU a hit is a stack depth below the associativity (Mattson et al.,
IBM Systems Journal 9(2), 1970), so only misses need work.
:meth:`Cache.run` collapses each run of consecutive accesses to one line:
only the run's first access can miss, and the run dirties the line if any
of its accesses writes.  It then walks the runs against one recency list per
set.  The per-access walk it replaces is the oracle in
``tests/cache_oracle.py``; a property pins the two equal, flush included.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterable

import numpy as np

from ..memory.energy import SRAMEnergyModel

__all__ = ["CacheConfig", "LineTransfer", "CacheStats", "Cache"]


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Cache geometry.

    Parameters
    ----------
    size:
        Total data capacity in bytes.
    line_size:
        Line (block) size in bytes.
    ways:
        Associativity; ``1`` gives a direct-mapped cache.
    """

    size: int = 8 * 1024
    line_size: int = 32
    ways: int = 4

    def __post_init__(self) -> None:
        for name in ("size", "line_size", "ways"):
            if not _is_power_of_two(getattr(self, name)):
                raise ValueError(f"{name} must be a positive power of two")
        if self.line_size > self.size:
            raise ValueError(f"line_size {self.line_size} exceeds cache size {self.size}")
        if self.ways * self.line_size > self.size:
            raise ValueError(
                f"ways * line_size = {self.ways * self.line_size} exceeds "
                f"cache size {self.size}"
            )

    @property
    def num_sets(self) -> int:
        """Number of sets."""
        return self.size // (self.line_size * self.ways)

    @property
    def num_lines(self) -> int:
        """Total number of lines."""
        return self.size // self.line_size


@dataclass(frozen=True)
class LineTransfer:
    """One line moved between the cache and the next level."""

    line_address: int  # base byte address of the line
    size: int  # line size in bytes
    is_writeback: bool  # True: dirty eviction to memory; False: refill from memory


@dataclass
class CacheStats:
    """Aggregate cache statistics."""

    accesses: int = 0
    hits: int = 0
    read_misses: int = 0
    write_misses: int = 0
    writebacks: int = 0
    refills: int = 0

    @property
    def misses(self) -> int:
        """Total misses."""
        return self.read_misses + self.write_misses

    @property
    def hit_rate(self) -> float:
        """Hit rate in [0, 1] (1.0 when no accesses)."""
        return self.hits / self.accesses if self.accesses else 1.0

    @property
    def miss_rate(self) -> float:
        """Miss rate in [0, 1]."""
        return 1.0 - self.hit_rate


class Cache:
    """A set-associative LRU write-back, write-allocate cache.

    Parameters
    ----------
    config:
        Geometry.
    energy_model:
        Optional SRAM model used by :meth:`access_energy` to price each
        lookup; misses additionally pay the next level through whatever the
        caller wires up.
    name:
        Label for reports.
    """

    def __init__(
        self,
        config: CacheConfig,
        energy_model: SRAMEnergyModel | None = None,
        name: str = "cache",
    ) -> None:
        self.config = config
        self.name = name
        self.energy_model = energy_model if energy_model is not None else SRAMEnergyModel()
        self.reset()

    def line_address(self, address: int) -> int:
        """Base address of the line containing ``address``."""
        return address - (address % self.config.line_size)

    # -- the access path ----------------------------------------------------------

    def run(
        self, addresses: Iterable[int], writes: Iterable[bool] | None = None
    ) -> list[tuple[int, LineTransfer]]:
        """Replay an access stream; return its line transfers in order.

        ``addresses`` are byte addresses and ``writes`` flags the stores
        (``None``: every access reads).  Each transfer comes paired with the
        index in ``addresses`` of the access that caused it: a miss yields the
        write-back of its victim, when that line is dirty, then its refill.
        The cache keeps its contents between calls, so two calls give the
        transfers of one call over the concatenated stream.
        """
        lines = np.asarray(addresses, dtype=np.int64)
        count = len(lines)
        if count == 0:
            return []
        negative = np.flatnonzero(lines < 0)
        if negative.size:
            raise ValueError(f"address must be non-negative, got {lines[negative[0]]}")
        config = self.config
        line_size, ways, set_mask = config.line_size, config.ways, config.num_sets - 1
        lines = lines // line_size
        starts = np.flatnonzero(np.concatenate(([True], lines[1:] != lines[:-1])))
        if writes is None:
            run_dirty = first_writes = repeat(False)
        else:
            flags = np.asarray(writes, dtype=bool)
            if len(flags) != count:
                raise ValueError(f"writes has {len(flags)} flags for {count} addresses")
            run_dirty = np.logical_or.reduceat(flags, starts).tolist()
            first_writes = flags[starts].tolist()

        recency, slots, dirty = self._recency, self._slots, self._dirty
        transfers: list[tuple[int, LineTransfer]] = []
        read_misses = write_misses = writebacks = 0
        for start, line, dirties, first_write in zip(
            starts.tolist(), lines[starts].tolist(), run_dirty, first_writes
        ):
            stack = recency[line & set_mask]  # LRU first
            if line in stack:
                if stack[-1] != line:
                    stack.remove(line)
                    stack.append(line)
            else:
                if first_write:
                    write_misses += 1
                else:
                    read_misses += 1
                held = slots[line & set_mask]
                if len(stack) < ways:
                    held.append(line)
                else:
                    victim = stack.pop(0)
                    held[held.index(victim)] = line
                    if victim in dirty:
                        dirty.remove(victim)
                        writebacks += 1
                        transfers.append(
                            (start, LineTransfer(victim * line_size, line_size, True))
                        )
                stack.append(line)
                transfers.append((start, LineTransfer(line * line_size, line_size, False)))
            if dirties:
                dirty.add(line)

        misses = read_misses + write_misses
        stats = self.stats
        stats.accesses += count
        stats.hits += count - misses
        stats.read_misses += read_misses
        stats.write_misses += write_misses
        stats.refills += misses
        stats.writebacks += writebacks
        return transfers

    def access(self, address: int, is_write: bool = False) -> list[tuple[int, LineTransfer]]:
        """One access: ``run([address], [is_write])``.

        Nothing in the package calls it; the benchmark tracer
        (``AGGREGATED_ENTRY_POINTS`` in ``perfbench/tracer.py``) still wraps it.
        """
        return self.run([address], [is_write])

    def flush(self) -> list[LineTransfer]:
        """Write back every dirty line, by set index then way, and invalidate."""
        line_size = self.config.line_size
        transfers = [
            LineTransfer(line * line_size, line_size, True)
            for held in self._slots
            for line in held
            if line in self._dirty
        ]
        self.stats.writebacks += len(transfers)
        self._clear()
        return transfers

    # -- energy -------------------------------------------------------------------

    def access_energy(self) -> float:
        """Energy (pJ) of one cache lookup (tag + data array access)."""
        # Tag array is small relative to data; fold it into a 10% uplift.
        return 1.1 * self.energy_model.read_energy(self.config.size, self.config.line_size)

    @property
    def lookup_energy_total(self) -> float:
        """Total lookup energy (pJ) spent so far."""
        return self.stats.accesses * self.access_energy()

    def reset(self) -> None:
        """Invalidate contents and zero statistics."""
        self.stats = CacheStats()
        self._clear()

    def _clear(self) -> None:
        # Per set: resident line numbers by recency (LRU first), and the line
        # in each way slot, filled in slot order; plus the dirty line numbers.
        self._recency: list[list[int]] = [[] for _ in range(self.config.num_sets)]
        self._slots: list[list[int]] = [[] for _ in range(self.config.num_sets)]
        self._dirty: set[int] = set()
