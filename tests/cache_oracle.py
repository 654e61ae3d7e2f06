"""Per-access reference for :meth:`repro.cache.Cache.run`.

:class:`OracleCache` is the plain one-access-at-a-time LRU write-back,
write-allocate cache: every line carries a tag, a valid and a dirty bit and
the time of its last use, a hit refreshes that stamp, and a miss fills the
first invalid way or evicts the way with the smallest stamp.  It is the
walk ``Cache.run`` replaced; the property tests require the two to give the
same transfers, statistics and flush order.  Slow by design: use it on
test-sized streams only.
"""

from __future__ import annotations

from repro.cache import CacheConfig, CacheStats, LineTransfer

__all__ = ["OracleCache"]


class _Line:
    __slots__ = ("tag", "valid", "dirty", "stamp")

    def __init__(self) -> None:
        self.tag = -1
        self.valid = False
        self.dirty = False
        self.stamp = 0  # time of last use


class OracleCache:
    """One access per call; same statistics and transfers as ``Cache``."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.stats = CacheStats()
        self._sets = [[_Line() for _ in range(config.ways)] for _ in range(config.num_sets)]
        self._clock = 0

    def _line_address(self, set_index: int, tag: int) -> int:
        return (tag * self.config.num_sets + set_index) * self.config.line_size

    def access(self, address: int, is_write: bool = False) -> tuple[bool, list[LineTransfer]]:
        """Perform one access; return whether it hit and its transfers."""
        if address < 0:
            raise ValueError(f"address must be non-negative, got {address}")
        self._clock += 1
        self.stats.accesses += 1
        line_index = address // self.config.line_size
        set_index = line_index % self.config.num_sets
        tag = line_index // self.config.num_sets
        ways = self._sets[set_index]

        for line in ways:
            if line.valid and line.tag == tag:
                self.stats.hits += 1
                line.stamp = self._clock
                line.dirty = line.dirty or is_write
                return True, []

        if is_write:
            self.stats.write_misses += 1
        else:
            self.stats.read_misses += 1
        transfers = []
        invalid = [line for line in ways if not line.valid]
        victim = invalid[0] if invalid else min(ways, key=lambda line: line.stamp)
        if victim.valid and victim.dirty:
            self.stats.writebacks += 1
            transfers.append(
                LineTransfer(
                    self._line_address(set_index, victim.tag), self.config.line_size, True
                )
            )
        self.stats.refills += 1
        transfers.append(
            LineTransfer(self._line_address(set_index, tag), self.config.line_size, False)
        )
        victim.tag = tag
        victim.valid = True
        victim.dirty = is_write
        victim.stamp = self._clock
        return False, transfers

    def flush(self) -> list[LineTransfer]:
        """Write back every dirty line, by set index then way, and invalidate."""
        transfers = []
        for set_index, ways in enumerate(self._sets):
            for line in ways:
                if line.valid and line.dirty:
                    self.stats.writebacks += 1
                    transfers.append(
                        LineTransfer(
                            self._line_address(set_index, line.tag),
                            self.config.line_size,
                            True,
                        )
                    )
                line.valid = False
                line.dirty = False
                line.tag = -1
        return transfers
