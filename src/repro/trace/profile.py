"""Access profiles and locality metrics.

An :class:`AccessProfile` condenses a trace into per-block statistics on a
fixed block granularity: how often each block is read and written, in which
order blocks appear, and how strongly pairs of blocks are correlated in time.
The profile is the input to both the memory partitioner (which needs per-block
access counts) and the address-clustering algorithm (which needs the block
affinity structure).

The locality metrics implemented here follow standard definitions:

* *spatial locality*: fraction of consecutive accesses whose block distance is
  at most one block;
* *temporal locality*: mean inverse reuse distance (a value in ``[0, 1]``,
  higher is better);
* *reuse-distance histogram*: distribution of the number of distinct blocks
  touched between consecutive uses of the same block.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from ..obs.counters import PROFILE_BLOCKS, PROFILE_EVENTS
from ..obs.recorder import Recorder
from .columnar import KIND_WRITE, ColumnarTrace
from .trace import Trace

__all__ = ["BlockStats", "AccessProfile", "reuse_distances"]


@dataclass
class BlockStats:
    """Per-block access statistics."""

    block: int
    reads: int = 0
    writes: int = 0
    first_time: int = 0
    last_time: int = 0

    @property
    def total(self) -> int:
        """Total accesses to the block."""
        return self.reads + self.writes

    @property
    def lifetime(self) -> int:
        """Time between first and last access."""
        return self.last_time - self.first_time


def reuse_distances(block_sequence: list[int]) -> list[int]:
    """LRU stack (reuse) distance for every access in a block sequence.

    The reuse distance of an access is the number of *distinct* blocks touched
    since the previous access to the same block; first-touch accesses get
    distance ``-1`` (conventionally "infinite").

    Implemented with an ordered LRU stack; O(n·d) where ``d`` is the mean
    stack depth — adequate for the trace sizes used in this package.  Two
    array kernels were measured against this walk: a bottom-up merge count
    of nested reuse intervals and an MSB-first radix split.  Both matched it
    exactly and were faster on low-locality traces, but 2–3× slower on
    high-locality ones (a 200k-event Markov trace at 256-byte blocks: 54–65
    ms for the walk, 160–210 ms for the kernels, on a 2-vCPU Linux VM).
    Choosing between them by trace size would be a second code path with a
    threshold, so the walk stays.
    """
    stack: OrderedDict[int, None] = OrderedDict()
    distances: list[int] = []
    for block in block_sequence:
        if block in stack:
            # Depth of the block in the LRU stack == reuse distance.
            depth = 0
            for key in reversed(stack):
                if key == block:
                    break
                depth += 1
            distances.append(depth)
            stack.move_to_end(block)
        else:
            distances.append(-1)
            stack[block] = None
    return distances


class AccessProfile:
    """Condensed per-block view of a trace.

    Parameters
    ----------
    trace:
        Source trace (typically data accesses only).
    block_size:
        Granularity in bytes at which addresses are aggregated.  This is the
        unit the partitioner and clustering algorithms move around.
    recorder:
        Optional observability recorder; receives event and block counts
        (counters only — flushed once, after the build, so recording cannot
        perturb the profile).
    """

    def __init__(
        self,
        trace: Union[Trace, ColumnarTrace],
        block_size: int = 32,
        recorder: Recorder | None = None,
    ) -> None:
        if block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        self.block_size = block_size
        self.trace = trace
        self._stats: dict[int, BlockStats] = {}
        self._sequence: list[int] = []
        self._build(trace)
        if recorder is not None and recorder.enabled:
            recorder.counter(PROFILE_EVENTS, self.total_accesses)
            recorder.counter(PROFILE_BLOCKS, self.num_blocks)

    def _build(self, trace) -> None:
        """Profile construction: one fold over ``trace.chunks()``.

        Per chunk, read/write counts come from one ``bincount`` each and
        first/last access times from first/last occurrence indices.  Chunk
        results merge into the running stats: blocks already seen add counts
        and advance ``last_time`` in place, unseen blocks are appended in
        their chunk-local first-encounter order — which, chunks arriving in
        trace order, is the global first-encounter dict order (consumers
        break ties on dict order, so the order is part of the contract).
        """
        for chunk in trace.chunks():
            if not len(chunk):
                continue
            blocks = chunk.block_ids(self.block_size)
            self._sequence.extend(blocks.tolist())
            unique, first_index, inverse = np.unique(
                blocks, return_index=True, return_inverse=True
            )
            write_mask = chunk.kinds == KIND_WRITE
            writes = np.bincount(inverse[write_mask], minlength=len(unique))
            totals = np.bincount(inverse, minlength=len(unique))
            reads = totals - writes
            last_index = np.empty(len(unique), dtype=np.int64)
            last_index[inverse] = np.arange(len(blocks))
            times = chunk.timestamps
            for position in np.argsort(first_index, kind="stable").tolist():
                block = int(unique[position])
                stats = self._stats.get(block)
                if stats is None:
                    self._stats[block] = BlockStats(
                        block=block,
                        reads=int(reads[position]),
                        writes=int(writes[position]),
                        first_time=int(times[first_index[position]]),
                        last_time=int(times[last_index[position]]),
                    )
                else:
                    stats.reads += int(reads[position])
                    stats.writes += int(writes[position])
                    stats.last_time = int(times[last_index[position]])

    # -- basic queries ------------------------------------------------------------

    @property
    def blocks(self) -> list[int]:
        """Distinct block indices, sorted ascending."""
        return sorted(self._stats)

    @property
    def block_sequence(self) -> list[int]:
        """Block index of every access, in trace order."""
        return self._sequence

    @property
    def num_blocks(self) -> int:
        """Number of distinct blocks touched."""
        return len(self._stats)

    @property
    def total_accesses(self) -> int:
        """Total number of accesses in the profile."""
        return len(self._sequence)

    def stats(self, block: int) -> BlockStats:
        """Statistics of one block (raises ``KeyError`` for untouched blocks)."""
        return self._stats[block]

    def access_counts(self) -> dict[int, int]:
        """Mapping block index -> total access count."""
        return {block: stats.total for block, stats in self._stats.items()}

    def counts_array(self, blocks: list[int] | None = None) -> np.ndarray:
        """Access counts as an array aligned with ``blocks`` (default: sorted blocks)."""
        order = self.blocks if blocks is None else blocks
        return np.array([self._stats[block].total if block in self._stats else 0 for block in order])

    # -- locality metrics ---------------------------------------------------------

    def spatial_locality(self) -> float:
        """Fraction of consecutive accesses landing within one block of each other."""
        if len(self._sequence) < 2:
            return 1.0
        sequence = np.asarray(self._sequence, dtype=np.int64)
        near = int(np.count_nonzero(np.abs(np.diff(sequence)) <= 1))
        return near / (len(self._sequence) - 1)

    def temporal_locality(self) -> float:
        """Mean of ``1 / (1 + reuse distance)`` over re-referenced accesses.

        Returns 0.0 when no block is ever re-referenced.
        """
        distances = [d for d in reuse_distances(self._sequence) if d >= 0]
        if not distances:
            return 0.0
        return float(np.mean([1.0 / (1.0 + d) for d in distances]))

    def reuse_histogram(self, max_distance: int = 64) -> Counter:
        """Histogram of reuse distances clipped at ``max_distance``.

        First-touch accesses are recorded under key ``-1``.
        """
        histogram: Counter = Counter()
        for distance in reuse_distances(self._sequence):
            histogram[min(distance, max_distance) if distance >= 0 else -1] += 1
        return histogram

    def working_set_size(self, window: int = 1000) -> float:
        """Mean number of distinct blocks per window of ``window`` accesses."""
        if not self._sequence:
            return 0.0
        sizes = []
        for start in range(0, len(self._sequence), window):
            chunk = self._sequence[start : start + window]
            sizes.append(len(set(chunk)))
        return float(np.mean(sizes))

    # -- affinity -----------------------------------------------------------------

    def affinity_matrix(self, window: int = 16) -> dict[tuple[int, int], int]:
        """Block co-occurrence counts within a sliding window.

        For every pair of *distinct* blocks accessed within ``window``
        consecutive events, increment the pair's count.  The result is a
        sparse, symmetric (stored with ``a < b``) affinity map: the raw
        material of address clustering.

        Co-occurring pairs are enumerated one window *offset* at a time —
        ``window - 1`` array passes instead of a Python inner loop per
        event.  Each offset's ``(key, count, first rank)`` arrays fold into
        a running triple kept sorted by key (one stable merge, then
        ``reduceat`` sums the counts and keeps the lowest rank).  Pair
        counts are exact, and the result dict is populated in
        first-encounter order (clustering breaks affinity ties on dict
        order, so the order is part of the contract).
        """
        if window <= 1:
            raise ValueError(f"window must be > 1, got {window}")
        sequence = np.asarray(self._sequence, dtype=np.int64)
        compact, dense = np.unique(sequence, return_inverse=True)
        span = len(compact)
        # Running (pair key, count, first-encounter rank), sorted by key.  The
        # rank reproduces the per-event insertion order: at event i the window
        # pairs oldest-first, so rank (i * window - offset) orders first by
        # event, then by descending offset.
        keys = counts = ranks = np.empty(0, dtype=np.int64)
        for offset in range(1, window):
            if offset >= len(dense):
                break
            current = dense[offset:]
            previous = dense[:-offset]
            mask = current != previous
            if not np.any(mask):
                continue
            low = np.minimum(current[mask], previous[mask])
            high = np.maximum(current[mask], previous[mask])
            offset_keys, first_index, offset_counts = np.unique(
                low * span + high, return_index=True, return_counts=True
            )
            event_index = np.flatnonzero(mask)[first_index] + offset
            merged = np.concatenate([keys, offset_keys])
            order = np.argsort(merged, kind="stable")
            merged = merged[order]
            starts = np.flatnonzero(np.concatenate([[True], merged[1:] != merged[:-1]]))
            keys = merged[starts]
            counts = np.add.reduceat(np.concatenate([counts, offset_counts])[order], starts)
            ranks = np.minimum.reduceat(
                np.concatenate([ranks, event_index * window - offset])[order], starts
            )
        order = np.argsort(ranks)
        keys, counts = keys[order], counts[order]
        pairs = zip(compact[keys // span].tolist(), compact[keys % span].tolist())
        return dict(zip(pairs, counts.tolist()))

    def summary(self) -> dict[str, float]:
        """Dictionary of headline profile metrics, handy for reports/tests."""
        return {
            "accesses": float(self.total_accesses),
            "blocks": float(self.num_blocks),
            "spatial_locality": self.spatial_locality(),
            "temporal_locality": self.temporal_locality(),
            "working_set": self.working_set_size(),
        }
