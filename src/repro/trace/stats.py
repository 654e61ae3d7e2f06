"""Trace statistics: stride structure, entropy, region transitions.

Complements :mod:`repro.trace.profile` (which aggregates per block) with
*stream-structure* metrics that the profile deliberately ignores:

* :func:`stride_histogram` / :func:`dominant_stride` — the access-delta
  distribution; a dominant +4 stride is what makes T0 encoding and
  sequential prefetching work;
* :func:`address_entropy` — Shannon entropy of the block stream in bits, a
  one-number summary of how concentrated the working set is (the quantity
  hot/cold partitioning exploits);
* :func:`region_transition_matrix` — Markov transition counts between
  address regions, the structure the phase detector discovers at a coarser
  timescale.
"""

from __future__ import annotations

import math

import numpy as np

from .trace import Trace

__all__ = [
    "stride_histogram",
    "dominant_stride",
    "address_entropy",
    "region_transition_matrix",
    "region_stickiness",
]


def _ranked_counts(values: np.ndarray) -> list[tuple[int, int]]:
    """``(value, count)`` pairs ordered like ``Counter.most_common``.

    Count descending, ties broken by first encounter in ``values`` — the
    order ``Counter`` inherits from dict insertion.
    """
    unique, first_index, counts = np.unique(
        values, return_index=True, return_counts=True
    )
    order = sorted(range(len(unique)), key=lambda i: (-counts[i], first_index[i]))
    return [(int(unique[i]), int(counts[i])) for i in order]


def stride_histogram(
    trace: Trace, top: int | None = None
) -> list[tuple[int, int]]:
    """Histogram of consecutive address deltas, most frequent first.

    Returns ``(stride, count)`` pairs; ``top`` truncates the list.  Ties
    rank by first encounter, the order ``Counter.most_common`` gives.
    """
    if len(trace) < 2:
        return []
    ranked = _ranked_counts(np.diff(trace.addresses))
    return ranked if top is None else ranked[:top]


def dominant_stride(trace: Trace) -> tuple[int, float]:
    """The most frequent stride and its share of all transitions.

    Returns ``(0, 0.0)`` for traces with fewer than two events.
    """
    histogram = stride_histogram(trace, top=1)
    if not histogram:
        return (0, 0.0)
    stride, count = histogram[0]
    total = len(trace) - 1
    return stride, count / total


def address_entropy(trace: Trace, block_size: int = 32) -> float:
    """Shannon entropy (bits) of the block-access distribution.

    0 bits = one block absorbs everything; ``log2(n)`` bits = accesses
    spread uniformly over ``n`` blocks.  Lower entropy means a smaller hot
    bank captures more traffic.
    """
    if block_size <= 0:
        raise ValueError(f"block_size must be positive, got {block_size}")
    if not len(trace):
        return 0.0
    blocks = trace.block_ids(block_size)
    _unique, first_index, block_counts = np.unique(
        blocks, return_index=True, return_counts=True
    )
    total = len(blocks)
    entropy = 0.0
    # Accumulate in first-encounter order (the order a Counter over the
    # block stream iterates), which pins the float sum; only the counting
    # is vectorized.
    for position in np.argsort(first_index, kind="stable").tolist():
        probability = int(block_counts[position]) / total
        entropy -= probability * math.log2(probability)
    return entropy


def region_transition_matrix(
    trace: Trace, region_size: int = 4096
) -> dict[tuple[int, int], int]:
    """Markov transition counts between address regions.

    Key ``(from_region, to_region)`` → number of consecutive access pairs
    that moved between those regions (self-transitions included).
    """
    if region_size <= 0:
        raise ValueError(f"region_size must be positive, got {region_size}")
    if len(trace) < 2:
        return {}
    regions = trace.addresses // region_size
    compact, dense = np.unique(regions, return_inverse=True)
    span = len(compact)
    keys = dense[:-1] * span + dense[1:]
    unique_keys, first_index, counts = np.unique(
        keys, return_index=True, return_counts=True
    )
    matrix: dict[tuple[int, int], int] = {}
    for position in np.argsort(first_index, kind="stable").tolist():
        key = int(unique_keys[position])
        pair = (int(compact[key // span]), int(compact[key % span]))
        matrix[pair] = int(counts[position])
    return matrix


def region_stickiness(trace: Trace, region_size: int = 4096) -> float:
    """Fraction of consecutive accesses that stay in the same region.

    High stickiness (→1.0) means long region sojourns — the structure that
    makes bank sleep and phase adaptation profitable.
    """
    matrix = region_transition_matrix(trace, region_size)
    total = sum(matrix.values())
    if total == 0:
        return 1.0
    same = sum(count for (a, b), count in matrix.items() if a == b)
    return same / total
