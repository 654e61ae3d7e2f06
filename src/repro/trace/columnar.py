"""Vectorized kernels over trace columns.

The memory playback and sleep layers fold over a trace's columns
(:class:`~repro.trace.trace.Trace`) with these kernels instead of a
per-event loop: :func:`assign_banks` maps every address to its bank with one
:func:`numpy.searchsorted`, :func:`per_bank_read_write_counts` counts per
bank with :func:`numpy.bincount`, and :func:`idle_interval_split` splits a
bank's idle gaps with one :func:`numpy.diff`.
"""

from __future__ import annotations

import numpy as np

from .trace import KIND_WRITE, Trace

__all__ = [
    "ColumnarTrace",
    "assign_banks",
    "per_bank_read_write_counts",
    "idle_interval_split",
]

#: The benchmark tracer (``SPAN_ENTRY_POINTS`` in ``perfbench/tracer.py``)
#: looks ``from_trace`` and ``to_trace`` up under this name.
ColumnarTrace = Trace


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
