"""Columnar playback benchmark: a 1M-event trace through ``PartitionedMemory.play``.

Tracked by the regression gate; the synthetic trace is shared with the
NullRecorder overhead benchmark (``test_obs_overhead.py``).  Oracle ==
kernel identity lives in the tier-1 property tests, not here.
"""

from __future__ import annotations

import numpy as np

from repro.memory import PartitionedMemory
from repro.trace import Trace

NUM_EVENTS = 1_000_000
BANK_SIZES = [16384, 16384, 16384, 16384]


def million_event_trace() -> Trace:
    rng = np.random.default_rng(11)
    hot = rng.random(NUM_EVENTS) < 0.8
    addresses = np.where(
        hot,
        rng.integers(0, 2048, size=NUM_EVENTS) * 4,
        rng.integers(2048, 16384, size=NUM_EVENTS) * 4,
    ).astype(np.int64)
    kinds = (rng.random(NUM_EVENTS) < 0.25).astype(np.uint8)
    return Trace.from_arrays(
        addresses, np.arange(NUM_EVENTS, dtype=np.int64), kinds=kinds, name="bench_1m"
    )


def vectorized_play_1m() -> float:
    columnar = million_event_trace()
    memory = PartitionedMemory(BANK_SIZES)
    return memory.play(columnar).total


def test_columnar_play_1m(benchmark):
    """Vectorized 1M-event playback alone, tracked by the regression gate."""
    total_pj = benchmark.pedantic(vectorized_play_1m, rounds=1, iterations=1)
    assert total_pj > 0.0
