"""Shared round-count knob for the benchmark suite.

The distribution-aware regression gate (``benchmarks/compare.py``) needs
per-iteration samples, so CI runs each benchmark for several rounds
(``REPRO_BENCH_ROUNDS=5`` plus ``--benchmark-save-data``).  Local
result-regeneration runs keep the historic single round: one run of each
experiment is what the paper reports, and nobody wants to wait five times
as long to read a table.

Benchmarks whose measured callable is *stateful across rounds* (e.g. the
batch-sweep cache warm-up in ``test_batch_scaling.py``, which asserts on
cold-vs-warm behavior) must stay at a literal ``rounds=1`` rather than
use this knob; the gate judges their single sample by its 25% median
fallback threshold.
"""

from __future__ import annotations

import os

__all__ = ["bench_rounds"]


def bench_rounds(default: int = 1) -> int:
    """Round count for ``benchmark.pedantic``: ``REPRO_BENCH_ROUNDS`` or 1."""
    raw = os.environ.get("REPRO_BENCH_ROUNDS", "")
    try:
        value = int(raw)
    except ValueError:
        return default
    return max(1, value)
