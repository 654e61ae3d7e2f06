"""Trace sampling for fast approximate analysis.

Full traces of real applications run to hundreds of millions of events;
trace-driven energy simulation at that scale is slow (the exact pain the
calibration notes flag: "cycle/energy simulation slow and approximate").
Profile-driven optimizations, however, only need per-block access *ratios*,
which sampling preserves.

Two samplers:

* :class:`SystematicSampler` — keep every ``period``-th event (cheap,
  deterministic, vulnerable to periodic aliasing);
* :class:`IntervalSampler` — keep contiguous windows of ``window`` events
  every ``period`` events (preserves intra-window locality structure, the
  right choice when the consumer needs affinity/reuse information, not just
  counts).

:func:`scale_counts` rescales sampled per-block counts back to full-trace
magnitudes so energy *predictions* stay calibrated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trace import Trace

__all__ = ["SystematicSampler", "IntervalSampler", "scale_counts", "count_error"]


@dataclass(frozen=True)
class SystematicSampler:
    """Keep every ``period``-th event, starting at ``offset``."""

    period: int = 10
    offset: int = 0

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError(f"period must be positive, got {self.period}")
        if not 0 <= self.offset < self.period:
            raise ValueError(f"offset must be in [0, {self.period}), got {self.offset}")

    @property
    def rate(self) -> float:
        """Expected fraction of events kept."""
        return 1.0 / self.period

    def sample(self, trace: Trace) -> Trace:
        """Produce the sampled trace."""
        sampled = trace[self.offset :: self.period]
        sampled.name = f"{trace.name}~1/{self.period}"
        return sampled


@dataclass(frozen=True)
class IntervalSampler:
    """Keep windows of ``window`` consecutive events every ``period`` events."""

    window: int = 100
    period: int = 1000

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ValueError(f"window must be positive, got {self.window}")
        if self.period < self.window:
            raise ValueError(
                f"period ({self.period}) must be at least window ({self.window})"
            )

    @property
    def rate(self) -> float:
        """Expected fraction of events kept."""
        return self.window / self.period

    def sample(self, trace: Trace) -> Trace:
        """Produce the sampled trace."""
        sampled = trace[np.arange(len(trace)) % self.period < self.window]
        sampled.name = f"{trace.name}~{self.window}/{self.period}"
        return sampled


def scale_counts(sampled_counts: dict[int, int], rate: float) -> dict[int, float]:
    """Rescale sampled per-block counts to full-trace magnitudes."""
    if not 0 < rate <= 1:
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    return {block: count / rate for block, count in sampled_counts.items()}


def count_error(full_counts: dict[int, int], estimated: dict[int, float]) -> float:
    """Mean relative error of estimated counts, weighted by true counts.

    Blocks missing from the estimate contribute their full weight (the
    sampler missed them entirely).
    """
    total = sum(full_counts.values())
    if total == 0:
        return 0.0
    error = 0.0
    for block, count in full_counts.items():
        estimate = estimated.get(block, 0.0)
        error += abs(estimate - count)
    return error / total
