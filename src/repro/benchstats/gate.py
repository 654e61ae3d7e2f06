"""The distribution-aware regression gate: CI overlap plus a tail gate.

Replaces the raw 25%-median-threshold verdict with two statistically
grounded questions per benchmark:

* **Median gate** — is the candidate's median *credibly* slower?  The
  bootstrap confidence interval on ``median(candidate)/median(baseline)``
  must sit entirely above 1 (no overlap with "no change") *and* the
  observed ratio must exceed a minimum practical effect
  (:attr:`GateConfig.min_effect_ratio`), so statistically significant but
  microscopic slowdowns do not fail CI.  Noise widens the interval until
  it overlaps 1, which is exactly what kills flaky gate failures.
* **Tail gate** — did p99 blow up while the median stayed flat?  A
  separate, deliberately looser threshold on the p99 ratio
  (:attr:`GateConfig.tail_threshold_ratio`) catches the regressions a
  median-only gate is structurally blind to.

When either side has fewer than :attr:`GateConfig.min_samples` iterations
(a single-round benchmark) the gate falls back to the
:data:`DEFAULT_LEGACY_THRESHOLD_RATIO` median threshold for that benchmark
and says so in the verdict — the sample counts alone pick the mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .stats import (
    DEFAULT_BOOTSTRAP_SEED,
    DEFAULT_CONFIDENCE,
    DEFAULT_RESAMPLES,
    DistributionSummary,
    RatioCI,
    bootstrap_median_ratio_ci,
    median,
    summarize,
)

__all__ = [
    "DEFAULT_MIN_EFFECT_RATIO",
    "DEFAULT_TAIL_THRESHOLD_RATIO",
    "DEFAULT_LEGACY_THRESHOLD_RATIO",
    "DEFAULT_MIN_SAMPLES",
    "GateConfig",
    "BenchComparison",
    "evaluate_benchmark",
]

#: Minimum practical effect: the observed median ratio must exceed
#: ``1 + this`` before a CI that clears 1.0 counts as a regression.
DEFAULT_MIN_EFFECT_RATIO = 0.05

#: Tail gate: p99 may grow up to ``1 + this`` relative to the baseline
#: before the (deliberately looser) tail verdict fires.
DEFAULT_TAIL_THRESHOLD_RATIO = 0.5

#: Fallback threshold on the bare median ratio, used when either side has
#: too few samples for a meaningful interval.
DEFAULT_LEGACY_THRESHOLD_RATIO = 0.25

#: Fewer per-iteration samples than this on either side and the CI gate
#: degrades to the legacy median threshold for that benchmark.
DEFAULT_MIN_SAMPLES = 4


@dataclass(frozen=True)
class GateConfig:
    """Tunables of the distribution gate (all ratios are fractional)."""

    confidence: float = DEFAULT_CONFIDENCE
    resamples: int = DEFAULT_RESAMPLES
    min_effect_ratio: float = DEFAULT_MIN_EFFECT_RATIO
    tail_threshold_ratio: float = DEFAULT_TAIL_THRESHOLD_RATIO
    min_samples: int = DEFAULT_MIN_SAMPLES
    seed: int = DEFAULT_BOOTSTRAP_SEED


@dataclass(frozen=True)
class BenchComparison:
    """One benchmark's verdict: distributions, ratios, and gate results.

    ``mode`` is ``"ci"`` when the interval gate ran and ``"legacy"`` when
    the benchmark fell back to the bare median threshold (too few samples
    on either side).  ``ci`` is ``None`` in legacy mode.
    """

    name: str
    mode: str
    median_ratio: float
    p99_ratio: float
    ci: "RatioCI | None"
    median_regressed: bool
    tail_regressed: bool
    baseline: DistributionSummary
    candidate: DistributionSummary

    @property
    def regressed(self) -> bool:
        """Whether either the median gate or the tail gate fired."""
        return self.median_regressed or self.tail_regressed

    def describe(self) -> str:
        """One human-readable gate line for this benchmark."""
        parts = [f"{self.name}: median {self.median_ratio - 1.0:+.1%}"]
        if self.ci is not None:
            parts.append(
                f"ratio CI [{self.ci.low:.3f}, {self.ci.high:.3f}] "
                f"@{self.ci.confidence:.0%}"
            )
        else:
            parts.append(f"legacy threshold {DEFAULT_LEGACY_THRESHOLD_RATIO:.0%}")
        if self.tail_regressed:
            parts.append(f"p99 {self.p99_ratio - 1.0:+.1%} (tail gate)")
        return ", ".join(parts)


def evaluate_benchmark(
    name: str,
    baseline_samples: Sequence[float],
    candidate_samples: Sequence[float],
    config: GateConfig = GateConfig(),
) -> BenchComparison:
    """Gate one benchmark's candidate samples against its baseline samples.

    Both sample sequences must be non-empty and measured in the same
    (arbitrary, typically suite-normalized) unit.  Never raises on
    degenerate inputs: single-sample and constant-value inputs flow
    through the legacy fallback or a collapsed interval.
    """
    if not baseline_samples or not candidate_samples:
        raise ValueError(
            f"benchmark {name!r}: empty sample set "
            f"(baseline {len(baseline_samples)}, candidate "
            f"{len(candidate_samples)}); nothing to gate"
        )
    baseline_summary = summarize(baseline_samples)
    candidate_summary = summarize(candidate_samples)
    baseline_median = median(baseline_samples)
    median_ratio = (
        candidate_summary.p50 / baseline_median if baseline_median > 0.0 else 1.0
    )
    p99_ratio = (
        candidate_summary.p99 / baseline_summary.p99
        if baseline_summary.p99 > 0.0
        else 1.0
    )
    use_legacy = (
        baseline_median <= 0.0
        or len(baseline_samples) < config.min_samples
        or len(candidate_samples) < config.min_samples
    )
    if use_legacy:
        ci = None
        median_regressed = median_ratio - 1.0 > DEFAULT_LEGACY_THRESHOLD_RATIO
        mode = "legacy"
    else:
        ci = bootstrap_median_ratio_ci(
            baseline_samples,
            candidate_samples,
            resamples=config.resamples,
            confidence=config.confidence,
            seed=config.seed,
        )
        # Regression = the whole interval sits above "no change" AND the
        # effect is big enough to matter.
        median_regressed = (
            ci.low > 1.0 and median_ratio - 1.0 > config.min_effect_ratio
        )
        mode = "ci"
    tail_eligible = (
        len(baseline_samples) >= config.min_samples
        and len(candidate_samples) >= config.min_samples
    )
    tail_regressed = (
        tail_eligible and p99_ratio - 1.0 > config.tail_threshold_ratio
    )
    return BenchComparison(
        name=name,
        mode=mode,
        median_ratio=median_ratio,
        p99_ratio=p99_ratio,
        ci=ci,
        median_regressed=median_regressed,
        tail_regressed=tail_regressed,
        baseline=baseline_summary,
        candidate=candidate_summary,
    )
