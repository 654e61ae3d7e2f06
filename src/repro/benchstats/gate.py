"""The distribution-aware regression gate: CI overlap plus a tail gate.

Two statistically grounded questions per benchmark:

* **Median gate** — is the candidate's median *credibly* slower?  The
  bootstrap confidence interval on ``median(candidate)/median(baseline)``
  must sit entirely above 1 (no overlap with "no change") *and* the
  observed ratio must exceed a minimum practical effect
  (:attr:`GateConfig.min_effect_ratio`), so statistically significant but
  microscopic slowdowns do not fail CI.  Noise widens the interval until
  it overlaps 1, which is exactly what kills flaky gate failures.
* **Tail gate** — did p99 blow up while the median stayed flat?  A
  separate, deliberately looser threshold on the p99 ratio
  (:data:`DEFAULT_TAIL_THRESHOLD_RATIO`) catches the regressions a
  median-only gate is structurally blind to.

Fewer than :data:`DEFAULT_MIN_SAMPLES` samples on either side is an error,
not a weaker verdict: an interval over so few values says nothing.  The
interval's confidence, resample count and seed are the
:mod:`repro.benchstats.stats` defaults.
:func:`compare_runs` asks both questions of every benchmark that two
:class:`~repro.benchstats.runs.BenchRun` sides measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .stats import (
    DistributionSummary,
    RatioCI,
    bootstrap_median_ratio_ci,
    summarize,
)
from .runs import BenchRun

__all__ = [
    "DEFAULT_MIN_EFFECT_RATIO",
    "DEFAULT_TAIL_THRESHOLD_RATIO",
    "DEFAULT_MIN_SAMPLES",
    "GateConfig",
    "BenchComparison",
    "compare_runs",
    "evaluate_benchmark",
]

#: Minimum practical effect: the observed median ratio must exceed
#: ``1 + this`` before a CI that clears 1.0 counts as a regression.
DEFAULT_MIN_EFFECT_RATIO = 0.05

#: Tail gate: p99 may grow up to ``1 + this`` relative to the baseline
#: before the (deliberately looser) tail verdict fires.
DEFAULT_TAIL_THRESHOLD_RATIO = 0.5

#: Fewer samples than this on either side and the gate refuses to judge.
DEFAULT_MIN_SAMPLES = 4


@dataclass(frozen=True)
class GateConfig:
    """The gate's one tunable: the minimum practical effect (fractional).

    ``benchmarks/compare.py --min-effect`` sets it; every other setting of
    the gate is a module default.
    """

    min_effect_ratio: float = DEFAULT_MIN_EFFECT_RATIO


@dataclass(frozen=True)
class BenchComparison:
    """One benchmark's verdict: distributions, ratios, and gate results."""

    name: str
    median_ratio: float
    p99_ratio: float
    ci: RatioCI
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
        parts = [
            f"{self.name}: median {self.median_ratio - 1.0:+.1%}",
            f"ratio CI [{self.ci.low:.3f}, {self.ci.high:.3f}] "
            f"@{self.ci.confidence:.0%}",
        ]
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

    Both sample sequences are in the same unit (seconds, one sample per run
    in the benchmark gate) and hold at least :data:`DEFAULT_MIN_SAMPLES`
    values each; fewer raise a ``ValueError`` naming both counts, and so
    does a non-positive baseline median.  Constant samples collapse the
    interval.
    """
    if min(len(baseline_samples), len(candidate_samples)) < DEFAULT_MIN_SAMPLES:
        raise ValueError(
            f"benchmark {name!r}: too few samples (baseline "
            f"{len(baseline_samples)}, candidate {len(candidate_samples)}); "
            f"the gate needs at least {DEFAULT_MIN_SAMPLES} on each side"
        )
    baseline_summary = summarize(baseline_samples)
    candidate_summary = summarize(candidate_samples)
    ci = bootstrap_median_ratio_ci(baseline_samples, candidate_samples)
    p99_ratio = candidate_summary.p99 / baseline_summary.p99
    return BenchComparison(
        name=name,
        median_ratio=ci.value,
        p99_ratio=p99_ratio,
        ci=ci,
        # Regression = the whole interval sits above "no change" AND the
        # effect is big enough to matter.
        median_regressed=ci.low > 1.0 and ci.value - 1.0 > config.min_effect_ratio,
        tail_regressed=p99_ratio - 1.0 > DEFAULT_TAIL_THRESHOLD_RATIO,
        baseline=baseline_summary,
        candidate=candidate_summary,
    )


def compare_runs(
    base: BenchRun, change: BenchRun, config: GateConfig = GateConfig()
) -> tuple:
    """Gate every base benchmark on the change: ``(comparisons, warnings, notes)``.

    Either side with fewer than :data:`DEFAULT_MIN_SAMPLES` runs raises a
    ``ValueError`` naming both counts.  A base benchmark measured in fewer
    runs than that on either side is a *warning*: the gate did not check
    it, and a silently skipped benchmark would read as a pass.  A change
    benchmark the base runs lack is a note.  A renamed benchmark therefore
    shows as both, instead of comparing different work under one name.
    """
    if min(base.runs, change.runs) < DEFAULT_MIN_SAMPLES:
        raise ValueError(
            f"{base.runs} base and {change.runs} change runs; the gate needs "
            f"at least {DEFAULT_MIN_SAMPLES} runs per side (one sample per run)"
        )
    comparisons: list = []
    warnings: list = []
    for name in base.names():
        base_count = len(base.samples[name])
        change_count = len(change.samples.get(name, ()))
        if change_count == 0:
            warnings.append(f"missing from the change runs (not gated): {name}")
        elif min(base_count, change_count) < DEFAULT_MIN_SAMPLES:
            warnings.append(
                f"measured in {base_count} base and {change_count} change "
                f"runs (not gated): {name}"
            )
        else:
            comparisons.append(
                evaluate_benchmark(
                    name, base.samples[name], change.samples[name], config
                )
            )
    notes = [
        f"new benchmark (not in the base runs): {name}"
        for name in change.names()
        if name not in base.samples
    ]
    return comparisons, warnings, notes
