"""Unit + property tests (hypothesis) for :mod:`repro.benchstats`.

The statistics layer under the benchmark regression gate has four
properties the gate's correctness rests on, and hypothesis drives each
over arbitrary sample sets:

* the bootstrap CI always contains the observed sample median (the point
  estimate never falls outside its own interval);
* percentile summaries are monotone (p50 ≤ p95 ≤ p99);
* seeded resampling is bit-reproducible (same inputs, same seed, same
  interval — the gate's verdicts are deterministic);
* degenerate inputs (single sample, constant samples) never crash.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchstats import (
    BenchComparison,
    RatioCI,
    bootstrap_median_ci,
    bootstrap_median_ratio_ci,
    evaluate_benchmark,
    median,
    percentile,
    summarize,
)

#: Positive, finite latency-like samples.  Benchmarks measure wall time,
#: so negative and zero values are out of domain for the ratio intervals.
samples = st.lists(
    st.floats(
        min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False
    ),
    min_size=1,
    max_size=64,
)

#: Few resamples keep the property suite fast; the contract under test is
#: structural (containment, determinism), not interval tightness.
FAST_RESAMPLES = 50


class TestPercentile:
    def test_linear_interpolation(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.0) == 1.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 1.0) == 4.0

    def test_empty_samples_raise_with_value(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 0.5)

    def test_out_of_range_fraction_raises_with_value(self):
        with pytest.raises(ValueError, match="1.5"):
            percentile([1.0], 1.5)

    @given(samples)
    def test_median_is_the_50th_percentile(self, values):
        assert median(values) == percentile(values, 0.5)


class TestSummaryProperties:
    @given(samples)
    def test_percentiles_are_monotone(self, values):
        summary = summarize(values)
        assert summary.p50 <= summary.p95 <= summary.p99
        assert summary.jitter_p95 >= 0.0
        assert summary.jitter_p99 >= summary.jitter_p95
        assert summary.count == len(values)

    @given(samples)
    def test_summary_brackets_the_data(self, values):
        summary = summarize(values)
        assert min(values) <= summary.p50 <= max(values)
        assert summary.p99 <= max(values)


class TestBootstrapProperties:
    @given(samples)
    @settings(max_examples=40)
    def test_ci_always_contains_the_sample_median(self, values):
        ci = bootstrap_median_ci(values, resamples=FAST_RESAMPLES)
        assert ci.low <= median(values) <= ci.high
        assert ci.contains(ci.value)

    @given(samples, samples)
    @settings(max_examples=40)
    def test_ratio_ci_contains_the_observed_ratio(self, base, cand):
        ci = bootstrap_median_ratio_ci(base, cand, resamples=FAST_RESAMPLES)
        assert ci.low <= ci.value <= ci.high
        assert ci.value == median(cand) / median(base)

    @given(samples, samples, st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40)
    def test_seeded_resampling_is_bit_reproducible(self, base, cand, seed):
        first = bootstrap_median_ratio_ci(
            base, cand, resamples=FAST_RESAMPLES, seed=seed
        )
        second = bootstrap_median_ratio_ci(
            base, cand, resamples=FAST_RESAMPLES, seed=seed
        )
        assert first == second

    def test_different_seeds_may_differ_but_both_contain_the_estimate(self):
        base = [1.0, 1.1, 0.9, 1.05, 0.95, 1.02]
        cand = [1.2, 1.3, 1.1, 1.25, 1.15, 1.22]
        for seed in (1, 2, 3):
            ci = bootstrap_median_ratio_ci(base, cand, seed=seed)
            assert ci.contains(ci.value)

    def test_zero_baseline_median_raises_with_value(self):
        with pytest.raises(ValueError, match="0.0"):
            bootstrap_median_ratio_ci([0.0], [1.0])


class TestDegenerateInputs:
    """Single-sample and constant inputs flow through without crashing."""

    @given(st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
    def test_single_sample_summary(self, value):
        summary = summarize([value])
        assert summary.p50 == summary.p95 == summary.p99 == value
        assert summary.iqr == 0.0

    @given(
        st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
        st.integers(min_value=1, max_value=16),
    )
    def test_constant_samples_collapse_the_interval(self, value, count):
        values = [value] * count
        ci = bootstrap_median_ci(values, resamples=FAST_RESAMPLES)
        assert ci.low == ci.high == value

    def test_fewer_than_min_samples_raise_with_counts(self):
        # No weaker verdict for few samples: an interval over one or three
        # values says nothing, so the gate refuses and names both counts.
        with pytest.raises(ValueError, match=r"baseline 1, candidate 1\).*at least 4"):
            evaluate_benchmark("one", [1.0], [1.2])
        with pytest.raises(ValueError, match="baseline 4, candidate 3"):
            evaluate_benchmark("three", [1.0] * 4, [1.0] * 3)

    def test_constant_comparison_is_not_a_regression(self):
        comparison = evaluate_benchmark("flat", [2.0] * 8, [2.0] * 8)
        assert comparison.ci.low == comparison.ci.high == 1.0
        assert not comparison.regressed


class TestGateSemantics:
    def test_small_but_significant_change_is_blocked_by_min_effect(self):
        # 2% slower with zero noise: the collapsed CI sits above 1, but the
        # effect is below the 5% practical floor.
        base = [1.0] * 8
        cand = [1.02] * 8
        comparison = evaluate_benchmark("tiny", base, cand)
        assert comparison.ci is not None and comparison.ci.low > 1.0
        assert not comparison.median_regressed

    def test_clear_regression_fires_the_median_gate(self):
        comparison = evaluate_benchmark("slow", [1.0] * 8, [1.4] * 8)
        assert comparison.median_regressed
        assert "ratio CI" in comparison.describe()

    def test_tail_blowup_fires_only_the_tail_gate(self):
        base = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01]
        cand = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 2.6]
        comparison = evaluate_benchmark("tail", base, cand)
        assert comparison.tail_regressed
        assert not comparison.median_regressed
        assert "tail gate" in comparison.describe()

    def test_empty_samples_raise_with_counts(self):
        with pytest.raises(ValueError, match="baseline 0"):
            evaluate_benchmark("none", [], [1.0])

    def test_comparison_types(self):
        comparison = evaluate_benchmark("t", [1.0] * 4, [1.0] * 4)
        assert isinstance(comparison, BenchComparison)
        assert isinstance(comparison.ci, RatioCI)
