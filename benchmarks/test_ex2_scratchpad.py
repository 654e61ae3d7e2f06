"""EX2 — extension: scratchpad allocation vs pure caching.

The same proceedings' session 10F studies application-specific on-chip
memory organization; a scratchpad in front of the D-cache is the standard
companion to address clustering (both exploit the profiled hot set).  This
extension measures, per SPM capacity:

* coverage (fraction of accesses served by the SPM),
* memory-subsystem energy saving vs the cache-only baseline,

and asserts the canonical shape: savings grow with capacity while the hot
set still fits, then flatten/regress as the SPM's own per-access energy
grows past what the extra coverage is worth.
"""

from __future__ import annotations

import pytest

from repro.core import trace_from_kernel
from repro.report import render_table
from repro.spm import SPMAllocator, SPMConfig, SPMPlatform
from repro.trace import AccessProfile, ScatteredHotGenerator

WORKLOADS = [
    ("table_lookup", lambda: trace_from_kernel("table_lookup")),
    (
        "scattered",
        lambda: ScatteredHotGenerator(300, 30, 40.0, 20000, seed=4).generate(),
    ),
]


def spm_sweep() -> list[dict]:
    rows = []
    for label, factory in WORKLOADS:
        trace = factory()
        profile = AccessProfile(trace, block_size=32)
        platform = SPMPlatform()
        base = platform.run_traces(trace)
        cache_path_energy = platform.measured_cache_path_energy(trace)
        for size in (256, 512, 1024, 2048, 4096):
            allocation = SPMAllocator(
                SPMConfig(size=size), cache_path_energy=cache_path_energy
            ).allocate(profile)
            report = platform.run_traces(trace, allocation)
            rows.append(
                {
                    "workload": label,
                    "spm": size,
                    "coverage": report.spm_coverage,
                    "saving": 1 - report.breakdown.total / base.breakdown.total,
                }
            )
    return rows


def test_figure_ex2_spm_capacity_sweep(benchmark):
    rows = benchmark.pedantic(spm_sweep, rounds=1, iterations=1)
    print(
        render_table(
            ["workload", "SPM bytes", "coverage", "energy saving"],
            [
                [r["workload"], r["spm"], f"{r['coverage']:.1%}", f"{r['saving']:+.1%}"]
                for r in rows
            ],
            title="\nEX2: scratchpad allocation vs cache-only baseline",
        )
    )
    for label, _factory in WORKLOADS:
        series = [r for r in rows if r["workload"] == label]
        coverages = [r["coverage"] for r in series]
        savings = [r["saving"] for r in series]
        # Coverage is monotone in capacity.
        assert coverages == sorted(coverages)
        # A mid-size SPM must produce a solid double-digit saving.
        assert max(savings) > 0.20
        # All configurations beat (or at worst match) the baseline: the
        # allocator never picks a losing allocation.
        assert all(s > -0.01 for s in savings)
