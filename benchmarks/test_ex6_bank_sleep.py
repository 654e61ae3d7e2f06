"""EX6 — extension: drowsy bank-sleep on partitioned memories.

Partitioning's second dividend (beyond cheaper accesses) is *leakage*: a
bank nobody touches can drowse at a fraction of its awake leakage, while a
monolithic memory can never sleep.  This experiment replays a
phase-structured application (two program phases with disjoint footprints,
a 90 nm-class leakage coefficient) on three memory organizations and a
timeout sweep.

It also documents a real trade-off this reproduction surfaced: the
dynamic-energy clustering layout interleaves cold blocks from *different
phases* into one big bank, which destroys that bank's idle windows — so the
layout that is best for dynamic energy is **not** best for sleep.  A
sleep-aware layout must keep phase-disjoint data apart; the harness pins
this finding with an assertion.
"""

from __future__ import annotations

import pytest

from repro.core import FlowConfig, MemoryOptimizationFlow
from repro.memory import SleepPolicy, SRAMEnergyModel, simulate_bank_sleep
from repro.report import render_table
from repro.trace import MemoryAccess, ScatteredHotGenerator, Trace

LEAKY_MODEL = SRAMEnergyModel(leakage_pw_per_bit=10.0)  # 90 nm-class leakage


def phase_disjoint_trace() -> Trace:
    events = []
    time = 0
    for phase, seed in enumerate((1, 2)):
        base = phase * 65536
        generator = ScatteredHotGenerator(200, 20, 40.0, 20000, seed=seed)
        for event in generator.generate():
            events.append(
                MemoryAccess(time=time, address=base + event.address, kind=event.kind)
            )
            time += 1
    return Trace.from_events(events, name="phase_disjoint")


def bank_geometry(spec):
    sizes = spec.bank_sizes()
    bases, cursor = [], 0
    for size in sizes:
        bases.append(cursor)
        cursor += size
    return sizes, bases


def organization_comparison() -> list[dict]:
    trace = phase_disjoint_trace()
    flow = MemoryOptimizationFlow(
        FlowConfig(block_size=32, max_banks=6, strategy="affinity")
    ).run(trace)
    phase_flow = MemoryOptimizationFlow(
        FlowConfig(block_size=32, max_banks=6, strategy="phase_aware")
    ).run(trace)
    policy = SleepPolicy(timeout_cycles=500)
    rows = []
    for label, variant in (
        ("monolithic", flow.monolithic),
        ("partitioned", flow.partitioned),
        ("clustered", flow.clustered),
        ("phase_aware", phase_flow.clustered),
    ):
        sizes, bases = bank_geometry(variant.spec)
        layout_trace = variant.layout.remap_trace(trace)
        report = simulate_bank_sleep(
            sizes, bases, layout_trace, policy, sram_model=LEAKY_MODEL
        )
        rows.append(
            {
                "organization": label,
                "banks": len(sizes),
                "dynamic": variant.simulated.total,
                "leakage_saving": report.leakage_saving,
                "asleep": report.sleep_fraction,
                "wakes": report.wake_events,
            }
        )
    return rows


def test_table_ex6_sleep_by_organization(benchmark):
    rows = benchmark.pedantic(organization_comparison, rounds=1, iterations=1)
    print(
        render_table(
            ["organization", "banks", "dynamic pJ", "leakage saving", "bank-cycles asleep",
             "wakes"],
            [
                [r["organization"], r["banks"], r["dynamic"],
                 f"{r['leakage_saving']:+.1%}", f"{r['asleep']:.1%}", r["wakes"]]
                for r in rows
            ],
            title="\nEX6: drowsy bank-sleep by memory organization (phase-disjoint app)",
        )
    )
    by_name = {r["organization"]: r for r in rows}
    # Monolithic can never sleep.
    assert by_name["monolithic"]["asleep"] == 0.0
    assert by_name["monolithic"]["leakage_saving"] == 0.0
    # Partitioning unlocks substantial sleep.
    assert by_name["partitioned"]["asleep"] > 0.25
    assert by_name["partitioned"]["leakage_saving"] > 0.10
    # The documented trade-off: the dynamic-energy clustering layout mixes
    # phase-disjoint cold data and sleeps *less* than plain partitioning.
    assert (
        by_name["clustered"]["leakage_saving"]
        < by_name["partitioned"]["leakage_saving"]
    )
    # ...while still being the best choice for dynamic energy.
    assert by_name["clustered"]["dynamic"] <= by_name["partitioned"]["dynamic"]
    # The fix: phase-aware clustering recovers the sleep opportunity without
    # giving up the dynamic-energy win.
    assert (
        by_name["phase_aware"]["leakage_saving"]
        > by_name["partitioned"]["leakage_saving"]
    )
    assert by_name["phase_aware"]["dynamic"] <= 1.05 * by_name["clustered"]["dynamic"]


def timeout_sweep() -> list[dict]:
    trace = phase_disjoint_trace()
    flow = MemoryOptimizationFlow(
        FlowConfig(block_size=32, max_banks=6, strategy="identity")
    ).run(trace)
    sizes, bases = bank_geometry(flow.partitioned.spec)
    layout_trace = flow.partitioned.layout.remap_trace(trace)
    rows = []
    for timeout in (100, 500, 2000, 8000, 32000):
        policy = SleepPolicy(timeout_cycles=timeout)
        report = simulate_bank_sleep(
            sizes, bases, layout_trace, policy, sram_model=LEAKY_MODEL
        )
        rows.append(
            {
                "timeout": timeout,
                "asleep": report.sleep_fraction,
                "saving": report.leakage_saving,
                "wakes": report.wake_events,
            }
        )
    return rows


def test_figure_ex6a_timeout_sweep(benchmark):
    rows = benchmark.pedantic(timeout_sweep, rounds=1, iterations=1)
    print(
        render_table(
            ["timeout (cycles)", "bank-cycles asleep", "leakage saving", "wakes"],
            [
                [r["timeout"], f"{r['asleep']:.1%}", f"{r['saving']:+.1%}", r["wakes"]]
                for r in rows
            ],
            title="\nEX6a: sleep timeout sweep (partitioned memory)",
        )
    )
    asleep = [r["asleep"] for r in rows]
    # Sleep opportunity shrinks monotonically as the timeout grows.
    assert asleep == sorted(asleep, reverse=True)
    # An aggressive timeout captures the phase structure.
    assert asleep[0] > 0.3
