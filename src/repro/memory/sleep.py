"""Bank sleep (drowsy) modes for partitioned memories.

A major side benefit of memory partitioning — and the reason the technique
kept paying off as leakage grew through the 2000s — is that a bank nobody is
accessing can be put into a low-leakage retention state.  A monolithic
memory can essentially never sleep (every access wakes the whole array);
a well-partitioned memory keeps the hot bank awake and lets the cold banks
drowse almost permanently.

The model: each bank sleeps after ``timeout_cycles`` of idleness; a sleeping
bank leaks at ``sleep_factor`` of its awake rate; waking costs
``wake_energy`` (driving the virtual-VDD rail back up).  Timing impact is
ignored — drowsy retention wake-up is a cycle or two, noise at this model's
granularity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs.counters import SLEEP_ENERGY_PJ, SLEEP_WAKE_EVENTS
from ..obs.recorder import Recorder
from ..obs.spans import span
from ..trace.columnar import assign_banks, idle_interval_split
from ..trace.trace import Trace
from .energy import SRAMEnergyModel

__all__ = ["SleepPolicy", "BankSleepReport", "simulate_bank_sleep"]


@dataclass(frozen=True)
class SleepPolicy:
    """Drowsy-mode parameters.

    Parameters
    ----------
    timeout_cycles:
        Idle cycles before a bank enters the retention state.
    sleep_factor:
        Retention leakage as a fraction of awake leakage.
    wake_energy:
        pJ per wake-up event.
    """

    timeout_cycles: int = 200
    sleep_factor: float = 0.1
    wake_energy: float = 15.0

    def __post_init__(self) -> None:
        if self.timeout_cycles < 0:
            raise ValueError(
                f"timeout_cycles must be non-negative, got {self.timeout_cycles}"
            )
        if not 0.0 <= self.sleep_factor <= 1.0:
            raise ValueError(f"sleep_factor must be in [0, 1], got {self.sleep_factor}")
        if self.wake_energy < 0:
            raise ValueError(f"wake_energy must be non-negative, got {self.wake_energy}")


@dataclass
class BankSleepReport:
    """Leakage accounting of one memory over one trace."""

    always_on_leakage: float
    managed_leakage: float
    wake_events: int
    wake_energy: float
    sleep_fraction: float  # bank-cycles asleep / total bank-cycles

    def __post_init__(self) -> None:
        for name in ("always_on_leakage", "managed_leakage", "wake_events", "wake_energy"):
            value = getattr(self, name)
            if not value >= 0:
                raise ValueError(f"BankSleepReport.{name} must be >= 0, got {value!r}")
        if not 0.0 <= self.sleep_fraction <= 1.0:
            raise ValueError(
                f"BankSleepReport.sleep_fraction must be in [0, 1], "
                f"got {self.sleep_fraction!r}"
            )

    @property
    def total_managed(self) -> float:
        """Managed leakage plus wake-up costs (pJ)."""
        return self.managed_leakage + self.wake_energy

    @property
    def leakage_saving(self) -> float:
        """Fraction of always-on leakage saved (net of wake-ups)."""
        if self.always_on_leakage == 0:
            return 0.0
        return 1.0 - self.total_managed / self.always_on_leakage


def simulate_bank_sleep(
    bank_sizes: list[int],
    bank_bases: list[int],
    layout_trace: Trace,
    policy: SleepPolicy,
    sram_model: SRAMEnergyModel | None = None,
    cycle_time_ns: float = 10.0,
    recorder: Recorder | None = None,
) -> BankSleepReport:
    """Replay a layout-space trace and account drowsy-mode leakage.

    ``bank_bases[i]``/``bank_sizes[i]`` describe the address window of bank
    ``i`` (contiguous, ascending).  Timestamps in the trace are cycles.

    One fold over ``layout_trace.chunks()``: each chunk assigns banks with
    one ``searchsorted`` and groups each bank's timestamps with a stable
    sort; across chunks the per-bank state carried forward is just
    ``(first_time, last_time)`` plus the integer ``(awake, asleep, wakes)``
    triple.  An idle interval that straddles a chunk boundary is exactly
    the gap between a bank's carried ``last_time`` and its first access in
    the next chunk, split by the same ``min(gap, timeout)``/excess/``+1
    wake`` rule the in-chunk kernel applies — so the accumulated triples
    are independent of the chunking, and the report (folded once through
    :func:`_accumulate_sleep_report`) is bit-identical too.

    ``recorder`` brackets the simulation in a ``sleep`` span and receives
    the wake-event count and leakage energy components.
    """
    with span(recorder, "sleep", banks=len(bank_sizes)):
        _check_bank_geometry(bank_sizes, bank_bases)
        if sram_model is None:
            sram_model = SRAMEnergyModel()

        bases = np.asarray(bank_bases, dtype=np.int64)
        limits = bases + np.asarray(bank_sizes, dtype=np.int64)
        num_banks = len(bank_sizes)
        awake = [0] * num_banks
        asleep = [0] * num_banks
        wakes = [0] * num_banks
        first_times: list[int | None] = [None] * num_banks
        last_times: list[int | None] = [None] * num_banks
        start_cycles: int | None = None
        end_cycles = 0

        for chunk in layout_trace.chunks():
            if not len(chunk):
                continue
            if start_cycles is None:
                start_cycles = int(chunk.timestamps[0])
            end_cycles = int(chunk.timestamps[-1])
            bank_ids = assign_banks(chunk.addresses, bases, limits)
            order = np.argsort(bank_ids, kind="stable")
            grouped_banks = bank_ids[order]
            grouped_times = chunk.timestamps[order]
            boundaries = np.flatnonzero(np.diff(grouped_banks)) + 1
            starts = np.concatenate(([0], boundaries))
            ends = np.concatenate((boundaries, [len(grouped_banks)]))
            for seg_start, seg_end in zip(starts, ends):
                index = int(grouped_banks[seg_start])
                times = grouped_times[seg_start:seg_end]
                previous = last_times[index]
                if previous is not None:
                    # Boundary gap between chunks: same split rule as in-chunk.
                    gap_cycles = int(times[0]) - previous
                    if gap_cycles > policy.timeout_cycles:
                        awake[index] += policy.timeout_cycles
                        asleep[index] += gap_cycles - policy.timeout_cycles
                        wakes[index] += 1
                    else:
                        awake[index] += gap_cycles
                seg_awake, seg_asleep, seg_wakes = idle_interval_split(
                    times, policy.timeout_cycles
                )
                awake[index] += seg_awake
                asleep[index] += seg_asleep
                wakes[index] += seg_wakes
                if first_times[index] is None:
                    first_times[index] = int(times[0])
                last_times[index] = int(times[-1])

        if start_cycles is None:
            return _record_sleep(recorder, BankSleepReport(0.0, 0.0, 0, 0.0, 0.0))
        report = _accumulate_sleep_report(
            bank_sizes,
            list(zip(awake, asleep, wakes)),
            first_times,
            last_times,
            start_cycles,
            end_cycles,
            policy,
            sram_model,
            cycle_time_ns,
        )
        return _record_sleep(recorder, report)


def _record_sleep(recorder: Recorder | None, report: BankSleepReport) -> BankSleepReport:
    """Flush one sleep simulation's counters; returns ``report`` unchanged."""
    if recorder is not None and recorder.enabled:
        recorder.counter(SLEEP_WAKE_EVENTS, report.wake_events)
        recorder.counter(SLEEP_ENERGY_PJ, report.managed_leakage, component="managed")
        recorder.counter(SLEEP_ENERGY_PJ, report.wake_energy, component="wake")
        recorder.counter(
            SLEEP_ENERGY_PJ, report.always_on_leakage, component="always_on"
        )
    return report


def _check_bank_geometry(bank_sizes: list[int], bank_bases: list[int]) -> None:
    """Validate the parallel bank-geometry lists."""
    if len(bank_sizes) != len(bank_bases):
        raise ValueError(
            f"bank_sizes ({len(bank_sizes)}) and bank_bases "
            f"({len(bank_bases)}) must align"
        )


def _accumulate_sleep_report(
    bank_sizes: list[int],
    per_bank: list[tuple[int, int, int]],
    first_times: list,
    last_times: list,
    start_cycles: int,
    end_cycles: int,
    policy: SleepPolicy,
    sram_model: SRAMEnergyModel,
    cycle_time_ns: float,
) -> BankSleepReport:
    """Fold per-bank gap splits into the final report.

    This is the single definition of the leakage arithmetic: the chunked
    kernel and the per-event reference in ``tests/playback_oracle.py`` both
    land here with identical integer cycle counts, and the float
    accumulation visits banks in index order, so their reports are
    bit-identical.
    """
    duration_cycles = end_cycles - start_cycles + 1
    always_on_pj = sum(
        sram_model.leakage_energy(size, duration_cycles, cycle_time_ns)
        for size in bank_sizes
    )
    managed_pj = 0.0
    wakes = 0
    asleep_bank_cycles = 0
    total_bank_cycles = duration_cycles * len(bank_sizes)

    for index, size in enumerate(bank_sizes):
        leak_pj_per_cycle = sram_model.leakage_energy(size, 1, cycle_time_ns)
        if first_times[index] is None:
            # Never touched: asleep for the whole run (one initial wake saved).
            asleep_cycles = duration_cycles
            managed_pj += asleep_cycles * leak_pj_per_cycle * policy.sleep_factor
            asleep_bank_cycles += asleep_cycles
            continue
        awake_cycles, asleep_cycles, gap_wakes = per_bank[index]
        wakes += gap_wakes
        # Idle gap before the first access (bank starts asleep).
        lead_cycles = first_times[index] - start_cycles
        asleep_cycles += lead_cycles
        if lead_cycles > 0:
            wakes += 1
        # Tail after the last access: awake until timeout, then asleep.
        tail_cycles = end_cycles - last_times[index] + 1
        awake_cycles += min(tail_cycles, policy.timeout_cycles)
        asleep_cycles += max(0, tail_cycles - policy.timeout_cycles)
        managed_pj += (
            awake_cycles * leak_pj_per_cycle
            + asleep_cycles * leak_pj_per_cycle * policy.sleep_factor
        )
        asleep_bank_cycles += asleep_cycles

    return BankSleepReport(
        always_on_leakage=always_on_pj,
        managed_leakage=managed_pj,
        wake_events=wakes,
        wake_energy=wakes * policy.wake_energy,
        sleep_fraction=asleep_bank_cycles / total_bank_cycles if total_bank_cycles else 0.0,
    )
