"""Tests for drowsy bank-sleep modelling."""

import pytest

from repro.memory import BankSleepReport, SleepPolicy, SRAMEnergyModel, simulate_bank_sleep
from repro.trace import MemoryAccess, Trace

LEAKY = SRAMEnergyModel(leakage_pw_per_bit=10.0)


def trace_of(addresses_times):
    return Trace.from_events([MemoryAccess(time=t, address=a) for t, a in addresses_times])


class TestSleepPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            SleepPolicy(timeout_cycles=-1)
        with pytest.raises(ValueError):
            SleepPolicy(sleep_factor=1.5)
        with pytest.raises(ValueError):
            SleepPolicy(wake_energy=-1.0)


class TestSimulation:
    def test_empty_trace(self):
        report = simulate_bank_sleep([64], [0], Trace.from_events([]), SleepPolicy())
        assert report.always_on_leakage == 0.0
        assert report.leakage_saving == 0.0

    def test_constantly_accessed_bank_never_sleeps(self):
        trace = trace_of([(t, 0) for t in range(0, 1000, 10)])
        policy = SleepPolicy(timeout_cycles=50)
        report = simulate_bank_sleep([64], [0], trace, policy, sram_model=LEAKY)
        assert report.sleep_fraction == 0.0
        assert report.wake_events == 0
        assert report.managed_leakage == pytest.approx(report.always_on_leakage)

    def test_long_idle_gap_sleeps(self):
        # Realistic bank size: its leakage over the gap dwarfs the wake cost.
        trace = trace_of([(0, 0), (10_000, 0)])
        policy = SleepPolicy(timeout_cycles=100)
        report = simulate_bank_sleep([64 * 1024], [0], trace, policy, sram_model=LEAKY)
        assert report.sleep_fraction > 0.9
        assert report.wake_events == 1
        assert report.leakage_saving > 0.5

    def test_untouched_bank_sleeps_whole_run(self):
        trace = trace_of([(t, 0) for t in range(0, 1000, 5)])  # bank 0 only
        policy = SleepPolicy(timeout_cycles=100)
        report = simulate_bank_sleep([64, 64], [0, 64], trace, policy, sram_model=LEAKY)
        # One of two banks asleep throughout -> ~50% bank-cycles asleep.
        assert report.sleep_fraction == pytest.approx(0.5, abs=0.01)

    def test_sleep_factor_zero_eliminates_sleeping_leakage(self):
        trace = trace_of([(0, 0), (10_000, 0)])
        zero = simulate_bank_sleep(
            [64], [0], trace, SleepPolicy(timeout_cycles=10, sleep_factor=0.0),
            sram_model=LEAKY,
        )
        half = simulate_bank_sleep(
            [64], [0], trace, SleepPolicy(timeout_cycles=10, sleep_factor=0.5),
            sram_model=LEAKY,
        )
        assert zero.managed_leakage < half.managed_leakage

    def test_wake_energy_charged(self):
        trace = trace_of([(0, 0), (10_000, 0)])
        policy = SleepPolicy(timeout_cycles=10, wake_energy=100.0)
        report = simulate_bank_sleep([64], [0], trace, policy, sram_model=LEAKY)
        assert report.wake_energy == pytest.approx(100.0)

    def test_address_outside_banks_rejected(self):
        trace = trace_of([(0, 4096)])
        with pytest.raises(ValueError):
            simulate_bank_sleep([64], [0], trace, SleepPolicy())

    def test_bank_list_mismatch_rejected(self):
        with pytest.raises(ValueError):
            simulate_bank_sleep([64, 64], [0], Trace.from_events([]), SleepPolicy())

    def test_shorter_timeout_sleeps_more(self):
        # Periodic access with 300-cycle gaps.
        trace = trace_of([(t, 0) for t in range(0, 30_000, 300)])
        short = simulate_bank_sleep(
            [64], [0], trace, SleepPolicy(timeout_cycles=50), sram_model=LEAKY
        )
        long = simulate_bank_sleep(
            [64], [0], trace, SleepPolicy(timeout_cycles=250), sram_model=LEAKY
        )
        assert short.sleep_fraction > long.sleep_fraction
        assert short.wake_events >= long.wake_events


class TestReportPostconditions:
    def test_decreasing_timestamps_raise_instead_of_negative_leakage(self):
        # from_arrays bypasses trace ingress, so only the report's own
        # postconditions stand between this trace and a negative leakage.
        trace = Trace.from_arrays([0, 4, 8], [500, 0, 1000])
        with pytest.raises(ValueError, match="BankSleepReport"):
            simulate_bank_sleep([1024], [0], trace, SleepPolicy())

    @pytest.mark.parametrize(
        "fields, name",
        [
            ((-1.0, 0.0, 0, 0.0, 0.0), "always_on_leakage"),
            ((1.0, -1e-4, 0, 0.0, 0.0), "managed_leakage"),
            ((1.0, 0.5, -1, 0.0, 0.0), "wake_events"),
            ((1.0, 0.5, 0, -15.0, 0.0), "wake_energy"),
            ((1.0, 0.5, 0, 0.0, 1.597), "sleep_fraction"),
            ((1.0, 0.5, 0, 0.0, float("nan")), "sleep_fraction"),
        ],
    )
    def test_each_field_is_checked(self, fields, name):
        with pytest.raises(ValueError, match=name):
            BankSleepReport(*fields)
