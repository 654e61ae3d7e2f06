"""Tests for the scratchpad allocation subsystem."""

import dataclasses

import pytest

from repro.platforms import EnergyBreakdown
from repro.spm import SPMAllocator, SPMConfig, SPMPlatform
from repro.trace import AccessProfile, MemoryAccess, ScatteredHotGenerator, Trace


@pytest.fixture(scope="module")
def scattered_trace():
    return ScatteredHotGenerator(
        num_blocks=200, num_hot=20, hot_weight=30.0, accesses=12000, seed=9
    ).generate()


@pytest.fixture(scope="module")
def scattered_profile(scattered_trace):
    return AccessProfile(scattered_trace, block_size=32)


class TestSPMConfig:
    def test_size_validated(self):
        with pytest.raises(ValueError):
            SPMConfig(size=0)

    def test_bigger_spm_costlier_per_access(self):
        assert SPMConfig(size=8192).access_energy() > SPMConfig(size=512).access_energy()


class TestAllocator:
    def test_picks_hottest_blocks(self, scattered_profile):
        config = SPMConfig(size=32 * 8)  # room for 8 blocks
        allocation = SPMAllocator(config, cache_path_energy=50.0).allocate(scattered_profile)
        assert len(allocation.blocks) == 8
        counts = scattered_profile.access_counts()
        chosen_min = min(counts[block] for block in allocation.blocks)
        unchosen_max = max(
            counts[block] for block in counts if block not in allocation.blocks
        )
        assert chosen_min >= unchosen_max

    def test_capacity_respected(self, scattered_profile):
        config = SPMConfig(size=100)  # only 3 whole 32B blocks fit
        allocation = SPMAllocator(config, cache_path_energy=50.0).allocate(scattered_profile)
        assert allocation.bytes_used <= 100

    def test_no_benefit_no_allocation(self, scattered_profile):
        # SPM access as costly as the cache path: allocating is pointless.
        config = SPMConfig(size=1024)
        allocator = SPMAllocator(config, cache_path_energy=config.access_energy())
        allocation = allocator.allocate(scattered_profile)
        assert allocation.blocks == frozenset()
        assert allocation.predicted_benefit == 0.0

    def test_holds(self, scattered_profile):
        config = SPMConfig(size=1024)
        allocation = SPMAllocator(config, cache_path_energy=50.0).allocate(scattered_profile)
        block = next(iter(allocation.blocks))
        assert allocation.holds(block * 32)
        assert allocation.holds(block * 32 + 31)

    def test_cache_path_energy_validated(self):
        with pytest.raises(ValueError):
            SPMAllocator(SPMConfig(), cache_path_energy=0.0)


class TestSPMPlatform:
    @pytest.mark.parametrize(
        "change, field",
        [
            ({"breakdown": EnergyBreakdown(spm=-1.0)}, "breakdown.spm"),
            ({"spm_accesses": -1}, "spm_accesses"),
            ({"cached_accesses": -1}, "cached_accesses"),
        ],
    )
    def test_bad_report_is_rejected(self, scattered_trace, change, field):
        report = SPMPlatform().run_traces(scattered_trace, allocation=None)
        with pytest.raises(ValueError, match=f"SPMPlatformReport.{field} "):
            dataclasses.replace(report, **change)

    def test_no_allocation_equals_pure_cache_path(self, scattered_trace):
        platform = SPMPlatform()
        report = platform.run_traces(scattered_trace, allocation=None)
        assert report.spm_accesses == 0
        assert report.cached_accesses == len(scattered_trace)
        assert report.breakdown.spm == 0.0

    def test_allocation_reduces_energy(self, scattered_trace, scattered_profile):
        platform = SPMPlatform()
        base = platform.run_traces(scattered_trace)
        cpe = platform.measured_cache_path_energy(scattered_trace)
        allocation = SPMAllocator(SPMConfig(size=1024), cache_path_energy=cpe).allocate(
            scattered_profile
        )
        report = platform.run_traces(scattered_trace, allocation)
        assert report.breakdown.total < base.breakdown.total
        assert report.spm_coverage > 0.3

    def test_fill_cost_charged(self, scattered_profile):
        # An SPM allocation on a trace that never touches it again: pure loss.
        platform = SPMPlatform()
        allocation = SPMAllocator(SPMConfig(size=512), cache_path_energy=50.0).allocate(
            scattered_profile
        )
        untouched = Trace([MemoryAccess(time=0, address=0x100000)])
        report = platform.run_traces(untouched, allocation)
        assert report.breakdown.spm > 0  # fill writes
        assert report.breakdown.dram > 0  # fill burst

    def test_coverage_grows_with_size(self, scattered_trace, scattered_profile):
        platform = SPMPlatform()
        cpe = platform.measured_cache_path_energy(scattered_trace)
        coverages = []
        for size in (256, 1024, 4096):
            allocation = SPMAllocator(SPMConfig(size=size), cache_path_energy=cpe).allocate(
                scattered_profile
            )
            coverages.append(platform.run_traces(scattered_trace, allocation).spm_coverage)
        assert coverages == sorted(coverages)

    def test_measured_cache_path_energy_empty_trace(self):
        assert SPMPlatform().measured_cache_path_energy(Trace()) == 0.0
