"""Integration tests: instrumented pipelines against the obs contract.

The acceptance contract of the instrumentation layer (ARCHITECTURE.md
"Observability"): an instrumented run records every pipeline stage as a
span, its counters reconcile *exactly* (``==``, not approximately) with the
reported energy totals, and recording — or not — never changes a single
bit of the results.
"""

from __future__ import annotations

import io

import pytest

from repro.core import FlowConfig, MemoryOptimizationFlow
from repro.memory import (
    PartitionedMemory,
    SleepPolicy,
    simulate_bank_sleep,
)
from repro.obs import JsonlRecorder, NullRecorder, read_log, recording
from repro.obs.clock import TickClock
from repro.obs.counters import (
    COMPRESS_OFFCHIP_BYTES,
    FLOW_TOTAL_PJ,
    PLATFORM_ENERGY_PJ,
    PLAY_EVENTS,
    PROFILE_BLOCKS,
    PROFILE_EVENTS,
    RECONFIG_KERNELS,
    SLEEP_ENERGY_PJ,
    SLEEP_WAKE_EVENTS,
    SPM_BENEFIT_PJ,
    SPM_BLOCKS,
    STAGE_ENERGY_PJ,
)
from repro.obs.manifest import config_fingerprint
from repro.trace import ScatteredHotGenerator


def recorded_run(fn):
    """Run ``fn()`` with a deterministic in-memory recorder active."""
    sink = io.StringIO()
    with JsonlRecorder(sink, clock=TickClock()) as recorder, recording(recorder):
        value = fn()
    return value, read_log(sink.getvalue().splitlines())


@pytest.fixture(scope="module")
def scattered_trace():
    return ScatteredHotGenerator(
        num_blocks=150, num_hot=15, hot_weight=25.0, accesses=10000, seed=4
    ).generate()


@pytest.fixture(scope="module")
def instrumented(scattered_trace):
    config = FlowConfig(block_size=32, max_banks=4, strategy="affinity")
    return recorded_run(lambda: MemoryOptimizationFlow(config).run(scattered_trace))


class TestInstrumentedFlow:
    def test_every_stage_recorded_as_a_span(self, instrumented):
        _result, log = instrumented
        names = [record.name for record in log.spans()]
        assert names.count("profile") == 1
        assert names.count("cluster") == 1
        assert names.count("partition_search") == 3  # one per variant
        assert names.count("playback") == 3
        assert all(record.status == "ok" for record in log.spans())

    def test_playback_spans_carry_variant_and_bank_attrs(self, instrumented):
        result, log = instrumented
        playback = {
            record.attrs["variant"]: record.attrs["banks"]
            for record in log.spans()
            if record.name == "playback"
        }
        assert playback == {
            "monolithic": 1,
            "partitioned": result.partitioned.spec.num_banks,
            "clustered": result.clustered.spec.num_banks,
        }

    def test_manifest_attached_and_recorded(self, instrumented, scattered_trace):
        result, log = instrumented
        assert result.manifest is not None
        assert log.manifest == result.manifest.to_dict()
        assert result.manifest.extra["trace"] == scattered_trace.name
        assert result.manifest.config_hash == config_fingerprint(
            result.config.describe()
        )

    def test_profile_counters_match_the_profile(self, instrumented, scattered_trace):
        result, log = instrumented
        counters = log.counters()
        assert counters.total(PROFILE_EVENTS) == len(scattered_trace)
        assert counters.total(PROFILE_BLOCKS) == result.profile_summary["blocks"]

    def test_playback_counters_account_every_event(self, instrumented, scattered_trace):
        _result, log = instrumented
        counters = log.counters()
        # Three variants each replay the full remapped trace.
        assert counters.total(PLAY_EVENTS) == 3 * len(scattered_trace)

    def test_reported_totals_match_flow_results_exactly(self, instrumented):
        result, log = instrumented
        counters = log.counters()
        for variant in (result.monolithic, result.partitioned, result.clustered):
            assert (
                counters.total(FLOW_TOTAL_PJ, stage=variant.label)
                == variant.simulated.total
            )

    def test_stage_energy_components_reconcile_exactly(self, instrumented):
        _result, log = instrumented
        rows = log.reconcile_energy()
        assert sorted(stage for stage, *_rest in rows) == [
            "clustered",
            "monolithic",
            "partitioned",
        ]
        for stage, summed, reported, exact in rows:
            assert exact, f"{stage}: {summed!r} != {reported!r}"

    def test_component_breakdown_matches_simulated_fields(self, instrumented):
        result, log = instrumented
        counters = log.counters()
        for variant in (result.monolithic, result.partitioned, result.clustered):
            simulated = variant.simulated
            for component, value in (
                ("bank", simulated.bank_energy),
                ("decoder", simulated.decoder_energy),
                ("leakage", simulated.leakage_energy),
            ):
                assert (
                    counters.total(
                        STAGE_ENERGY_PJ, stage=variant.label, component=component
                    )
                    == value
                )


class TestRecordingNeverChangesResults:
    def test_null_recorder_flow_is_bit_identical(self, scattered_trace):
        config = FlowConfig(block_size=32, max_banks=4, strategy="affinity")
        bare = MemoryOptimizationFlow(config).run(scattered_trace)
        with recording(NullRecorder()):
            nulled = MemoryOptimizationFlow(config).run(scattered_trace)
        recorded, _log = recorded_run(
            lambda: MemoryOptimizationFlow(config).run(scattered_trace)
        )
        for variant in ("monolithic", "partitioned", "clustered"):
            totals = {
                getattr(result, variant).simulated.total
                for result in (bare, nulled, recorded)
            }
            assert len(totals) == 1, f"{variant} diverged across recorders: {totals}"

    def test_manifest_is_attached_even_without_a_recorder(self, scattered_trace):
        result = MemoryOptimizationFlow(FlowConfig(max_banks=4)).run(scattered_trace)
        assert result.manifest is not None
        assert result.manifest.config_hash


class TestSleepInstrumentation:
    @staticmethod
    def simulate(trace):
        return simulate_bank_sleep(
            [256, 256], [0, 256], trace, SleepPolicy(timeout_cycles=50)
        )

    @pytest.fixture(scope="class")
    def small_trace(self):
        from repro.trace import MemoryAccess, Trace

        events = [MemoryAccess(time=10 * i, address=(i % 128) * 4) for i in range(64)]
        return Trace.from_events(events, name="sleep-small")

    def test_sleep_span_and_counters_recorded(self, small_trace):
        report, log = recorded_run(lambda: self.simulate(small_trace))
        counters = log.counters()
        assert [record.name for record in log.spans()] == ["sleep"]
        assert counters.total(SLEEP_WAKE_EVENTS) == report.wake_events
        for component, value in (
            ("managed", report.managed_leakage),
            ("wake", report.wake_energy),
            ("always_on", report.always_on_leakage),
        ):
            assert counters.total(SLEEP_ENERGY_PJ, component=component) == value


class TestSpmInstrumentation:
    def test_allocation_counters_match_the_allocation(self):
        from repro.spm import SPMAllocator, SPMConfig
        from repro.trace import AccessProfile

        trace = ScatteredHotGenerator(
            num_blocks=100, num_hot=10, hot_weight=20.0, accesses=5000, seed=9
        ).generate()
        profile = AccessProfile(trace, block_size=32)
        allocator = SPMAllocator(SPMConfig(size=1024), cache_path_energy=50.0)
        allocation, log = recorded_run(lambda: allocator.allocate(profile))
        counters = log.counters()
        spans = log.spans()
        assert [record.name for record in spans] == ["spm_alloc"]
        assert spans[0].attrs["capacity_bytes"] == 1024
        assert counters.total(SPM_BLOCKS) == len(allocation.blocks)
        assert counters.total(SPM_BENEFIT_PJ) == allocation.predicted_benefit


class TestReconfigInstrumentation:
    @staticmethod
    def tiny_app():
        from repro.reconfig import Application, DataSet, Kernel

        return Application(
            name="tiny",
            kernels=(
                Kernel(
                    "k0",
                    context=0,
                    data_sets=(DataSet("a", size=256, reads=1000, writes=0),),
                ),
                Kernel(
                    "k1",
                    context=1,
                    data_sets=(DataSet("a", size=256, reads=500, writes=100),),
                ),
            ),
        )

    def test_energy_aware_scheduler_records_span_and_counters(self):
        from repro.reconfig import EnergyAwareScheduler, ReconfigArchitecture

        app = self.tiny_app()
        architecture = ReconfigArchitecture()
        _schedule, log = recorded_run(
            lambda: EnergyAwareScheduler().schedule(app, architecture)
        )
        counters = log.counters()
        assert [record.name for record in log.spans()] == ["reconfig_schedule"]
        assert counters.total(RECONFIG_KERNELS) == len(app.kernels)

    def test_naive_scheduler_records_kernel_count(self):
        from repro.reconfig import NaiveScheduler, ReconfigArchitecture

        app = self.tiny_app()
        _schedule, log = recorded_run(
            lambda: NaiveScheduler().schedule(app, ReconfigArchitecture())
        )
        assert log.counters().total(RECONFIG_KERNELS) == len(app.kernels)


class TestPlatformInstrumentation:
    def test_platform_energy_components_sum_to_breakdown_total(self):
        from repro.isa import load_kernel
        from repro.platforms import risc_platform

        program = load_kernel("table_lookup")
        platform = risc_platform(None)
        report, log = recorded_run(lambda: platform.run_program(program))
        counters = log.counters()
        spans = log.spans()
        assert [record.name for record in spans] == ["compression"]
        assert spans[0].attrs["codec"] is None
        # as_dict order matches the order .total adds components, so the
        # replayed sum is bit-identical to the report's total.
        assert counters.grand_total(PLATFORM_ENERGY_PJ) == report.breakdown.total
        assert (
            counters.total(COMPRESS_OFFCHIP_BYTES, direction="to_memory")
            == report.bytes_to_memory
        )
        assert (
            counters.total(COMPRESS_OFFCHIP_BYTES, direction="from_memory")
            == report.bytes_from_memory
        )


class TestPlayInstrumentation:
    def test_bank_hit_counters_match_bank_access_counts(self):
        from repro.trace import MemoryAccess, Trace

        trace = Trace.from_events(
            [MemoryAccess(time=i, address=(i * 64) % 1024) for i in range(200)],
            name="play-small",
        )
        memory = PartitionedMemory([512, 512])
        report, log = recorded_run(lambda: memory.play(trace))
        counters = log.counters()
        assert counters.total(PLAY_EVENTS) == len(trace)
        for index, hits in enumerate(memory.bank_access_counts()):
            assert counters.total("play.bank_hits", bank=index) == hits
        assert counters.grand_total("play.energy_pj") == report.total
