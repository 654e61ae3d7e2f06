"""Unit tests for trace phase detection."""

import numpy as np
import pytest

from repro.trace import MemoryAccess, PhaseDetector, Trace


def phase_trace(segments, events_per_segment=2000, spread=256):
    """Trace visiting the given region bases in order."""
    events = []
    time = 0
    for index, base in enumerate(segments):
        rng = np.random.default_rng(index)
        for _ in range(events_per_segment):
            events.append(
                MemoryAccess(time=time, address=base + int(rng.integers(0, spread)) * 4)
            )
            time += 1
    return Trace.from_events(events)


class TestPhaseDetector:
    def test_recovers_aba_structure(self):
        trace = phase_trace([0x0, 0x100000, 0x0])
        segmentation = PhaseDetector(window=500, num_clusters=2).detect(trace)
        clusters = [phase.cluster for phase in segmentation.phases]
        assert len(segmentation.phases) == 3
        assert clusters[0] == clusters[2]
        assert clusters[0] != clusters[1]

    def test_phase_boundaries_near_truth(self):
        trace = phase_trace([0x0, 0x100000], events_per_segment=3000)
        segmentation = PhaseDetector(window=500, num_clusters=2).detect(trace)
        assert len(segmentation.phases) == 2
        boundary = segmentation.phases[0].end_event
        assert abs(boundary - 3000) <= 500  # within one window

    def test_phases_tile_the_trace(self):
        trace = phase_trace([0x0, 0x100000, 0x200000])
        segmentation = PhaseDetector(window=512, num_clusters=3).detect(trace)
        cursor = 0
        for phase in segmentation.phases:
            assert phase.start_event == cursor
            cursor = phase.end_event
        assert cursor == len(trace)

    def test_slice_returns_phase_events(self):
        trace = phase_trace([0x0, 0x100000])
        segmentation = PhaseDetector(window=500, num_clusters=2).detect(trace)
        sliced = segmentation.slice(segmentation.phases[0])
        assert len(sliced) == segmentation.phases[0].num_events

    def test_uniform_trace_is_one_phase(self):
        trace = phase_trace([0x0], events_per_segment=4000)
        segmentation = PhaseDetector(window=500, num_clusters=3, seed=1).detect(trace)
        # One behaviour: the segmentation must not shatter into many phases.
        assert segmentation.num_phases <= 3

    def test_empty_trace(self):
        segmentation = PhaseDetector().detect(Trace.from_events([]))
        assert segmentation.phases == []
        assert segmentation.num_phases == 0

    def test_deterministic(self):
        trace = phase_trace([0x0, 0x100000])
        a = PhaseDetector(window=500, num_clusters=2, seed=7).detect(trace)
        b = PhaseDetector(window=500, num_clusters=2, seed=7).detect(trace)
        assert [(p.cluster, p.start_event, p.end_event) for p in a.phases] == [
            (p.cluster, p.start_event, p.end_event) for p in b.phases
        ]

    def test_phases_of_cluster(self):
        trace = phase_trace([0x0, 0x100000, 0x0])
        segmentation = PhaseDetector(window=500, num_clusters=2).detect(trace)
        cluster = segmentation.phases[0].cluster
        assert len(segmentation.phases_of_cluster(cluster)) == 2

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            PhaseDetector(window=0)
        with pytest.raises(ValueError):
            PhaseDetector(num_clusters=0)
        with pytest.raises(ValueError):
            PhaseDetector(top_blocks=0)

    def test_more_clusters_than_windows_clamped(self):
        trace = phase_trace([0x0], events_per_segment=300)
        segmentation = PhaseDetector(window=500, num_clusters=8).detect(trace)
        assert segmentation.num_phases == 1
