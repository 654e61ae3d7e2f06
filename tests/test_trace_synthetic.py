"""Unit tests for synthetic trace generators."""

import pytest

from repro.trace import (
    AccessProfile,
    HotColdGenerator,
    LoopNestGenerator,
    MarkovRegionGenerator,
    ScatteredHotGenerator,
    StridedSweepGenerator,
    ValueTraceGenerator,
)


class TestDeterminism:
    @pytest.mark.parametrize(
        "generator",
        [
            StridedSweepGenerator(length=32, sweeps=2),
            HotColdGenerator(accesses=500),
            LoopNestGenerator(iterations=100),
            MarkovRegionGenerator(accesses=500),
            ScatteredHotGenerator(accesses=500, num_blocks=50, num_hot=5),
            ValueTraceGenerator(lines=20),
        ],
        ids=lambda g: type(g).__name__,
    )
    def test_same_seed_same_trace(self, generator):
        a = generator.generate()
        b = generator.generate()
        assert [e.address for e in a] == [e.address for e in b]
        assert [e.kind for e in a] == [e.kind for e in b]


class TestStridedSweep:
    def test_addresses_follow_stride(self):
        trace = StridedSweepGenerator(base=0x100, length=4, stride=8, sweeps=1).generate()
        assert [e.address for e in trace] == [0x100, 0x108, 0x110, 0x118]

    def test_sweeps_multiply_length(self):
        trace = StridedSweepGenerator(length=10, sweeps=3).generate()
        assert len(trace) == 30

    def test_timestamps_monotonic(self):
        StridedSweepGenerator(length=16, sweeps=2).generate().validate()


class TestHotCold:
    def test_hot_region_dominates(self):
        generator = HotColdGenerator(hot_fraction=0.9, accesses=5000)
        trace = generator.generate()
        hot = sum(1 for e in trace if e.address < generator.hot_base + generator.hot_size)
        assert hot / len(trace) == pytest.approx(0.9, abs=0.05)


class TestLoopNest:
    def test_touches_every_array_each_iteration(self):
        generator = LoopNestGenerator(array_sizes=(8, 8), iterations=8)
        trace = generator.generate()
        assert len(trace) == 16
        bases = generator.bases()
        assert any(e.address >= bases[1] for e in trace)

    def test_last_array_written(self):
        trace = LoopNestGenerator(array_sizes=(4, 4), iterations=4, write_last=True).generate()
        writes = trace.writes()
        assert len(writes) == 4


class TestMarkov:
    def test_high_stickiness_gives_fewer_region_switches(self):
        def switches(stickiness):
            trace = MarkovRegionGenerator(stickiness=stickiness, accesses=3000, seed=1).generate()
            gap = 32 * 1024
            regions = [e.address // gap for e in trace]
            return sum(1 for a, b in zip(regions, regions[1:]) if a != b)

        assert switches(0.99) < switches(0.5)


class TestScatteredHot:
    def test_hot_blocks_receive_most_traffic(self):
        generator = ScatteredHotGenerator(
            num_blocks=100, num_hot=10, hot_weight=50.0, accesses=20000
        )
        profile = AccessProfile(generator.generate(), block_size=generator.block_size)
        counts = sorted(profile.access_counts().values(), reverse=True)
        top10 = sum(counts[:10])
        assert top10 / profile.total_accesses > 0.7

    def test_validates_hot_count(self):
        with pytest.raises(ValueError):
            ScatteredHotGenerator(num_blocks=4, num_hot=5).generate()


class TestValueTrace:
    def test_all_writes_with_values(self):
        trace = ValueTraceGenerator(lines=10).generate()
        assert all(e.is_write and e.value is not None for e in trace)

    def test_line_count(self):
        generator = ValueTraceGenerator(lines=10, line_bytes=32)
        assert len(generator.generate()) == 10 * 8

    def test_smoothness_bounds_checked(self):
        with pytest.raises(ValueError):
            ValueTraceGenerator(smoothness=1.5).generate()

    def test_smoother_data_has_smaller_deltas(self):
        def mean_abs_delta(smoothness):
            trace = ValueTraceGenerator(lines=50, smoothness=smoothness, seed=9).generate()
            values = [e.value for e in trace]
            deltas = [
                min((b - a) % 2**32, (a - b) % 2**32) for a, b in zip(values, values[1:])
            ]
            return sum(deltas) / len(deltas)

        assert mean_abs_delta(0.9) < mean_abs_delta(0.2)


class TestParameterChecks:
    """Each generator rejects a bad value when built, before generating."""

    @pytest.mark.parametrize(
        ("generator", "field", "value"),
        [
            (StridedSweepGenerator, "length", 0),
            (StridedSweepGenerator, "base", -4),
            (StridedSweepGenerator, "write_fraction", 1.5),
            (HotColdGenerator, "accesses", -5),
            (HotColdGenerator, "accesses", 2.5),
            (HotColdGenerator, "hot_size", 2),
            (HotColdGenerator, "hot_fraction", -0.1),
            (LoopNestGenerator, "array_sizes", 16),
            (LoopNestGenerator, "array_sizes", (8, 0)),
            (LoopNestGenerator, "iterations", True),
            (LoopNestGenerator, "write_last", 1),
            (MarkovRegionGenerator, "regions", 0),
            (MarkovRegionGenerator, "stickiness", 2),
            (MarkovRegionGenerator, "seed", -1),
            (ScatteredHotGenerator, "num_hot", 500),
            (ScatteredHotGenerator, "hot_weight", 0.0),
            (ScatteredHotGenerator, "block_size", "32"),
            (ValueTraceGenerator, "lines", 0),
            (ValueTraceGenerator, "line_bytes", 3),
            (ValueTraceGenerator, "smoothness", float("nan")),
        ],
    )
    def test_bad_value_names_generator_field_and_value(self, generator, field, value):
        with pytest.raises(ValueError) as error:
            generator(**{field: value})
        message = str(error.value)
        assert message.startswith(f"{generator.__name__}: {field} must be ")
        assert message.endswith(f"got {value!r}")

    def test_defaults_are_valid(self):
        for generator in (
            StridedSweepGenerator,
            HotColdGenerator,
            LoopNestGenerator,
            MarkovRegionGenerator,
            ScatteredHotGenerator,
            ValueTraceGenerator,
        ):
            generator()
