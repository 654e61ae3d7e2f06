"""Unit tests for the Trace container."""

import pytest

from repro.trace import AccessKind, AddressSpace, MemoryAccess, Trace


def make_trace():
    return Trace.from_events(
        [
            MemoryAccess(time=0, address=0x00, kind=AccessKind.READ),
            MemoryAccess(time=1, address=0x20, kind=AccessKind.WRITE),
            MemoryAccess(time=2, address=0x40, kind=AccessKind.READ,
                         space=AddressSpace.INSTRUCTION),
            MemoryAccess(time=3, address=0x24, kind=AccessKind.WRITE),
        ],
        name="t",
    )


class TestBasics:
    def test_len_iter_getitem(self):
        trace = make_trace()
        assert len(trace) == 4
        assert [event.address for event in trace] == [0x00, 0x20, 0x40, 0x24]
        assert list(trace[1:2])[0].address == 0x20
        with pytest.raises(TypeError, match="slice or a mask"):
            trace[1]

    def test_slice_returns_trace(self):
        sliced = make_trace()[1:3]
        assert isinstance(sliced, Trace)
        assert len(sliced) == 2


class TestValidation:
    def test_validate_ok(self):
        make_trace().validate()

    def test_validate_rejects_time_regression(self):
        trace = Trace.from_events(
            [MemoryAccess(time=5, address=0), MemoryAccess(time=4, address=0)]
        )
        with pytest.raises(ValueError):
            trace.validate()


class TestFilters:
    def test_reads_writes_partition_the_trace(self):
        trace = make_trace()
        assert len(trace.reads()) + len(trace.writes()) == len(trace)
        assert all(event.is_read for event in trace.reads())
        assert all(event.is_write for event in trace.writes())

    def test_space_filters(self):
        trace = make_trace()
        assert len(trace.instruction_accesses()) == 1
        assert len(trace.data_accesses()) == 3


class TestSummaries:
    def test_footprint(self):
        # blocks of 32: {0, 1, 2}; 0x24 shares block 1 with 0x20
        assert make_trace().footprint(32) == 3

    def test_read_write_counts(self):
        assert make_trace().read_write_counts() == (2, 2)

    def test_block_ids(self):
        assert list(make_trace().block_ids(32)) == [0, 1, 2, 1]

