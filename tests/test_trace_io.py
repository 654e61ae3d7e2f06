"""Unit tests for trace file I/O."""

import re

import numpy as np
import pytest

from repro.trace import (
    AccessKind,
    AddressSpace,
    MemoryAccess,
    Trace,
    load_npz,
    load_text,
    save_npz,
    save_text,
)


def sample_trace():
    return Trace(
        [
            MemoryAccess(time=0, address=0x1000, size=4, kind=AccessKind.READ),
            MemoryAccess(time=1, address=0x1004, size=2, kind=AccessKind.WRITE, value=0xBEEF),
            MemoryAccess(
                time=2,
                address=0x0,
                size=4,
                kind=AccessKind.READ,
                space=AddressSpace.INSTRUCTION,
                value=0x12345678,
            ),
        ],
        name="sample",
    )


def assert_traces_equal(a, b):
    assert a.name == b.name
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert (x.time, x.address, x.size, x.kind, x.space, x.value) == (
            y.time,
            y.address,
            y.size,
            y.kind,
            y.space,
            y.value,
        )


class TestTextFormat:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "trace.trc"
        original = sample_trace()
        save_text(original, path)
        assert_traces_equal(original, load_text(path))

    def test_blank_lines_and_comments_ignored(self, tmp_path):
        path = tmp_path / "trace.trc"
        path.write_text("# comment\n\n0 R D 0x10 4\n")
        trace = load_text(path)
        assert len(trace) == 1
        assert trace[0].address == 0x10

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.trc"
        path.write_text("0 R D\n")
        with pytest.raises(ValueError):
            load_text(path)

    @pytest.mark.parametrize(
        "line",
        [
            "0 R D",
            "x R D 0x0 4",
            "0 Q D 0x0 4",
            "0 R D 0xzz 4",
            "0 R D 0x0 0",
            "0 R D 0x10000000000000000 4",
        ],
    )
    def test_every_parse_error_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "bad.trc"
        path.write_text(f"# trace bad\n0 R D 0x0 4\n{line}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: ")):
            load_text(path)

    def test_decreasing_timestamp_names_file_and_line(self, tmp_path):
        path = tmp_path / "travel.trc"
        path.write_text("500 R D 0x0 4\n0 R D 0x4 4\n1000 R D 0x8 4\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: timestamp 0")):
            load_text(path)

    def test_name_header(self, tmp_path):
        path = tmp_path / "x.trc"
        save_text(sample_trace(), path)
        assert load_text(path).name == "sample"


class TestNpzFormat:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "trace.npz"
        original = sample_trace()
        save_npz(original, path)
        assert_traces_equal(original, load_npz(path))

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.npz"
        save_npz(Trace(name="empty"), path)
        loaded = load_npz(path)
        assert len(loaded) == 0
        assert loaded.name == "empty"

    def test_large_roundtrip(self, tmp_path):
        from repro.trace import StridedSweepGenerator

        original = StridedSweepGenerator(length=500, sweeps=2).generate()
        path = tmp_path / "big.npz"
        save_npz(original, path)
        assert_traces_equal(original, load_npz(path))

    def test_missing_key_names_file_and_key(self, tmp_path):
        path = tmp_path / "partial.npz"
        np.savez(path, times=np.zeros(1, dtype=np.int64))
        with pytest.raises(ValueError, match=r"partial\.npz: .*missing key 'addresses'"):
            load_npz(path)

    def test_decreasing_timestamp_names_file_and_index(self, tmp_path):
        path = tmp_path / "travel.npz"
        times = (500, 0, 1000)
        save_npz(Trace([MemoryAccess(time=t, address=4 * t) for t in times]), path)
        with pytest.raises(ValueError, match=r"travel\.npz: event 1 has timestamp 0"):
            load_npz(path)

    @pytest.mark.parametrize(
        "key, column, message",
        [
            ("values", np.array([-1]), "values has 1 rows, expected 2"),
            ("times", np.array([0.5, 4.9]), "'times' must be a 1-D integer array"),
            ("addresses", np.array([0.0, 4.0]), "'addresses' must be a 1-D integer"),
            ("kinds", np.array([0, 3], dtype=np.uint8), "event 1 has kind code 3"),
            ("kinds", np.array([0, 256]), "'kinds' must be a 1-D integer array within uint8"),
        ],
        ids=["short-values", "float-times", "float-addresses", "kind-3", "kind-256"],
    )
    def test_malformed_column_names_file(self, tmp_path, key, column, message):
        path = tmp_path / "bad.npz"
        events = [MemoryAccess(time=0, address=0), MemoryAccess(time=1, address=4)]
        save_npz(Trace(events), path)
        with np.load(path) as data:
            arrays = dict(data)
        arrays[key] = column
        np.savez(path, **arrays)
        pattern = re.escape(f"{path}: ") + ".*" + re.escape(message)
        with pytest.raises(ValueError, match=pattern):
            load_npz(path)

    def test_payload_colliding_with_the_no_payload_sentinel_raises(self, tmp_path):
        trace = Trace(
            [
                MemoryAccess(time=0, address=0, value=7),
                MemoryAccess(time=1, address=4, value=-1),
            ]
        )
        with pytest.raises(ValueError, match="event 1 carries payload -1"):
            save_npz(trace, tmp_path / "collide.npz")

    def test_size_beyond_int32_raises(self, tmp_path):
        trace = Trace([MemoryAccess(time=0, address=0, size=2**31)])
        with pytest.raises(ValueError, match="event 0 has size 2147483648"):
            save_npz(trace, tmp_path / "wide.npz")
