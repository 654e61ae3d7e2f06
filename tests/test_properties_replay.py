"""The platform's stream kernels equal their one-at-a-time walks (hypothesis).

* :meth:`repro.cache.Cache.run` gives the transfers (access index, line
  address, size, direction), statistics and flush order of the per-access
  oracle in ``tests/cache_oracle.py``, and two calls equal one call over the
  concatenated stream.
* :meth:`repro.bus.Bus.drive_all` leaves the same energy (to the bit),
  statistics, wires and encoder state as a :meth:`~repro.bus.Bus.drive` loop.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bus import Bus
from repro.cache import Cache, CacheConfig
from repro.encoding import (
    BusInvertEncoder,
    FunctionalEncoder,
    GrayEncoder,
    RawEncoder,
    T0Encoder,
    XorDiffEncoder,
)

from .cache_oracle import OracleCache


@st.composite
def cache_streams(draw):
    """A geometry and an access stream: runs on one line, footprints past capacity."""
    line_size = draw(st.sampled_from([4, 8, 16, 32]))
    num_sets = draw(st.sampled_from([1, 2, 4, 8]))  # 1: fully associative
    ways = draw(st.sampled_from([1, 2, 4, 8]))  # 1: direct-mapped
    config = CacheConfig(size=line_size * num_sets * ways, line_size=line_size, ways=ways)
    footprint = draw(st.integers(min_value=1, max_value=4 * config.num_lines))
    runs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=footprint - 1),
                st.lists(
                    st.tuples(st.integers(0, line_size - 1), st.booleans()),
                    min_size=1,
                    max_size=12,
                ),
            ),
            max_size=60,
        )
    )
    addresses = [line * line_size + offset for line, run in runs for offset, _ in run]
    writes = [is_write for _, run in runs for _, is_write in run]
    return config, addresses, writes


def _rows(transfers):
    return [(index, t.line_address, t.size, t.is_writeback) for index, t in transfers]


@given(case=cache_streams(), cut=st.integers(min_value=0, max_value=1000))
@settings(max_examples=200, deadline=None)
def test_cache_run_equals_the_per_access_oracle(case, cut):
    config, addresses, writes = case
    oracle = OracleCache(config)
    expected = []
    for index, (address, is_write) in enumerate(zip(addresses, writes)):
        _hit, transfers = oracle.access(address, is_write)
        expected.extend((index, t.line_address, t.size, t.is_writeback) for t in transfers)

    cache = Cache(config)
    transfers = cache.run(addresses, writes)
    assert _rows(transfers) == expected
    assert cache.stats == oracle.stats
    flushed = cache.flush()
    assert flushed == oracle.flush()
    assert cache.stats == oracle.stats

    cut %= len(addresses) + 1
    split = Cache(config)
    first = split.run(addresses[:cut], writes[:cut])
    second = [(index + cut, t) for index, t in split.run(addresses[cut:], writes[cut:])]
    assert first + second == transfers
    assert split.flush() == flushed
    assert split.stats == cache.stats


@given(case=cache_streams())
@settings(max_examples=50, deadline=None)
def test_cache_run_without_writes_reads_every_access(case):
    config, addresses, _writes = case
    reads = Cache(config)
    flagged = Cache(config)
    assert reads.run(addresses) == flagged.run(addresses, [False] * len(addresses))
    assert reads.stats == flagged.stats
    assert reads.flush() == flagged.flush() == []


#: Fresh encoders by name, for a bus of ``width`` bits; the functional one is
#: fitted on the stream it will drive.
ENCODERS = {
    "none": lambda width, words: None,
    "raw": lambda width, words: RawEncoder(width),
    "gray": lambda width, words: GrayEncoder(width),
    "t0": lambda width, words: T0Encoder(width, stride=4),
    "xor_diff": lambda width, words: XorDiffEncoder(width),
    "bus_invert": lambda width, words: BusInvertEncoder(width),
    "functional": lambda width, words: FunctionalEncoder.fit(words, width=width),
}


@given(
    width=st.integers(min_value=1, max_value=64),
    encoder=st.sampled_from(sorted(ENCODERS)),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_drive_all_equals_a_drive_loop(width, encoder, data):
    word = st.integers(min_value=0, max_value=(1 << width) - 1)
    first = data.draw(word)
    words = data.draw(st.lists(word, max_size=60))
    looped, streamed = (
        Bus(width=width, encoder=ENCODERS[encoder](width, words)) for _ in range(2)
    )
    for bus in (looped, streamed):
        bus.drive(first)  # the wires do not start at 0

    energy = 0.0
    for value in words:
        energy += looped.drive(value)
    assert streamed.drive_all(words).hex() == energy.hex()
    assert streamed.stats == looped.stats
    assert (streamed._wires, streamed._raw_previous) == (looped._wires, looped._raw_previous)
    if looped.encoder is not None:
        assert vars(streamed.encoder) == vars(looped.encoder)
