"""Unit tests for the set-associative cache simulator."""

import numpy as np
import pytest

from repro.cache import Cache, CacheConfig, LineTransfer


def make_cache(**kwargs):
    defaults = dict(size=256, line_size=32, ways=2)
    defaults.update(kwargs)
    return Cache(CacheConfig(**defaults))


def hits(cache, addresses, writes=None):
    """Whether each access hits: one ``run`` per access."""
    flags = [False] * len(addresses) if writes is None else writes
    return [
        not any(not t.is_writeback for _, t in cache.run([address], [is_write]))
        for address, is_write in zip(addresses, flags)
    ]


class TestConfig:
    def test_geometry(self):
        config = CacheConfig(size=8192, line_size=32, ways=4)
        assert config.num_sets == 64
        assert config.num_lines == 256

    @pytest.mark.parametrize("field,value", [("size", 100), ("line_size", 3), ("ways", 5)])
    def test_rejects_non_power_of_two(self, field, value):
        kwargs = dict(size=256, line_size=32, ways=2)
        kwargs[field] = value
        with pytest.raises(ValueError):
            CacheConfig(**kwargs)

    def test_rejects_line_bigger_than_cache(self):
        with pytest.raises(ValueError):
            CacheConfig(size=32, line_size=64, ways=1)

    def test_rejects_impossible_associativity(self):
        with pytest.raises(ValueError):
            CacheConfig(size=64, line_size=32, ways=4)


class TestBasicBehaviour:
    def test_cold_miss_then_hit(self):
        transfers = make_cache().run([0x100, 0x104])  # same line
        assert transfers == [(0, LineTransfer(0x100, 32, False))]

    def test_line_address_alignment(self):
        assert make_cache(line_size=32).run([0x12B]) == [(0, LineTransfer(0x120, 32, False))]

    def test_rejects_negative_address(self):
        with pytest.raises(ValueError, match="non-negative, got -4"):
            make_cache().run([0, -4])

    def test_rejects_writes_of_another_length(self):
        with pytest.raises(ValueError, match="writes has 1 flags for 2 addresses"):
            make_cache().run([0, 4], [True])

    def test_empty_stream(self):
        cache = make_cache()
        assert cache.run([]) == []
        assert cache.stats.accesses == 0

    def test_does_not_modify_the_address_array(self):
        addresses = np.array([0x40, 0x80], dtype=np.int64)
        make_cache().run(addresses)
        assert addresses.tolist() == [0x40, 0x80]

    def test_stats(self):
        cache = make_cache()
        cache.run([0, 0, 0x1000])
        assert cache.stats.accesses == 3
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2
        assert cache.stats.hit_rate == pytest.approx(1 / 3)

    def test_write_miss_counts_only_when_first_access_writes(self):
        cache = make_cache()
        cache.run([0, 4, 0x40, 0x44], [True, False, False, True])
        assert (cache.stats.write_misses, cache.stats.read_misses) == (1, 1)


class TestWriteBack:
    def test_dirty_eviction_produces_writeback(self):
        # Direct-mapped, 2 lines: addresses 0 and 64 conflict (size 64, line 32).
        cache = Cache(CacheConfig(size=64, line_size=32, ways=1))
        transfers = cache.run([0, 64], [True, False])  # fill set 0 dirty, then evict
        assert transfers == [
            (0, LineTransfer(0, 32, False)),
            (1, LineTransfer(0, 32, True)),
            (1, LineTransfer(64, 32, False)),
        ]

    def test_clean_eviction_has_no_writeback(self):
        cache = Cache(CacheConfig(size=64, line_size=32, ways=1))
        transfers = cache.run([0, 64])
        assert [t.is_writeback for _, t in transfers] == [False, False]

    def test_a_run_dirties_its_line_if_any_access_writes(self):
        cache = Cache(CacheConfig(size=64, line_size=32, ways=1))
        cache.run([0, 4, 8], [False, True, False])
        assert cache.flush() == [LineTransfer(0, 32, True)]

    def test_flush_writes_back_all_dirty_lines(self):
        cache = make_cache()
        cache.run([0x00, 0x40, 0x80], [True, True, False])
        transfers = cache.flush()
        addresses = sorted(t.line_address for t in transfers)
        assert addresses == [0x00, 0x40]
        assert all(t.is_writeback for t in transfers)

    def test_flush_order_is_set_then_way(self):
        # 2 sets x 2 ways; the second fill of set 0 takes way 1, then the
        # eviction of way 0's line puts 0x100 in way 0.
        cache = Cache(CacheConfig(size=128, line_size=32, ways=2))
        cache.run([0x80, 0x00, 0x20, 0x100], [True, True, True, True])
        assert [t.line_address for t in cache.flush()] == [0x100, 0x00, 0x20]

    def test_flush_invalidates(self):
        cache = make_cache()
        cache.run([0])
        cache.flush()
        assert hits(cache, [0]) == [False]


class TestReplacement:
    def test_lru_keeps_recently_used(self):
        # 2-way set: lines 0, 64, 128 map to set 0 (size 128, line 32, ways 2 -> 2 sets)
        cache = Cache(CacheConfig(size=128, line_size=32, ways=2))
        cache.run([0x00, 0x80, 0x00, 0x100])  # touch 0 again -> 0x80 is LRU, evicted
        assert hits(cache, [0x00, 0x80]) == [True, False]

    def test_two_runs_equal_one_run_over_the_concatenation(self):
        stream = [0x00, 0x80, 0x100, 0x00, 0x20, 0x180, 0x80]
        writes = [True, False, True, False, True, True, False]
        whole = make_cache(size=128)
        split = make_cache(size=128)
        first = split.run(stream[:3], writes[:3])
        second = [(index + 3, t) for index, t in split.run(stream[3:], writes[3:])]
        assert first + second == whole.run(stream, writes)
        assert split.stats == whole.stats
        assert split.flush() == whole.flush()


class TestEnergy:
    def test_lookup_energy_accumulates(self):
        cache = make_cache()
        assert cache.lookup_energy_total == 0.0
        cache.run([0])
        assert cache.lookup_energy_total == pytest.approx(cache.access_energy())

    def test_bigger_cache_costlier_lookup(self):
        small = make_cache(size=256)
        large = make_cache(size=8192)
        assert large.access_energy() > small.access_energy()


class TestReset:
    def test_reset_clears_state_and_stats(self):
        cache = make_cache()
        cache.run([0], [True])
        cache.reset()
        assert cache.stats.accesses == 0
        assert hits(cache, [0]) == [False]
        assert cache.flush() == []  # nothing dirty survives reset


def test_access_is_a_one_access_run():
    cache = make_cache()
    assert cache.access(0x40, is_write=True) == [(0, LineTransfer(0x40, 32, False))]
    assert cache.access(0x44) == []
    assert cache.stats.accesses == 2
    assert cache.flush() == [LineTransfer(0x40, 32, True)]
