"""Unit and property tests for banked (multi-channel) memory."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.banked import BankedMemory
from repro.memory.model import MemoryModel
from repro.memory.technologies import hbm2_channel


def _small_channel(capacity=1000):
    return MemoryModel(
        name="ch",
        capacity_bytes=capacity,
        latency_ps=100,
        bandwidth_bytes_per_sec=1e9,
        min_burst_bytes=1,
        random_efficiency=1.0,
    )


def test_uniform_construction():
    bank = BankedMemory.uniform(_small_channel(), 4)
    assert bank.n_channels == 4
    assert bank.capacity_bytes == 4000


def test_least_loaded_allocation_balances_traffic():
    bank = BankedMemory.uniform(_small_channel(), 4)
    channels = [
        bank.allocate(f"t{i}", nbytes=10, expected_traffic=1.0).channel
        for i in range(8)
    ]
    # Two regions per channel.
    assert sorted(channels) == [0, 0, 1, 1, 2, 2, 3, 3]


def test_skewed_traffic_spreads_hot_regions():
    bank = BankedMemory.uniform(_small_channel(), 2)
    hot_ch = bank.allocate("hot", nbytes=10, expected_traffic=100.0).channel
    cold1 = bank.allocate("cold1", nbytes=10, expected_traffic=1.0)
    cold2 = bank.allocate("cold2", nbytes=10, expected_traffic=1.0)
    assert cold1.channel != hot_ch
    assert cold2.channel != hot_ch


def test_explicit_channel_placement():
    bank = BankedMemory.uniform(_small_channel(), 4)
    alloc = bank.allocate("t", nbytes=10, channel=3, expected_traffic=1.0)
    assert alloc.channel == 3
    with pytest.raises(IndexError):
        bank.allocate("t2", nbytes=10, channel=9, expected_traffic=1.0)


def test_capacity_overflow_raises():
    bank = BankedMemory.uniform(_small_channel(capacity=100), 2)
    bank.allocate("a", nbytes=100, expected_traffic=1.0)
    bank.allocate("b", nbytes=100, expected_traffic=1.0)
    with pytest.raises(MemoryError):
        bank.allocate("c", nbytes=1, expected_traffic=1.0)


def test_free_releases_capacity():
    bank = BankedMemory.uniform(_small_channel(capacity=100), 1)
    bank.allocate("a", nbytes=100, expected_traffic=1.0)
    bank.free("a")
    bank.allocate("b", nbytes=100, expected_traffic=1.0)  # must not raise
    with pytest.raises(KeyError):
        bank.free("a")


def test_duplicate_key_rejected():
    bank = BankedMemory.uniform(_small_channel(), 1)
    bank.allocate("a", nbytes=1, expected_traffic=1.0)
    with pytest.raises(ValueError):
        bank.allocate("a", nbytes=1, expected_traffic=1.0)


def test_batch_lookup_makespan_is_busiest_channel():
    bank = BankedMemory.uniform(_small_channel(), 2)
    bank.allocate("a", nbytes=10, channel=0, expected_traffic=1.0)
    bank.allocate("b", nbytes=10, channel=0, expected_traffic=1.0)
    bank.allocate("c", nbytes=10, channel=1, expected_traffic=1.0)
    ch = bank.channels[0]
    # Channel 0 serves a and b (20 accesses), channel 1 serves c (5).
    t = bank.batch_lookup_time_ps({"a": (10, 8), "b": (10, 8), "c": (5, 8)})
    per_access = ch.batch_random_time_ps(1, 8) - ch.latency_ps
    assert t == ch.latency_ps + 20 * per_access


def test_batch_lookup_unallocated_region_raises():
    bank = BankedMemory.uniform(_small_channel(), 1)
    with pytest.raises(KeyError):
        bank.batch_lookup_time_ps({"ghost": (1, 8)})


def test_empty_batch_costs_nothing():
    bank = BankedMemory.uniform(_small_channel(), 2)
    bank.allocate("a", nbytes=10, expected_traffic=1.0)
    assert bank.batch_lookup_time_ps({}) == 0
    assert bank.batch_lookup_time_ps({"a": (0, 8)}) == 0


def test_striped_allocation_spans_channels():
    bank = BankedMemory.uniform(_small_channel(capacity=100), 4)
    shards = bank.allocate_striped("big", nbytes=250, expected_traffic=1.0)
    assert len(shards) == 3  # ceil(250 / 100)
    assert len({s.channel for s in shards}) == 3
    assert [s.key for s in shards] == ["big.s0", "big.s1", "big.s2"]
    bank.free("big")
    assert bank.used_bytes == 0
    with pytest.raises(KeyError):
        bank.free("big")


def test_striped_allocation_too_big_rolls_back():
    bank = BankedMemory.uniform(_small_channel(capacity=100), 2)
    with pytest.raises(MemoryError):
        bank.allocate_striped("huge", nbytes=500, expected_traffic=1.0)
    assert bank.used_bytes == 0


def test_striped_lookup_spreads_accesses():
    bank = BankedMemory.uniform(_small_channel(capacity=100), 4)
    bank.allocate_striped("big", nbytes=400, n_shards=4, expected_traffic=1.0)
    spread = bank.batch_lookup_time_ps({"big": (40, 8)})
    single_bank = BankedMemory.uniform(_small_channel(capacity=1000), 4)
    single_bank.allocate("big", nbytes=400, expected_traffic=1.0)
    concentrated = single_bank.batch_lookup_time_ps({"big": (40, 8)})
    assert spread < concentrated


def test_striped_invalid_parameters():
    bank = BankedMemory.uniform(_small_channel(), 2)
    with pytest.raises(ValueError):
        bank.allocate_striped("r", nbytes=-1, expected_traffic=1.0)
    with pytest.raises(ValueError):
        bank.allocate_striped("r", nbytes=10, n_shards=3, expected_traffic=1.0)
    bank.allocate_striped("r", nbytes=10, n_shards=2, expected_traffic=1.0)
    with pytest.raises(ValueError):
        bank.allocate_striped("r", nbytes=10, expected_traffic=1.0)


def test_row_cycle_floors_random_occupancy():
    from repro.memory.model import MemoryModel

    fast_bw = MemoryModel(
        name="m", capacity_bytes=1 << 20, latency_ps=1000,
        bandwidth_bytes_per_sec=1e12, min_burst_bytes=32,
        random_efficiency=1.0, row_cycle_ps=47_000,
    )
    # Tiny reads cannot beat the row cycle.
    t = fast_bw.batch_random_time_ps(100, 32)
    assert t == 1000 + 100 * 47_000


@settings(max_examples=30, deadline=None)
@given(
    n_channels=st.integers(min_value=1, max_value=32),
    n_regions=st.integers(min_value=1, max_value=40),
)
def test_property_makespan_shrinks_or_holds_with_more_channels(
    n_channels, n_regions
):
    """Adding channels never makes a balanced lookup batch slower."""

    def build(k):
        bank = BankedMemory.uniform(hbm2_channel(), k)
        for i in range(n_regions):
            bank.allocate(f"t{i}", nbytes=1024, expected_traffic=1.0)
        return bank.batch_lookup_time_ps(
            {f"t{i}": (4, 64) for i in range(n_regions)}
        )

    assert build(n_channels + 1) <= build(n_channels)


@settings(max_examples=30, deadline=None)
@given(sizes=st.lists(st.integers(min_value=0, max_value=200), max_size=10))
def test_property_used_bytes_tracks_allocations(sizes):
    bank = BankedMemory.uniform(_small_channel(capacity=10_000), 4)
    for i, size in enumerate(sizes):
        bank.allocate(f"r{i}", nbytes=size, expected_traffic=1.0)
    assert bank.used_bytes == sum(sizes)


def test_plain_and_striped_namespaces_are_exclusive():
    """Regression: allocate(key) then allocate_striped(key) both used to
    succeed, and free(key) then released only the shards — leaking the
    plain allocation forever."""
    bank = BankedMemory.uniform(_small_channel(capacity=10_000), 4)
    bank.allocate("emb", nbytes=100, expected_traffic=1.0)
    with pytest.raises(ValueError, match="already allocated"):
        bank.allocate_striped("emb", nbytes=400, expected_traffic=1.0)
    bank.free("emb")

    bank.allocate_striped("emb", nbytes=400, n_shards=4, expected_traffic=1.0)
    with pytest.raises(ValueError, match="already allocated"):
        bank.allocate("emb", nbytes=100, expected_traffic=1.0)
    bank.free("emb")
    assert bank.used_bytes == 0


def test_free_is_symmetric_across_both_namespaces():
    """Every allocate/allocate_striped must be fully undone by one free."""
    bank = BankedMemory.uniform(_small_channel(capacity=10_000), 4)
    bank.allocate("plain", nbytes=300, expected_traffic=1.0)
    bank.allocate_striped("striped", nbytes=800, n_shards=4,
                          expected_traffic=1.0)
    assert bank.used_bytes == 300 + 800
    bank.free("striped")
    assert bank.used_bytes == 300
    bank.free("plain")
    assert bank.used_bytes == 0
    # Both names are reusable after free, in either namespace.
    bank.allocate_striped("plain", nbytes=400, n_shards=2,
                          expected_traffic=1.0)
    bank.allocate("striped", nbytes=100, expected_traffic=1.0)
