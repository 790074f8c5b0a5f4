"""Unit and property tests for the bucketized hash table."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore.hashtable import HashTable


def test_put_get_delete_roundtrip():
    table = HashTable(n_buckets=64, slots_per_bucket=4)
    for i in range(100):
        table.put(i, i * 3)
    assert table.n_entries == 100
    for i in range(100):
        assert table.get(i) == i * 3
    assert table.get(12345) is None
    assert table.delete(50)
    assert table.get(50) is None
    assert not table.delete(50)
    assert table.n_entries == 99


def test_overwrite_does_not_grow():
    table = HashTable(n_buckets=16, slots_per_bucket=2)
    table.put(7, 1)
    table.put(7, 2)
    assert table.get(7) == 2
    assert table.n_entries == 1


def test_deleted_slots_are_reused():
    table = HashTable(n_buckets=4, slots_per_bucket=2)
    for i in range(8):
        table.put(i, i)
    with pytest.raises(MemoryError):
        table.put(100, 1)
    table.delete(3)
    table.put(100, 1)  # must fit in the freed slot
    assert table.get(100) == 1


def test_full_table_raises():
    table = HashTable(n_buckets=2, slots_per_bucket=2)
    for i in range(4):
        table.put(i, i)
    assert table.n_entries == table.capacity
    with pytest.raises(MemoryError):
        table.put(99, 0)


def test_validation():
    with pytest.raises(ValueError):
        HashTable(n_buckets=0, slots_per_bucket=8)
    with pytest.raises(ValueError):
        HashTable(n_buckets=3, slots_per_bucket=8)  # not a power of two
    with pytest.raises(ValueError):
        HashTable(slots_per_bucket=0, n_buckets=1024)


def _state(table: HashTable) -> tuple[int, int, int]:
    return table.n_entries, table.operations, table.bucket_probes


def test_rejected_value_leaves_the_table_unchanged():
    table = HashTable(16, 2)
    table.put(3, 30)
    before = _state(table)
    for bad in (1 << 63, -(1 << 63) - 1):
        with pytest.raises(ValueError):
            table.put(1, bad)
        with pytest.raises(ValueError):
            table.put(3, bad)  # overwrite path
    assert _state(table) == before
    assert table.get(1) is None
    assert table.get(3) == 30
    assert not table.delete(1)
    assert table.n_entries == 1


@pytest.mark.parametrize(
    "key", [1 << 63, -(1 << 63) - 1, -(1 << 63), -(1 << 63) + 1]
)
def test_keys_outside_int64_or_sentinels_are_rejected(key):
    table = HashTable(16, 2)
    with pytest.raises(ValueError):
        table.put(key, 1)
    with pytest.raises(ValueError):
        table.get(key)
    with pytest.raises(ValueError):
        table.delete(key)
    assert _state(table) == (0, 0, 0)


def test_int64_extremes_round_trip():
    table = HashTable(16, 2)
    table.put((1 << 63) - 1, -(1 << 63))
    table.put(-(1 << 63) + 2, (1 << 63) - 1)
    assert table.get((1 << 63) - 1) == -(1 << 63)
    assert table.get(-(1 << 63) + 2) == (1 << 63) - 1


def test_construction_allocates_no_slot_arrays():
    tracemalloc.start()
    try:
        table = HashTable(1 << 15, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.nbytes == 1 << 22  # the modelled int64 layout
    assert peak < 64 * 1024


def _mean_probes(table):
    return table.bucket_probes / table.operations


def test_probe_accounting():
    table = HashTable(n_buckets=64, slots_per_bucket=8)
    assert table.bucket_probes == table.operations == 0
    for i in range(200):
        table.put(i, i)
    for i in range(200):
        table.get(i)
    assert table.operations == 400
    # Low load factor: almost every op is one bucket probe.
    assert 1.0 <= _mean_probes(table) < 1.5


def test_probes_grow_with_load():
    light = HashTable(n_buckets=256, slots_per_bucket=4)
    heavy = HashTable(n_buckets=64, slots_per_bucket=4)
    for i in range(240):
        light.put(i, i)
        heavy.put(i, i)  # ~94% load
    assert _mean_probes(heavy) >= _mean_probes(light)


@settings(max_examples=25, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["put", "get", "delete"]),
            st.integers(min_value=0, max_value=40),
            st.integers(min_value=-100, max_value=100),
        ),
        max_size=150,
    )
)
def test_property_matches_dict_model(ops):
    table = HashTable(n_buckets=64, slots_per_bucket=4)
    model: dict[int, int] = {}
    for op, key, value in ops:
        if op == "put":
            table.put(key, value)
            model[key] = value
        elif op == "get":
            assert table.get(key) == model.get(key)
        else:
            assert table.delete(key) == (key in model)
            model.pop(key, None)
    for key in range(41):
        assert table.get(key) == model.get(key)
    assert table.n_entries == len(model)
