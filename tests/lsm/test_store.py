"""Unit and property tests for the LSM store."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm.store import LsmStore, SortedRun, merge_runs


def _store(**kwargs):
    params = dict(memtable_limit=16, level0_limit=2, fanout=4)
    params.update(kwargs)
    return LsmStore(**params)


def test_put_get_roundtrip():
    store = _store()
    for i in range(100):
        store.put(i, i * 10)
    for i in range(100):
        assert store.get(i) == i * 10
    assert store.get(1000) is None


def test_overwrite_latest_wins():
    store = _store(memtable_limit=8)
    for round_ in range(5):
        for key in range(20):
            store.put(key, round_ * 100 + key)
    for key in range(20):
        assert store.get(key) == 400 + key


def test_delete_hides_key_across_flushes():
    store = _store(memtable_limit=4)
    for i in range(10):
        store.put(i, i)
    store.flush()
    store.delete(3)
    store.flush()
    assert store.get(3) is None
    assert store.get(2) == 2
    assert 3 not in dict(store.items())


def test_items_sorted_and_live_only():
    store = _store(memtable_limit=8)
    rng = np.random.default_rng(1)
    keys = rng.permutation(200)[:50]
    for key in keys:
        store.put(int(key), int(key) + 1)
    store.delete(int(keys[0]))
    items = store.items()
    got_keys = [k for k, _ in items]
    assert got_keys == sorted(got_keys)
    assert int(keys[0]) not in got_keys
    assert store.n_live_keys == len(items)


def test_flush_creates_runs_and_compaction_merges_them():
    store = _store(memtable_limit=4, level0_limit=2)
    for i in range(64):
        store.put(i, i)
    store.flush()
    assert store.bytes_flushed > 0
    assert store.compactions, "level-0 limit must trigger compactions"
    assert store.write_amplification > 0
    # Everything still readable after compactions.
    for i in range(64):
        assert store.get(i) == i


def test_compaction_drops_tombstones_at_last_level():
    store = _store(memtable_limit=4, level0_limit=1)
    for i in range(16):
        store.put(i, i)
    for i in range(16):
        store.delete(i)
    store.flush()
    # Force enough compaction that deletions reach the bottom.
    for _ in range(6):
        store._compact_level(0)
    total_entries = sum(
        run.keys.size for level in store.levels for run in level
    )
    assert store.n_live_keys == 0
    assert total_entries < 16  # tombstones reclaimed


def test_tombstone_value_rejected():
    store = _store()
    with pytest.raises(ValueError):
        store.put(1, np.iinfo(np.int64).min)


def test_constructor_validation():
    with pytest.raises(ValueError):
        LsmStore(memtable_limit=0, level0_limit=4, fanout=4)
    with pytest.raises(ValueError):
        LsmStore(level0_limit=0, memtable_limit=4096, fanout=4)
    with pytest.raises(ValueError):
        LsmStore(fanout=1, memtable_limit=4096, level0_limit=4)


def test_sorted_run_validation():
    with pytest.raises(ValueError):
        SortedRun(
            keys=np.array([2, 1]), values=np.array([0, 0]), sequence=1
        )
    with pytest.raises(ValueError):
        SortedRun(keys=np.array([1]), values=np.array([1, 2]), sequence=1)


def test_merge_runs_newest_wins():
    old = SortedRun(
        keys=np.array([1, 2, 3]), values=np.array([10, 20, 30]), sequence=1
    )
    new = SortedRun(
        keys=np.array([2, 4]), values=np.array([99, 40]), sequence=2
    )
    merged = merge_runs([old, new], drop_tombstones=False, sequence=3)
    assert merged.get(2) == 99
    assert merged.get(1) == 10
    assert merged.get(4) == 40
    assert merged.keys.size == 4
    with pytest.raises(ValueError):
        merge_runs([], drop_tombstones=False, sequence=1)


@settings(max_examples=25, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["put", "delete"]),
            st.integers(min_value=0, max_value=30),
            st.integers(min_value=-1000, max_value=1000),
        ),
        max_size=200,
    )
)
def test_property_store_matches_dict_model(ops):
    """The LSM store behaves exactly like a dict, whatever the
    flush/compaction schedule."""
    store = LsmStore(memtable_limit=7, level0_limit=2, fanout=2)
    model: dict[int, int] = {}
    for op, key, value in ops:
        if op == "put":
            store.put(key, value)
            model[key] = value
        else:
            store.delete(key)
            model.pop(key, None)
    for key in range(31):
        assert store.get(key) == model.get(key)
    assert store.items() == sorted(model.items())
