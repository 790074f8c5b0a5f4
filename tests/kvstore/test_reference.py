"""The hash table against the numpy-row implementation it replaced.

``_ReferenceHashTable`` below is that implementation: two
``(n_buckets, slots)`` int64 arrays probed with ``np.flatnonzero``.
The library keeps the same algorithm over plain-Python bucket rows;
the two must agree on every return value, every exception type and
every counter, because ``bucket_probes`` sets the NIC's memory time
and the software server's probe time.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.experiments.storage import _e17_ops
from repro.kvstore.hashtable import HashTable

_EMPTY = np.iinfo(np.int64).min
_DELETED = np.iinfo(np.int64).min + 1


class _ReferenceHashTable:
    def __init__(self, n_buckets: int, slots_per_bucket: int) -> None:
        self.n_buckets = n_buckets
        self._keys = np.full(
            (n_buckets, slots_per_bucket), _EMPTY, dtype=np.int64
        )
        self._values = np.zeros((n_buckets, slots_per_bucket), dtype=np.int64)
        self.n_entries = 0
        self.bucket_probes = 0
        self.operations = 0

    def _bucket_of(self, key: int) -> int:
        x = ((key & 0xFFFFFFFFFFFFFFFF) * 0x9E3779B97F4A7C15) \
            & 0xFFFFFFFFFFFFFFFF
        return (x >> 40) % self.n_buckets

    def put(self, key: int, value: int) -> None:
        self.operations += 1
        first_free: tuple[int, int] | None = None
        bucket = self._bucket_of(key)
        for probe in range(self.n_buckets):
            b = (bucket + probe) % self.n_buckets
            self.bucket_probes += 1
            row = self._keys[b]
            match = np.flatnonzero(row == key)
            if match.size:
                self._values[b, match[0]] = value
                return
            if first_free is None:
                free = np.flatnonzero((row == _EMPTY) | (row == _DELETED))
                if free.size:
                    first_free = (b, int(free[0]))
            if (row == _EMPTY).any():
                break
        if first_free is None:
            raise MemoryError("hash table full")
        b, slot = first_free
        self._keys[b, slot] = key
        self._values[b, slot] = value
        self.n_entries += 1

    def get(self, key: int) -> int | None:
        self.operations += 1
        bucket = self._bucket_of(key)
        for probe in range(self.n_buckets):
            b = (bucket + probe) % self.n_buckets
            self.bucket_probes += 1
            row = self._keys[b]
            match = np.flatnonzero(row == key)
            if match.size:
                return int(self._values[b, match[0]])
            if (row == _EMPTY).any():
                return None
        return None

    def delete(self, key: int) -> bool:
        self.operations += 1
        bucket = self._bucket_of(key)
        for probe in range(self.n_buckets):
            b = (bucket + probe) % self.n_buckets
            self.bucket_probes += 1
            row = self._keys[b]
            match = np.flatnonzero(row == key)
            if match.size:
                self._keys[b, match[0]] = _DELETED
                self.n_entries -= 1
                return True
            if (row == _EMPTY).any():
                return False
        return False


def _outcome(table, op: str, key: int, value: int):
    try:
        if op == "put":
            return table.put(key, value)
        return getattr(table, op)(key)
    except MemoryError as exc:
        return type(exc)


def _counters(table) -> tuple[int, int, int]:
    return table.bucket_probes, table.operations, table.n_entries


@settings(max_examples=200, deadline=None)
@given(
    n_buckets=st.sampled_from([1, 2, 4, 8]),
    slots=st.sampled_from([1, 2, 4]),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["put", "get", "delete"]),
            st.integers(min_value=-8, max_value=24),
            st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1),
        ),
        max_size=120,
    ),
)
def test_matches_numpy_reference_op_by_op(n_buckets, slots, ops):
    table = HashTable(n_buckets, slots)
    reference = _ReferenceHashTable(n_buckets, slots)
    for op, key, value in ops:
        got = _outcome(table, op, key, value)
        assert got == _outcome(reference, op, key, value), (op, key)
        assert _counters(table) == _counters(reference), (op, key)


def test_full_table_raises_like_reference():
    table = HashTable(2, 2)
    reference = _ReferenceHashTable(2, 2)
    outcomes = [
        (_outcome(table, "put", key, key), _outcome(reference, "put", key, key))
        for key in (0, 1, 2, 3, 99)
    ]
    assert outcomes[-1] == (MemoryError, MemoryError)
    assert all(got == want for got, want in outcomes)
    assert _counters(table) == _counters(reference)


def test_e17_ops_match_reference():
    ops = _e17_ops(20_000)
    table = HashTable(1 << 15, 8)
    reference = _ReferenceHashTable(1 << 15, 8)
    for op, key, value in ops:
        assert _outcome(table, op, key, value) == _outcome(
            reference, op, key, value
        )
    assert _counters(table) == _counters(reference)


@pytest.mark.parametrize("n_buckets,slots", [(1, 1), (4, 2), (1 << 15, 8)])
def test_nbytes_is_the_modelled_int64_layout(n_buckets, slots):
    reference = _ReferenceHashTable(n_buckets, slots)
    assert HashTable(n_buckets, slots).nbytes == (
        reference._keys.nbytes + reference._values.nbytes
    )
