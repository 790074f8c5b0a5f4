"""A bucketized open-addressing hash table over plain-Python bucket rows.

The data structure under the KV-Direct use case (intro of the paper):
fixed-size buckets of a few slots, linear probing across buckets —
the layout a hardware pipeline likes, because a lookup is a bounded
number of wide, independent memory reads.

A bucket's (keys, values) lists are created on its first insert; a
bucket never written reads as all-EMPTY.  ``nbytes`` is the modelled
int64 layout, which the software server prices as its working set.
Functional semantics are exact (tested against a dict model); the
``probe`` counters feed the performance models in
:mod:`repro.kvstore.server`.
"""

from __future__ import annotations

__all__ = ["HashTable"]

_INT64_MAX = (1 << 63) - 1
_EMPTY = -(1 << 63)
_DELETED = _EMPTY + 1
_MISSING = ((_EMPTY,), ())  # a bucket never written: all slots EMPTY


def _check_key(key: int) -> int:
    key = int(key)
    if not _DELETED < key <= _INT64_MAX:
        raise ValueError(f"key {key} is a sentinel or outside int64")
    return key


class HashTable:
    """Bucketized linear-probing hash table (int64 keys and values)."""

    def __init__(self, n_buckets: int = 1024, slots_per_bucket: int = 8) -> None:
        if n_buckets < 1 or n_buckets & (n_buckets - 1):
            raise ValueError("n_buckets must be a positive power of two")
        if slots_per_bucket < 1:
            raise ValueError("slots_per_bucket must be >= 1")
        self.n_buckets = n_buckets
        self.slots_per_bucket = slots_per_bucket
        self._rows: dict[int, tuple[list[int], list[int]]] = {}
        self.n_entries = 0
        self.bucket_probes = 0
        self.operations = 0

    def _bucket_of(self, key: int) -> int:
        x = ((key & 0xFFFFFFFFFFFFFFFF) * 0x9E3779B97F4A7C15) \
            & 0xFFFFFFFFFFFFFFFF
        return (x >> 40) % self.n_buckets

    @property
    def capacity(self) -> int:
        return self.n_buckets * self.slots_per_bucket

    @property
    def load_factor(self) -> float:
        return self.n_entries / self.capacity

    @property
    def nbytes(self) -> int:
        return 16 * self.capacity  # int64 key + int64 value per slot

    def put(self, key: int, value: int) -> None:
        """Insert or overwrite; raises when the table is full."""
        key = _check_key(key)
        value = int(value)
        if not _EMPTY <= value <= _INT64_MAX:
            raise ValueError(f"value {value} does not fit in int64")
        self.operations += 1
        first_free: tuple[int, int] | None = None
        b = self._bucket_of(key)
        for _ in range(self.n_buckets):
            self.bucket_probes += 1
            keys, values = self._rows.get(b, _MISSING)
            if key in keys:
                values[keys.index(key)] = value
                return
            if first_free is None:
                # a free slot is EMPTY or DELETED, the two smallest int64s
                free = [i for i, k in enumerate(keys) if k <= _DELETED]
                first_free = (b, free[0]) if free else None
            if _EMPTY in keys:
                break  # key cannot live beyond the first truly-empty slot
            b = (b + 1) % self.n_buckets
        if first_free is None:
            raise MemoryError("hash table full")
        b, slot = first_free
        keys, values = self._rows.setdefault(
            b, ([_EMPTY] * self.slots_per_bucket, [0] * self.slots_per_bucket)
        )
        keys[slot] = key
        values[slot] = value
        self.n_entries += 1

    def _find(self, key: int) -> tuple[list[int], list[int], int] | None:
        """The (keys, values, slot) holding ``key``, or None."""
        key = _check_key(key)
        self.operations += 1
        b = self._bucket_of(key)
        for _ in range(self.n_buckets):
            self.bucket_probes += 1
            keys, values = self._rows.get(b, _MISSING)
            if key in keys:
                return keys, values, keys.index(key)
            if _EMPTY in keys:
                return None
            b = (b + 1) % self.n_buckets
        return None

    def get(self, key: int) -> int | None:
        """Value for ``key`` or None."""
        found = self._find(key)
        return None if found is None else found[1][found[2]]

    def delete(self, key: int) -> bool:
        """Remove ``key``; returns whether it existed."""
        found = self._find(key)
        if found is not None:
            found[0][found[2]] = _DELETED
            self.n_entries -= 1
        return found is not None

    @property
    def mean_probes_per_op(self) -> float:
        """Average bucket reads per operation (drives the cost models)."""
        if self.operations == 0:
            return 0.0
        return self.bucket_probes / self.operations
