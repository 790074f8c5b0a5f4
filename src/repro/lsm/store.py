"""A leveled LSM-tree key-value store.

The tutorial's introduction motivates FPGAs with Alibaba's X-Engine,
which offloads LSM *compactions* to FPGAs to keep e-commerce latency
SLAs (Huang et al., SIGMOD'19; Zhang et al., FAST'20).  To reproduce
that experiment we first need the substrate: a real LSM store.

:class:`LsmStore` implements the standard shape — an in-memory
memtable, flushed to sorted runs in level 0, with leveled compaction
merging runs downward (newest-wins, tombstone-aware).  Keys and values
are int64 (numpy arrays inside runs); correctness (latest write wins,
deletes hide keys, iteration is sorted) is enforced by the test suite.

The store also keeps the counters the offload study needs: bytes
flushed, bytes compacted (write amplification), and per-compaction
sizes, which the simulation layer prices on CPU or FPGA.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["CompactionEvent", "LsmStore", "SortedRun"]

_TOMBSTONE = np.iinfo(np.int64).min


@dataclass(frozen=True)
class SortedRun:
    """An immutable sorted run (SSTable): parallel key/value arrays.

    ``sequence`` orders runs globally: higher = newer data.
    """

    keys: np.ndarray
    values: np.ndarray
    sequence: int

    def __post_init__(self) -> None:
        if self.keys.shape != self.values.shape:
            raise ValueError("keys and values must align")
        if self.keys.size > 1 and not (np.diff(self.keys) > 0).all():
            raise ValueError("run keys must be strictly increasing")

    @property
    def nbytes(self) -> int:
        return self.keys.nbytes + self.values.nbytes

    def get(self, key: int) -> int | None:
        """Value for ``key`` in this run, or None (may be a tombstone)."""
        idx = np.searchsorted(self.keys, key)
        if idx < self.keys.size and self.keys[idx] == key:
            return int(self.values[idx])
        return None


@dataclass(frozen=True)
class CompactionEvent:
    """One compaction the store performed (input for the cost models)."""

    level: int
    input_bytes: int
    output_bytes: int
    runs_merged: int


def merge_runs(runs: list[SortedRun], drop_tombstones: bool,
               sequence: int) -> SortedRun:
    """K-way merge of runs, newest-wins per key.

    ``drop_tombstones`` is True for compactions into the last level
    (no older data can exist below, so deletions can be forgotten).
    """
    if not runs:
        raise ValueError("nothing to merge")
    # Newest-wins: concatenate with per-run sequence, stable-sort by
    # (key, -sequence) and keep the first occurrence of each key.
    keys = np.concatenate([r.keys for r in runs])
    values = np.concatenate([r.values for r in runs])
    seqs = np.concatenate([
        np.full(r.keys.size, r.sequence, dtype=np.int64) for r in runs
    ])
    order = np.lexsort((-seqs, keys))
    keys, values = keys[order], values[order]
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    keys, values = keys[first], values[first]
    if drop_tombstones:
        alive = values != _TOMBSTONE
        keys, values = keys[alive], values[alive]
    return SortedRun(keys=keys, values=values, sequence=sequence)


class LsmStore:
    """A leveled LSM tree over int64 keys and values.

    Parameters
    ----------
    memtable_limit:
        Entries buffered before a flush to level 0.
    level0_limit:
        Runs allowed in level 0 before compacting into level 1.
    fanout:
        Size ratio between adjacent levels (level ``i`` holds up to
        ``level0_limit * fanout**i`` runs' worth of data, standard
        leveled compaction).
    """

    def __init__(self, memtable_limit: int, level0_limit: int,
                 fanout: int) -> None:
        if memtable_limit < 1:
            raise ValueError("memtable_limit must be >= 1")
        if level0_limit < 1:
            raise ValueError("level0_limit must be >= 1")
        if fanout < 2:
            raise ValueError("fanout must be >= 2")
        self.memtable_limit = memtable_limit
        self.level0_limit = level0_limit
        self.fanout = fanout
        self._memtable: dict[int, int] = {}
        self.levels: list[list[SortedRun]] = [[]]
        self._sequence = 0
        # Offload-study counters.
        self.bytes_flushed = 0
        self.bytes_compacted = 0
        self.compactions: list[CompactionEvent] = []

    # -- write path -----------------------------------------------------------

    def put(self, key: int, value: int) -> None:
        """Insert or overwrite a key."""
        if value == _TOMBSTONE:
            raise ValueError("value reserved as the tombstone marker")
        self._memtable[int(key)] = int(value)
        if len(self._memtable) >= self.memtable_limit:
            self.flush()

    def delete(self, key: int) -> None:
        """Delete a key (tombstone)."""
        self._memtable[int(key)] = _TOMBSTONE
        if len(self._memtable) >= self.memtable_limit:
            self.flush()

    def put_batch(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Bulk insert (same semantics as repeated :meth:`put`)."""
        for key, value in zip(keys.tolist(), values.tolist()):
            self.put(key, value)

    def flush(self) -> None:
        """Write the memtable as a new level-0 run."""
        if not self._memtable:
            return
        items = sorted(self._memtable.items())
        keys = np.array([k for k, _ in items], dtype=np.int64)
        values = np.array([v for _, v in items], dtype=np.int64)
        self._sequence += 1
        run = SortedRun(keys=keys, values=values, sequence=self._sequence)
        self.levels[0].append(run)
        self.bytes_flushed += run.nbytes
        self._memtable.clear()
        self._maybe_compact()

    # -- compaction -------------------------------------------------------------

    def _level_capacity_bytes(self, level: int) -> int:
        base = self.level0_limit * self.memtable_limit * 16
        return base * (self.fanout ** level)

    def _maybe_compact(self) -> None:
        level = 0
        while level < len(self.levels):
            too_many_runs = (
                level == 0 and len(self.levels[level]) > self.level0_limit
            )
            too_big = (
                level > 0
                and sum(r.nbytes for r in self.levels[level])
                > self._level_capacity_bytes(level)
            )
            if too_many_runs or too_big:
                self._compact_level(level)
            level += 1

    def _compact_level(self, level: int) -> None:
        """Merge every run of ``level`` (plus the next level) downward."""
        if level + 1 >= len(self.levels):
            self.levels.append([])
        inputs = self.levels[level] + self.levels[level + 1]
        if not inputs:
            return
        input_bytes = sum(r.nbytes for r in inputs)
        self._sequence += 1
        merged = merge_runs(
            inputs,
            drop_tombstones=(level + 1 == len(self.levels) - 1),
            sequence=self._sequence,
        )
        self.levels[level] = []
        self.levels[level + 1] = [merged] if merged.keys.size else []
        self.bytes_compacted += input_bytes
        self.compactions.append(
            CompactionEvent(
                level=level,
                input_bytes=input_bytes,
                output_bytes=merged.nbytes,
                runs_merged=len(inputs),
            )
        )

    # -- read path -----------------------------------------------------------------

    def get(self, key: int) -> int | None:
        """Latest value for ``key`` or None (deleted/absent)."""
        key = int(key)
        if key in self._memtable:
            value = self._memtable[key]
            return None if value == _TOMBSTONE else value
        best_seq = -1
        best_value: int | None = None
        for level in self.levels:
            for run in level:
                value = run.get(key)
                if value is not None and run.sequence > best_seq:
                    best_seq = run.sequence
                    best_value = value
        if best_value is None or best_value == _TOMBSTONE:
            return None
        return best_value

    def items(self) -> list[tuple[int, int]]:
        """All live (key, value) pairs, sorted by key."""
        latest: dict[int, tuple[int, int]] = {}
        for level in self.levels:
            for run in level:
                for key, value in zip(run.keys.tolist(), run.values.tolist()):
                    seq, _ = latest.get(key, (-1, 0))
                    if run.sequence > seq:
                        latest[key] = (run.sequence, value)
        for key, value in self._memtable.items():
            latest[key] = (self._sequence + 1, value)
        return sorted(
            (key, value) for key, (_, value) in latest.items()
            if value != _TOMBSTONE
        )

    @property
    def n_live_keys(self) -> int:
        return len(self.items())

    @property
    def write_amplification(self) -> float:
        """Compacted bytes per flushed byte (the offload-study quantity)."""
        if self.bytes_flushed == 0:
            return 0.0
        return self.bytes_compacted / self.bytes_flushed
