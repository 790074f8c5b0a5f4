"""Banked (multi-channel) memory: placement and parallel-access timing.

HBM's defining property for data processing is *memory-level
parallelism*: 32 independent pseudo-channels that can serve requests
concurrently.  :class:`BankedMemory` models a bank of channels plus an
allocator that places named regions (embedding tables, PQ code blocks,
columns) onto channels, and answers the timing question the
accelerators ask: a batch of random lookups spread over the allocated
regions (:meth:`batch_lookup_time_ps`) completes when the *most loaded
channel* finishes (the makespan), which is why balanced placement
matters.

Placement is greedy least-loaded by expected access *traffic* (not
capacity), the heuristic MicroRec describes for skewed embedding
tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..obs.trace import get_default_tracer
from .model import MemoryModel

__all__ = ["Allocation", "BankedMemory"]


@dataclass(frozen=True, slots=True)
class Allocation:
    """A named region placed on one channel."""

    key: str
    nbytes: int
    channel: int


class BankedMemory:
    """A bank of identical memory channels with region placement.

    ``tracer`` (a :class:`~repro.obs.trace.Tracer`) records per-channel
    access volume, busy time and bank conflicts whenever
    :meth:`batch_lookup_time_ps` runs; when omitted, the process-wide
    default tracer (if any) is used, and with none installed the
    accounting costs nothing.
    """

    def __init__(
        self,
        channels: list[MemoryModel],
        name: str = "banked",
        tracer=None,
    ) -> None:
        if not channels:
            raise ValueError("banked memory needs at least one channel")
        self.name = name
        self.tracer = tracer if tracer is not None else get_default_tracer()
        self.channels = list(channels)
        self._allocations: dict[str, Allocation] = {}
        self._striped: dict[str, tuple[str, ...]] = {}
        self._used_bytes = [0] * len(channels)
        self._traffic = [0.0] * len(channels)

    @classmethod
    def uniform(
        cls,
        channel_model: MemoryModel,
        n_channels: int,
        name: str = "banked",
        tracer=None,
    ) -> "BankedMemory":
        """A bank of ``n_channels`` identical channels."""
        if n_channels < 1:
            raise ValueError("need at least one channel")
        return cls([channel_model] * n_channels, name=name, tracer=tracer)

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    @property
    def capacity_bytes(self) -> int:
        return sum(c.capacity_bytes for c in self.channels)

    @property
    def used_bytes(self) -> int:
        return sum(self._used_bytes)

    # -- placement ---------------------------------------------------------

    def allocate(
        self,
        key: str,
        nbytes: int,
        expected_traffic: float,
        channel: int | None = None,
    ) -> Allocation:
        """Place region ``key`` (``nbytes``) on a channel.

        Without an explicit ``channel`` the region goes to the channel
        with the least accumulated ``expected_traffic`` that still has
        capacity.  Raises ``MemoryError`` when nothing fits.
        """
        if key in self._allocations or key in self._striped:
            raise ValueError(f"region {key!r} already allocated")
        if nbytes < 0:
            raise ValueError("region size must be >= 0")
        if channel is not None:
            candidates = [channel]
        else:
            candidates = sorted(
                range(self.n_channels), key=lambda c: (self._traffic[c], c)
            )
        for c in candidates:
            if c < 0 or c >= self.n_channels:
                raise IndexError(f"channel {c} out of range")
            if self._used_bytes[c] + nbytes <= self.channels[c].capacity_bytes:
                alloc = Allocation(key=key, nbytes=nbytes, channel=c)
                self._allocations[key] = alloc
                self._used_bytes[c] += nbytes
                self._traffic[c] += expected_traffic
                return alloc
        raise MemoryError(
            f"cannot place region {key!r} ({nbytes} B) on {self.name}: "
            f"{self.used_bytes}/{self.capacity_bytes} B used"
        )

    def allocate_striped(
        self,
        key: str,
        nbytes: int,
        expected_traffic: float,
        n_shards: int | None = None,
    ) -> list[Allocation]:
        """Place a region as equal shards across several channels.

        Used for regions larger than one channel (or hot regions that
        should spread their traffic).  ``n_shards`` defaults to the
        minimum number of channels the region needs.  Shards are named
        ``{key}.s{j}`` and the whole group is addressable through
        :meth:`batch_lookup_time_ps` by the base ``key``.
        """
        if key in self._striped or key in self._allocations:
            raise ValueError(f"region {key!r} already allocated")
        if nbytes < 0:
            raise ValueError("region size must be >= 0")
        channel_cap = max(c.capacity_bytes for c in self.channels)
        if n_shards is None:
            n_shards = max(1, math.ceil(nbytes / channel_cap))
            if n_shards > self.n_channels:
                raise MemoryError(
                    f"region {key!r} ({nbytes} B) exceeds the bank even "
                    f"striped over all {self.n_channels} channels"
                )
        if not 1 <= n_shards <= self.n_channels:
            raise ValueError(
                f"n_shards must be in 1..{self.n_channels}, got {n_shards}"
            )
        shard_bytes = math.ceil(nbytes / n_shards)
        shards = []
        try:
            for j in range(n_shards):
                shards.append(
                    self.allocate(
                        f"{key}.s{j}",
                        shard_bytes,
                        expected_traffic=expected_traffic / n_shards,
                    )
                )
        except MemoryError:
            for alloc in shards:
                self.free(alloc.key)
            raise
        self._striped[key] = tuple(a.key for a in shards)
        return shards

    def free(self, key: str) -> None:
        """Release a region (striped regions free all their shards)."""
        if key in self._striped:
            for shard in self._striped.pop(key):
                self.free(shard)
            return
        alloc = self._allocations.pop(key, None)
        if alloc is None:
            raise KeyError(f"region {key!r} not allocated")
        self._used_bytes[alloc.channel] -= alloc.nbytes

    # -- timing ------------------------------------------------------------

    def batch_lookup_time_ps(
        self, lookups: dict[str, tuple[int, int]]
    ) -> int:
        """Makespan of a batch of random lookups.

        ``lookups`` maps region key -> ``(n_accesses, bytes_each)``.
        Accesses to regions on the same channel serialise; channels work
        in parallel, so the batch finishes with the busiest channel.
        A striped region's accesses spread evenly over its shards.
        """
        per_channel: dict[int, list[tuple[int, int]]] = {}

        def add(key: str, n_accesses: int, nbytes_each: int) -> None:
            alloc = self._allocations.get(key)
            if alloc is None:
                raise KeyError(f"region {key!r} not allocated")
            per_channel.setdefault(alloc.channel, []).append(
                (n_accesses, nbytes_each)
            )

        for key, (n_accesses, nbytes_each) in lookups.items():
            shards = self._striped.get(key)
            if shards is None:
                add(key, n_accesses, nbytes_each)
                continue
            share = math.ceil(n_accesses / len(shards))
            remaining = n_accesses
            for shard in shards:
                if remaining <= 0:
                    break
                add(shard, min(share, remaining), nbytes_each)
                remaining -= share
        makespan = 0
        tracer = self.tracer
        for channel, reqs in per_channel.items():
            model = self.channels[channel]
            # One latency per channel (requests pipeline), then summed
            # random-access occupancy.
            occupancy = sum(
                model.batch_random_time_ps(n, b) - model.latency_ps
                for n, b in reqs
                if n > 0 and b > 0
            )
            busy = model.latency_ps + occupancy if occupancy else 0
            makespan = max(makespan, busy)
            if tracer is not None:
                tracer.bank_access(
                    self.name, channel, sum(n for n, _ in reqs), busy
                )
                if len(reqs) > 1:
                    # Several regions' lookups serialised on one channel:
                    # the placement conflict balanced layouts avoid.
                    tracer.bank_conflict(self.name, channel, len(reqs))
        return makespan
