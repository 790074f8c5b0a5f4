"""Bounded streams with backpressure — the HLS ``hls::stream`` analogue.

A :class:`Stream` is a bounded FIFO between simulator processes: a
``put`` into a full stream blocks the producer and a ``get`` from an
empty stream blocks the consumer, which is exactly the backpressure
behaviour of FIFO channels between HLS dataflow stages.  The serving
layer's dispatch queue is one.

A :class:`Burst` is a batch of items moving as one unit (a payload plus
a count), so that timing a million tuples costs a handful of steps
rather than a million.  :func:`~repro.core.pipeline.run_pipeline`
times chains of kernels over the same FIFO semantics in closed form,
with :class:`StreamStats` as its per-stream counters.

``END_OF_STREAM`` is the conventional last-token sentinel (HLS designs
use a side-band ``last`` flag; a sentinel keeps the Python API simple).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

from .sim import Event, SimulationError, Simulator

__all__ = ["Burst", "END_OF_STREAM", "Stream", "StreamStats"]


class _EndOfStream:
    """Sentinel type for :data:`END_OF_STREAM` (singleton)."""

    _instance: "_EndOfStream | None" = None

    def __new__(cls) -> "_EndOfStream":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "END_OF_STREAM"


END_OF_STREAM = _EndOfStream()


@dataclass(slots=True)
class Burst:
    """A batch of ``count`` logical items moving through a stream as one unit.

    ``payload`` is typically a numpy array slice; ``meta`` carries
    side-band information (e.g. a query id or a last-burst flag).
    """

    payload: Any
    count: int
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError(f"burst count must be >= 0, got {self.count}")


@dataclass(slots=True)
class StreamStats:
    """Counters a stream keeps for bottleneck analysis.

    ``*_stall_ps`` accumulate how long blocked puts/gets waited before
    resolving — the stream-side view of backpressure that the profiler
    (:mod:`repro.obs.profile`) reports as stall time.
    """

    #: ``gets`` counts every *resolved* get — whether the item came off
    #: the queue or was handed directly to a blocked consumer — so on a
    #: fully drained stream ``gets == puts`` regardless of event order.
    puts: int = 0
    gets: int = 0
    items: int = 0
    producer_stall_ps: int = 0
    consumer_stall_ps: int = 0


class Stream:
    """A bounded FIFO with blocking put/get, usable from processes.

    Parameters
    ----------
    sim:
        The owning simulator.
    depth:
        Maximum number of queued entries (HLS FIFO depth).  Must be at
        least 1.
    name:
        Identifier for diagnostics.
    """

    def __init__(self, sim: Simulator, depth: int = 2, name: str = "stream") -> None:
        if depth < 1:
            raise SimulationError(f"stream depth must be >= 1, got {depth}")
        self.sim = sim
        self.depth = depth
        self.name = name
        self.stats = StreamStats()
        self._queue: deque[Any] = deque()
        # Blocked waiters carry the time they queued so the stall
        # duration can be accounted when they resolve.
        self._getters: deque[tuple[Event, int]] = deque()
        self._putters: deque[tuple[Event, Any, int]] = deque()

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def empty(self) -> bool:
        """True if a get would block."""
        return not self._queue

    def put(self, item: Any) -> Event:
        """Return an event that fires once ``item`` has been enqueued.

        Cancelling the event while the put is blocked (an interrupt, or
        :func:`~repro.core.sim.with_timeout` expiring) abandons the put:
        the item is *not* enqueued.
        """
        done = Event(self.sim)
        if self.try_put(item):
            done.succeed()
            return done
        self._putters.append((done, item, self.sim.now))
        done.on_cancel(self._unlink_putter)
        tracer = self.sim._tracer
        if tracer is not None:
            tracer.stream_put(
                self.name, self._count(item), len(self._queue), blocked=True
            )
        return done

    def get(self) -> Event:
        """Return an event that fires with the next item.

        Cancelling the event while the get is blocked unlinks the
        waiter from the stream, so no later ``put`` hands an item to it.
        """
        got = Event(self.sim)
        if self._queue:
            # Not try_get(): ``got`` must be scheduled before the blocked
            # producers this get admits, to keep same-timestamp order.
            got.succeed(self._queue.popleft())
            self._dequeued()
            return got
        self._getters.append((got, self.sim.now))
        got.on_cancel(self._unlink_getter)
        tracer = self.sim._tracer
        if tracer is not None:
            tracer.stream_get(self.name, blocked=True)
        return got

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get: ``(True, item)`` or ``(False, None)``."""
        if self._queue:
            item = self._queue.popleft()
            self._dequeued()
            return True, item
        return False, None

    def try_put(self, item: Any) -> bool:
        """Non-blocking put: True if ``item`` was accepted immediately.

        The item is handed to the longest-waiting consumer, or
        enqueued, without allocating a completion event; :meth:`put`
        serves its unblocked case through here.  Returns False — and
        leaves the stream untouched — when the put would have blocked.
        """
        waiter = self._pop_getter()
        if waiter is not None:
            getter, since = waiter
            getter.succeed(item)
            self._account_put(item)
            self.stats.gets += 1
            self._end_consumer_stall(since)
        elif len(self._queue) < self.depth:
            self._queue.append(item)
            self._account_put(item)
        else:
            return False
        tracer = self.sim._tracer
        if tracer is not None:
            tracer.stream_put(
                self.name, self._count(item), len(self._queue),
                blocked=False,
            )
        return True

    # -- internal ---------------------------------------------------------

    @staticmethod
    def _count(item: Any) -> int:
        return item.count if isinstance(item, Burst) else 1

    def _dequeued(self) -> None:
        """Account a get served from the queue and admit blocked producers."""
        self.stats.gets += 1
        self._drain_putters()
        tracer = self.sim._tracer
        if tracer is not None:
            tracer.stream_get(self.name, blocked=False)

    def _pop_getter(self) -> tuple[Event, int] | None:
        """Next live blocked consumer (skipping abandoned waiters)."""
        while self._getters:
            getter, since = self._getters.popleft()
            if not (getter._cancelled or getter._triggered):
                return getter, since
        return None

    def _unlink_getter(self, event: Event) -> bool:
        """Remove an abandoned blocked consumer from the wait queue."""
        for i, (getter, since) in enumerate(self._getters):
            if getter is event:
                del self._getters[i]
                self._end_consumer_stall(since)
                return True
        return False

    def _unlink_putter(self, event: Event) -> bool:
        """Remove an abandoned blocked producer (its item is discarded)."""
        for i, (done, _item, since) in enumerate(self._putters):
            if done is event:
                del self._putters[i]
                self._end_producer_stall(since)
                return True
        return False

    def _drain_putters(self) -> None:
        while len(self._queue) < self.depth:
            entry = self._pop_putter()
            if entry is None:
                return
            done, item, since = entry
            waiter = self._pop_getter()
            if waiter is not None:
                getter, gsince = waiter
                getter.succeed(item)
                self.stats.gets += 1
                self._end_consumer_stall(gsince)
            else:
                self._queue.append(item)
            done.succeed()
            self._account_put(item)
            self._end_producer_stall(since)

    def _pop_putter(self) -> tuple[Event, Any, int] | None:
        """Next live blocked producer (skipping abandoned waiters)."""
        while self._putters:
            done, item, since = self._putters.popleft()
            if not (done._cancelled or done._triggered):
                return done, item, since
        return None

    def _end_producer_stall(self, since: int) -> None:
        dur = self.sim.now - since
        self.stats.producer_stall_ps += dur
        tracer = self.sim._tracer
        if tracer is not None:
            tracer.stream_stall(self.name, "producer", since, dur)

    def _end_consumer_stall(self, since: int) -> None:
        dur = self.sim.now - since
        self.stats.consumer_stall_ps += dur
        tracer = self.sim._tracer
        if tracer is not None:
            tracer.stream_stall(self.name, "consumer", since, dur)

    def _account_put(self, item: Any) -> None:
        self.stats.puts += 1
        self.stats.items += item.count if isinstance(item, Burst) else 1

    def __repr__(self) -> str:
        return (
            f"Stream({self.name!r}, depth={self.depth}, "
            f"occupancy={len(self._queue)})"
        )
