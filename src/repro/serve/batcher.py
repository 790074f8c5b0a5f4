"""The dynamic batcher: max-batch-size + max-wait-time dispatch.

The classic serving trade-off (MicroRec serves at batch 1 for latency;
Diba's stream processor re-batches for throughput): larger batches
amortise fixed costs, but the first request in a batch pays the wait
for the last.  :class:`DynamicBatcher` implements the standard policy —
dispatch as soon as ``max_batch`` requests are queued **or** the oldest
queued request has waited ``max_wait_ps``, whichever comes first.

Invariants (locked in by the hypothesis suite in
``tests/serve/test_batcher_properties.py``):

* every submitted item is dispatched exactly once, in submit order
  (global FIFO, hence per-tenant FIFO);
* no batch exceeds ``max_batch``;
* absent downstream backpressure, no item sits in the batcher longer
  than ``max_wait_ps`` — the wait clock starts at the *head's* submit
  time, not at the batcher's loop turn;
* batches are never empty.

The batcher wakes only when its wait condition can change: on the first
item into an empty queue (it starts the head's wait clock), on the item
that fills a batch, at the head's deadline, and on ``close()``.  An item
that joins a partial batch costs no event, so a batch costs a constant
number of events whatever its size: a wake-up, at most one guard timer
and one ``any_of``, and the hand-off.

The batcher is item-agnostic (the service feeds it
:class:`~repro.serve.traffic.Request` objects; the property tests feed
it plain tuples) and pushes :class:`Batch` records into a bounded
:class:`~repro.core.stream.Stream`, so a slow consumer backpressures
batch formation instead of growing an unbounded private queue.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any

from ..core.sim import Simulator, any_of
from ..core.stream import Stream

__all__ = ["Batch", "BatchPolicy", "DynamicBatcher"]


@dataclass(frozen=True)
class BatchPolicy:
    """Dispatch when ``max_batch`` items queue or the head waits
    ``max_wait_ps``."""

    max_batch: int
    max_wait_ps: int

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_ps < 0:
            raise ValueError(
                f"max_wait_ps must be >= 0, got {self.max_wait_ps}"
            )


@dataclass(frozen=True)
class Batch:
    """One dispatched batch: its items in submit order."""

    items: tuple[Any, ...]

    def __len__(self) -> int:
        return len(self.items)


class DynamicBatcher:
    """Collects submitted items into batches on a (size, wait) policy.

    ``submit`` is non-blocking (admission control bounds the queue);
    the batcher's own process forms batches and blocks on ``out.put``
    when the dispatch stream is full.
    """

    def __init__(
        self,
        sim: Simulator,
        policy: BatchPolicy,
        out: Stream,
        name: str = "batcher",
    ) -> None:
        self.sim = sim
        self.policy = policy
        self.out = out
        self.name = name
        self.batches = 0
        self.items_in = 0
        self._pending: deque[tuple[Any, int]] = deque()
        self._arrival = None
        self._closed = False
        self.process = sim.spawn(self._run(), name=name)

    # -- producer side -----------------------------------------------------

    @property
    def depth(self) -> int:
        """Items currently queued (not yet formed into a batch)."""
        return len(self._pending)

    def submit(self, item: Any) -> None:
        """Queue ``item`` (non-blocking); timestamps it at ``sim.now``."""
        if self._closed:
            raise RuntimeError(f"batcher {self.name!r} is closed")
        pending = self._pending
        pending.append((item, self.sim.now))
        self.items_in += 1
        # Only the first item (it starts the head's wait clock) and the
        # item that fills a batch can change what the batcher waits for.
        if len(pending) == 1 or len(pending) == self.policy.max_batch:
            self._kick()

    def close(self) -> None:
        """No more submissions; pending items flush as partial batches."""
        self._closed = True
        self._kick()

    def _kick(self) -> None:
        wake, self._arrival = self._arrival, None
        if wake is not None and not wake.triggered:
            wake.succeed()

    # -- batcher process ---------------------------------------------------

    def _run(self):
        sim, policy = self.sim, self.policy
        while True:
            if not self._pending:
                if self._closed:
                    return
                self._arrival = sim.event()
                yield self._arrival
                continue
            # The wait clock runs from the head's submit time, so a
            # request left over from a full dispatch keeps its place in
            # the wait budget.
            deadline = self._pending[0][1] + policy.max_wait_ps
            if (
                len(self._pending) < policy.max_batch
                and not self._closed
                and sim.now < deadline
            ):
                # One wait per batch: submit kicks only when the batch
                # fills, close kicks, and otherwise the head's deadline
                # ends the wait.
                self._arrival = sim.event()
                timer = sim.timeout(deadline - sim.now)
                yield any_of(sim, [self._arrival, timer])
                self._arrival = None
                # An unfired guard timer must not keep the clock alive.
                timer.cancel()
            take = min(policy.max_batch, len(self._pending))
            pending = self._pending
            yield self.out.put(Batch(
                tuple(pending.popleft()[0] for _ in range(take))
            ))
            self.batches += 1
