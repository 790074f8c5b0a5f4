"""Property-based tests for the dynamic batcher (repro.serve.batcher).

Random submission schedules (gaps, run lengths) against random
(max_batch, max_wait) policies and a randomly slow consumer must
uphold the batcher's contract:

* conservation — every submitted item appears in exactly one
  dispatched batch, no loss, no duplication;
* FIFO — items leave in submit order (hence per-tenant FIFO);
* bounded batches — no batch is empty or larger than ``max_batch``;
* bounded wait — with a consumer that never backpressures, no item
  sits in the batcher longer than ``max_wait_ps``.

A differential test also pins the batcher's exact schedule against the
batcher it replaced, which woke on every submitted item.
"""

from collections import deque

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.core.sim import Simulator, any_of
from repro.core.stream import Stream
from repro.serve import BatchPolicy, DynamicBatcher
from repro.serve.batcher import Batch

# A schedule is [(gap_ps, items_in_run), ...]: wait gap, then submit a
# run of items back-to-back at the same timestamp.
_SCHEDULE = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=1, max_value=6),
    ),
    min_size=1,
    max_size=12,
)
_POLICY = st.tuples(
    st.integers(min_value=1, max_value=7),    # max_batch
    st.integers(min_value=0, max_value=40),   # max_wait_ps
)


def _drive(schedule, max_batch, max_wait_ps, consumer_delay_ps):
    """Run a schedule through a batcher; return (submitted, batches)."""
    sim = Simulator()
    # Unbounded-enough stream: the consumer can lag without ever
    # blocking the batcher when consumer_delay_ps is 0.
    out = Stream(sim, depth=10_000)
    batcher = DynamicBatcher(
        sim, BatchPolicy(max_batch=max_batch, max_wait_ps=max_wait_ps), out
    )
    submitted = []
    batches = []

    def producer():
        rid = 0
        for gap, run in schedule:
            if gap:
                yield sim.timeout(gap)
            for _ in range(run):
                batcher.submit(rid)
                submitted.append((rid, sim.now))
                rid += 1
        batcher.close()

    def consumer():
        while True:
            ok, batch = out.try_get()
            if not ok:
                if batcher.drained and out.empty:
                    return
                yield sim.timeout(1)
                continue
            batches.append(batch)
            if consumer_delay_ps:
                yield sim.timeout(consumer_delay_ps)

    sim.spawn(producer(), name="producer")
    sim.spawn(consumer(), name="consumer")
    sim.run()
    return submitted, batches


@given(schedule=_SCHEDULE, policy=_POLICY,
       consumer_delay=st.integers(min_value=0, max_value=60))
@settings(max_examples=120, deadline=None)
def test_no_item_lost_duplicated_and_fifo(schedule, policy, consumer_delay):
    max_batch, max_wait = policy
    submitted, batches = _drive(schedule, max_batch, max_wait,
                                consumer_delay)
    dispatched = [item for b in batches for item in b.items]
    assert dispatched == [rid for rid, _ in submitted]
    for batch in batches:
        assert 1 <= len(batch) <= max_batch
        assert len(batch.items) == len(batch.submit_ps)


@given(schedule=_SCHEDULE, policy=_POLICY)
@settings(max_examples=120, deadline=None)
def test_wait_bound_without_backpressure(schedule, policy):
    max_batch, max_wait = policy
    submitted, batches = _drive(schedule, max_batch, max_wait,
                                consumer_delay_ps=0)
    submit_at = dict(submitted)
    for batch in batches:
        for item, t_submit in zip(batch.items, batch.submit_ps):
            assert t_submit == submit_at[item]
            assert batch.formed_ps - t_submit <= max_wait


@given(schedule=_SCHEDULE, policy=_POLICY,
       consumer_delay=st.integers(min_value=0, max_value=60))
@settings(max_examples=60, deadline=None)
def test_per_tenant_fifo_under_interleaving(schedule, policy,
                                            consumer_delay):
    # Tag items round-robin across 3 tenants; global FIFO must imply
    # per-tenant FIFO in the dispatched order.
    max_batch, max_wait = policy
    submitted, batches = _drive(schedule, max_batch, max_wait,
                                consumer_delay)
    order = [item for b in batches for item in b.items]
    for tenant in range(3):
        lane = [rid for rid in order if rid % 3 == tenant]
        assert lane == sorted(lane)


# -- the wake-per-batch batcher against the wake-per-item one it replaced ----


class _WakePerItemBatcher:
    """``DynamicBatcher`` as written before it woke once per batch: every
    submit wakes the batcher, which re-arms a fresh guard timer and
    ``any_of`` until the batch fills, the head's deadline passes or the
    batcher closes."""

    def __init__(self, sim, policy, out):
        self.sim = sim
        self.policy = policy
        self.out = out
        self._pending = deque()
        self._arrival = None
        self._closed = False
        sim.spawn(self._run(), name="oracle")

    def submit(self, item):
        self._pending.append((item, self.sim.now))
        self._kick()

    def close(self):
        self._closed = True
        self._kick()

    def _kick(self):
        wake, self._arrival = self._arrival, None
        if wake is not None and not wake.triggered:
            wake.succeed()

    def _run(self):
        sim, policy = self.sim, self.policy
        while True:
            if not self._pending:
                if self._closed:
                    return
                self._arrival = sim.event()
                yield self._arrival
                continue
            deadline = self._pending[0][1] + policy.max_wait_ps
            while (
                len(self._pending) < policy.max_batch
                and not self._closed
                and sim.now < deadline
            ):
                self._arrival = sim.event()
                timer = sim.timeout(deadline - sim.now)
                yield any_of(sim, [self._arrival, timer])
                self._arrival = None
                timer.cancel()
            take = min(policy.max_batch, len(self._pending))
            entries = [self._pending.popleft() for _ in range(take)]
            yield self.out.put(Batch(
                items=tuple(item for item, _ in entries),
                submit_ps=tuple(t for _, t in entries),
                formed_ps=sim.now,
            ))


def _handoffs(make_batcher, schedule, policy, depth, consumer_delay_ps):
    """Every batch as ``(items, submit_ps, formed_ps, handed_off_ps)``.

    The producer submits all items of one timestamp in one step, as the
    service's arrival process does; the consumer blocks on the stream.
    """
    sim = Simulator()
    out = Stream(sim, depth=depth)
    batcher = make_batcher(sim, policy, out)
    got = []

    def producer():
        rid = 0
        for gap, run in schedule:
            if gap:
                yield sim.timeout(gap)
            for _ in range(run):
                batcher.submit(rid)
                rid += 1
        batcher.close()

    def consumer():
        while True:
            batch = yield out.get()
            got.append(
                (batch.items, batch.submit_ps, batch.formed_ps, sim.now)
            )
            if consumer_delay_ps:
                yield sim.timeout(consumer_delay_ps)

    sim.spawn(producer(), name="producer")
    sim.spawn(consumer(), name="consumer")
    sim.run()
    return got


# Tie-heavy: small gaps and waits put many submits on the head's
# deadline and on the consumer's hand-off instants.
_TIED_SCHEDULE = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=1, max_value=4),
    ),
    min_size=1,
    max_size=25,
)


@given(schedule=_TIED_SCHEDULE,
       max_batch=st.integers(min_value=1, max_value=8),
       max_wait=st.integers(min_value=0, max_value=12),
       depth=st.integers(min_value=1, max_value=3),
       consumer_delay=st.integers(min_value=0, max_value=15))
@settings(max_examples=300, deadline=None)
def test_matches_wake_per_item_batcher(schedule, max_batch, max_wait,
                                       depth, consumer_delay):
    policy = BatchPolicy(max_batch=max_batch, max_wait_ps=max_wait)
    expected = _handoffs(_WakePerItemBatcher, schedule, policy, depth,
                         consumer_delay)
    got = _handoffs(DynamicBatcher, schedule, policy, depth,
                    consumer_delay)
    assert got == expected


def test_request_arriving_at_the_deadline_joins_the_batch():
    # Head at 0, deadline 10: the item submitted at exactly 10 rides
    # along, the one at 11 starts the next batch.
    policy = BatchPolicy(max_batch=8, max_wait_ps=10)
    for make in (_WakePerItemBatcher, DynamicBatcher):
        got = _handoffs(make, [(0, 1), (4, 1), (6, 1), (1, 1)], policy,
                        depth=1, consumer_delay_ps=0)
        assert got == [((0, 1, 2), (0, 4, 10), 10, 10),
                       ((3,), (11,), 11, 11)]


def test_full_batch_dispatches_without_waiting():
    sim = Simulator()
    out = Stream(sim, depth=100)
    batcher = DynamicBatcher(
        sim, BatchPolicy(max_batch=4, max_wait_ps=1_000_000), out
    )
    got = []

    def producer():
        for rid in range(4):
            batcher.submit(rid)
        yield sim.timeout(0)
        batcher.close()

    def consumer():
        batch = yield out.get()
        got.append((sim.now, batch))

    sim.spawn(producer(), name="p")
    sim.spawn(consumer(), name="c")
    sim.run()
    (t, batch), = got
    assert t == 0 and batch.items == (0, 1, 2, 3)


def test_submit_after_close_is_rejected():
    sim = Simulator()
    batcher = DynamicBatcher(
        sim, BatchPolicy(max_batch=2, max_wait_ps=10), Stream(sim, depth=4)
    )
    batcher.close()
    with pytest.raises(RuntimeError):
        batcher.submit(0)
    sim.run()
    assert batcher.drained


@pytest.mark.parametrize("bad", [
    dict(max_batch=0, max_wait_ps=1),
    dict(max_batch=1, max_wait_ps=-1),
])
def test_policy_validation(bad):
    with pytest.raises(ValueError):
        BatchPolicy(**bad)
