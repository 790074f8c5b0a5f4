"""Unit and property tests for bounded streams."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sim import SimulationError, Simulator
from repro.core.stream import Burst, END_OF_STREAM, Stream


def test_put_then_get_preserves_fifo_order():
    sim = Simulator()
    stream = Stream(sim, depth=4)
    out = []

    def producer(sim, stream):
        for i in range(3):
            yield stream.put(i)

    def consumer(sim, stream):
        for _ in range(3):
            item = yield stream.get()
            out.append(item)

    sim.spawn(producer(sim, stream))
    sim.spawn(consumer(sim, stream))
    sim.run()
    assert out == [0, 1, 2]


def test_full_stream_blocks_producer():
    sim = Simulator()
    stream = Stream(sim, depth=1)
    times = []

    def producer(sim, stream):
        yield stream.put("a")
        times.append(("a-put", sim.now))
        yield stream.put("b")
        times.append(("b-put", sim.now))

    def consumer(sim, stream):
        yield sim.timeout(50)
        yield stream.get()

    sim.spawn(producer(sim, stream))
    sim.spawn(consumer(sim, stream))
    sim.run()
    assert ("a-put", 0) in times
    assert ("b-put", 50) in times
    assert stream.stats.producer_stall_ps == 50


def test_empty_stream_blocks_consumer():
    sim = Simulator()
    stream = Stream(sim, depth=2)
    got_at = []

    def consumer(sim, stream):
        item = yield stream.get()
        got_at.append((item, sim.now))

    def producer(sim, stream):
        yield sim.timeout(30)
        yield stream.put("x")

    sim.spawn(consumer(sim, stream))
    sim.spawn(producer(sim, stream))
    sim.run()
    assert got_at == [("x", 30)]
    assert stream.stats.consumer_stall_ps == 30


def test_depth_must_be_positive():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Stream(sim, depth=0)


def test_try_get_nonblocking():
    sim = Simulator()
    stream = Stream(sim, depth=2)
    ok, item = stream.try_get()
    assert not ok and item is None

    def producer(sim, stream):
        yield stream.put(9)

    sim.spawn(producer(sim, stream))
    sim.run()
    ok, item = stream.try_get()
    assert ok and item == 9


def test_burst_counts_accumulate_in_stats():
    sim = Simulator()
    stream = Stream(sim, depth=4)

    def producer(sim, stream):
        yield stream.put(Burst(payload=None, count=100))
        yield stream.put(Burst(payload=None, count=50))

    def consumer(sim, stream):
        yield stream.get()
        yield stream.get()

    sim.spawn(producer(sim, stream))
    sim.spawn(consumer(sim, stream))
    sim.run()
    assert stream.stats.items == 150
    assert stream.stats.puts == 2


def test_negative_burst_count_rejected():
    with pytest.raises(ValueError):
        Burst(payload=None, count=-1)


def test_end_of_stream_is_singleton():
    assert END_OF_STREAM is type(END_OF_STREAM)()
    assert repr(END_OF_STREAM) == "END_OF_STREAM"


def test_handoff_to_waiting_consumer_skips_queue():
    sim = Simulator()
    stream = Stream(sim, depth=1)
    order = []

    def consumer(sim, stream, tag):
        item = yield stream.get()
        order.append((tag, item))

    def producer(sim, stream):
        yield sim.timeout(5)
        yield stream.put("first")
        yield stream.put("second")

    sim.spawn(consumer(sim, stream, "c1"))
    sim.spawn(consumer(sim, stream, "c2"))
    sim.spawn(producer(sim, stream))
    sim.run()
    assert order == [("c1", "first"), ("c2", "second")]


@settings(max_examples=50, deadline=None)
@given(
    items=st.lists(st.integers(), min_size=0, max_size=40),
    depth=st.integers(min_value=1, max_value=8),
)
def test_property_stream_is_lossless_and_ordered(items, depth):
    """Whatever the depth, every item comes out exactly once, in order."""
    sim = Simulator()
    stream = Stream(sim, depth=depth)
    out = []

    def producer(sim, stream):
        for item in items:
            yield stream.put(item)
        yield stream.put(END_OF_STREAM)

    def consumer(sim, stream):
        while True:
            item = yield stream.get()
            if item is END_OF_STREAM:
                return
            out.append(item)

    sim.spawn(producer(sim, stream))
    c = sim.spawn(consumer(sim, stream))
    sim.run_until_process(c)
    assert out == items


@settings(max_examples=30, deadline=None)
@given(
    depth=st.integers(min_value=1, max_value=6),
    n=st.integers(min_value=0, max_value=30),
)
def test_property_occupancy_never_exceeds_depth(depth, n):
    sim = Simulator()
    stream = Stream(sim, depth=depth)
    occupancy = []

    def producer(sim, stream):
        for i in range(n):
            yield stream.put(i)
            occupancy.append(len(stream))

    def consumer(sim, stream):
        for _ in range(n):
            yield sim.timeout(3)
            yield stream.get()
            occupancy.append(len(stream))

    sim.spawn(producer(sim, stream))
    sim.spawn(consumer(sim, stream))
    sim.run()
    assert len(occupancy) == 2 * n
    assert max(occupancy, default=0) <= depth


def test_try_put_nonblocking():
    sim = Simulator()
    stream = Stream(sim, depth=1)
    assert stream.try_put("a")
    assert not stream.try_put("b"), "full stream must refuse without blocking"
    ok, item = stream.try_get()
    assert ok and item == "a"
    assert stream.try_put("b")
    assert stream.stats.puts == 2


def test_try_put_hands_off_to_blocked_consumer():
    sim = Simulator()
    stream = Stream(sim, depth=1)
    got = []

    def consumer(sim, stream):
        item = yield stream.get()
        got.append((item, sim.now))

    def producer(sim, stream):
        yield sim.timeout(10)
        assert stream.try_put("x")

    sim.spawn(consumer(sim, stream))
    sim.spawn(producer(sim, stream))
    sim.run()
    assert got == [("x", 10)]
    assert stream.stats.gets == 1


def test_gets_counts_direct_handoffs_like_queue_pops():
    """On a drained stream ``gets == puts`` regardless of whether items
    went through the queue or straight to a blocked consumer."""
    sim = Simulator()
    stream = Stream(sim, depth=1)
    received = []

    def producer(sim, stream):
        for i in range(6):
            yield stream.put(i)

    def consumer(sim, stream):
        for _ in range(6):
            item = yield stream.get()
            received.append(item)

    sim.spawn(consumer(sim, stream))  # consumer first: handoffs happen
    sim.spawn(producer(sim, stream))
    sim.run()
    assert received == list(range(6))
    assert stream.stats.puts == 6
    assert stream.stats.gets == 6
