"""Cancellation, timeouts, and the latent-bug regressions they fix.

Covers the fault-layer groundwork in the sim core:

* ``Event.cancel`` semantics and ``with_timeout``;
* bounded stream waits: ``with_timeout`` around ``Stream.get/put``;
* regression: an interrupted consumer used to leave an orphan getter in
  the stream and the next ``put`` silently lost its item;
* regression: a process that yielded an already-fired event could be
  stepped twice when interrupted (stale resume + interrupt throw);
* regression: a failed process nobody joined was silently swallowed.
"""

import pytest

from repro.core import (
    Event,
    Interrupt,
    Simulator,
    SimulationError,
    Stream,
    WaitTimeout,
    with_timeout,
)


# -- Event.cancel ---------------------------------------------------------


def test_cancel_pending_event_drops_callbacks_and_blocks_trigger():
    sim = Simulator()
    ev = Event(sim)
    fired = []
    ev.callbacks.append(lambda e: fired.append(e))
    assert ev.cancel() is True
    assert ev.cancelled
    assert not ev.callbacks
    with pytest.raises(SimulationError):
        ev.succeed()
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError("x"))
    sim.run()
    assert not fired


def test_cancel_runs_on_cancel_hooks_once():
    sim = Simulator()
    ev = Event(sim)
    calls = []
    ev.on_cancel(calls.append)
    assert ev.cancel() is True
    assert ev.cancel() is False  # idempotent
    assert calls == [ev]


def test_cancel_between_trigger_and_fire_suppresses_delivery():
    """Triggered-but-unfired events are cancellable — that is how guard
    timers already sitting in the heap get disarmed."""
    sim = Simulator()
    ev = sim.timeout(5, value=7)
    delivered = []
    ev.callbacks.append(lambda e: delivered.append(e.value))
    assert ev.cancel() is True
    sim.run()
    assert not delivered


def test_cancel_after_fire_is_refused():
    sim = Simulator()
    ev = Event(sim)
    ev.succeed(7)
    sim.run()
    assert ev.cancel() is False
    assert ev.value == 7


def test_cancelled_timer_does_not_extend_the_run():
    """A cancelled long timer must be pruned, not advance the clock."""
    sim = Simulator()
    long = sim.timeout(1_000_000)
    sim.timeout(5)
    long.cancel()
    sim.run()
    assert sim.now == 5


# -- with_timeout ---------------------------------------------------------


def test_with_timeout_passes_through_a_fast_event():
    sim = Simulator()
    results = []

    def proc():
        value = yield with_timeout(sim, sim.timeout(5, value="fast"), 100)
        results.append((sim.now, value))

    sim.spawn(proc())
    sim.run()
    assert results == [(5, "fast")]
    # The abandoned 100-unit guard must not have extended the run.
    assert sim.now == 5


def test_with_timeout_raises_wait_timeout():
    sim = Simulator()
    caught = []

    def proc():
        try:
            yield with_timeout(sim, Event(sim), 30)
        except WaitTimeout as exc:
            caught.append((sim.now, exc.timeout_ps))

    sim.spawn(proc())
    sim.run()
    assert caught == [(30, 30)]


def test_with_timeout_mirrors_an_already_fired_event():
    sim = Simulator()
    inner = Event(sim)
    inner.succeed("done")
    sim.run()
    results = []

    def proc():
        value = yield with_timeout(sim, inner, 10)
        results.append(value)

    sim.spawn(proc())
    sim.run()
    assert results == ["done"]


def test_with_timeout_on_a_failed_process_counts_as_joining_it():
    """Regression: wrapping a process that already failed handed the
    failure to the caller, and ``run()`` then re-raised it as unjoined
    although the caller had caught it (a plain ``yield`` does not)."""
    sim = Simulator()

    def doomed():
        yield sim.timeout(1)
        raise SimulationError("attempt failed")

    target = sim.spawn(doomed(), name="doomed")
    caught = []

    def joiner():
        yield sim.timeout(5)
        try:
            yield with_timeout(sim, target, 10)
        except SimulationError as exc:
            caught.append((sim.now, str(exc)))

    sim.spawn(joiner())
    sim.run()
    assert caught == [(5, "attempt failed")]


def test_with_timeout_expires_before_a_later_scheduled_event():
    """An event already scheduled to fire after the budget still loses:
    only an outcome due at the expiry tick itself beats the timer."""
    sim = Simulator()
    caught = []

    def proc():
        try:
            yield with_timeout(sim, sim.timeout(200, value="late"), 100)
        except WaitTimeout:
            caught.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert caught == [100]


# -- bounded stream waits -------------------------------------------------


def test_get_timeout_raises_and_item_goes_to_the_next_consumer():
    sim = Simulator()
    stream = Stream(sim, depth=1, name="s")
    log = []

    def impatient():
        try:
            yield with_timeout(sim, stream.get(), 10)
        except WaitTimeout:
            log.append(("timeout", sim.now))

    def producer():
        yield sim.timeout(50)
        yield stream.put("late-item")

    def second_consumer():
        yield sim.timeout(20)
        item = yield stream.get()
        log.append(("got", sim.now, item))

    sim.spawn(impatient())
    sim.spawn(producer())
    sim.spawn(second_consumer())
    sim.run()
    assert ("timeout", 10) in log
    assert ("got", 50, "late-item") in log


def test_put_timeout_discards_the_abandoned_item():
    sim = Simulator()
    stream = Stream(sim, depth=1, name="s")
    stream_log = []

    def producer():
        yield stream.put("a")
        try:
            yield with_timeout(sim, stream.put("b"), 10)
        except WaitTimeout:
            stream_log.append(("timeout", sim.now))

    def consumer():
        yield sim.timeout(30)
        while True:
            got, item = stream.try_get()
            if not got:
                break
            stream_log.append(("got", item))

    sim.spawn(producer())
    sim.spawn(consumer())
    sim.run()
    assert ("timeout", 10) in stream_log
    assert ("got", "a") in stream_log
    assert ("got", "b") not in stream_log


# -- regression: orphaned getters/putters lose items ----------------------


def test_interrupted_getter_does_not_swallow_the_next_put():
    """Regression: the orphan Event of an interrupted consumer stayed in
    ``_getters`` and the next put handed its item to the dead waiter."""
    sim = Simulator()
    stream = Stream(sim, depth=4, name="s")
    received = []

    def doomed():
        try:
            yield stream.get()
        except Interrupt:
            pass

    def assassin(victim):
        yield sim.timeout(5)
        victim.interrupt("gave up")

    def producer():
        yield sim.timeout(10)
        for item in ("x", "y"):
            yield stream.put(item)

    def survivor():
        yield sim.timeout(6)
        for _ in range(2):
            item = yield stream.get()
            received.append(item)

    victim = sim.spawn(doomed())
    sim.spawn(assassin(victim))
    sim.spawn(producer())
    sim.spawn(survivor())
    sim.run()
    assert received == ["x", "y"], "no item may be lost to the dead waiter"


def test_timed_out_getter_does_not_swallow_the_next_put():
    """Same audit driven by the timeout path instead of interrupt."""
    sim = Simulator()
    stream = Stream(sim, depth=4, name="s")
    received = []
    timeouts = []

    def impatient():
        try:
            yield with_timeout(sim, stream.get(), 5)
        except WaitTimeout:
            timeouts.append(sim.now)

    def producer():
        yield sim.timeout(10)
        yield stream.put("only")

    def survivor():
        yield sim.timeout(6)
        item = yield stream.get()
        received.append(item)

    sim.spawn(impatient())
    sim.spawn(producer())
    sim.spawn(survivor())
    sim.run()
    assert timeouts == [5]
    assert received == ["only"]


def test_interrupted_putter_item_never_materialises():
    """The orphaned-putter side of the audit: an interrupted producer's
    pending item must not be enqueued by a later drain."""
    sim = Simulator()
    stream = Stream(sim, depth=1, name="s")
    received = []

    def doomed_producer():
        yield stream.put("kept")
        try:
            yield stream.put("abandoned")  # blocks: stream is full
        except Interrupt:
            pass

    def assassin(victim):
        yield sim.timeout(5)
        victim.interrupt("cancelled write")

    def consumer():
        yield sim.timeout(10)
        item = yield stream.get()
        received.append(item)
        got, item = stream.try_get()
        assert not got, "the abandoned item must not appear"

    victim = sim.spawn(doomed_producer())
    sim.spawn(assassin(victim))
    sim.spawn(consumer())
    sim.run()
    assert received == ["kept"]


# -- regression: interrupt after a fired-event yield ----------------------


def test_interrupt_after_fired_yield_steps_once():
    """Regression: with a stale ``_resume_from_fired`` callback queued,
    an interrupt used to step the process twice — the stale resume won,
    the Interrupt landed at the *next* yield, and the handler never ran."""
    sim = Simulator()
    log = []

    def victim():
        fired = Event(sim)
        fired.succeed("v")
        yield sim.timeout(1)  # let `fired` pass through the heap
        try:
            yield fired  # already fired -> immediate-resume path
            log.append("resumed")
        except Interrupt:
            log.append("interrupted")
        yield sim.timeout(10)
        log.append("finished")

    def assassin(target):
        yield sim.timeout(1)
        target.interrupt("now")

    target = sim.spawn(victim())
    sim.spawn(assassin(target))
    sim.run()
    assert log == ["interrupted", "finished"]


# -- regression: unjoined failed processes --------------------------------


def _interrupt_killed_pair(sim):
    """A victim that ignores Interrupt (so the kill fails it) + killer."""

    def victim():
        yield Event(sim)  # waits forever unless killed

    def killer(target):
        yield sim.timeout(5)
        target.interrupt("die")

    target = sim.spawn(victim(), name="victim")
    sim.spawn(killer(target))
    return target


def test_unjoined_failed_process_is_reraised_at_run_exit():
    """Regression: a process failed by an unhandled interrupt, with no
    joiner, used to vanish without a trace at ``run()`` exit."""
    sim = Simulator()
    _interrupt_killed_pair(sim)
    with pytest.raises(SimulationError, match="killed by interrupt"):
        sim.run()


def test_defused_failure_stays_silent():
    sim = Simulator()
    target = _interrupt_killed_pair(sim)
    target.defuse()
    sim.run()
    assert sim.now == 5


def test_joined_failure_is_not_double_reported():
    sim = Simulator()
    caught = []

    def joiner(target):
        try:
            yield target
        except SimulationError:
            caught.append(sim.now)

    target = _interrupt_killed_pair(sim)
    sim.spawn(joiner(target))
    sim.run()
    assert caught == [5]


def test_bounded_run_does_not_report_future_failures():
    sim = Simulator()

    def victim():
        yield sim.timeout(100)

    def killer(target):
        yield sim.timeout(50)
        target.interrupt("die")

    target = sim.spawn(victim())
    sim.spawn(killer(target))
    sim.run(until=10)  # the kill hasn't happened yet
    assert sim.now == 10
