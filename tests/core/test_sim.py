"""Unit tests for the discrete-event engine."""

import pytest

from repro.core.sim import (
    Event,
    Interrupt,
    SimulationError,
    Simulator,
    all_of,
    any_of,
)


def test_timeout_advances_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(10)
        return sim.now

    p = sim.spawn(proc(sim))
    sim.run()
    assert p.value == 10
    assert sim.now == 10


def test_zero_delay_timeout_fires_at_now():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(0)
        return sim.now

    p = sim.spawn(proc(sim))
    sim.run()
    assert p.value == 0


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1)


def test_events_fire_in_time_then_fifo_order():
    sim = Simulator()
    log = []

    def worker(sim, name, delay):
        yield sim.timeout(delay)
        log.append(name)

    sim.spawn(worker(sim, "late", 5))
    sim.spawn(worker(sim, "early", 1))
    sim.spawn(worker(sim, "tie-a", 3))
    sim.spawn(worker(sim, "tie-b", 3))
    sim.run()
    assert log == ["early", "tie-a", "tie-b", "late"]


def test_process_join_returns_value():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(7)
        return "done"

    def parent(sim):
        value = yield sim.spawn(child(sim))
        return (sim.now, value)

    p = sim.spawn(parent(sim))
    sim.run()
    assert p.value == (7, "done")


def test_join_already_finished_process():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1)
        return 42

    def parent(sim, child_proc):
        yield sim.timeout(10)
        value = yield child_proc
        return value

    c = sim.spawn(child(sim))
    p = sim.spawn(parent(sim, c))
    sim.run()
    assert p.value == 42
    assert sim.now == 10


def test_manual_event_succeed_wakes_waiter():
    sim = Simulator()
    gate = sim.event()

    def waiter(sim, gate):
        value = yield gate
        return (sim.now, value)

    def opener(sim, gate):
        yield sim.timeout(4)
        gate.succeed("open")

    w = sim.spawn(waiter(sim, gate))
    sim.spawn(opener(sim, gate))
    sim.run()
    assert w.value == (4, "open")


def test_event_cannot_trigger_twice():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_propagates_into_process():
    sim = Simulator()
    gate = sim.event()

    def waiter(sim, gate):
        try:
            yield gate
        except ValueError as exc:
            return f"caught {exc}"

    w = sim.spawn(waiter(sim, gate))
    gate.fail(ValueError("boom"))
    sim.run()
    assert w.value == "caught boom"


def test_uncaught_process_failure_raises_from_run_until():
    sim = Simulator()
    gate = sim.event()

    def waiter(sim, gate):
        yield gate

    w = sim.spawn(waiter(sim, gate))
    gate.fail(ValueError("boom"))
    with pytest.raises(ValueError, match="boom"):
        sim.run_until_process(w)


def test_all_of_waits_for_every_member():
    sim = Simulator()

    def proc(sim):
        values = yield all_of(sim, [sim.timeout(3, "a"), sim.timeout(8, "b")])
        return (sim.now, values)

    p = sim.spawn(proc(sim))
    sim.run()
    assert p.value == (8, ["a", "b"])


def test_any_of_fires_on_first_member():
    sim = Simulator()

    def proc(sim):
        first = yield any_of(sim, [sim.timeout(3, "a"), sim.timeout(8, "b")])
        return (sim.now, first.value)

    p = sim.spawn(proc(sim))
    sim.run()
    assert p.value == (3, "a")


def test_all_of_empty_fires_immediately():
    sim = Simulator()

    def proc(sim):
        values = yield all_of(sim, [])
        return values

    p = sim.spawn(proc(sim))
    sim.run()
    assert p.value == []


def test_interrupt_reaches_waiting_process():
    sim = Simulator()

    def sleeper(sim):
        try:
            yield sim.timeout(100)
        except Interrupt as intr:
            return ("interrupted", sim.now, intr.cause)

    def interrupter(sim, victim):
        yield sim.timeout(5)
        victim.interrupt("wake up")

    victim = sim.spawn(sleeper(sim))
    sim.spawn(interrupter(sim, victim))
    sim.run()
    assert victim.value == ("interrupted", 5, "wake up")


def test_interrupt_finished_process_is_error():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1)

    p = sim.spawn(quick(sim))
    sim.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_run_until_limits_time():
    sim = Simulator()
    log = []

    def worker(sim):
        for _ in range(10):
            yield sim.timeout(10)
            log.append(sim.now)

    sim.spawn(worker(sim))
    sim.run(until=35)
    assert log == [10, 20, 30]
    assert sim.now == 35


def test_run_until_process_detects_deadlock():
    sim = Simulator()
    gate = sim.event()

    def waiter(sim, gate):
        yield gate

    w = sim.spawn(waiter(sim, gate))
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_process(w)


def test_yielding_non_event_fails_process():
    sim = Simulator()

    def bad(sim):
        yield 42

    p = sim.spawn(bad(sim))
    with pytest.raises(SimulationError, match="expected an Event"):
        sim.run_until_process(p)


def test_spawn_requires_generator():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.spawn(lambda: None)  # type: ignore[arg-type]


def test_peek_reports_next_event_time():
    sim = Simulator()
    sim.timeout(12)
    assert sim.peek() == 12
    sim.run()
    assert sim.peek() is None


# -- skip_to ----------------------------------------------------------------


def _skipper(sim, when, results):
    """A process that asks to skip to ``when`` and records the answer."""
    results.append(sim.skip_to(when))
    results.append(sim.now)
    yield sim.timeout(0)


def test_skip_to_moves_the_clock_when_nothing_is_due_first():
    sim = Simulator()
    log, results = [], []

    def later(sim):
        yield sim.timeout(20)
        log.append(sim.now)

    sim.spawn(later(sim))
    sim.spawn(_skipper(sim, 10, results))
    sim.run()
    assert results == [True, 10]
    assert log == [20]
    assert sim.now == 20


@pytest.mark.parametrize("due", [5, 10])
def test_skip_to_is_refused_when_a_live_event_is_due_first_or_at_the_same_ps(
        due):
    sim = Simulator()
    results = []
    sim.timeout(due)
    sim.spawn(_skipper(sim, 10, results))
    sim.run()
    assert results == [False, 0]


def test_skip_to_is_refused_by_an_event_scheduled_now():
    sim = Simulator()
    results = []

    def kick_then_skip(sim):
        sim.event().succeed()
        yield from _skipper(sim, 10, results)

    sim.spawn(kick_then_skip(sim))
    sim.run()
    assert results == [False, 0]


@pytest.mark.parametrize("live_at, granted", [(30, True), (7, False)])
def test_skip_to_passes_a_cancelled_guard_timer_at_the_heap_top(live_at,
                                                                granted):
    """The cancelled timer at 3 never blocks; the live event behind it
    decides."""
    sim = Simulator()
    results = []
    guard = sim.timeout(3)
    guard.cancel()
    sim.timeout(live_at)
    sim.spawn(_skipper(sim, 10, results))
    sim.run()
    assert results == [granted, 10 if granted else 0]
    assert sim.now == live_at


@pytest.mark.parametrize("when, granted", [(15, True), (16, False)])
def test_skip_to_never_passes_run_until(when, granted):
    sim = Simulator()
    results = []
    sim.spawn(_skipper(sim, when, results))
    sim.run(until=15)
    assert results == [granted, 15 if granted else 0]
    assert sim.now == 15


def test_skip_to_is_refused_outside_run_and_under_step_and_run_until_process():
    sim = Simulator()
    assert sim.skip_to(10) is False
    results = []
    sim.spawn(_skipper(sim, 10, results))
    sim.step()
    proc = sim.spawn(_skipper(sim, 10, results))
    sim.run_until_process(proc)
    sim.run()
    assert sim.skip_to(10) is False
    assert results == [False, 0, False, 0]
    assert sim.now == 0


def test_skip_to_is_refused_after_run_raised():
    sim = Simulator()

    def broken(sim):
        yield sim.timeout(1)
        raise KeyError("bug")

    sim.spawn(broken(sim))
    with pytest.raises(KeyError):
        sim.run()
    assert sim.skip_to(10) is False


def test_skip_to_into_the_past_is_an_error():
    sim = Simulator()
    errors = []

    def backwards(sim):
        yield sim.timeout(5)
        try:
            sim.skip_to(4)
        except SimulationError as exc:
            errors.append(exc)

    sim.spawn(backwards(sim))
    sim.run()
    assert len(errors) == 1


def test_skipping_replays_the_timeout_schedule_exactly(monkeypatch):
    """Arrivals that skip when they can, among periodic workers with
    same-ps ties, produce the log one timeout per arrival produces."""

    def session():
        sim = Simulator()
        log = []

        def worker(sim, name, period, count):
            for _ in range(count):
                yield sim.timeout(period)
                log.append((sim.now, name))

        def arrivals(sim, times):
            for when in times:
                if when > sim.now and not sim.skip_to(when):
                    yield sim.timeout(when - sim.now)
                log.append((sim.now, "arrival"))
                if when % 4 == 0:
                    sim.spawn(worker(sim, f"job{when}", 3, 2))

        sim.spawn(worker(sim, "tick", 7, 12))
        sim.spawn(arrivals(sim, [1, 2, 7, 8, 14, 20, 21, 22, 40, 41, 100]))
        sim.run()
        return log, sim.now

    skipped = session()
    monkeypatch.setattr(Simulator, "skip_to", lambda self, when: False)
    assert session() == skipped
