"""Property-based tests for the discrete-event engine (repro.core.sim).

Randomised interleavings of spawn/timeout/interrupt/all_of/any_of must
uphold three engine invariants:

* simulated time never decreases while events fire;
* events scheduled for the same timestamp fire in scheduling (FIFO)
  order;
* attaching a tracer never changes event order, timestamps, or process
  results (trace transparency);
* draining the heap with repeated ``step()`` fires the same events at
  the same times as ``run()``.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.core.sim import Interrupt, Simulator, all_of, any_of
from repro.obs import Tracer

# A program spec is (interrupt_at | None, [[worker delays], ...]).
_WORKERS = st.lists(
    st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=5),
    min_size=1,
    max_size=4,
)
_SPEC = st.tuples(
    st.one_of(st.none(), st.integers(min_value=0, max_value=60)),
    _WORKERS,
)


def _run_program(spec, tracer=None, stepped=False):
    """Build and run a randomised program; return (sim, event log).

    ``stepped`` drains the heap with ``step()`` instead of ``run()``.
    """
    interrupt_at, workers = spec
    sim = Simulator(tracer=tracer)
    log = []

    def worker(wid, delays):
        try:
            for step, d in enumerate(delays):
                yield sim.timeout(d)
                log.append((sim.now, wid, step))
            return wid * 1000 + sim.now
        except Interrupt as exc:
            log.append((sim.now, wid, "interrupted"))
            return exc.cause

    procs = [
        sim.spawn(worker(i, d), name=f"w{i}") for i, d in enumerate(workers)
    ]

    def joiner():
        values = yield all_of(sim, procs)
        log.append((sim.now, "join", tuple(values)))

    def racer():
        first = yield any_of(sim, procs)
        log.append((sim.now, "race", first.value))

    sim.spawn(joiner(), name="join")
    sim.spawn(racer(), name="race")

    if interrupt_at is not None:

        def assassin():
            yield sim.timeout(interrupt_at)
            target = procs[interrupt_at % len(procs)]
            if target.is_alive:
                target.interrupt(cause=-1)
                log.append((sim.now, "assassin", interrupt_at))

        sim.spawn(assassin(), name="assassin")

    if stepped:
        while sim.peek() is not None:
            sim.step()
    else:
        sim.run()
    return sim, log


@given(_SPEC)
@settings(max_examples=25, deadline=None)
def test_time_is_nondecreasing(spec):
    sim, log = _run_program(spec)
    times = [entry[0] for entry in log]
    assert times == sorted(times)
    assert log, "program must make progress"
    assert sim.now >= max(times)


@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_fifo_order_at_equal_timestamps(delays):
    sim = Simulator()
    fired = []
    for i, d in enumerate(delays):
        ev = sim.event()
        ev.callbacks.append(lambda e, i=i: fired.append(i))
        ev.succeed(delay=d)
    sim.run()
    # stable sort on (when, scheduling index) == required fire order
    expected = [i for _, i in sorted((d, i) for i, d in enumerate(delays))]
    assert fired == expected


@given(_SPEC)
@settings(max_examples=25, deadline=None)
def test_trace_transparency(spec):
    sim_plain, log_plain = _run_program(spec)
    tracer = Tracer()
    sim_traced, log_traced = _run_program(spec, tracer=tracer)
    assert log_traced == log_plain
    assert sim_traced.now == sim_plain.now
    # ... and the tracer did actually observe the run
    assert tracer.registry.snapshot()["sim.events.fired"] > 0


@given(_SPEC)
@settings(max_examples=25, deadline=None)
def test_step_drain_matches_run(spec):
    sim_run, log_run = _run_program(spec)
    sim_step, log_step = _run_program(spec, stepped=True)
    assert log_step == log_run
    assert sim_step.now == sim_run.now


@given(_SPEC)
@settings(max_examples=15, deadline=None)
def test_runs_are_deterministic(spec):
    _, first = _run_program(spec)
    _, second = _run_program(spec)
    assert first == second


# -- interrupt vs fired-event-yield interleavings --------------------------

# A victim program is a list of steps; True = yield an already-fired
# event (the immediate-resume path), False = yield a 1-unit timeout.
_VICTIM_STEPS = st.lists(st.booleans(), min_size=1, max_size=8)
_INTERRUPT_ROUND = st.integers(min_value=0, max_value=10)


@given(_VICTIM_STEPS, _INTERRUPT_ROUND)
@settings(max_examples=60, deadline=None)
def test_interrupt_never_double_steps_a_fired_yield(steps, interrupt_round):
    """Regression property for the stale-resume bug: whatever mix of
    already-fired yields and timeouts the victim executes, an interrupt
    delivered at an arbitrary point in the interleaving must step the
    victim exactly once per resume.  The fired events are drained
    through the heap up front so yielding them takes the
    immediate-resume path, and the assassin advances in lockstep so its
    interrupt can land in the window between a fired-event yield and
    the queued immediate — the interleaving that used to double-step
    the process and corrupt the engine ("event already triggered")."""
    sim = Simulator()
    log = []

    def victim():
        fired = {}
        for i, use_fired in enumerate(steps):
            if use_fired:
                fired[i] = sim.event()
                fired[i].succeed(i)
        yield sim.timeout(1)  # let the pre-succeeded events fire
        interrupted = 0
        for i, use_fired in enumerate(steps):
            try:
                if use_fired:
                    value = yield fired[i]
                    assert value == i
                else:
                    yield sim.timeout(1)
            except Interrupt:
                interrupted += 1
            log.append((sim.now, i))
        return interrupted

    def assassin(target):
        for _ in range(interrupt_round + 1):  # +1 mirrors the warm-up
            yield sim.timeout(1)
        if target.is_alive:
            target.interrupt("now")
            log.append((sim.now, "interrupt"))

    target = sim.spawn(victim(), name="victim")
    sim.spawn(assassin(target), name="assassin")
    sim.run()

    step_hits = [entry[1] for entry in log if entry[1] != "interrupt"]
    assert step_hits == list(range(len(steps))), "each step exactly once"
    times = [entry[0] for entry in log]
    assert times == sorted(times)
    assert target.ok and target.value in (0, 1)
