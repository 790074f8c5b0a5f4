"""Discrete-event simulation kernel.

This module implements a small, dependency-free discrete-event engine in
the style of SimPy: *processes* are Python generators that ``yield``
:class:`Event` objects and are resumed when those events fire.  The
engine keeps simulated time in abstract *time units*; higher layers
interpret one unit as one nanosecond (see :mod:`repro.core.clocking`).

The engine is deliberately minimal but complete enough to model memory
ports, network links, contending clients and serving replicas (pipeline
chains are timed without it, by :mod:`repro.core.pipeline`):

* :class:`Simulator` — the event loop (a binary heap of scheduled
  events).
* :class:`Event` — a one-shot occurrence that processes can wait on.
* :class:`Timeout` — an event that fires after a fixed delay.
* :class:`Process` — a running generator; it is itself an event that
  fires when the generator returns, so processes can join each other.
* :func:`all_of` / :func:`any_of` — composite waits.

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def worker(sim, name, delay):
...     yield sim.timeout(delay)
...     log.append((sim.now, name))
>>> _ = sim.spawn(worker(sim, "a", 5))
>>> _ = sim.spawn(worker(sim, "b", 3))
>>> sim.run()
>>> log
[(3, 'b'), (5, 'a')]
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Generator, Iterable
from typing import Any

from ..obs.trace import get_default_tracer

__all__ = [
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
    "WaitTimeout",
    "all_of",
    "any_of",
    "with_timeout",
]


class SimulationError(RuntimeError):
    """Raised for illegal uses of the simulation API."""


class WaitTimeout(SimulationError):
    """Raised into a process when a :func:`with_timeout` wait expires.

    ``timeout_ps`` is the budget that ran out.  The abandoned wait is
    already unlinked/cancelled where possible.
    """

    def __init__(self, timeout_ps: int) -> None:
        super().__init__(f"wait timed out after {timeout_ps} ps")
        self.timeout_ps = timeout_ps


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    The ``cause`` attribute carries an arbitrary payload supplied by the
    interrupting party.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence processes can wait on.

    An event starts *pending*; calling :meth:`succeed` (or
    :meth:`fail`) schedules it to fire, waking every process that
    yielded it.  Events can only be triggered once.

    A pending (or scheduled-but-not-yet-fired) event can be
    :meth:`cancel`-led: it will never fire, its callbacks are dropped,
    and any registered :meth:`on_cancel` hooks run so the event's owner
    (e.g. a :class:`~repro.core.stream.Stream` holding a blocked
    getter) can unlink the abandoned waiter from its own state.
    """

    __slots__ = (
        "sim", "_value", "_ok", "_triggered", "_fired", "_cancelled",
        "_cancel_hooks", "callbacks",
    )

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._value: Any = None
        self._ok = True
        self._triggered = False
        self._fired = False
        self._cancelled = False
        self._cancel_hooks: list[Any] = []
        self.callbacks: list[Any] = []

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._triggered

    @property
    def value(self) -> Any:
        """The event payload (valid after the event fired)."""
        return self._value

    @property
    def ok(self) -> bool:
        """False if the event carries an exception."""
        return self._ok

    def succeed(self, value: Any = None, delay: int = 0) -> "Event":
        """Schedule the event to fire with ``value`` after ``delay``."""
        if self._cancelled:
            raise SimulationError("cannot trigger a cancelled event")
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        self._ok = True
        self.sim._schedule(self, delay)
        return self

    def fail(self, exc: BaseException, delay: int = 0) -> "Event":
        """Schedule the event to fire carrying an exception."""
        if self._cancelled:
            raise SimulationError("cannot trigger a cancelled event")
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._value = exc
        self._ok = False
        self.sim._schedule(self, delay)
        return self

    def on_cancel(self, hook: Any) -> None:
        """Register ``hook(event)`` to run if this event is cancelled.

        Owners of waiter events (streams, ports) use this to unlink an
        abandoned waiter from their internal queues; events carrying a
        hook advertise that they are safe to abandon.
        """
        self._cancel_hooks.append(hook)

    def cancel(self) -> bool:
        """Abandon the event: it will never fire and wakes nobody.

        Pending events simply never trigger; already-scheduled (but not
        yet fired) events — e.g. a no-longer-needed :class:`Timeout` —
        are lazily dropped from the event heap without advancing the
        clock.  Returns False (a no-op) once the event has fired or was
        already cancelled.
        """
        if self._fired or self._cancelled:
            return False
        self._cancelled = True
        self.callbacks.clear()
        hooks, self._cancel_hooks = self._cancel_hooks, []
        for hook in hooks:
            hook(self)
        tracer = self.sim._tracer
        if tracer is not None:
            tracer.sim_event_cancelled(self)
        return True


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: int, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self._triggered = True
        self._value = value
        sim._schedule(self, delay)


class Process(Event):
    """A running generator-based process.

    A process is itself an :class:`Event` that fires when the generator
    returns; its value is the generator's return value.  Yielding a
    process from another process therefore *joins* it.
    """

    __slots__ = ("generator", "name", "_waiting_on", "_generation", "_defused",
                 "_unobserved", "_bootstrap")

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Event, Any, Any],
        name: str | None = None,
    ) -> None:
        if not isinstance(generator, Generator):
            raise SimulationError(
                f"Process requires a generator, got {type(generator).__name__}"
            )
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Event | None = None
        # Resumption token: every armed resumption (callback or queued
        # immediate) belongs to one generation; interrupt() bumps the
        # generation so a stale queued resume cannot step the generator
        # a second time after the Interrupt throw.
        self._generation = 0
        self._defused = False
        self._unobserved = False
        # Kick the process off at the current simulation time.  The
        # bootstrap registers as the awaited event so the staleness
        # guard in _resume recognises it as a live resumption.
        bootstrap = Event(sim)
        bootstrap.callbacks.append(self._resume)
        self._waiting_on = bootstrap
        self._bootstrap = bootstrap
        bootstrap.succeed()

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self._triggered

    def defuse(self) -> None:
        """Mark this process's failure as handled.

        A failed process nobody joined makes :meth:`Simulator.run`
        raise at exit; a supervisor that deliberately kills workers
        (e.g. a retry loop abandoning a timed-out attempt) defuses them
        to declare the failure expected.
        """
        self._defused = True

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        waited = self._waiting_on
        if waited is not None and self._resume in waited.callbacks:
            waited.callbacks.remove(self._resume)
            if (not waited.callbacks and not waited._triggered
                    and waited._cancel_hooks):
                # Sole waiter on an abandonable event (a stream getter /
                # putter): cancel it so the owner unlinks the orphan and
                # no item is handed to a dead consumer.
                waited.cancel()
        self._waiting_on = None
        self._generation += 1
        token = self._generation
        wake = Event(self.sim)
        wake.callbacks.append(
            lambda ev: self._deliver_interrupt(Interrupt(cause), token)
        )
        wake.succeed()

    # -- internal ---------------------------------------------------------

    def _deliver_interrupt(self, exc: Interrupt, token: int) -> None:
        if token != self._generation or not self.is_alive:
            # Superseded by a later interrupt, or the process finished
            # before delivery.
            return
        self._step(exc, throw=True)

    def _resume(self, event: Event) -> None:
        if self._waiting_on is not event:
            # Stale wake: the wait was abandoned (interrupt) after this
            # event's callbacks were already snapshotted for firing.
            return
        self._waiting_on = None
        if event.ok:
            self._step(event.value, throw=False)
        else:
            self._step(event.value, throw=True)

    def _step(self, value: Any, throw: bool) -> None:
        tracer = self.sim._tracer
        if tracer is not None:
            tracer.process_resumed(self.name, self.sim._now)
        try:
            if throw:
                target = self.generator.throw(value)
            else:
                target = self.generator.send(value)
        except StopIteration as stop:
            if tracer is not None:
                tracer.process_finished(self.name, self.sim._now, ok=True)
            self.succeed(stop.value)
            return
        except Interrupt:
            # Process chose not to handle the interrupt: treat as failure.
            if tracer is not None:
                tracer.process_finished(self.name, self.sim._now, ok=False)
            self.fail(SimulationError(f"process {self.name!r} killed by interrupt"))
            return
        except SimulationError as exc:
            # A modelled failure (dropped transfer, dead node, ...) the
            # process chose not to handle fails the process, so joiners —
            # retry loops above all — see it thrown at their yield.  Any
            # other exception is a programming error and still propagates
            # synchronously out of run().
            if tracer is not None:
                tracer.process_finished(self.name, self.sim._now, ok=False)
            self.fail(exc)
            return
        if not isinstance(target, Event):
            self.fail(
                SimulationError(
                    f"process {self.name!r} yielded {type(target).__name__}, "
                    "expected an Event"
                )
            )
            return
        if target._fired:
            # Already fired: resume immediately at the current time.
            if isinstance(target, Process):
                self.sim._defuse(target)
            self._generation += 1
            token = self._generation
            immediate = Event(self.sim)
            immediate.callbacks.append(
                lambda ev, tgt=target, tok=token: self._resume_from_fired(tgt, tok)
            )
            immediate.succeed()
            self._waiting_on = None
        else:
            self._generation += 1
            target.callbacks.append(self._resume)
            self._waiting_on = target

    def _resume_from_fired(self, target: Event, token: int) -> None:
        if token != self._generation or not self.is_alive:
            # An interrupt invalidated this queued resumption; without
            # the token the process would be stepped twice.
            return
        if target.ok:
            self._step(target.value, throw=False)
        else:
            self._step(target.value, throw=True)


class _Condition(Event):
    """Base for :func:`all_of` / :func:`any_of` composite events."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self.events = list(events)
        for ev in self.events:
            if not isinstance(ev, Event):
                raise SimulationError("condition members must be Events")
        self._pending = len(self.events)
        if not self.events:
            self.succeed([])
            return
        for ev in self.events:
            if ev._fired:
                if isinstance(ev, Process):
                    sim._defuse(ev)
                self._on_member(ev)
            else:
                ev.callbacks.append(self._on_member)

    def _on_member(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class _AllOf(_Condition):
    __slots__ = ()

    def _on_member(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event.value if isinstance(event.value, BaseException)
                      else SimulationError("condition member failed"))
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([ev.value for ev in self.events])


class _AnyOf(_Condition):
    __slots__ = ()

    def _on_member(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event.value if isinstance(event.value, BaseException)
                      else SimulationError("condition member failed"))
            return
        self.succeed(event)


def all_of(sim: "Simulator", events: Iterable[Event]) -> Event:
    """An event that fires once every event in ``events`` has fired.

    Its value is the list of member values, in member order.
    """
    return _AllOf(sim, events)


def any_of(sim: "Simulator", events: Iterable[Event]) -> Event:
    """An event that fires as soon as any member fires (value: that event)."""
    return _AnyOf(sim, events)


def with_timeout(sim: "Simulator", event: Event, timeout_ps: int) -> Event:
    """Wait on ``event`` for at most ``timeout_ps``.

    Returns an event that mirrors ``event`` (same value / exception) if
    it fires within the budget, and fails with :class:`WaitTimeout`
    otherwise; an outcome already due at the expiry tick (an item a
    same-tick ``put`` handed to a blocked getter) beats the timer, so
    it is never lost.  Wrapping an already-fired process joins it.
    On expiry the wait is *abandoned cleanly*: the
    wrapper's callback is unlinked from ``event`` and, if that leaves
    an abandonable waiter (one carrying :meth:`Event.on_cancel` hooks,
    e.g. a blocked stream getter) with no other listeners, the waiter
    is cancelled so its owner can unlink it — FIFO state stays intact.
    The guard timer is likewise cancelled when ``event`` wins, so an
    unused long timeout never extends the simulated run.
    """
    if not isinstance(event, Event):
        raise SimulationError(
            f"with_timeout requires an Event, got {type(event).__name__}"
        )
    timeout_ps = int(timeout_ps)
    if timeout_ps < 0:
        raise SimulationError(f"negative timeout: {timeout_ps}")
    wrapper = Event(sim)
    if event._fired:
        sim._defuse(event)
        if event.ok:
            wrapper.succeed(event.value)
        else:
            wrapper.fail(event.value)
        return wrapper
    timer = Timeout(sim, timeout_ps)

    def _won(ev: Event) -> None:
        if wrapper._triggered:
            return
        timer.cancel()
        if ev.ok:
            wrapper.succeed(ev.value)
        else:
            wrapper.fail(ev.value)

    def _expired(_timer: Event) -> None:
        if wrapper._triggered or (event._triggered and any(
            ev is event for when, _, ev in sim._heap if when == sim._now
        )):
            # ``event`` fires later this tick with an outcome it already
            # holds (a popped stream item): ``_won`` delivers it.
            return
        if _won in event.callbacks:
            event.callbacks.remove(_won)
        if (not event.callbacks and not event._triggered
                and event._cancel_hooks):
            event.cancel()
        wrapper.fail(WaitTimeout(timeout_ps))

    event.callbacks.append(_won)
    timer.callbacks.append(_expired)
    return wrapper


class Simulator:
    """The discrete-event loop.

    Time is a non-negative integer in abstract units (interpreted as
    nanoseconds by the hardware layers).  Events scheduled at the same
    time fire in scheduling order (FIFO), which keeps runs deterministic.

    ``tracer`` hooks the engine (and every instrumented component built
    on it) into the observability layer (:mod:`repro.obs`); the default
    ``None`` — unless a process-wide default tracer is installed — runs
    the exact untraced code path.  Tracer hooks only record; they never
    schedule events, so a traced run's event order, ``now`` trajectory
    and process results are identical to an untraced one.
    """

    def __init__(self, tracer: Any = None) -> None:
        self._now = 0
        self._heap: list[tuple[int, int, Event]] = []
        self._counter = itertools.count()
        self._processes: list[Process] = []
        # The latest time ``skip_to`` may move the clock to: ``run``'s
        # ``until`` (infinity without one) while ``run`` fires events,
        # None everywhere else.
        self._skip_horizon: float | None = None
        self._tracer = tracer if tracer is not None else get_default_tracer()
        if self._tracer is not None:
            self._tracer.bind_clock(lambda: self._now)

    @property
    def now(self) -> int:
        """Current simulated time."""
        return self._now

    # -- event factories --------------------------------------------------

    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, int(delay), value)

    def spawn(
        self,
        generator: Generator[Event, Any, Any],
        name: str | None = None,
    ) -> Process:
        """Start a new process running ``generator``."""
        proc = Process(self, generator, name=name)
        self._processes.append(proc)
        return proc

    # -- scheduling --------------------------------------------------------

    def _schedule(self, event: Event, delay: int = 0) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        when = self._now + int(delay)
        heapq.heappush(self._heap, (when, next(self._counter), event))
        if self._tracer is not None:
            self._tracer.sim_event_scheduled(event, when)

    def _prune_cancelled(self) -> None:
        # Cancelled events are dropped lazily from the heap top so an
        # abandoned guard timer never advances the clock.
        heap = self._heap
        while heap and heap[0][2]._cancelled:
            heapq.heappop(heap)

    @staticmethod
    def _defuse(event: Event) -> None:
        """Joining a fired process counts as observing its failure."""
        if isinstance(event, Process):
            event._defused = True

    def peek(self) -> int | None:
        """Time of the next scheduled event, or None if the heap is empty."""
        self._prune_cancelled()
        return self._heap[0][0] if self._heap else None

    def skip_to(self, when: int) -> bool:
        """Move the clock to ``when`` if nothing else is due by then.

        A process that would ``yield self.timeout(when - now)`` may call
        this instead: it returns True, with ``now == when``, only when
        no live event is due at or before ``when``, so the timeout would
        have been the heap minimum, without a tie, and would have fired
        next.  Carrying on at ``when`` without yielding is then the same
        run minus one event: everything scheduled afterwards keeps its
        relative counter order.  On False nothing but cancelled heap
        entries has changed and the caller yields the timeout.

        Only ``run`` grants it (never ``step`` or ``run_until_process``),
        never past ``run``'s ``until``, and only to a process whose
        resumption is the sole callback of the event firing now (a
        process waiting on its own timeout), so no later callback of
        that event sees the moved clock.
        """
        horizon = self._skip_horizon
        if horizon is None or when > horizon:
            return False
        if when < self._now:
            raise SimulationError(
                f"cannot skip into the past (when={when}, now={self._now})"
            )
        heap = self._heap
        while heap and heap[0][2]._cancelled:
            heapq.heappop(heap)
        if heap and heap[0][0] <= when:
            return False
        self._now = when
        return True

    def step(self) -> None:
        """Fire the single next event."""
        self._prune_cancelled()
        if not self._heap:
            raise SimulationError("no scheduled events")
        when, _, event = heapq.heappop(self._heap)
        self._fire(event, when)

    def _fire(self, event: Event, when: int) -> None:
        """Advance the clock to ``when`` and fire ``event``.

        The one place an event fires: ``run``, ``step`` and (through
        ``step``) ``run_until_process`` all come here.
        """
        self._now = when
        event._fired = True
        if self._tracer is not None:
            self._tracer.sim_event_fired(event, when)
        callbacks, event.callbacks = event.callbacks, []
        for callback in callbacks:
            callback(event)
        if not event._ok and not callbacks:
            if not isinstance(event, Process):
                # A failure nobody waited for must not pass silently.
                raise event.value
            if not event._defused:
                # A failed process nobody joined: remember it so run()
                # can surface the failure instead of swallowing it.
                event._unobserved = True

    def _raise_unjoined_failures(self) -> None:
        pending = [
            p for p in self._processes if p._unobserved and not p._defused
        ]
        if not pending:
            return
        for proc in pending:
            proc._unobserved = False
            if self._tracer is not None:
                self._tracer.process_failed_unjoined(proc.name, self._now)
        raise pending[0].value

    def run(self, until: int | None = None) -> None:
        """Run until the event heap drains or ``until`` is reached.

        When ``until`` is given, the clock is advanced to exactly
        ``until`` even if the last event fires earlier.

        A process that *failed* (was killed by an interrupt, or yielded
        a non-event) and was never joined re-raises its exception here
        once the heap drains — silently lost workers would otherwise
        let fault-injection tests pass vacuously.  Supervisors that
        kill workers on purpose call :meth:`Process.defuse` first.
        """
        if until is not None and until < self._now:
            raise SimulationError(f"until={until} is in the past (now={self._now})")
        heap = self._heap
        self._skip_horizon = until if until is not None else math.inf
        try:
            while heap:
                when, _, event = heap[0]
                if event._cancelled:
                    heapq.heappop(heap)
                elif until is not None and when > until:
                    break
                else:
                    heapq.heappop(heap)
                    self._fire(event, when)
        finally:
            self._skip_horizon = None
        if until is not None:
            self._now = max(self._now, until)
        if not self._heap:
            # Only at true end-of-run: with events still pending a
            # joiner may yet observe the failure.
            self._raise_unjoined_failures()

    def run_until_process(self, proc: Process, limit: int | None = None) -> Any:
        """Run until ``proc`` finishes; return its value.

        ``limit`` bounds simulated time to guard against deadlocks; a
        :class:`SimulationError` is raised if the process is still alive
        when the heap drains or the limit is hit.
        """
        while not proc._fired:
            upcoming = self.peek()
            if upcoming is None:
                break
            if limit is not None and upcoming > limit:
                raise SimulationError(
                    f"process {proc.name!r} did not finish before t={limit}"
                )
            self.step()
        if not proc._fired:
            raise SimulationError(
                f"deadlock: process {proc.name!r} still waiting at t={self._now}"
            )
        if not proc.ok:
            proc._defused = True
            raise proc.value
        return proc.value
