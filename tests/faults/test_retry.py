"""RetryPolicy and the event-driven retry loop."""

import random

import pytest

from repro.core import Event, SimulationError, Simulator
from repro.faults import RetryPolicy, call_with_retries


# -- RetryPolicy ----------------------------------------------------------



def _policy(**overrides):
    """A policy with every field stated; ``overrides`` replace some."""
    fields = dict(max_attempts=3, timeout_ps=50_000_000,
                  backoff_base_ps=1_000_000, backoff_multiplier=2.0,
                  jitter=0.2)
    fields.update(overrides)
    return RetryPolicy(**fields)

def test_backoff_grows_exponentially_without_jitter():
    policy = _policy(backoff_base_ps=1000, jitter=0.0)
    rng = random.Random(0)
    assert policy.backoff_ps(1, rng) == 1000
    assert policy.backoff_ps(2, rng) == 2000
    assert policy.backoff_ps(3, rng) == 4000


def test_backoff_jitter_stays_within_band():
    policy = _policy(backoff_base_ps=10_000, backoff_multiplier=1.0,
                     jitter=0.25)
    rng = random.Random(7)
    for _ in range(100):
        b = policy.backoff_ps(1, rng)
        assert 7_500 <= b <= 12_500


def test_policy_validation():
    with pytest.raises(ValueError):
        _policy(max_attempts=0)
    with pytest.raises(ValueError):
        _policy(timeout_ps=0)
    with pytest.raises(ValueError):
        _policy(jitter=1.0)
    with pytest.raises(ValueError):
        _policy(backoff_multiplier=0.5)
    with pytest.raises(ValueError):
        _policy().backoff_ps(0, random.Random(0))


# -- call_with_retries (event-driven) -------------------------------------


def _run_call(sim, make_attempt, policy):
    results = []

    def proc():
        out = yield from call_with_retries(
            sim, make_attempt, policy, random.Random(1), site="t"
        )
        results.append(out)

    sim.spawn(proc())
    sim.run()
    return results[0]


def test_first_attempt_success_has_no_retries():
    sim = Simulator()

    def attempt():
        yield sim.timeout(5)
        return "value"

    out = _run_call(sim, attempt, _policy())
    assert out.ok and out.value == "value"
    assert out.attempts == 1 and out.retries == 0
    assert out.latency_ps == 5


def test_timed_out_attempts_are_retried_and_cleaned_up():
    sim = Simulator()
    launches = []

    def attempt():
        launches.append(sim.now)
        if len(launches) < 3:
            yield Event(sim)  # hangs; only the timeout saves us
        else:
            yield sim.timeout(5)
        return "finally"

    policy = _policy(max_attempts=4, timeout_ps=100, backoff_base_ps=10,
                     jitter=0.0)
    out = _run_call(sim, attempt, policy)
    assert out.ok and out.value == "finally"
    assert out.attempts == 3 and out.retries == 2
    assert len(launches) == 3
    # run() finishing proves the killed attempts were defused
    # (an unjoined interrupt-kill would have raised at exit).


def test_exhausted_attempts_give_up():
    sim = Simulator()

    def attempt():
        yield Event(sim)  # never completes

    policy = _policy(max_attempts=2, timeout_ps=100, backoff_base_ps=10,
                     jitter=0.0)
    out = _run_call(sim, attempt, policy)
    assert not out.ok and out.value is None
    assert out.attempts == 2 and out.retries == 1


def test_failed_attempts_are_retried_on_simulation_errors():
    sim = Simulator()
    launches = []

    def attempt():
        launches.append(sim.now)
        yield sim.timeout(5)
        raise SimulationError("node down")

    policy = _policy(max_attempts=3, timeout_ps=100, backoff_base_ps=10,
                     jitter=0.0)
    out = _run_call(sim, attempt, policy)
    assert not out.ok
    assert out.attempts == 3 and out.retries == 2
    # Each failure is seen at once (t+5), then backs off 10 and 20.
    assert launches == [0, 15, 40]


def test_non_retryable_exceptions_propagate():
    sim = Simulator()

    def attempt():
        yield sim.timeout(1)
        raise KeyError("not a fault")

    def proc():
        yield from call_with_retries(
            sim, attempt, _policy(), random.Random(0)
        )

    sim.spawn(proc())
    with pytest.raises(KeyError):
        sim.run()
