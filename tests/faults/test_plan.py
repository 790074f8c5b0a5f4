"""FaultPlan determinism, site independence, and outage windows."""

import pytest

from repro.faults import FaultPlan, NodeOutage


def _schedule(plan, site, n=300):
    return [
        (plan.drop(site), plan.spike_delay_ps(site)) for _ in range(n)
    ]


def test_same_seed_same_schedule():
    a = FaultPlan(seed=9, drop_rate=0.1, spike_rate=0.05)
    b = FaultPlan(seed=9, drop_rate=0.1, spike_rate=0.05)
    assert _schedule(a, "link0") == _schedule(b, "link0")


def test_replay_restores_virgin_streams():
    """The draw streams live in the plan: a consumed plan has moved on,
    and a fresh plan of the same configuration replays from the start."""
    plan = FaultPlan(seed=9, drop_rate=0.1, spike_rate=0.05)
    first = _schedule(plan, "link0")
    assert _schedule(plan, "link0") != first or not any(
        hit for hit, _ in first
    ), "a consumed stream must have advanced"
    again = _schedule(FaultPlan(seed=9, drop_rate=0.1, spike_rate=0.05),
                      "link0")
    assert again == first


def test_sites_are_independent_of_consult_order():
    """Drawing from site A must not perturb site B's schedule."""
    solo = FaultPlan(seed=4, drop_rate=0.2)
    expected = _schedule(solo, "b")

    interleaved = FaultPlan(seed=4, drop_rate=0.2)
    for _ in range(500):
        interleaved.drop("a")  # burn draws on another site first
    assert _schedule(interleaved, "b") == expected


def test_different_seeds_diverge():
    a = _schedule(FaultPlan(seed=1, drop_rate=0.3), "x")
    b = _schedule(FaultPlan(seed=2, drop_rate=0.3), "x")
    assert a != b


def test_zero_rates_never_fire():
    plan = FaultPlan(seed=0)
    assert not any(plan.drop("x") for _ in range(100))
    assert all(plan.spike_delay_ps("x") == 0 for _ in range(100))
    assert plan.injected == {}


def test_injected_counts_accumulate():
    plan = FaultPlan(seed=3, drop_rate=1.0)
    for _ in range(5):
        plan.drop("x")
    assert plan.injected == {"drop": 5}


def test_outage_windows():
    plan = FaultPlan(outages=(
        NodeOutage(node=2, down_at_ps=100, up_at_ps=200),
        NodeOutage(node=5, down_at_ps=150),  # never recovers
    ), seed=0)
    assert not plan.node_down(2, 99)
    assert plan.node_down(2, 100)
    assert plan.node_down(2, 199)
    assert not plan.node_down(2, 200)
    assert plan.node_down(5, 10_000_000)


def test_invalid_parameters_are_rejected():
    with pytest.raises(ValueError):
        FaultPlan(drop_rate=1.5, seed=0)
    with pytest.raises(ValueError):
        FaultPlan(spike_rate=-0.1, seed=0)
    with pytest.raises(ValueError):
        FaultPlan(spike_ps=(10, 5), seed=0)
    with pytest.raises(ValueError):
        NodeOutage(node=0, down_at_ps=-1)
    with pytest.raises(ValueError):
        NodeOutage(node=0, down_at_ps=10, up_at_ps=10)
