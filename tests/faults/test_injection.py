"""FaultyLink behavior under a forced plan."""

from repro.core import Simulator, WaitTimeout, with_timeout
from repro.faults import FaultPlan, FaultyLink
from repro.network.link import ethernet_100g


def test_clean_plan_behaves_like_a_plain_link():
    sim = Simulator()
    link = FaultyLink(sim, ethernet_100g(), FaultPlan(seed=0), name="l")
    values = []

    def proc():
        values.append((yield link.transfer(4096)))

    sim.spawn(proc())
    sim.run()
    assert values == [4096]
    assert link.drops == 0 and link.spikes == 0


def test_silent_drop_never_delivers():
    sim = Simulator()
    plan = FaultPlan(seed=0, drop_rate=1.0)
    link = FaultyLink(sim, ethernet_100g(), plan, name="l")
    outcomes = []

    def proc():
        try:
            yield with_timeout(sim, link.transfer(4096), 10_000_000)
            outcomes.append("delivered")
        except WaitTimeout:
            outcomes.append("timed out")

    sim.spawn(proc())
    sim.run()
    assert outcomes == ["timed out"]
    assert link.drops == 1
    # The wire was still occupied: the bytes left the sender.
    assert link.busy_ps > 0


def test_latency_spike_delays_delivery():
    sim = Simulator()
    spike = (7_000_000, 7_000_000)
    plan = FaultPlan(seed=0, spike_rate=1.0, spike_ps=spike)
    link = FaultyLink(sim, ethernet_100g(), plan, name="l")
    arrivals = []

    def proc():
        yield link.transfer(4096)
        arrivals.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert arrivals == [link.model.transfer_ps(4096) + 7_000_000]
    assert link.spikes == 1

