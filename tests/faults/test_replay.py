"""Satellite: deterministic replay of the fault experiment (e22).

The acceptance bar for the fault layer is that a seeded
:class:`~repro.faults.plan.FaultPlan` reproduces the *same* fault
schedule on replay, and that the whole e22 experiment — event-driven
Farview scans plus the resilient allreduce — renders byte-identical
tables across two runs in one process.
"""

from repro.exec import build_spec, run_spec
from repro.faults import FaultPlan, NodeOutage


def _e22_tables() -> list[str]:
    return [table.render() for table in run_spec(build_spec("e22"))]


def _plan() -> FaultPlan:
    return FaultPlan(
        seed=42, drop_rate=0.1, spike_rate=0.05,
        outages=(NodeOutage(node=1, down_at_ps=100),),
    )


def test_fault_schedule_replays_identically():
    plan = _plan()
    sites = ("link.a", "link.b", "node0.egress")
    first = [
        (site, plan.drop(site), plan.spike_delay_ps(site))
        for _ in range(200) for site in sites
    ]
    second = [
        (site, plan.drop(site), plan.spike_delay_ps(site))
        for _ in range(200) for site in sites
    ]
    assert first != second, "streams must advance within a run"
    replayed = _plan()
    again = [
        (site, replayed.drop(site), replayed.spike_delay_ps(site))
        for _ in range(200) for site in sites
    ]
    assert again == first


def test_e22_rows_are_identical_across_runs():
    assert _e22_tables() == _e22_tables()
