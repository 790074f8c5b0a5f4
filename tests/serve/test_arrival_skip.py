"""Arrivals that skip the clock forward serve exactly like one timeout
per arrival.

The arrival process moves the clock itself (``Simulator.skip_to``) when
its next arrival is the next event anyway.  Patching ``skip_to`` to
refuse every call restores one timeout per arrival, which is the oracle
here: every report field, the autoscaler's decisions included, must be
the same with and without the patch.
"""

import pytest

from repro.core.sim import Simulator
from repro.faults import FaultPlan
from repro.serve import (
    AdmissionPolicy,
    AutoscalerPolicy,
    BatchPolicy,
    OpenLoopConfig,
    Request,
    ServiceConfig,
    SyntheticBackend,
    capacity_qps,
    simulate_service,
)
from repro.serve import service as service_module

_BACKEND = SyntheticBackend(max_batch=8)
_FULL_PS = _BACKEND.batch_service_ps(_BACKEND.max_batch)


def _config(max_wait_ps=2_000_000, autoscaler=None):
    return ServiceConfig(
        batch=BatchPolicy(max_batch=8, max_wait_ps=max_wait_ps),
        admission=AdmissionPolicy(max_queue=64),
        replicas=2,
        autoscaler=autoscaler,
    )


def _traffic(load, burst_factor=1.0):
    return OpenLoopConfig(
        offered_qps=load * capacity_qps(_BACKEND, 2),
        n_requests=1_500,
        slo_ps=12 * _FULL_PS,
        burst_factor=burst_factor,
    )


def _with_and_without_skips(monkeypatch, run):
    """``run()`` twice: as shipped, recording each skip's ``(when, next
    event due, granted)``, then with every skip refused."""
    calls = []
    skip_to = Simulator.skip_to

    def recording(self, when):
        due = self.peek()
        granted = skip_to(self, when)
        calls.append((when, due, granted))
        return granted

    with monkeypatch.context() as patch:
        patch.setattr(Simulator, "skip_to", recording)
        skipped = run()
    with monkeypatch.context() as patch:
        patch.setattr(Simulator, "skip_to", lambda self, when: False)
        stepped = run()
    return skipped, stepped, calls


_AUTOSCALER = AutoscalerPolicy(min_replicas=1, max_replicas=4,
                               interval_ps=2 * _FULL_PS, scale_up_depth=4.0)

_CASES = {
    f"load{load}-burst{burst}": (_traffic(load, burst), _config(), None)
    for load in (0.01, 0.7, 1.4)
    for burst in (1.0, 3.0)
} | {
    "no-wait": (_traffic(0.9), _config(max_wait_ps=0), None),
    "autoscaler": (_traffic(1.4, 3.0), _config(autoscaler=_AUTOSCALER),
                   None),
    "faults": (_traffic(1.1, 2.0), _config(autoscaler=_AUTOSCALER),
               FaultPlan(seed=3, drop_rate=0.05, spike_rate=0.05,
                         spike_ps=(_FULL_PS, 4 * _FULL_PS))),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_skipped_arrivals_report_what_one_timeout_each_reports(
        monkeypatch, case):
    traffic, config, plan = _CASES[case]

    def run():
        # A fault plan draws per site as the run consults it, so each
        # run gets a fresh one.
        fresh = None if plan is None else FaultPlan(
            seed=plan.seed, drop_rate=plan.drop_rate,
            spike_rate=plan.spike_rate, spike_ps=plan.spike_ps)
        return simulate_service(_BACKEND, traffic, config, seed=5,
                                plan=fresh)

    skipped, stepped, calls = _with_and_without_skips(monkeypatch, run)
    assert skipped == stepped
    assert skipped.autoscale_decisions == stepped.autoscale_decisions
    if config.autoscaler is not None:
        assert skipped.autoscale_decisions
    if plan is not None:
        assert skipped.failed > 0
    if traffic.offered_qps >= 0.7 * capacity_qps(_BACKEND, 2):
        assert any(granted for _, _, granted in calls)


def test_arrival_on_a_replica_completion_ps_keeps_its_place(monkeypatch):
    """Arrivals placed exactly on a batch's completion ps tie with the
    replica's timeout.  Where the completion was scheduled first the
    skip must be refused, so the older event still fires first; where
    the arrival's timeout is older it fires first.  Both match one
    timeout per arrival."""
    backend = SyntheticBackend(service_ps=1_000_000, per_item_ps=100_000,
                               max_batch=4)
    config = ServiceConfig(
        batch=BatchPolicy(max_batch=4, max_wait_ps=50_000_000),
        admission=AdmissionPolicy(max_queue=16, deadline_aware=False),
        replicas=1,
    )
    full = backend.batch_service_ps(4)
    # Four arrivals fill a batch at 4,000, which completes at ``done``;
    # two more join the next batch without waking the batcher, so the
    # arrival on ``done`` asks to skip while the completion is due then.
    done = 4_000 + full
    times = [1_000, 2_000, 3_000, 4_000, 5_000, 6_000, done, done,
             done + full, done + full + 1, done + 100 * full]
    requests = [Request(rid, 0, t, t + 1_000 * full)
                for rid, t in enumerate(times)]
    traffic = OpenLoopConfig(offered_qps=1.0, n_requests=len(requests),
                             slo_ps=1_000 * full, burst_factor=1.0)
    monkeypatch.setattr(service_module, "generate_requests",
                        lambda cfg, seed: list(requests))

    def run():
        return simulate_service(backend, traffic, config, seed=0)

    skipped, stepped, calls = _with_and_without_skips(monkeypatch, run)
    assert skipped == stepped
    assert skipped.completed == len(requests)
    assert (done, done, False) in calls
    assert any(granted for _, _, granted in calls)
