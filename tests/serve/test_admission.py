"""Admission control and the replica autoscaler."""

import pytest

from repro.core.sim import Simulator
from repro.core.stream import Stream
from repro.serve import (
    AdmissionController,
    AdmissionPolicy,
    AutoscalerPolicy,
    BatchPolicy,
    DynamicBatcher,
    OpenLoopConfig,
    Request,
    ServiceConfig,
    SyntheticBackend,
    capacity_qps,
    simulate_service,
)


def _controller(policy, max_batch=4, queue_depth=0):
    sim = Simulator()
    backend = SyntheticBackend(service_ps=1_000, per_item_ps=100,
                               max_batch=max_batch)
    batcher = DynamicBatcher(
        sim, BatchPolicy(max_batch=max_batch, max_wait_ps=1_000),
        Stream(sim, depth=1_000),
    )
    for rid in range(queue_depth):
        batcher.submit(rid)
    return AdmissionController(policy, backend, batcher)


def _req(rid=0, deadline_ps=10**12, priority=False):
    return Request(rid=rid, tenant=0, arrival_ps=0,
                   deadline_ps=deadline_ps, priority=priority)


def test_queue_cap_sheds_normal_requests():
    ctl = _controller(AdmissionPolicy(max_queue=8), queue_depth=8)
    admitted, reason = ctl.admit(_req(), replicas=1)
    assert not admitted and reason == "queue"
    assert ctl.shed == {"queue": 1} and ctl.shed_total == 1
    assert ctl.admitted == 0


def test_priority_gets_headroom_then_sheds_too():
    policy = AdmissionPolicy(max_queue=8, priority_headroom=2.0)
    ctl = _controller(policy, queue_depth=8)
    admitted, _ = ctl.admit(_req(priority=True), replicas=1)
    assert admitted, "priority rides the headroom band"
    ctl = _controller(policy, queue_depth=16)
    admitted, reason = ctl.admit(_req(priority=True), replicas=1)
    assert not admitted and reason == "queue"


def test_deadline_infeasible_request_is_shed():
    # 8 batches of 4 ahead at ~1.4us each on one replica: an arrival
    # whose deadline is tighter than the backlog estimate is pointless.
    ctl = _controller(AdmissionPolicy(max_queue=100), queue_depth=32)
    admitted, reason = ctl.admit(_req(deadline_ps=2_000), replicas=1)
    assert not admitted and reason == "deadline"
    # The same request with a generous deadline is admitted...
    admitted, _ = ctl.admit(_req(deadline_ps=10**9), replicas=1)
    assert admitted
    # ...and more replicas shrink the estimate enough to admit.
    ctl2 = _controller(AdmissionPolicy(max_queue=100), queue_depth=32)
    admitted, _ = ctl2.admit(_req(deadline_ps=16_000), replicas=16)
    assert admitted


def test_deadline_check_can_be_disabled():
    ctl = _controller(
        AdmissionPolicy(max_queue=100, deadline_aware=False),
        queue_depth=32,
    )
    admitted, _ = ctl.admit(_req(deadline_ps=1), replicas=1)
    assert admitted


def test_priority_skips_the_deadline_check():
    ctl = _controller(AdmissionPolicy(max_queue=100), queue_depth=32)
    admitted, _ = ctl.admit(_req(deadline_ps=1, priority=True), replicas=1)
    assert admitted


@pytest.mark.parametrize("bad", [
    dict(max_queue=0),
    dict(max_queue=1, priority_headroom=0.5),
])
def test_admission_policy_validation(bad):
    with pytest.raises(ValueError):
        AdmissionPolicy(**bad)


@pytest.mark.parametrize("bad", [
    dict(min_replicas=0, max_replicas=2, interval_ps=10),
    dict(min_replicas=2, max_replicas=1, interval_ps=10),
    dict(min_replicas=1, max_replicas=2, interval_ps=0),
    dict(min_replicas=1, max_replicas=2, interval_ps=10,
         scale_up_depth=1.0, scale_down_depth=2.0),
])
def test_autoscaler_policy_validation(bad):
    with pytest.raises(ValueError):
        AutoscalerPolicy(**bad)


def test_autoscaler_scales_up_under_overload_and_back_down():
    backend = SyntheticBackend(service_ps=4_000_000, per_item_ps=200_000,
                               max_batch=8, name="slow")
    config = ServiceConfig(
        batch=BatchPolicy(max_batch=8, max_wait_ps=2_000_000),
        admission=AdmissionPolicy(max_queue=512, deadline_aware=False),
        replicas=1,
        autoscaler=AutoscalerPolicy(min_replicas=1, max_replicas=4,
                                    interval_ps=5_000_000,
                                    scale_up_depth=4.0),
    )
    traffic = OpenLoopConfig(
        offered_qps=capacity_qps(backend, replicas=1) * 2.5,
        n_requests=1_500, slo_ps=200_000_000, burst_factor=1.0,
    )
    report = simulate_service(backend, traffic, config, seed=7)
    replicas_seen = [r for _, _, r in report.autoscale_decisions]
    assert max(replicas_seen) > 1, "overload must trigger scale-up"
    assert max(replicas_seen) <= 4, "never exceeds max_replicas"
    assert report.replicas_final < max(replicas_seen), \
        "drained queue must scale back down"
    assert report.completed + report.shed + report.failed == report.offered
