"""The serving loop end to end: knee, determinism, accounting, wiring."""

import pytest

from repro.obs import Tracer
from repro.serve import (
    AdmissionPolicy,
    BatchPolicy,
    OpenLoopConfig,
    ServiceConfig,
    SyntheticBackend,
    capacity_qps,
    simulate_service,
)


def _service(backend, **kw):
    base = dict(
        batch=BatchPolicy(max_batch=backend.max_batch,
                          max_wait_ps=2_000_000),
        admission=AdmissionPolicy(max_queue=8 * backend.max_batch),
        replicas=2,
    )
    base.update(kw)
    return ServiceConfig(**base)


def _traffic(backend, load, n_requests=2_000, **kw):
    base = dict(
        offered_qps=load * capacity_qps(backend, 2),
        n_requests=n_requests,
        slo_ps=20_000_000,
    )
    base.update(kw)
    return OpenLoopConfig(**base)


def test_accounting_conserves_every_request():
    be = SyntheticBackend()
    report = simulate_service(be, _traffic(be, 1.2), _service(be), seed=1)
    assert report.offered == 2_000
    assert report.completed + report.shed + report.failed == report.offered
    assert report.admitted + report.shed == report.offered
    assert report.failed == 0
    assert sum(report.shed_by_reason.values()) == report.shed


def test_latency_knee_and_shedding_across_load():
    be = SyntheticBackend()
    reports = [
        simulate_service(be, _traffic(be, load), _service(be), seed=7)
        for load in (0.4, 0.8, 1.5)
    ]
    p99 = [r.p99_us for r in reports]
    assert p99[2] > 1.5 * p99[0], "p99 must inflect past saturation"
    assert reports[0].shed == 0, "no shedding while underloaded"
    assert reports[2].shed > 0, "overload must shed"
    # Goodput saturates near capacity instead of collapsing.
    assert reports[2].goodput_qps > 0.8 * capacity_qps(be, 2)


def test_reports_are_deterministic_per_seed():
    be = SyntheticBackend()
    cfg = _service(be)
    traffic = _traffic(be, 1.3, burst_factor=3.0)
    a = simulate_service(be, traffic, cfg, seed=42)
    b = simulate_service(be, traffic, cfg, seed=42)
    assert a == b
    c = simulate_service(be, traffic, cfg, seed=43)
    assert a != c


def test_larger_max_wait_grows_batches():
    be = SyntheticBackend(max_batch=16)
    traffic = _traffic(be, 0.5)
    eager = simulate_service(
        be, traffic, _service(be, batch=BatchPolicy(16, 0)), seed=3
    )
    patient = simulate_service(
        be, traffic, _service(be, batch=BatchPolicy(16, 5_000_000)), seed=3
    )
    assert patient.mean_batch > eager.mean_batch
    assert patient.batches < eager.batches


def test_single_request_flushes_on_close_without_batch_wait():
    be = SyntheticBackend(service_ps=1_000_000, per_item_ps=100_000,
                          max_batch=8)
    traffic = OpenLoopConfig(offered_qps=1.0, n_requests=1,
                             slo_ps=10_000_000)
    config = _service(be, batch=BatchPolicy(max_batch=8,
                                            max_wait_ps=300_000))
    report = simulate_service(be, traffic, config, seed=0)
    # The source closes after its last arrival, which flushes the
    # pending partial batch immediately: a lone request pays exactly
    # one batch-of-1 service time, not the batching window.
    assert report.p50_us == pytest.approx(be.batch_service_ps(1) / 1e6)
    assert report.mean_batch == 1.0
    assert report.in_slo == 1


class _EventCounter(Tracer):
    """A tracer that counts engine events and keeps no trace slices."""

    def instant(self, *args, **kwargs):
        pass

    def complete(self, *args, **kwargs):
        pass


@pytest.mark.parametrize("load", [1e-5, 1e-4, 1e-3, 0.5])
def test_events_scale_with_work_not_idle_time(load):
    """Idle replicas cost no events: a sparse session fires about as
    many events per request as a busy one."""
    be = SyntheticBackend()
    tracer = _EventCounter()
    report = simulate_service(be, _traffic(be, load, n_requests=200),
                              _service(be), seed=1, tracer=tracer)
    events = tracer.registry.counter("sim.events.fired").value
    assert events / (report.offered + report.batches) <= 4


@pytest.mark.parametrize("max_batch", [8, 16])
@pytest.mark.parametrize("load", [0.5, 0.9])
def test_events_per_batch_are_constant(max_batch, load):
    """Each request costs its arrival; everything else is a constant
    number of events per batch, however many requests it holds."""
    be = SyntheticBackend(max_batch=max_batch)
    tracer = _EventCounter()
    report = simulate_service(be, _traffic(be, load), _service(be),
                              seed=1, tracer=tracer)
    events = tracer.registry.counter("sim.events.fired").value
    assert events <= report.offered + 8 * report.batches


@pytest.mark.parametrize("max_batch", [8, 16])
@pytest.mark.parametrize("load", [0.5, 0.9])
def test_events_per_batch_are_constant_with_arrivals_included(max_batch,
                                                              load):
    """Arrivals cost no events of their own: the total is bounded per
    batch, however many requests a batch holds.

    The arrival process yields a timeout only when ``skip_to`` is
    refused, that is when a live event other than its own is due no
    later than the arrival; that event fires after the timeout is
    scheduled and no later than it fires.  The process waits on one
    timeout at a time, so these windows do not overlap and each
    arrival timeout needs a distinct non-arrival event.  With at most
    8 non-arrival events per batch, a session fires at most 2 x 8 per
    batch."""
    be = SyntheticBackend(max_batch=max_batch)
    tracer = _EventCounter()
    report = simulate_service(be, _traffic(be, load), _service(be),
                              seed=1, tracer=tracer)
    events = tracer.registry.counter("sim.events.fired").value
    assert events <= 2 * 8 * report.batches


def test_service_config_validation():
    be = SyntheticBackend()
    with pytest.raises(ValueError):
        ServiceConfig(batch=BatchPolicy(4, 10),
                      admission=AdmissionPolicy(max_queue=4), replicas=0)
