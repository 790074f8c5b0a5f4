"""The serving layer under injected faults (repro.serve x repro.faults).

A seeded :class:`FaultPlan` degrades the service — batch drops fail
their requests, latency spikes stretch service times — and the
serving loop must degrade *gracefully*: every request accounted, the
run terminates (idle replicas block on the dispatch stream and the run
ends when the event heap drains), goodput stays strictly positive, and
the whole degraded run replays byte-identically from the same plan.

Fault sites are per replica, so a plan's outcome depends on which
replica serves each batch: batches go to replicas in the order they
became idle, and a scale-down retires idle replicas at once.  A
recording plan pins both.

Also pins a stream-timeout race of the core engine: a put landing at
exactly the tick a ``with_timeout``-bounded get expires must resolve
deterministically by FIFO order, without losing the item either way.
"""

import dataclasses

import pytest

from repro.core.sim import Simulator, WaitTimeout, with_timeout
from repro.core.stream import Stream
from repro.faults import FaultPlan
from repro.serve import (
    AdmissionPolicy,
    BatchPolicy,
    OpenLoopConfig,
    ServiceConfig,
    SyntheticBackend,
    capacity_qps,
    simulate_service,
)
from repro.serve.service import _OnlineService
from repro.serve.traffic import Request


def _setup(load=1.4, n_requests=2_000, burst=3.0):
    backend = SyntheticBackend()
    config = ServiceConfig(
        batch=BatchPolicy(max_batch=backend.max_batch,
                          max_wait_ps=2_000_000),
        admission=AdmissionPolicy(max_queue=8 * backend.max_batch),
        replicas=2,
    )
    traffic = OpenLoopConfig(
        offered_qps=load * capacity_qps(backend, 2),
        n_requests=n_requests,
        slo_ps=20_000_000,
        burst_factor=burst,
    )
    return backend, traffic, config


def _plan(seed=11):
    return FaultPlan(seed=seed, drop_rate=0.05, spike_rate=0.1,
                     spike_ps=(1_000_000, 5_000_000))


class _RecordingPlan:
    """A FaultPlan stand-in that injects nothing and records the site
    (``serve.<backend>.r<rid>``) of every batch served."""

    def __init__(self):
        self.sites = []

    def spike_delay_ps(self, site):
        self.sites.append(site)
        return 0

    def drop(self, site):
        return False


def test_faulted_overload_degrades_gracefully():
    backend, traffic, config = _setup()
    report = simulate_service(backend, traffic, config, seed=7,
                              plan=_plan())
    assert report.completed + report.shed + report.failed == report.offered
    assert report.failed > 0, "5% batch drops must fail some requests"
    assert report.shed > 0, "overload still sheds"
    assert report.goodput_qps > 0, "degraded, never dead"
    assert report.in_slo > 0


def test_faulted_run_replays_byte_identically():
    backend, traffic, config = _setup()
    plan = _plan()
    first = simulate_service(backend, traffic, config, seed=7, plan=plan)
    again = simulate_service(backend, traffic, config, seed=7,
                             plan=plan.replay())
    assert first == again


def test_spikes_inflate_tail_latency_against_clean_baseline():
    backend, traffic, config = _setup(load=0.6, burst=1.0)
    clean = simulate_service(backend, traffic, config, seed=3)
    spiky = simulate_service(
        backend, traffic, config, seed=3,
        plan=FaultPlan(seed=5, spike_rate=0.3,
                       spike_ps=(5_000_000, 10_000_000)),
    )
    assert spiky.failed == 0, "spikes alone never fail requests"
    assert spiky.p99_us > 2 * clean.p99_us
    # Spikes shrink effective capacity, so the admission controller may
    # shed what the clean run absorbed — but nothing may leak.
    assert spiky.completed + spiky.shed == spiky.offered
    assert clean.shed == 0


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("drop_rate", [0.2, 0.6])
def test_heavy_drops_terminate_with_full_accounting(seed, drop_rate):
    backend, traffic, config = _setup(n_requests=600)
    plan = FaultPlan(seed=seed, drop_rate=drop_rate, spike_rate=0.2,
                     spike_ps=(1_000_000, 8_000_000))
    report = simulate_service(backend, traffic, config, seed=seed,
                              plan=plan)
    assert report.completed + report.shed + report.failed == report.offered
    assert report.failed > 0
    assert report.goodput_qps > 0, \
        "even at 60% drops some batches land in SLO"


def test_e24_fault_variant_keeps_the_service_alive():
    """The registered e24 cell wiring, degraded by a seeded plan."""
    from repro.exec.experiments.serving import build_backend

    backend = build_backend("microrec")
    batch_ps = backend.batch_service_ps(backend.max_batch)
    config = ServiceConfig(
        batch=BatchPolicy(max_batch=backend.max_batch,
                          max_wait_ps=max(1, batch_ps // 2)),
        admission=AdmissionPolicy(max_queue=4 * backend.max_batch),
        replicas=2,
    )
    traffic = OpenLoopConfig(
        offered_qps=1.2 * capacity_qps(backend, 2),
        n_requests=800,
        slo_ps=12 * batch_ps,
        burst_factor=2.0,
    )
    report = simulate_service(backend, traffic, config, seed=24,
                              plan=FaultPlan(seed=24, drop_rate=0.1,
                                             spike_rate=0.1,
                                             spike_ps=(batch_ps,
                                                       4 * batch_ps)))
    assert report.completed + report.shed + report.failed == report.offered
    assert report.failed > 0 and report.goodput_qps > 0


def test_get_timeout_racing_same_tick_put_is_fifo_deterministic():
    """A put at exactly the tick a bounded get expires.

    Whichever event was scheduled first at that tick wins — and in
    neither order may the item be lost or the run deadlock.
    """
    outcomes = {}
    for order in ("put_first", "timeout_first"):
        sim = Simulator()
        stream = Stream(sim, depth=1)
        log = []

        def getter():
            try:
                value = yield with_timeout(sim, stream.get(), 10)
                log.append(("got", value))
            except WaitTimeout:
                log.append(("timeout",))

        def putter():
            yield sim.timeout(10)
            yield stream.put("x")
            log.append(("put_done",))

        if order == "put_first":
            sim.spawn(putter(), name="p")
            sim.spawn(getter(), name="g")
        else:
            sim.spawn(getter(), name="g")
            sim.spawn(putter(), name="p")
        sim.run()
        outcomes[order] = (tuple(log), len(stream))

    # Putter spawned first: its put is delivered to the waiting getter,
    # which resumes one same-tick hop later, through the wrapper.
    assert outcomes["put_first"] == ((("put_done",), ("got", "x")), 0)
    # Getter spawned first: its timer (armed at t=0) fires before the
    # putter's same-tick put; the item stays buffered, nothing is lost.
    assert outcomes["timeout_first"] == ((("timeout",), ("put_done",)), 1)


def test_batches_go_to_replicas_in_the_order_they_became_idle():
    """At low load every batch finds both replicas idle, so they must
    alternate; a wake cadence that re-queues idle replicas would not."""
    backend, traffic, config = _setup(load=0.01, n_requests=40, burst=1.0)
    plan = _RecordingPlan()
    simulate_service(backend, traffic, config, seed=7, plan=plan)
    served = "".join(site[-1] for site in plan.sites)
    assert served == "01" * 17 + "0"


def test_scale_down_retires_idle_replicas_at_once():
    backend, _, config = _setup()
    config = dataclasses.replace(config, replicas=3)
    sim = Simulator()
    plan = _RecordingPlan()
    service = _OnlineService(sim, backend, config, expected=8, plan=plan)
    replicas = [p for p in sim._processes if ".r" in p.name]
    alive = []

    def driver():
        yield sim.timeout(1_000_000)
        service.set_replicas(1)
        yield sim.timeout(0)
        alive.extend(p.is_alive for p in replicas)
        for rid in range(8):
            service.offer(Request(rid=rid, tenant=0, arrival_ps=sim.now,
                                  deadline_ps=sim.now + 10**9))
            yield sim.timeout(20_000_000)
        service.batcher.close()

    sim.spawn(driver(), name="driver")
    sim.run()
    # r0 went idle first, so r2 and r1 are the surplus; both are gone
    # before the first request is offered.
    assert alive == [True, False, False]
    assert plan.sites == [f"serve.{backend.name}.r0"] * 8
    report = service.report(8)
    assert report.completed == 8 and report.replicas_final == 1


def test_scale_down_keeps_replicas_already_handed_a_batch():
    """Two batches reach r0 and r1 at one instant; a scale-down in that
    same instant, before either resumes, may retire only idle r2."""
    backend, _, config = _setup()
    config = dataclasses.replace(config, replicas=3)
    sim = Simulator()
    plan = _RecordingPlan()
    n = 2 * backend.max_batch
    service = _OnlineService(sim, backend, config, expected=n, plan=plan)

    def driver():
        for rid in range(n):
            service.offer(Request(rid=rid, tenant=0, arrival_ps=0,
                                  deadline_ps=10**9))
        # Let the batcher hand off both batches, then scale down.
        yield sim.timeout(0)
        yield sim.timeout(0)
        service.set_replicas(1)
        service.batcher.close()

    sim.spawn(driver(), name="driver")
    sim.run()
    assert sorted(plan.sites) == [f"serve.{backend.name}.r{rid}"
                                  for rid in (0, 1)]
    assert service.report(n).completed == n
