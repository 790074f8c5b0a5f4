"""Backend batch-cost surfaces: protocol, bounds, amortisation shapes."""

import pytest

from repro.serve import (
    Backend,
    FannsBackend,
    MicroRecBackend,
    SyntheticBackend,
    capacity_qps,
)

_PS_PER_S = 1_000_000_000_000


def test_synthetic_cost_arithmetic_and_protocol():
    be = SyntheticBackend(service_ps=1_000, per_item_ps=10, max_batch=4)
    assert isinstance(be, Backend)
    assert be.batch_service_ps(1) == 1_010
    assert be.batch_service_ps(4) == 1_040
    with pytest.raises(ValueError):
        be.batch_service_ps(0)
    with pytest.raises(ValueError):
        be.batch_service_ps(5)


def test_capacity_qps_definition():
    be = SyntheticBackend(service_ps=0, per_item_ps=1_000_000, max_batch=8)
    # 1 us per item at full batches -> 1M items/s per replica.
    assert capacity_qps(be, replicas=1) == pytest.approx(1e6)
    assert capacity_qps(be, replicas=3) == pytest.approx(3e6)
    with pytest.raises(ValueError):
        capacity_qps(be, replicas=0)


def test_batching_amortises_per_request_cost():
    be = SyntheticBackend(service_ps=1_000_000, per_item_ps=1_000,
                          max_batch=16)
    solo = be.batch_service_ps(1)
    full = be.batch_service_ps(be.max_batch) / be.max_batch
    assert full < solo / 10


@pytest.fixture(scope="module")
def fanns_backend():
    from repro.fanns import build_ivfpq
    from repro.workloads import clustered_dataset

    data = clustered_dataset(n=2_000, dim=16, n_queries=4, gt_k=4,
                             n_clusters=16, cluster_std=0.3, seed=5)
    index = build_ivfpq(data.base, nlist=16, m=16, ksub=16, seed=5)
    return FannsBackend(index.shape, nprobe=4, max_batch=8, list_scale=100)


def test_fanns_batch_cost_is_latency_plus_initiation(fanns_backend):
    be = fanns_backend
    one = be.batch_service_ps(1)
    two = be.batch_service_ps(2)
    ii = two - one
    assert ii > 0
    # Pipeline model: every extra query adds exactly one initiation
    # interval (the bottleneck stage), which is below the end-to-end
    # pipeline latency (the sum of all stages).
    assert be.batch_service_ps(8) == one + 7 * ii
    assert ii < one


def test_microrec_batch_cost_is_monotonic_and_sublinear():
    from repro.workloads import production_like_model

    model = production_like_model(n_tables=8, max_rows=10_000, seed=2)
    be = MicroRecBackend(model, max_batch=16)
    costs = [be.batch_service_ps(b) for b in (1, 2, 4, 8, 16)]
    assert costs == sorted(costs)
    assert costs[-1] < 16 * costs[0], "batching must amortise"


def test_microrec_batch_cost_follows_infer():
    """The spec-priced backend charges exactly what ``infer`` models
    for a batch gathered from real tables."""
    from repro.microrec import EmbeddingTables, MicroRecAccelerator
    from repro.workloads import lookup_trace, production_like_model

    model = production_like_model(n_tables=8, max_rows=10_000, seed=2)
    be = MicroRecBackend(model, max_batch=16)
    accel = MicroRecAccelerator(model)
    tables = EmbeddingTables(model, seed=2)
    for b in range(1, be.max_batch + 1):
        trace = lookup_trace(model, batch_size=b, seed=b, skew=0.8)
        out = accel.infer(tables, trace)
        assert be.batch_service_ps(b) == max(
            1, int(out.batch_time_s * _PS_PER_S)
        )


def test_microrec_backend_builds_no_embedding_tables():
    """The full-scale serving backend prices from the model spec; its
    484 MiB of embedding tables are never drawn."""
    import tracemalloc

    from repro.exec.experiments.serving import build_backend

    tracemalloc.start()
    try:
        backend = build_backend("microrec")
        backend.batch_service_ps(backend.max_batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 1024 * 1024


def test_farview_batch_cost_is_near_linear():
    from repro.farview import FarviewServer
    from repro.relational import (
        AggFunc, AggSpec, Aggregate, Filter, QueryPlan, Table, col,
    )
    from repro.serve import FarviewBackend
    from repro.workloads import uniform_table

    server = FarviewServer()
    server.store("t", Table(uniform_table(10_000, n_payload_cols=1,
                                          key_max=1_000_000, seed=11)))
    plan = QueryPlan((
        Filter(col("key") < 100),
        Aggregate((AggSpec(AggFunc.SUM, "val0"),)),
    ))
    be = FarviewBackend(server, plan, "t", max_batch=8)
    one = be.batch_service_ps(1)
    eight = be.batch_service_ps(8)
    # The scan re-runs per request: near-linear scaling, bounded above
    # by 8x one request (the protocol overhead is what amortises).
    assert 6 * one < eight < 8 * one
