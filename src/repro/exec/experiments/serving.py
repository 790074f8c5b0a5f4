"""Serving experiment (repro.serve): e24 (latency/goodput vs load).

E24 drives each paper use case — FANNS ANN search, MicroRec CTR
inference, a Farview offloaded plan — as an **online service** behind
the dynamic batcher and admission controller, sweeping offered load as
a multiple of the backend's full-batch capacity.  Every backend shows
the same saturation knee: latency percentiles are flat while batching
absorbs the load, then the p99 inflects and the admission controller
starts shedding right as offered load crosses capacity.
"""

from __future__ import annotations

from ...bench import ResultTable
from .base import ExperimentSpec, register
from .contexts import FANNS_LIST_SCALE, scale_key, smoke_scale

_E24_BACKENDS = ("fanns", "microrec", "farview")
_E24_LOADS = (0.4, 0.7, 1.0, 1.4)
_E24_REPLICAS = 2
# SLO and max-wait scale with each backend's own full-batch service
# time, so "overload" means the same thing for a microsecond MicroRec
# batch and a millisecond Farview scan.
_E24_SLO_BATCHES = 12
_E24_WAIT_FRACTION = 2  # max_wait_ps = batch_ps // 2


def _farview_backend():
    from ...farview import FarviewServer
    from ...relational import (
        AggFunc,
        AggSpec,
        Aggregate,
        Filter,
        QueryPlan,
        Table,
        col,
    )
    from ...serve import FarviewBackend
    from ...workloads import uniform_table

    n_rows = 20_000 if smoke_scale() else 200_000
    server = FarviewServer()
    server.store("t", Table(uniform_table(n_rows, n_payload_cols=2)))
    plan = QueryPlan((
        Filter(col("key") < 10_000),
        Aggregate((AggSpec(AggFunc.SUM, "val0"),)),
    ))
    return FarviewBackend(server, plan, "t", max_batch=8)


def build_backend(name: str):
    """One servable backend by name (``repro serve`` uses this too)."""
    if name == "synthetic":
        from ...serve import SyntheticBackend

        return SyntheticBackend()
    if name == "fanns":
        from ...serve import FannsBackend
        from .contexts import fanns_shape

        return FannsBackend(
            fanns_shape(), nprobe=16, max_batch=16,
            list_scale=FANNS_LIST_SCALE,
        )
    if name == "microrec":
        from ...serve import MicroRecBackend
        from .contexts import microrec_model

        return MicroRecBackend(microrec_model(), max_batch=32)
    if name == "farview":
        return _farview_backend()
    raise ValueError(
        f"unknown backend {name!r} "
        "(choose from: synthetic, fanns, microrec, farview)"
    )


def e24_prepare() -> dict:
    return {name: build_backend(name) for name in _E24_BACKENDS}


def e24_cell(ctx: dict, config: dict, seed: int) -> dict:
    from ...serve import (
        AdmissionPolicy,
        BatchPolicy,
        OpenLoopConfig,
        ServiceConfig,
        capacity_qps,
        simulate_service,
    )

    backend = ctx[config["backend"]]
    load = config["load"]
    batch_ps = backend.batch_service_ps(backend.max_batch)
    service = ServiceConfig(
        batch=BatchPolicy(
            max_batch=backend.max_batch,
            max_wait_ps=max(1, batch_ps // _E24_WAIT_FRACTION),
        ),
        admission=AdmissionPolicy(max_queue=4 * backend.max_batch),
        replicas=_E24_REPLICAS,
    )
    traffic = OpenLoopConfig(
        offered_qps=load * capacity_qps(backend, _E24_REPLICAS),
        n_requests=1_000 if smoke_scale() else 3_000,
        slo_ps=_E24_SLO_BATCHES * batch_ps,
        burst_factor=2.0,
    )
    report = simulate_service(backend, traffic, service, seed=seed)
    return {"load": load, **report.row()}


def e24_assemble(rows: list[dict]) -> list[ResultTable]:
    report = ResultTable(
        "E24: online serving — latency percentiles and goodput vs "
        f"offered load ({_E24_REPLICAS} replicas, dynamic batching)",
        ("backend", "load x cap", "p50 us", "p95 us", "p99 us",
         "mean batch", "shed", "goodput QPS", "achieved QPS"),
    )
    for name in _E24_BACKENDS:
        series = sorted(
            (r for r in rows if r["backend"] == name),
            key=lambda r: r["load"],
        )
        assert len(series) == len(_E24_LOADS), name
        for row in series:
            report.add(
                row["backend"], row["load"], row["p50_us"], row["p95_us"],
                row["p99_us"], round(row["mean_batch"], 2), row["shed"],
                round(row["goodput_qps"]), round(row["achieved_qps"]),
            )
        # The saturation knee, per backend: p99 inflects upward past
        # capacity, underload sheds nothing, overload must shed, and
        # the service keeps doing useful work throughout.
        low, high = series[0], series[-1]
        assert high["p99_us"] > 1.5 * low["p99_us"], \
            f"{name}: no p99 knee ({low['p99_us']} -> {high['p99_us']})"
        assert low["shed"] == 0, f"{name}: shedding while underloaded"
        assert high["shed"] > 0, f"{name}: overload must shed"
        assert all(r["goodput_qps"] > 0 for r in series), name
        assert all(r["completed"] + r["shed"] + r["failed"] == r["offered"]
                   for r in series), f"{name}: requests leaked"
    report.note(
        "open-loop Poisson-burst arrivals; SLO = "
        f"{_E24_SLO_BATCHES}x the backend's full-batch service time"
    )
    return [report]


@register("e24")
def _e24_spec() -> ExperimentSpec:
    grid = tuple(
        {"backend": backend, "load": load}
        for backend in _E24_BACKENDS
        for load in _E24_LOADS
    )
    return ExperimentSpec(
        experiment="e24",
        title="online serving: latency/goodput vs offered load",
        grid=grid,
        seeds=(24,),
        prepare=e24_prepare,
        cell=e24_cell,
        assemble=e24_assemble,
        context_key=scale_key(),
    )
