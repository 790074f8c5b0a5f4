"""The README's code snippets must actually run."""

def test_quickstart_snippet():
    from repro.core import LoopNest, Pragmas, synthesize

    loop = LoopNest("vadd", trip_count=1_000_000,
                    ops={"mem_read": 2, "add": 1, "mem_write": 1})
    spec = synthesize(loop, Pragmas(pipeline=True, unroll=8))
    assert spec.throughput_items_per_sec() > 1e9


def test_plan_offload_snippet():
    from repro.farview import FarviewClient, FarviewServer
    from repro.relational import (
        AggFunc, AggSpec, Aggregate, Filter, QueryPlan, Table, col,
    )
    from repro.workloads import uniform_table

    server = FarviewServer()
    server.store("t", Table(uniform_table(100_000, n_payload_cols=4,
                                          key_max=1_000_000, seed=11)))
    client = FarviewClient(server)
    plan = QueryPlan((Filter(col("key") < 10000),
                      Aggregate((AggSpec(AggFunc.SUM, "val0"),))))
    outcome = client.query_offload(plan, "t")
    assert "node_processing_s" in outcome.breakdown
    assert outcome.result.n_rows == 1
