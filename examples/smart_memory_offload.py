#!/usr/bin/env python3
"""Use Case I — Farview: offloading operators to disaggregated memory.

A database engine keeps a 100 M-row table in a network-attached smart
memory node.  This example runs the same filter+aggregate query two
ways — offloaded to the node's FPGA datapath vs fetched raw and
processed on the local CPU — across a selectivity sweep, and prints the
latency/bytes-moved comparison (the Figure-2 argument of the tutorial).

Run:  python examples/smart_memory_offload.py
"""

from repro.bench import ResultTable
from repro.farview import FarviewClient, FarviewServer
from repro.relational import (
    AggFunc,
    AggSpec,
    Aggregate,
    Filter,
    Project,
    QueryPlan,
    Table,
    col,
)
from repro.workloads import uniform_table

N_ROWS = 2_000_000
KEY_MAX = 1_000_000


def main() -> None:
    server = FarviewServer()
    table = Table(uniform_table(N_ROWS, n_payload_cols=4, key_max=KEY_MAX,
                                seed=11))
    server.store("lineitems", table)
    client = FarviewClient(server)

    report = ResultTable(
        "Offload vs fetch-all: SELECT sum(val0) WHERE key < t",
        ("selectivity", "offload ms", "fetch ms", "speedup",
         "offload bytes", "fetch bytes"),
    )
    for selectivity in (0.001, 0.01, 0.1, 0.5, 1.0):
        plan = QueryPlan((
            Filter(col("key") < int(selectivity * KEY_MAX)),
            Aggregate((AggSpec(AggFunc.SUM, "val0"),)),
        ))
        off = client.query_offload(plan, "lineitems")
        fetch = client.query_fetch(plan, "lineitems")
        assert off.result.equals(fetch.result), "engines disagree!"
        report.add(
            selectivity,
            off.latency_s * 1e3,
            fetch.latency_s * 1e3,
            fetch.latency_s / off.latency_s,
            off.bytes_over_network,
            fetch.bytes_over_network,
        )
    report.note(
        "offload returns one aggregate row regardless of selectivity; "
        "fetch must move the touched columns either way"
    )
    report.show()

    # A projection query: the offload's result volume now *grows* with
    # selectivity, so its advantage shrinks toward the crossover where
    # nearly every row comes back anyway.
    crossover = ResultTable(
        "Offload advantage vs selectivity: SELECT key, val0 WHERE key < t",
        ("selectivity", "offload ms", "fetch ms", "speedup",
         "bytes ratio (fetch/offload)"),
    )
    for selectivity in (0.01, 0.1, 0.25, 0.5, 0.75, 1.0):
        plan = QueryPlan((
            Filter(col("key") < int(selectivity * KEY_MAX)),
            Project(("key", "val0")),
        ))
        off = client.query_offload(plan, "lineitems")
        fetch = client.query_fetch(plan, "lineitems")
        crossover.add(
            selectivity,
            off.latency_s * 1e3,
            fetch.latency_s * 1e3,
            fetch.latency_s / off.latency_s,
            fetch.bytes_over_network / off.bytes_over_network,
        )
    crossover.note("at selectivity 1.0 the offload ships ~the whole table too")
    crossover.show()


if __name__ == "__main__":
    main()
