"""Unit tests for the CPU relational engine."""

import numpy as np
import pytest

from repro.baselines.cpu import xeon_server
from repro.relational.engine import _apply, cpu_cost_s, execute
from repro.relational.expressions import col
from repro.relational.operators import (
    AggFunc,
    AggSpec,
    Aggregate,
    Filter,
    GroupByAggregate,
    Project,
    QueryPlan,
    Transform,
)
from repro.relational.table import Table
from repro.workloads.tables import grouped_table, uniform_table


def _table(n=100):
    return Table(uniform_table(n, n_payload_cols=2, seed=3))


def test_filter_project():
    t = _table()
    plan = QueryPlan((
        Filter(col("key") < 500_000),
        Project(("val0",)),
    ))
    result = execute(plan, t)
    mask = t["key"] < 500_000
    assert result.column_names == ("val0",)
    assert np.array_equal(result["val0"], t["val0"][mask])


def test_scalar_aggregates():
    t = _table()
    plan = QueryPlan((
        Aggregate((
            AggSpec(AggFunc.SUM, "val0"),
            AggSpec(AggFunc.MIN, "val0"),
            AggSpec(AggFunc.MAX, "val0"),
            AggSpec(AggFunc.MEAN, "val0"),
            AggSpec(AggFunc.COUNT, "val0", alias="n"),
        )),
    ))
    result = execute(plan, t)
    assert result.n_rows == 1
    assert result["sum_val0"][0] == pytest.approx(t["val0"].sum())
    assert result["min_val0"][0] == pytest.approx(t["val0"].min())
    assert result["max_val0"][0] == pytest.approx(t["val0"].max())
    assert result["mean_val0"][0] == pytest.approx(t["val0"].mean())
    assert result["n"][0] == 100


def test_aggregate_empty_input_raises():
    t = _table().filter(np.zeros(100, dtype=bool))
    plan = QueryPlan((Aggregate((AggSpec(AggFunc.SUM, "val0"),)),))
    with pytest.raises(ValueError):
        execute(plan, t)


def test_group_by_aggregate_matches_numpy():
    t = Table(grouped_table(10_000, n_groups=32, seed=5))
    plan = QueryPlan((
        GroupByAggregate(
            "group",
            (
                AggSpec(AggFunc.SUM, "value"),
                AggSpec(AggFunc.COUNT, "value", alias="n"),
                AggSpec(AggFunc.MIN, "value"),
                AggSpec(AggFunc.MAX, "value"),
                AggSpec(AggFunc.MEAN, "value"),
            ),
        ),
    ))
    result = execute(plan, t)
    for i, g in enumerate(result["group"]):
        rows = t["value"][t["group"] == g]
        assert result["sum_value"][i] == pytest.approx(rows.sum())
        assert result["n"][i] == len(rows)
        assert result["min_value"][i] == pytest.approx(rows.min())
        assert result["max_value"][i] == pytest.approx(rows.max())
        assert result["mean_value"][i] == pytest.approx(rows.mean())


def test_group_key_must_be_integer():
    t = _table()
    plan = QueryPlan((
        GroupByAggregate("val0", (AggSpec(AggFunc.SUM, "val1"),)),
    ))
    with pytest.raises(TypeError):
        execute(plan, t)


def test_transform_preserves_values():
    t = _table()
    plan = QueryPlan((Transform("decrypt", ops_per_byte=2.0),))
    assert execute(plan, t).equals(t)


def test_filter_then_aggregate():
    t = _table(1000)
    plan = QueryPlan((
        Filter(col("key") < 100_000),
        Aggregate((AggSpec(AggFunc.COUNT, "key", alias="n"),)),
    ))
    result = execute(plan, t)
    assert result["n"][0] == (t["key"] < 100_000).sum()


def test_plan_rejects_operators_after_aggregation():
    with pytest.raises(ValueError):
        QueryPlan((
            Aggregate((AggSpec(AggFunc.SUM, "x"),)),
            Project(("x",)),
        ))


def test_columns_needed_prunes_scan():
    all_cols = ("key", "val0", "val1", "val2")
    plan = QueryPlan((
        Filter(col("key") < 10),
        Project(("val0",)),
    ))
    assert plan.columns_needed(all_cols) == ("key", "val0")
    bare = QueryPlan((Filter(col("key") < 10),))
    assert bare.columns_needed(all_cols) == all_cols


def test_columns_needed_keeps_an_earlier_projections_columns():
    all_cols = ("key", "val0", "val1", "val2")
    plan = QueryPlan((
        Project(("val1", "key")),
        Aggregate((AggSpec(AggFunc.SUM, "key"),)),
    ))
    assert plan.columns_needed(all_cols) == ("key", "val1")


def _unpruned_execute(plan, table):
    """``execute`` before it pruned its input: every operator sees every
    column, and a filter gathers each column with its boolean mask."""
    result = table
    for op in plan.operators:
        if isinstance(op, Filter):
            mask = np.asarray(op.predicate.evaluate(result), dtype=bool)
            result = Table({name: result[name][mask]
                            for name in result.column_names})
        else:
            result = _apply(op, result)
    return result


def _wide_table(n, seed):
    rng = np.random.default_rng(seed)
    return Table({
        "key": rng.integers(0, 1000, size=n, dtype=np.int64),
        "grp": rng.integers(0, 7, size=n, dtype=np.int64),
        "val0": rng.random(n),
        "val1": rng.random(n),
        "flag": rng.random(n) < 0.5,
        "small": rng.integers(0, 100, size=n).astype(np.int32),
    })


_PUSHDOWN_PLANS = {
    "empty": QueryPlan(),
    "filter": QueryPlan((Filter(col("key") < 400),)),
    "filter+filter": QueryPlan((
        Filter(col("key") < 700), Filter(col("val0") > 0.25),
    )),
    "filter+project": QueryPlan((
        Filter(col("key") < 400), Project(("val1", "key")),
    )),
    "filter on a dropped column": QueryPlan((
        Filter(col("val1") > 0.5), Project(("small", "grp")),
    )),
    "project+filter+project": QueryPlan((
        Project(("val0", "grp", "key")),
        Filter(col("grp") < 3),
        Project(("val0",)),
    )),
    "filter+agg": QueryPlan((
        Filter(col("key") < 400),
        Aggregate((AggSpec(AggFunc.SUM, "val0"),
                   AggSpec(AggFunc.COUNT, "key", alias="n"))),
    )),
    "project+agg": QueryPlan((
        Project(("val1", "val0")),
        Aggregate((AggSpec(AggFunc.MAX, "val1"),)),
    )),
    "groupby": QueryPlan((
        GroupByAggregate("grp", (AggSpec(AggFunc.SUM, "val1"),
                                 AggSpec(AggFunc.MIN, "small"))),
    )),
    "filter+groupby": QueryPlan((
        Filter(col("val0") > 0.5),
        GroupByAggregate("grp", (AggSpec(AggFunc.MEAN, "val1"),
                                 AggSpec(AggFunc.COUNT, "key", alias="n"))),
    )),
    "transform": QueryPlan((Transform("decrypt", ops_per_byte=2.0),)),
    "transform+filter+project": QueryPlan((
        Transform("decrypt", ops_per_byte=2.0),
        Filter(col("flag") == True),  # noqa: E712 (an expression)
        Project(("flag", "val0", "small")),
    )),
    "transform+filter+groupby": QueryPlan((
        Transform("decompress"),
        Filter(col("small") < 50),
        GroupByAggregate("key", (AggSpec(AggFunc.MAX, "val0"),)),
    )),
}


@pytest.mark.parametrize("n", [0, 1, 500])
@pytest.mark.parametrize("name", list(_PUSHDOWN_PLANS))
def test_pruned_execute_equals_unpruned_execute(name, n):
    plan = _PUSHDOWN_PLANS[name]
    table = _wide_table(n, seed=n)
    try:
        expected = _unpruned_execute(plan, table)
    except ValueError:  # an aggregate over zero rows
        with pytest.raises(ValueError):
            execute(plan, table)
        return
    got = execute(plan, table)
    assert got.column_names == expected.column_names
    assert got.equals(expected)


def test_cpu_cost_increases_with_data_and_ops():
    cpu = xeon_server()
    small, large = _table(1000), _table(100_000)
    plan = QueryPlan((Filter(col("key") < 500_000),))
    assert cpu_cost_s(plan, large, cpu) > cpu_cost_s(plan, small, cpu)
    heavy = QueryPlan((
        Transform("decompress", ops_per_byte=8.0),
        Filter(col("key") < 500_000),
    ))
    assert cpu_cost_s(heavy, large, cpu) >= cpu_cost_s(plan, large, cpu)


def test_cpu_cost_at_least_stream_time():
    cpu = xeon_server()
    t = _table(100_000)
    plan = QueryPlan((Filter(col("key") < 500_000),))
    touched_bytes = t["key"].nbytes + sum(
        t[c].nbytes for c in ("val0", "val1")
    )
    assert cpu_cost_s(plan, t, cpu) >= cpu.stream_time_s(touched_bytes) * 0.99


def test_cpu_cost_chained_filters_price_like_their_conjunction():
    """Regression: each filter counted its own survivors over the whole
    table, so a second filter revived the rows the first one dropped
    and every later operator was priced over them."""
    cpu = xeon_server()
    t = _table(100_000)
    sums = Aggregate(tuple(
        AggSpec(AggFunc.SUM, "val0", f"s{i}") for i in range(64)
    ))
    chained = QueryPlan((
        Filter(col("key") < 10), Filter(col("val0") >= 0), sums,
    ))
    conjunction = QueryPlan((
        Filter((col("key") < 10) & (col("val0") >= 0)), sums,
    ))
    # One core, so the 64 sums would outweigh the scan if they were
    # priced over the revived rows.
    assert cpu_cost_s(chained, t, cpu, parallel=False) == cpu_cost_s(
        conjunction, t, cpu, parallel=False
    )
