"""Tests for the cost-based offload planner."""

import pytest

from repro.farview.client import FarviewClient
from repro.farview.planner import OffloadPlanner
from repro.farview.server import FarviewServer
from repro.relational import (
    AggFunc,
    AggSpec,
    Aggregate,
    Filter,
    Project,
    QueryPlan,
    Table,
    col,
    execute,
)
from repro.workloads import uniform_table

_KEY_MAX = 1_000_000


def _planner(n_rows=500_000):
    server = FarviewServer()
    table = Table(uniform_table(n_rows, n_payload_cols=4, key_max=_KEY_MAX))
    server.store("t", table)
    return OffloadPlanner(FarviewClient(server)), table


def _agg_plan(selectivity):
    return QueryPlan((
        Filter(col("key") < int(selectivity * _KEY_MAX)),
        Aggregate((AggSpec(AggFunc.SUM, "val0"),)),
    ))


def test_selectivity_estimate_close_to_truth():
    planner, table = _planner()
    for s in (0.05, 0.5, 0.95):
        plan = _agg_plan(s)
        estimate = planner.estimate_selectivity(plan, "t")
        assert estimate == pytest.approx(s, abs=0.08)


def test_planner_chooses_offload_for_selective_aggregate():
    planner, table = _planner()
    plan = _agg_plan(0.01)
    out = planner.query(plan, "t")
    assert out.chose == "offload"
    assert out.predicted_offload_s < out.predicted_fetch_s
    assert out.outcome.result.equals(execute(plan, table))


def test_planner_result_always_correct():
    """Whatever the decision, the answer is the engine's answer."""
    planner, table = _planner(100_000)
    for s in (0.01, 0.5, 1.0):
        plan = QueryPlan((
            Filter(col("key") < int(s * _KEY_MAX)),
            Project(("key", "val0")),
        ))
        out = planner.query(plan, "t")
        assert out.outcome.result.equals(execute(plan, table))
        assert out.chose in ("offload", "fetch")


def test_predictions_track_measured_ordering():
    """Away from the crossover, the cheaper prediction matches the
    cheaper measured mode."""
    planner, _ = _planner()
    client = planner.client
    plan = _agg_plan(0.01)
    out = planner.query(plan, "t")
    measured_off = client.query_offload(plan, "t").latency_s
    measured_fetch = client.query_fetch(plan, "t").latency_s
    predicted_winner = (
        "offload" if out.predicted_offload_s < out.predicted_fetch_s
        else "fetch"
    )
    measured_winner = (
        "offload" if measured_off < measured_fetch else "fetch"
    )
    assert predicted_winner == measured_winner


def test_prediction_magnitudes_reasonable():
    """Predictions land within ~3x of measured latencies."""
    planner, _ = _planner()
    plan = _agg_plan(0.1)
    out = planner.query(plan, "t")
    measured_off = planner.client.query_offload(plan, "t").latency_s
    measured_fetch = planner.client.query_fetch(plan, "t").latency_s
    assert out.predicted_offload_s == pytest.approx(measured_off, rel=2.0)
    assert out.predicted_fetch_s == pytest.approx(measured_fetch, rel=2.0)


def test_planning_twice_gives_equal_estimates():
    """The estimate is a function of the plan and table, not of how many
    plans the planner has priced before."""
    planner, _ = _planner()
    plan = _agg_plan(0.5)
    first = planner.query(plan, "t")
    second = planner.query(plan, "t")
    assert first.estimated_selectivity == second.estimated_selectivity
    assert first.predicted_offload_s == second.predicted_offload_s
    assert first.predicted_fetch_s == second.predicted_fetch_s


def test_extra_filter_never_lowers_the_fetch_cpu_ops(monkeypatch):
    """The combined selectivity shrinks the rows once, after the last
    filter: a second filter adds its own work and removes none."""
    planner, _ = _planner()
    priced = []
    monkeypatch.setattr(
        type(planner.client.cpu), "compute_time_s",
        lambda self, ops, element_bytes: priced.append(ops) or 0.0,
    )
    half = Filter(col("key") < _KEY_MAX // 2)
    total = Aggregate((AggSpec(AggFunc.SUM, "val0"),))
    planner.predict_fetch_s(QueryPlan((half, total)), "t", 0.5)
    planner.predict_fetch_s(QueryPlan((half, half, total)), "t", 0.5)
    # One comparison per row per filter, five ops per aggregated row.
    assert priced == [500_000 + 5 * 250_000,
                      2 * 500_000 + 5 * 250_000]
