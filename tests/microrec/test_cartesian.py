"""Unit and property tests for Cartesian-product table combining."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.microrec.cartesian import CartesianPlan, plan_cartesian
from repro.microrec.embedding import EmbeddingTables
from repro.workloads.traces import RecModelSpec, lookup_trace


def _spec(rows=(4, 8, 100, 1000), dim=4):
    return RecModelSpec(table_rows=rows, embedding_dim=dim)


def test_identity_plan_when_budget_too_small():
    spec = _spec()
    plan = plan_cartesian(spec, byte_budget=0)
    assert plan.n_lookups == spec.n_tables
    assert plan.lookups_saved == 0
    assert plan.total_bytes == spec.total_embedding_bytes
    assert plan.capacity_overhead == pytest.approx(1.0)


def test_generous_budget_combines_small_tables():
    spec = _spec()
    plan = plan_cartesian(spec, byte_budget=10 * spec.total_embedding_bytes)
    assert plan.n_lookups < spec.n_tables
    # The two smallest tables fuse first (possibly with further tables).
    fused = next(g for g in plan.groups if 0 in g)
    assert 1 in fused
    assert plan.capacity_overhead > 1.0


def test_max_group_rows_caps_fusion():
    spec = _spec(rows=(1000, 1000, 1000))
    plan = plan_cartesian(spec, byte_budget=1 << 40, max_group_rows=1_000)
    assert plan.n_lookups == 3  # any fusion would exceed 1000 rows


def test_groups_partition_tables():
    spec = _spec()
    plan = plan_cartesian(spec, byte_budget=4 * spec.total_embedding_bytes)
    flat = sorted(t for g in plan.groups for t in g)
    assert flat == list(range(spec.n_tables))
    with pytest.raises(ValueError):
        CartesianPlan(spec=spec, groups=((0, 1), (1, 2, 3)))
    with pytest.raises(ValueError):
        CartesianPlan(spec=spec, groups=((0, 1), (2,)))


def test_combined_spec_row_counts_multiply():
    spec = _spec(rows=(4, 8, 100))
    plan = CartesianPlan(spec=spec, groups=((0, 1), (2,)))
    combined = plan.combined_spec()
    assert combined.table_rows == (32, 100)
    assert plan.combined_dims() == (8, 4)
    assert plan.combined_row_bytes() == (32, 16)
    assert plan.total_bytes == 32 * 32 + 100 * 16


def test_rewrite_trace_mixed_radix():
    spec = _spec(rows=(4, 8, 100))
    plan = CartesianPlan(spec=spec, groups=((0, 1), (2,)))
    trace = np.array([[3, 7, 42], [0, 0, 0]])
    combined = plan.rewrite_trace(trace)
    assert combined.shape == (2, 2)
    assert combined[0, 0] == 3 * 8 + 7
    assert combined[0, 1] == 42
    assert combined[1, 0] == 0
    with pytest.raises(ValueError):
        plan.rewrite_trace(np.zeros((2, 2), dtype=np.int64))


def _lookup_via_combined_tables(plan, tables, trace):
    """Gather from the materialised combined tables by combined id, then
    put each member's columns back in original table order."""
    combined_tables = plan.materialize(tables)
    combined_trace = plan.rewrite_trace(trace)
    dim = plan.spec.embedding_dim
    out = np.empty((len(trace), plan.spec.n_tables * dim), dtype=np.float32)
    for g, group in enumerate(plan.groups):
        rows = combined_tables[g][combined_trace[:, g]]
        for pos, t in enumerate(group):
            out[:, t * dim:(t + 1) * dim] = rows[:, pos * dim:(pos + 1) * dim]
    return out


def test_combined_lookup_equals_uncombined():
    """The defining correctness property of the Cartesian rewrite."""
    spec = _spec(rows=(4, 6, 50, 200))
    tables = EmbeddingTables(spec, seed=3)
    plan = plan_cartesian(spec, byte_budget=10 * spec.total_embedding_bytes)
    assert plan.lookups_saved >= 1
    trace = lookup_trace(spec, batch_size=32, seed=4)
    per_table = np.concatenate(
        [tables.rows(t, trace[:, t]) for t in range(spec.n_tables)], axis=1
    )
    assert np.array_equal(tables.lookup(trace), per_table)
    assert np.array_equal(plan.lookup(tables, trace), per_table)
    assert np.array_equal(
        _lookup_via_combined_tables(plan, tables, trace), per_table
    )


def test_decode_inverts_rewrite_in_member_order():
    spec = _spec(rows=(3, 5, 7, 11))
    plan = CartesianPlan(spec=spec, groups=((0, 2, 3), (1,)))
    trace = lookup_trace(spec, batch_size=64, seed=9)
    combined = plan.rewrite_trace(trace)
    assert np.array_equal(plan.decode_trace(combined), trace)
    # (i, j, k) of the 3 x 7 x 11 group is ((i * 7) + j) * 11 + k.
    assert np.array_equal(plan.decode_trace([[2 * 77 + 3 * 11 + 4, 1]]),
                          [[2, 1, 3, 4]])


def test_out_of_range_member_ids_raise_instead_of_aliasing():
    """Row 8 of an 8-row table encodes to combined id 8, which is the
    valid combined row (1, 0); negative ids alias the same way.  Both
    must raise like the uncombined lookup does."""
    spec = _spec(rows=(4, 8))
    tables = EmbeddingTables(spec, seed=2)
    plan = CartesianPlan(spec=spec, groups=((0, 1),))
    for bad in ([[0, 8]], [[1, -1]], [[-1, 3]], [[4, 0]]):
        trace = np.array(bad)
        with pytest.raises(IndexError):
            tables.lookup(trace)
        with pytest.raises(IndexError):
            plan.rewrite_trace(trace)
        with pytest.raises(IndexError):
            plan.lookup(tables, trace)


def test_lookup_rejects_tables_of_another_spec():
    spec = _spec(rows=(4, 8))
    plan = CartesianPlan(spec=spec, groups=((0, 1),))
    other = EmbeddingTables(_spec(rows=(4, 9)), seed=0)
    with pytest.raises(ValueError):
        plan.lookup(other, np.zeros((1, 2), dtype=np.int64))


def test_materialize_row_contents():
    spec = _spec(rows=(2, 3))
    tables = EmbeddingTables(spec, seed=5)
    plan = CartesianPlan(spec=spec, groups=((0, 1),))
    combined = plan.materialize(tables)[0]
    assert combined.shape == (6, 8)
    # Row (i*3 + j) is [table0[i], table1[j]].
    for i in range(2):
        for j in range(3):
            row = combined[i * 3 + j]
            assert np.array_equal(row[:4], tables.rows(0, [i])[0])
            assert np.array_equal(row[4:], tables.rows(1, [j])[0])


def test_negative_budget_rejected():
    with pytest.raises(ValueError):
        plan_cartesian(_spec(), byte_budget=-1)


@settings(max_examples=25, deadline=None)
@given(
    rows=st.lists(st.integers(min_value=1, max_value=60), min_size=1,
                  max_size=6),
    budget_factor=st.floats(min_value=0.0, max_value=20.0),
)
def test_property_plan_valid_and_lookup_exact(rows, budget_factor):
    spec = RecModelSpec(table_rows=tuple(rows), embedding_dim=2)
    budget = int(budget_factor * spec.total_embedding_bytes)
    plan = plan_cartesian(spec, byte_budget=budget)
    # Partition invariant.
    flat = sorted(t for g in plan.groups for t in g)
    assert flat == list(range(spec.n_tables))
    # Budget respected unless nothing was combined.
    if plan.lookups_saved > 0:
        assert plan.total_bytes <= max(budget, spec.total_embedding_bytes)
    # Functional equivalence on a small trace.
    tables = EmbeddingTables(spec, seed=0)
    trace = lookup_trace(spec, batch_size=5, seed=1)
    assert np.array_equal(plan.lookup(tables, trace), tables.lookup(trace))
    assert np.array_equal(
        _lookup_via_combined_tables(plan, tables, trace), tables.lookup(trace)
    )
