"""Systems cells do their functional work once, on the columns it reads.

e17 runs its operations once, in prepare, and each cell prices both
servers from that run; e2 draws only the two columns its plan reads;
e20's assemble fails a named claim when a placement has no row.
"""

import tracemalloc

import pytest

from repro import kvstore
from repro.exec.experiments.core import e2_cell
from repro.exec.experiments.operators import e20_assemble
from repro.exec.experiments.storage import (
    _E17_VALUE_BYTES,
    _e17_ops,
    e17_cell,
    e17_prepare,
)
from repro.kvstore import HashTable, SmartNicKvServer, SoftwareKvServer


@pytest.fixture(scope="module")
def e17_ctx():
    return e17_prepare()


def _serve_per_cell(value_bytes):
    """The reference row: each server serves the ops on its own table."""
    ops = _e17_ops(20_000)
    nic = SmartNicKvServer(
        HashTable(1 << 15, 8), value_bytes=value_bytes, n_memory_channels=4,
    ).serve(ops)
    sw = SoftwareKvServer(
        HashTable(1 << 15, 8), value_bytes=value_bytes
    ).serve(ops)
    assert nic.values == sw.values
    return {
        "value_bytes": value_bytes,
        "nic_ops": nic.ops_per_sec,
        "sw_ops": sw.ops_per_sec,
        "gain": nic.ops_per_sec / sw.ops_per_sec,
        "nic_lat_us": nic.op_latency_s * 1e6,
        "sw_lat_us": sw.op_latency_s * 1e6,
    }


@pytest.mark.parametrize("value_bytes", _E17_VALUE_BYTES)
def test_e17_cell_prices_the_shared_run(e17_ctx, value_bytes):
    operations = e17_ctx["table"].operations
    row = e17_cell(e17_ctx, {"value_bytes": value_bytes}, 0)
    assert e17_ctx["table"].operations == operations  # no op re-run
    assert row == _serve_per_cell(value_bytes)


def test_e17_prepare_checks_the_table_against_a_dict(monkeypatch):
    run_ops = kvstore.run_ops
    monkeypatch.setattr(
        kvstore, "run_ops", lambda table, ops: run_ops(table, ops)[:-1] + [-1]
    )
    with pytest.raises(AssertionError):
        e17_prepare()


def test_e2_cell_draws_only_the_columns_it_reads():
    e2_cell(None, {}, 2)  # imports the engine and network models
    tracemalloc.start()
    try:
        e2_cell(None, {}, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # key + val0 over 4M rows take 64 MiB; the unread val1 would add 32.
    assert peak < 72 * 2**20


@pytest.mark.parametrize("placement, claim", [
    ("hbm", r"small build sides \(BRAM\)"),
    ("bram", r"huge build sides \(HBM\)"),
])
def test_e20_without_a_placement_fails_its_claim(placement, claim):
    """A model that places every build side in one memory fails the
    claim that names the other, not a lookup of the missing placement."""
    rows = [
        {"n_build": n, "placement": placement, "fpga_rate": 3e9,
         "cpu_rate": 1e9}
        for n in (100_000, 100_000_000)
    ]
    with pytest.raises(AssertionError, match=claim):
        e20_assemble(rows)
