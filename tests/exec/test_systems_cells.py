"""Systems cells do their functional work once, on the columns it reads.

e17 runs its operations once, in prepare, and each cell prices both
servers from that run; e2 draws only the two columns its plan reads.
"""

import tracemalloc

import pytest

from repro import kvstore
from repro.exec.experiments.core import e2_cell
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
