"""Tests for the smart-NIC vs software KV servers."""

import numpy as np
import pytest

from repro.exec.experiments.storage import _E17_VALUE_BYTES, _e17_ops
from repro.kvstore.hashtable import HashTable
from repro.kvstore.server import SmartNicKvServer, SoftwareKvServer


def _ops(n=1000, seed=0):
    rng = np.random.default_rng(seed)
    ops = []
    for i in range(n):
        key = int(rng.integers(0, 500))
        if i % 3 == 0:
            ops.append(("put", key, int(rng.integers(0, 1000))))
        else:
            ops.append(("get", key, 0))
    return ops


def test_both_servers_compute_identical_results():
    ops = _ops()
    nic = SmartNicKvServer(HashTable(1024, 8))
    sw = SoftwareKvServer(HashTable(1024, 8))
    assert nic.serve(ops).values == sw.serve(ops).values


def test_smartnic_throughput_and_latency_beat_software():
    """The KV-Direct claim: NIC-side serving is ~10x a software server
    in throughput and several-fold in latency."""
    ops = _ops(5000)
    nic_out = SmartNicKvServer(HashTable(4096, 8)).serve(ops)
    sw_out = SoftwareKvServer(HashTable(4096, 8)).serve(ops)
    assert nic_out.ops_per_sec > 5 * sw_out.ops_per_sec
    assert nic_out.op_latency_s < sw_out.op_latency_s


def test_smartnic_latency_microsecond_scale():
    out = SmartNicKvServer(HashTable(1024, 8)).serve(_ops(100))
    assert 1e-6 < out.op_latency_s < 20e-6


def test_more_memory_channels_help_memory_bound_batches():
    ops = _ops(20_000, seed=2)
    narrow = SmartNicKvServer(HashTable(1 << 15, 8), n_memory_channels=1)
    wide = SmartNicKvServer(HashTable(1 << 15, 8), n_memory_channels=8)
    t_narrow = narrow.serve(ops).batch_time_s
    t_wide = wide.serve(ops).batch_time_s
    assert t_wide <= t_narrow


def test_empty_batch():
    out = SmartNicKvServer(HashTable(64, 4)).serve([])
    assert out.values == []
    assert out.batch_time_s == 0.0
    out_sw = SoftwareKvServer(HashTable(64, 4)).serve([])
    assert out_sw.ops_per_sec == 0.0


def test_delete_through_server():
    nic = SmartNicKvServer(HashTable(64, 4))
    out = nic.serve([("put", 1, 10), ("delete", 1, 0), ("get", 1, 0)])
    assert out.values == [10, 1, None]


def test_unknown_op_rejected():
    nic = SmartNicKvServer(HashTable(64, 4))
    with pytest.raises(ValueError):
        nic.serve([("scan", 0, 0)])


def test_validation():
    with pytest.raises(ValueError):
        SmartNicKvServer(HashTable(64, 4), n_memory_channels=0)
    with pytest.raises(ValueError):
        SmartNicKvServer(HashTable(64, 4), value_bytes=0)
    with pytest.raises(ValueError):
        SoftwareKvServer(HashTable(64, 4), value_bytes=0)


@pytest.mark.parametrize("value_bytes", _E17_VALUE_BYTES)
@pytest.mark.parametrize("server_cls", [SmartNicKvServer, SoftwareKvServer])
def test_price_equals_serve_timing(server_cls, value_bytes):
    ops = _e17_ops(5_000)
    server = server_cls(HashTable(1 << 15, 8), value_bytes=value_bytes)
    out = server.serve(ops)
    price = server.price(len(ops), server.table.bucket_probes)
    assert price.batch_time_s == out.batch_time_s
    assert price.ops_per_sec == out.ops_per_sec
    assert price.op_latency_s == out.op_latency_s


# serve(_e17_ops(5_000)) on a fresh HashTable(1 << 15, 8), which makes
# 5,000 bucket probes: (batch_time_s, ops_per_sec, op_latency_s).
_PINNED_E17_TIMINGS = {
    (SmartNicKvServer, 16): (5.640166e-05, 88649873.07111174, 3.23362e-06),
    (SmartNicKvServer, 64): (5.686666e-05, 87924980.99941161, 3.23746e-06),
    (SmartNicKvServer, 256): (0.00013366666, 37406485.656183824, 3.28782e-06),
    (SmartNicKvServer, 1024): (
        0.00044086666, 11341297.615927681, 3.50926e-06),
    (SoftwareKvServer, 16): (
        0.00234375, 2133333.3333333335, 3.1796960000000005e-05),
    (SoftwareKvServer, 64): (0.00234375, 2133333.3333333335, 3.18008e-05),
    (SoftwareKvServer, 256): (
        0.00234375, 2133333.3333333335, 3.1816160000000006e-05),
    (SoftwareKvServer, 1024): (0.00234375, 2133333.3333333335, 3.18776e-05),
}


@pytest.mark.parametrize("server_cls, value_bytes", list(_PINNED_E17_TIMINGS))
def test_price_of_the_e17_mix_is_pinned(server_cls, value_bytes):
    price = server_cls(
        HashTable(1 << 15, 8), value_bytes=value_bytes
    ).price(5_000, 5_000)
    assert (price.batch_time_s, price.ops_per_sec, price.op_latency_s) \
        == _PINNED_E17_TIMINGS[server_cls, value_bytes]

