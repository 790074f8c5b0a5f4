"""Unit tests for the base memory model and simulator port."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sim import Simulator
from repro.memory.model import AccessPattern, MemoryModel, MemoryPort

_PS_PER_S = 1_000_000_000_000


def _model(**overrides):
    params = dict(
        name="test",
        capacity_bytes=1 << 30,
        latency_ps=100_000,
        bandwidth_bytes_per_sec=10e9,
        min_burst_bytes=64,
        random_efficiency=0.5,
    )
    params.update(overrides)
    return MemoryModel(**params)


def test_stream_time_latency_plus_bandwidth():
    m = _model()
    t = m.stream_time_ps(10_000_000_000)  # 10 GB at 10 GB/s = 1 s
    assert t == pytest.approx(m.latency_ps + _PS_PER_S, rel=1e-9)


def test_zero_bytes_cost_nothing():
    m = _model()
    assert m.stream_time_ps(0) == 0
    assert m.random_access_time_ps(0) == 0
    assert m.batch_random_time_ps(0, 64) == 0
    assert m.batch_random_time_ps(4, 0) == 0


def test_burst_rounding_charges_full_granule():
    m = _model(min_burst_bytes=64, latency_ps=0)
    assert m.stream_time_ps(1) == m.stream_time_ps(64)
    assert m.stream_time_ps(65) == m.stream_time_ps(128)


def test_random_access_degraded_by_efficiency():
    m = _model(latency_ps=0, random_efficiency=0.5)
    assert m.random_access_time_ps(640) == 2 * m.stream_time_ps(640)


def test_batch_random_pays_latency_once():
    m = _model()
    single = m.random_access_time_ps(64)
    batch = m.batch_random_time_ps(100, 64)
    # 100 dependent accesses would cost 100 latencies; pipelined batch
    # pays one.
    assert batch < 100 * single
    assert batch == m.latency_ps + 100 * (single - m.latency_ps)


def test_access_time_dispatch():
    m = _model()
    assert m.access_time_ps(4096, AccessPattern.SEQUENTIAL) == m.stream_time_ps(4096)
    assert m.access_time_ps(4096, AccessPattern.RANDOM) == m.random_access_time_ps(
        4096
    )


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        _model(bandwidth_bytes_per_sec=0)
    with pytest.raises(ValueError):
        _model(random_efficiency=0.0)
    with pytest.raises(ValueError):
        _model(random_efficiency=1.5)
    with pytest.raises(ValueError):
        _model(min_burst_bytes=0)
    with pytest.raises(ValueError):
        _model(latency_ps=-1)


def test_port_serialises_requests():
    sim = Simulator()
    m = _model()
    port = MemoryPort(sim, m)
    done = []

    def client(sim, port, tag):
        ev = port.request(64_000, AccessPattern.SEQUENTIAL)
        yield ev
        done.append((tag, sim.now))

    sim.spawn(client(sim, port, "a"))
    sim.spawn(client(sim, port, "b"))
    sim.run()
    t_single = m.stream_time_ps(64_000)
    assert done[0] == ("a", t_single)
    assert done[1] == ("b", 2 * t_single)
    assert port.bytes_moved == 128_000
    assert port.requests == 2


def test_port_idle_gap_not_charged():
    sim = Simulator()
    port = MemoryPort(sim, _model())

    def client(sim, port):
        yield sim.timeout(1_000_000)
        ev = port.request(64, AccessPattern.RANDOM)
        yield ev
        return sim.now

    p = sim.spawn(client(sim, port))
    sim.run()
    assert p.value == 1_000_000 + port.model.random_access_time_ps(64)


@settings(max_examples=50, deadline=None)
@given(
    nbytes=st.integers(min_value=1, max_value=1 << 24),
    burst=st.integers(min_value=1, max_value=4096),
)
def test_property_stream_time_monotone_in_bytes(nbytes, burst):
    m = _model(min_burst_bytes=burst)
    assert m.stream_time_ps(nbytes) <= m.stream_time_ps(nbytes + burst)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(min_value=1, max_value=1000))
def test_property_batch_random_monotone_in_count(n):
    m = _model()
    assert m.batch_random_time_ps(n, 64) < m.batch_random_time_ps(n + 1, 64)
