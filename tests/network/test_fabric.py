"""Unit tests for the switched fabric."""

import pytest

from repro.network.fabric import SwitchedFabric
from repro.network.protocol import fpga_rdma


def _fabric(n=4):
    return SwitchedFabric(fpga_rdma(), n_nodes=n)


def test_message_adds_switch_latency():
    fab = _fabric()
    direct = fab.protocol.message_ps(1024)
    assert fab.message_ps(0, 1, 1024) == direct + fab.switch_latency_ps


def test_self_message_free():
    assert _fabric().message_ps(2, 2, 1 << 20) == 0


def test_node_range_checked():
    fab = _fabric(2)
    with pytest.raises(IndexError):
        fab.message_ps(0, 5, 10)
    with pytest.raises(IndexError):
        fab.message_ps(-1, 0, 10)


def test_parallel_disjoint_transfers_do_not_add():
    fab = _fabric(8)
    n = 1 << 20
    one = fab.parallel_step_ps([(0, 1, n)])
    four = fab.parallel_step_ps([(0, 1, n), (2, 3, n), (4, 5, n), (6, 7, n)])
    assert four == one


def test_shared_port_serialises():
    fab = _fabric(4)
    n = 1 << 20
    one = fab.parallel_step_ps([(0, 1, n)])
    fan_out = fab.parallel_step_ps([(0, 1, n), (0, 2, n)])
    assert fan_out > one
    # Incast at a destination also serialises.
    fan_in = fab.parallel_step_ps([(1, 0, n), (2, 0, n)])
    assert fan_in > one


def test_empty_and_self_steps_are_free():
    fab = _fabric()
    assert fab.parallel_step_ps([]) == 0
    assert fab.parallel_step_ps([(1, 1, 1 << 20)]) == 0


def test_invalid_fabric():
    with pytest.raises(ValueError):
        SwitchedFabric(fpga_rdma(), n_nodes=0)
    with pytest.raises(ValueError):
        SwitchedFabric(fpga_rdma(), n_nodes=2, switch_latency_ps=-1)

