"""Unit tests for the metrics registry (repro.obs.metrics)."""

import pytest

from repro.obs.metrics import MetricsRegistry


def test_counter_semantics():
    reg = MetricsRegistry()
    c = reg.counter("requests")
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_semantics():
    reg = MetricsRegistry()
    g = reg.gauge("occupancy")
    g.set(3.0)
    g.add(-1.0)
    assert g.value == 2.0


def test_get_or_create_same_instrument():
    reg = MetricsRegistry()
    a = reg.counter("puts", stream="s1")
    b = reg.counter("puts", stream="s1")
    assert a is b
    other = reg.counter("puts", stream="s2")
    assert other is not a
    assert len(reg) == 2


def test_label_canonicalisation_is_order_insensitive():
    reg = MetricsRegistry()
    a = reg.counter("x", kernel="k", port="in")
    b = reg.counter("x", port="in", kernel="k")
    assert a is b
    assert "x{kernel=k,port=in}" in reg


def test_type_mismatch_rejected():
    reg = MetricsRegistry()
    reg.counter("v")
    with pytest.raises(TypeError):
        reg.gauge("v")


def test_snapshot_shape():
    reg = MetricsRegistry()
    reg.counter("puts", stream="a").inc(3)
    reg.gauge("depth").set(1.5)
    assert reg.snapshot() == {"depth": 1.5, "puts{stream=a}": 3}


def test_reset_zeroes_but_keeps_instruments():
    reg = MetricsRegistry()
    c = reg.counter("n")
    c.inc(7)
    g = reg.gauge("g")
    g.set(0.5)
    reg.reset()
    assert c.value == 0
    assert g.value == 0.0
    assert reg.counter("n") is c  # still registered
    reg.clear()
    assert len(reg) == 0


def test_unlabelled_key_is_bare_name():
    reg = MetricsRegistry()
    reg.counter("bare").inc()
    assert reg.get("bare").value == 1
    assert reg.get("missing") is None
