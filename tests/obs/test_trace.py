"""Tracer tests: recording, Chrome export, and the zero-overhead guard."""

import io
import json

import pytest

from repro.core import (
    Burst,
    BurstKernel,
    KernelSpec,
    Simulator,
    Sink,
    Source,
    Stream,
)
from repro.obs import Tracer, get_default_tracer, set_default_tracer
from repro.obs.trace import TraceEvent


def _run_pipeline(sim, n_bursts=4, burst=16):
    s_in = Stream(sim, depth=2, name="in")
    s_out = Stream(sim, depth=2, name="out")
    kernel = BurstKernel(
        sim, KernelSpec("k", ii=2, depth=6, unroll=1), lambda b: b, s_in, s_out
    )
    Source(sim, s_in, [Burst(None, burst) for _ in range(n_bursts)])
    sink = Sink(sim, s_out)
    sim.run()
    return kernel, sink


def test_tracer_records_engine_and_component_activity():
    tracer = Tracer()
    sim = Simulator(tracer=tracer)
    kernel, sink = _run_pipeline(sim)
    snap = tracer.registry.snapshot()
    assert snap["sim.events.scheduled"] > 0
    assert snap["sim.events.fired"] > 0
    assert snap["sim.process.resumes{process=k}"] > 0
    assert snap["kernel.items{kernel=k}"] == 64
    assert snap["stream.puts{stream=in}"] == 5  # 4 bursts + END_OF_STREAM
    busy = tracer.busy_by_track()
    assert busy["kernel:k"] == kernel.busy_ps > 0


def test_traced_off_run_schedules_no_tracer_callbacks(monkeypatch):
    """The obs-disabled overhead guard: with ``tracer=None`` no tracer
    code runs at all — every hook is poisoned and the run still works."""

    def poisoned(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("tracer callback invoked on an untraced run")

    for hook in (
        "sim_event_scheduled", "sim_event_fired", "process_resumed",
        "process_finished", "stream_put", "stream_get", "stream_stall",
        "kernel_busy", "kernel_stall", "link_transfer", "memory_access",
        "bank_access", "bank_conflict", "instant",
        "complete",
    ):
        monkeypatch.setattr(Tracer, hook, poisoned)
    sim = Simulator()
    assert sim._tracer is None
    assert get_default_tracer() is None
    _, sink = _run_pipeline(sim)
    assert sink.items == 64


def test_traced_off_engine_path_schedules_no_tracer_callbacks(monkeypatch):
    """Same guard with analytic fast-forward disabled, so the stepped
    engine — including the try_put/try_get kernel fast paths — runs
    every event with poisoned hooks."""
    from repro.core.fastpath import set_fast_forward

    def poisoned(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("tracer callback invoked on an untraced run")

    for hook in (
        "sim_event_scheduled", "sim_event_fired", "process_resumed",
        "process_finished", "stream_put", "stream_get", "stream_stall",
        "kernel_busy", "kernel_stall", "link_transfer", "memory_access",
        "bank_access", "bank_conflict", "instant",
        "complete",
    ):
        monkeypatch.setattr(Tracer, hook, poisoned)
    set_fast_forward(False)
    try:
        sim = Simulator()
        assert sim._tracer is None
        _, sink = _run_pipeline(sim)
    finally:
        set_fast_forward(None)
    assert sink.items == 64


def test_default_tracer_is_picked_up_and_releasable():
    tracer = Tracer()
    set_default_tracer(tracer)
    try:
        sim = Simulator()
        assert sim._tracer is tracer
        _run_pipeline(sim)
        assert tracer.registry.snapshot()["sim.events.fired"] > 0
    finally:
        set_default_tracer(None)
    assert Simulator()._tracer is None


def test_trace_transparency_same_timeline_and_results():
    untraced = Simulator()
    k1, sink1 = _run_pipeline(untraced)
    traced = Simulator(tracer=Tracer())
    k2, sink2 = _run_pipeline(traced)
    assert untraced.now == traced.now
    assert sink1.items == sink2.items
    assert k1.busy_ps == k2.busy_ps
    assert sink1.done_at_ps == sink2.done_at_ps


def test_chrome_export_round_trips_with_wellformed_fields():
    tracer = Tracer()
    sim = Simulator(tracer=tracer)
    _run_pipeline(sim)
    buf = io.StringIO()
    tracer.export_chrome(buf)
    doc = json.loads(buf.getvalue())
    events = doc["traceEvents"]
    assert events, "trace must not be empty"
    phases = set()
    for ev in events:
        assert isinstance(ev["name"], str) and ev["name"]
        assert ev["ph"] in {"X", "i", "M"}
        assert isinstance(ev["pid"], int)
        assert isinstance(ev["tid"], int)
        phases.add(ev["ph"])
        if ev["ph"] == "M":
            assert ev["name"] in {"process_name", "thread_name"}
            assert "name" in ev["args"]
            continue
        assert isinstance(ev["ts"], (int, float)) and ev["ts"] >= 0
        if ev["ph"] == "X":
            assert ev["dur"] >= 0
    assert {"X", "M"} <= phases
    # every non-metadata event's tid has thread_name metadata
    named_tids = {
        ev["tid"] for ev in events if ev["ph"] == "M" and ev["name"] == "thread_name"
    }
    used_tids = {ev["tid"] for ev in events if ev["ph"] != "M"}
    assert used_tids <= named_tids


def test_chrome_export_to_file(tmp_path):
    tracer = Tracer()
    sim = Simulator(tracer=tracer)
    _run_pipeline(sim)
    out = tmp_path / "trace.json"
    tracer.export_chrome(str(out))
    doc = json.loads(out.read_text())
    assert doc["displayTimeUnit"] == "ns"
    assert len(doc["traceEvents"]) > 0


def test_chrome_ts_is_microseconds():
    tracer = Tracer()
    tracer.complete("slice", "kernel.busy", "kernel:k", 3_000_000, 1_500_000)
    doc = tracer.to_chrome()
    slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert slices[0]["ts"] == pytest.approx(3.0)
    assert slices[0]["dur"] == pytest.approx(1.5)


def test_utilisation_summary_math():
    tracer = Tracer()
    tracer.complete("a", "kernel.busy", "kernel:a", 0, 600)
    tracer.complete("a", "kernel.busy", "kernel:a", 600, 200)
    tracer.complete("stall:input", "kernel.stall", "kernel:a", 800, 200)
    assert tracer.busy_by_track() == {"kernel:a": 800}
    assert tracer.stall_by_track() == {"kernel:a": 200}
    assert tracer.span_ps() == 1000
    text = tracer.utilisation_summary()
    assert "kernel:a" in text
    assert "80.0%" in text


def test_utilisation_summary_empty():
    assert "(no slices recorded)" in Tracer().utilisation_summary()


def test_trace_event_defaults():
    ev = TraceEvent("n", "cat", "i", 5, "track")
    assert ev.dur_ps == 0 and ev.args == {}
