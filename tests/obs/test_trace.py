"""Tracer tests: recording, Chrome export, and the zero-overhead guard."""

import io
import json

import pytest

from repro.core import (
    Burst,
    BurstKernel,
    END_OF_STREAM,
    KernelSpec,
    Simulator,
    Stream,
    run_pipeline,
)
from repro.obs import Tracer, get_default_tracer, set_default_tracer
from repro.obs.trace import TraceEvent

_HOOKS = (
    "sim_event_scheduled", "sim_event_fired", "process_resumed",
    "process_finished", "stream_put", "stream_get", "stream_stall",
    "kernel_busy", "kernel_stall", "link_transfer", "memory_access",
    "bank_access", "bank_conflict", "instant", "complete", "new_timeline",
)


def _pipeline():
    """A one-kernel burst pipeline under whatever default tracer is set."""
    return run_pipeline(
        [Burst(None, 16) for _ in range(4)],
        [BurstKernel(KernelSpec("k", ii=2, depth=6, unroll=1), lambda b: b)],
        [2, 2],
    )


def _run_pipeline(tracer=None):
    """``_pipeline()``, recorded on ``tracer`` if given."""
    set_default_tracer(tracer)
    try:
        return _pipeline()
    finally:
        set_default_tracer(None)


def _run_engine(sim):
    """A paced producer and a slower consumer over one depth-2 stream:
    the consumer blocks on its first get, the producer on later puts."""
    stream = Stream(sim, depth=2, name="q")
    got = []

    def producer():
        for i in range(8):
            yield sim.timeout(5)
            yield stream.put(i)
        yield stream.put(END_OF_STREAM)

    def consumer():
        while (item := (yield stream.get())) is not END_OF_STREAM:
            yield sim.timeout(10)
            got.append(item)

    sim.spawn(producer(), name="producer")
    sim.spawn(consumer(), name="consumer")
    sim.run()
    return got


def test_tracer_records_engine_and_component_activity():
    tracer = Tracer()
    sim = Simulator(tracer=tracer)
    assert _run_engine(sim) == list(range(8))
    result = _run_pipeline(tracer)
    snap = tracer.registry.snapshot()
    assert snap["sim.events.scheduled"] > 0
    assert snap["sim.events.fired"] > 0
    assert snap["sim.process.resumes{process=consumer}"] > 0
    assert snap["stream.puts{stream=q}"] == 9  # 8 items + END_OF_STREAM
    assert snap["stream.get_blocked{stream=q}"] > 0
    assert snap["stream.put_blocked{stream=q}"] > 0
    assert snap["kernel.items{kernel=k}"] == 64
    busy = tracer.busy_by_track()
    assert busy["kernel:k"] == result.kernels[0].busy_ps > 0


def _poison_hooks(monkeypatch):
    def poisoned(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("tracer callback invoked on an untraced run")

    for hook in _HOOKS:
        monkeypatch.setattr(Tracer, hook, poisoned)


def test_traced_off_run_schedules_no_tracer_callbacks(monkeypatch):
    """The obs-disabled overhead guard: with no tracer, a pipeline call
    runs no tracer code at all — every hook is poisoned."""
    _poison_hooks(monkeypatch)
    assert get_default_tracer() is None
    assert _run_pipeline().items_received == 64


def test_traced_off_engine_path_schedules_no_tracer_callbacks(monkeypatch):
    """Same guard on the event engine: processes over a stream whose
    gets and puts block, stepped with every hook poisoned."""
    _poison_hooks(monkeypatch)
    sim = Simulator()
    assert sim._tracer is None
    assert _run_engine(sim) == list(range(8))


def test_default_tracer_is_picked_up_and_releasable():
    tracer = Tracer()
    set_default_tracer(tracer)
    try:
        sim = Simulator()
        assert sim._tracer is tracer
        _run_engine(sim)
        assert tracer.registry.snapshot()["sim.events.fired"] > 0
        _pipeline()
        assert tracer.registry.snapshot()["kernel.items{kernel=k}"] == 64
    finally:
        set_default_tracer(None)
    assert Simulator()._tracer is None
    recorded = len(tracer.events)
    _pipeline()
    assert len(tracer.events) == recorded


def test_trace_transparency_same_timeline_and_results():
    assert _run_pipeline(Tracer()) == _run_pipeline()
    untraced = Simulator()
    got1 = _run_engine(untraced)
    traced = Simulator(tracer=Tracer())
    got2 = _run_engine(traced)
    assert untraced.now == traced.now
    assert got1 == got2


def test_utilisation_is_computed_per_timeline():
    """Two simulators on one tracer each keep a kernel busy for their
    whole span: the kernel is 100% busy, not 200%, and each simulator
    is its own Chrome pid."""
    tracer = Tracer()
    for _ in range(2):
        sim = Simulator(tracer=tracer)

        def kernel(sim=sim):
            yield sim.timeout(1000)
            tracer.kernel_busy("k", 0, 1000, 1)

        sim.spawn(kernel(), name="k")
        sim.run()
    text = tracer.utilisation_summary()
    assert "100.0%" in text and "200.0%" not in text
    pids = {ev["pid"] for ev in tracer.to_chrome()["traceEvents"]}
    assert pids == {1, 2}
    assert "in 2 timelines" in text


def test_each_pipeline_call_is_a_timeline():
    def kernel_row(tracer):
        (row,) = [line for line in tracer.utilisation_summary().splitlines()
                  if line.startswith("kernel:k")]
        return row

    once, twice = Tracer(), Tracer()
    result = _run_pipeline(once)
    _run_pipeline(twice)
    _run_pipeline(twice)
    assert [len(t.timelines()) for t in (once, twice)] == [1, 2]
    assert once.span_ps() == result.done_at_ps
    # Twice the busy time over twice the span: the same utilisation.
    assert kernel_row(once).split()[-1] == kernel_row(twice).split()[-1]


def test_chrome_export_round_trips_with_wellformed_fields():
    tracer = Tracer()
    _run_pipeline(tracer)
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
    _run_pipeline(tracer)
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
