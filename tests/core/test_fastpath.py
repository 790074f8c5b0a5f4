"""The pipeline recurrence against the stepped engine.

:func:`repro.core.run_pipeline` times a source -> kernels -> sink chain
as a max-plus recurrence.  ``stepped_pipeline.py`` runs the same chain
as processes on the event engine.  Every observable must be identical:
payloads, completion time, source and sink counts, per-kernel
``items_in/out``, ``busy_ps`` and stalls, and per-stream puts, gets,
items and stalls.

Traced (a default tracer installed), both must also record the same
spans, compared as a multiset, and the same nonzero ``kernel.*`` and
``stream.stall_ps`` counters.  Zero-length stalls are the one
difference in what the two record: a stepped ``Stream`` resolves a
waiter that blocked and was served at the same timestamp (which waiter
blocks on such a tie depends on event order) with a zero-valued
``stream.stall_ps`` increment and no span; the recurrence records
neither.  So the counters are compared where they are nonzero.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Burst,
    BurstKernel,
    Event,
    ItemKernel,
    KernelSpec,
    Simulator,
    Stream,
    run_pipeline,
)
from repro.obs import Tracer, set_default_tracer

from .stepped_pipeline import build_stepped, run_stepped


def _traced(run, *args):
    """``run(*args)`` under a fresh default tracer: (result, tracer)."""
    tracer = Tracer()
    set_default_tracer(tracer)
    try:
        return run(*args), tracer
    finally:
        set_default_tracer(None)


def _records(tracer):
    """The spans a tracer holds, as a multiset."""
    return Counter(
        (ev.ph, ev.cat, ev.name, ev.track, ev.ts_ps, ev.dur_ps,
         tuple(sorted(ev.args.items())))
        for ev in tracer.events
    )


def _counters(tracer):
    return {
        key: value
        for key, value in tracer.registry.snapshot().items()
        if value and key.startswith(("kernel.", "stream.stall_ps"))
    }


def _run_both(make_items, stages, depths, interval_ps=0):
    """Run the chain stepped and solved; check they agree; return one.

    ``make_items`` builds fresh items per run, so no run sees another's
    objects.
    """
    stepped, stepped_tracer = _traced(
        run_stepped, make_items(), stages, depths, interval_ps)
    solved = run_pipeline(make_items(), stages, depths, interval_ps)
    traced, tracer = _traced(
        run_pipeline, make_items(), stages, depths, interval_ps)
    assert solved == stepped
    assert traced == solved
    assert _records(tracer) == _records(stepped_tracer)
    assert _counters(tracer) == _counters(stepped_tracer)
    return solved


def _item_chain(kernel_params, fns=None):
    return [
        ItemKernel(KernelSpec(name=f"k{i}", ii=ii, depth=depth, unroll=1),
                   fns[i] if fns else (lambda x: x))
        for i, (ii, depth) in enumerate(kernel_params)
    ]


@pytest.mark.parametrize("kernel_params", [
    [(1, 1)],
    [(1, 4), (2, 6), (1, 3)],
    [(3, 8), (1, 1), (2, 2), (4, 12)],
])
@pytest.mark.parametrize("interval_ps", [0, 3333])
def test_item_chain_matches_engine(kernel_params, interval_ps):
    stages = _item_chain(kernel_params)
    result = _run_both(lambda: range(200), stages,
                       [4] * (len(stages) + 1), interval_ps)
    assert result.received == list(range(200))


def test_item_chain_with_drops_matches_engine():
    stages = _item_chain(
        [(1, 4), (2, 3)],
        fns=[lambda x: x if x % 3 else None, lambda x: x * 2],
    )
    result = _run_both(lambda: range(300), stages, [4, 4, 4])
    assert result.received == [x * 2 for x in range(300) if x % 3]


def test_burst_chain_matches_engine():
    stages = [
        BurstKernel(KernelSpec(name="k0", ii=2, depth=9, unroll=1),
                    lambda b: b),
        BurstKernel(KernelSpec(name="k1", ii=1, depth=4, unroll=2),
                    lambda b: b),
    ]
    result = _run_both(
        lambda: [Burst(i, count=i % 7 + 1) for i in range(60)],
        stages, [2, 2, 2])
    assert result.items_received == sum(i % 7 + 1 for i in range(60))


def test_source_direct_to_sink_matches_engine():
    result = _run_both(lambda: range(1000), [], [1], interval_ps=100)
    assert result.done_at_ps == 100_000


def test_multiple_independent_chains_match_engine():
    """Chains sharing one simulator interleave on its heap; each still
    times as its own call."""
    chains = [
        (range(50 * (c + 1)),
         [ItemKernel(KernelSpec(name=f"c{c}k", ii=c + 1, depth=4,
                                unroll=1), lambda x: x)])
        for c in range(3)
    ]

    def stepped():
        sim = Simulator()
        results = [build_stepped(sim, items, stages, [3, 3])
                   for items, stages in chains]
        sim.run()
        return [result() for result in results]

    def solved():
        return [run_pipeline(items, stages, [3, 3])
                for items, stages in chains]

    engine, engine_tracer = _traced(stepped)
    fast, tracer = _traced(solved)
    assert fast == engine
    assert _records(tracer) == _records(engine_tracer)
    assert _counters(tracer) == _counters(engine_tracer)
    # One timeline per call, against the simulator's one.
    assert (len(tracer.timelines()), len(engine_tracer.timelines())) == (3, 1)


def _drop_or_pass(drops, is_burst, shrink):
    """A kernel fn: drop the source items in ``drops``, else pass on.

    Payloads carry the source index, so a drop hits the same item in
    both engines wherever it falls in the run.  Burst kernels also
    shrink each burst's count by ``shrink`` (down to 0).
    """
    def fn(value):
        payload = value.payload if isinstance(value, Burst) else value
        if payload in drops:
            return None
        if is_burst:
            return Burst(payload, count=max(value.count - shrink, 0))
        return value
    return fn


@st.composite
def _random_chain(draw):
    n_items = draw(st.integers(0, 30))
    bursts = draw(st.booleans())
    counts = draw(st.lists(st.integers(0, 6), min_size=n_items,
                           max_size=n_items))
    n_kernels = draw(st.integers(0, 4))
    stages = []
    for i in range(n_kernels):
        # Only bursts can feed a BurstKernel; an ItemKernel passes
        # bursts on and counts each as one item.
        is_burst = bursts and draw(st.booleans())
        spec = KernelSpec(
            name=f"k{i}",
            ii=draw(st.integers(1, 4)),
            depth=draw(st.integers(1, 12)),
            unroll=draw(st.integers(1, 3)) if is_burst else 1,
        )
        fn = _drop_or_pass(
            frozenset(draw(st.lists(st.integers(0, max(n_items - 1, 0)),
                                    max_size=4))),
            is_burst,
            draw(st.integers(0, 2)),  # burst count shrink
        )
        stages.append((BurstKernel if is_burst else ItemKernel)(spec, fn))
    return {
        "counts": counts if bursts else None,
        "n_items": n_items,
        "interval_ps": draw(st.one_of(st.just(0), st.integers(1, 20_000))),
        "depths": draw(st.lists(st.integers(1, 4), min_size=n_kernels + 1,
                                max_size=n_kernels + 1)),
        "stages": stages,
    }


@settings(max_examples=300, deadline=None)
@given(_random_chain())
def test_property_random_chain_matches_engine(chain):
    counts = chain["counts"]

    def make_items():
        if counts is None:
            return list(range(chain["n_items"]))
        return [Burst(i, count=c) for i, c in enumerate(counts)]

    _run_both(make_items, chain["stages"], chain["depths"],
              chain["interval_ps"])


def test_burst_type_error_still_raised():
    stage = BurstKernel(KernelSpec(name="k", ii=1, depth=1, unroll=1),
                        lambda b: b)
    for run in (run_pipeline, run_stepped):
        with pytest.raises(TypeError, match="'k' expected Burst"):
            run(range(5), [stage], [2, 2])  # raw ints into a BurstKernel


def test_burst_output_type_error_still_raised():
    stage = BurstKernel(KernelSpec(name="k", ii=1, depth=1, unroll=1),
                        lambda b: b.payload)  # raw ints out
    for run in (run_pipeline, run_stepped):
        with pytest.raises(TypeError, match="'k' expected Burst"):
            run([Burst(i, count=2) for i in range(5)], [stage], [2, 2])


def test_pipeline_runs_without_simulator_or_stream(monkeypatch):
    """The recurrence builds no simulator, stream or event."""

    def forbidden(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("run_pipeline touched the event engine")

    for cls in (Event, Simulator, Stream):
        monkeypatch.setattr(cls, "__init__", forbidden)
    stages = _item_chain([(2, 5)])
    result = run_pipeline(range(10), stages, [2, 2])
    assert result.received == list(range(10))


def test_stream_depths_are_checked():
    stages = _item_chain([(1, 1)])
    with pytest.raises(ValueError, match="2 stream depths"):
        run_pipeline(range(3), stages, [2])
    with pytest.raises(ValueError, match=">= 1"):
        run_pipeline(range(3), stages, [2, 0])
