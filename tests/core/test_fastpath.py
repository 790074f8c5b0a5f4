"""Analytic fast-forward: equivalence with the stepped engine.

The contract under test (see ``repro.core.fastpath``): for eligible
Source → kernels → Sink chains, solving the max-plus recurrence item by
item must reproduce the stepped engine's observable results *exactly* —
payloads, completion times, source/sink counts, kernel stats, and
stream counters.  Anything the solver cannot prove eligible must fall
back to the engine unchanged.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Burst,
    BurstKernel,
    ItemKernel,
    KernelSpec,
    Simulator,
    Sink,
    Source,
    Stream,
)
from repro.core.fastpath import set_fast_forward, try_fast_forward


@pytest.fixture(autouse=True)
def _reset_override():
    yield
    set_fast_forward(None)


def _build_item_chain(sim, n_items, kernel_params, stream_depth=4,
                      interval_ps=0, fns=None):
    n_kernels = len(kernel_params)
    streams = [
        Stream(sim, depth=stream_depth, name=f"s{i}")
        for i in range(n_kernels + 1)
    ]
    source = Source(sim, streams[0], range(n_items), interval_ps=interval_ps)
    kernels = []
    for i, (ii, depth) in enumerate(kernel_params):
        fn = fns[i] if fns else (lambda x: x)
        kernels.append(
            ItemKernel(sim, KernelSpec(name=f"k{i}", ii=ii, depth=depth,
                                       unroll=1),
                       fn, streams[i], streams[i + 1])
        )
    return source, streams, kernels, Sink(sim, streams[-1])


def _observables(sim, source, streams, kernels, sink):
    """Everything fast-forward promises to reproduce exactly."""
    return {
        "now": sim.now,
        "done_at": sink.done_at_ps,
        "received": [
            (x.payload, x.count) if isinstance(x, Burst) else x
            for x in sink.received
        ],
        "source_count": source.count,
        "sink_items": sink.items,
        "kernels": [
            (k.items_in, k.items_out, k.busy_ps, k.stall_in_ps,
             k.stall_out_ps, k._first)
            for k in kernels
        ],
        "streams": [
            (s.stats.puts, s.stats.gets, s.stats.items,
             s.stats.producer_stall_ps, s.stats.consumer_stall_ps)
            for s in streams
        ],
    }


def _run_both(build):
    """Run the same chain with fast-forward off and on."""
    set_fast_forward(False)
    sim = Simulator()
    parts = build(sim)
    sim.run()
    engine = _observables(sim, *parts)

    set_fast_forward(True)
    sim = Simulator()
    parts = build(sim)
    assert try_fast_forward(sim), "eligible chain must take the fast path"
    sim.run()
    fast = _observables(sim, *parts)
    return engine, fast


@pytest.mark.parametrize("kernel_params", [
    [(1, 1)],
    [(1, 4), (2, 6), (1, 3)],
    [(3, 8), (1, 1), (2, 2), (4, 12)],
])
@pytest.mark.parametrize("interval_ps", [0, 3333])
def test_item_chain_matches_engine(kernel_params, interval_ps):
    def build(sim):
        return _build_item_chain(
            sim, 200, kernel_params, interval_ps=interval_ps
        )

    engine, fast = _run_both(build)
    assert fast == engine


def test_item_chain_with_drops_matches_engine():
    def build(sim):
        return _build_item_chain(
            sim, 300, [(1, 4), (2, 3)],
            fns=[lambda x: x if x % 3 else None, lambda x: x * 2],
        )

    engine, fast = _run_both(build)
    assert fast == engine
    assert fast["received"] == [x * 2 for x in range(300) if x % 3]


def test_burst_chain_matches_engine():
    def build(sim):
        streams = [Stream(sim, depth=2, name=f"s{i}") for i in range(3)]
        source = Source(sim, streams[0],
                        [Burst(i, count=i % 7 + 1) for i in range(60)])
        kernels = [
            BurstKernel(sim, KernelSpec(name="k0", ii=2, depth=9, unroll=1),
                        lambda b: b, streams[0], streams[1]),
            BurstKernel(sim, KernelSpec(name="k1", ii=1, depth=4, unroll=2),
                        lambda b: b, streams[1], streams[2]),
        ]
        return source, streams, kernels, Sink(sim, streams[2])

    engine, fast = _run_both(build)
    assert fast == engine


def test_source_direct_to_sink_matches_engine():
    def build(sim):
        stream = Stream(sim, depth=1, name="s")
        source = Source(sim, stream, range(1000), interval_ps=100)
        return source, [stream], [], Sink(sim, stream)

    engine, fast = _run_both(build)
    assert fast == engine


def test_multiple_independent_chains_match_engine():
    def build(sim):
        parts = []
        for c in range(3):
            streams = [
                Stream(sim, depth=3, name=f"c{c}s{i}") for i in range(2)
            ]
            source = Source(sim, streams[0], range(50 * (c + 1)))
            kernels = [
                ItemKernel(sim, KernelSpec(name=f"c{c}k", ii=c + 1, depth=4,
                                           unroll=1),
                           lambda x: x, streams[0], streams[1])
            ]
            parts.append((source, streams, kernels, Sink(sim, streams[1])))
        return parts

    set_fast_forward(False)
    sim = Simulator()
    parts = build(sim)
    sim.run()
    engine = [_observables(sim, *p) for p in parts]

    set_fast_forward(True)
    sim = Simulator()
    parts = build(sim)
    assert try_fast_forward(sim)
    sim.run()
    fast = [_observables(sim, *p) for p in parts]
    assert fast == engine


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
    kernels = []
    for _ in range(n_kernels):
        # Only bursts can feed a BurstKernel; an ItemKernel passes
        # bursts on and counts each as one item.
        is_burst = bursts and draw(st.booleans())
        kernels.append((
            is_burst,
            draw(st.integers(1, 4)),  # ii
            draw(st.integers(1, 12)),  # depth
            draw(st.integers(1, 3)) if is_burst else 1,  # unroll
            frozenset(draw(st.lists(st.integers(0, max(n_items - 1, 0)),
                                    max_size=4))),
            draw(st.integers(0, 2)),  # burst count shrink
        ))
    return {
        "items": ([Burst(i, count=c) for i, c in enumerate(counts)]
                  if bursts else list(range(n_items))),
        "interval_ps": draw(st.one_of(st.just(0), st.integers(1, 20_000))),
        "stream_depths": draw(st.lists(st.integers(1, 4),
                                       min_size=n_kernels + 1,
                                       max_size=n_kernels + 1)),
        "kernels": kernels,
    }


@settings(max_examples=300, deadline=None)
@given(_random_chain())
def test_property_random_chain_matches_engine(chain):
    def build(sim):
        streams = [Stream(sim, depth=d, name=f"s{i}")
                   for i, d in enumerate(chain["stream_depths"])]
        # Fresh Burst objects per run: kernels must not share state.
        items = [Burst(b.payload, count=b.count) if isinstance(b, Burst)
                 else b for b in chain["items"]]
        source = Source(sim, streams[0], items,
                        interval_ps=chain["interval_ps"])
        kernels = []
        for i, (is_burst, ii, depth, unroll, drops, shrink) in enumerate(
                chain["kernels"]):
            cls = BurstKernel if is_burst else ItemKernel
            spec = KernelSpec(name=f"k{i}", ii=ii, depth=depth,
                              unroll=unroll)
            kernels.append(cls(sim, spec,
                               _drop_or_pass(drops, is_burst, shrink),
                               streams[i], streams[i + 1]))
        return source, streams, kernels, Sink(sim, streams[-1])

    engine, fast = _run_both(build)
    assert fast == engine


# -- fallback conditions ---------------------------------------------------


def test_foreign_process_forces_fallback():
    """An unregistered process makes the topology unprovable: engine runs."""

    def build(sim):
        parts = _build_item_chain(sim, 100, [(1, 4)])

        def bystander():
            yield sim.timeout(5)

        sim.spawn(bystander(), name="bystander")
        return parts

    set_fast_forward(True)
    sim = Simulator()
    parts = build(sim)
    assert not try_fast_forward(sim)
    sim.run()

    set_fast_forward(False)
    sim2 = Simulator()
    parts2 = build(sim2)
    sim2.run()
    assert _observables(sim, *parts) == _observables(sim2, *parts2)


def test_tracer_forces_fallback():
    from repro.obs import Tracer

    set_fast_forward(True)
    sim = Simulator(tracer=Tracer())
    source, streams, kernels, sink = _build_item_chain(sim, 20, [(1, 2)])
    assert not try_fast_forward(sim)
    sim.run()
    assert sink.items == 20


def test_disabled_override_uses_engine():
    set_fast_forward(False)
    sim = Simulator()
    _build_item_chain(sim, 20, [(1, 2)])
    assert not try_fast_forward(sim)


def test_set_fast_forward_is_the_only_switch(monkeypatch):
    # No environment variable reaches the switch.
    monkeypatch.setenv("REPRO_FASTPATH", "0")

    def engages():
        sim = Simulator()
        _build_item_chain(sim, 20, [(1, 2)])
        return try_fast_forward(sim)

    assert engages()
    set_fast_forward(False)
    assert not engages()
    set_fast_forward(None)
    assert engages()


def test_run_until_never_fast_forwards():
    """Bounded runs must step, or `until` semantics would break."""
    set_fast_forward(True)
    sim = Simulator()
    source, streams, kernels, sink = _build_item_chain(sim, 1000, [(1, 4)])
    sim.run(until=50)
    assert sim.now <= 50
    assert sink.done_at_ps is None
    sim.run()  # resumes on the engine; fastpath stays off mid-flight
    assert sink.items == 1000


def test_burst_type_error_still_raised():
    set_fast_forward(True)
    sim = Simulator()
    streams = [Stream(sim, depth=2, name=f"s{i}") for i in range(2)]
    Source(sim, streams[0], range(5))  # raw ints into a BurstKernel
    BurstKernel(sim, KernelSpec(name="k", ii=1, depth=1, unroll=1),
                lambda b: b, streams[0], streams[1])
    Sink(sim, streams[1])
    with pytest.raises(TypeError):
        sim.run()


def test_try_fast_forward_requires_components():
    sim = Simulator()
    assert not try_fast_forward(sim)


def test_burst_output_type_error_still_raised():
    set_fast_forward(True)
    sim = Simulator()
    streams = [Stream(sim, depth=2, name=f"s{i}") for i in range(2)]
    Source(sim, streams[0], [Burst(i, count=2) for i in range(5)])
    BurstKernel(sim, KernelSpec(name="k", ii=1, depth=1, unroll=1),
                lambda b: b.payload, streams[0], streams[1])  # raw ints out
    Sink(sim, streams[1])
    with pytest.raises(TypeError, match="'k' expected Burst"):
        sim.run()


def test_type_error_leaves_every_chain_uncommitted():
    """Every chain is solved before any is committed."""
    set_fast_forward(True)
    sim = Simulator()
    source, streams, kernels, sink = _build_item_chain(sim, 10, [(1, 2)])
    bad_in, bad_out = Stream(sim, depth=2), Stream(sim, depth=2)
    Source(sim, bad_in, range(3))
    BurstKernel(sim, KernelSpec(name="k", ii=1, depth=1, unroll=1),
                lambda b: b, bad_in, bad_out)
    Sink(sim, bad_out)
    with pytest.raises(TypeError):
        try_fast_forward(sim)
    assert (sim.now, source.count, sink.received, sink.done_at_ps) == (
        0, 0, [], None)
    assert (kernels[0].items_in, kernels[0].busy_ps, kernels[0]._first) == (
        0, 0, True)
    assert streams[0].stats.puts == 0
