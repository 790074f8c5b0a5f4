"""E24 determinism: byte-identical runs and a warm cache.

The serving experiment is the registry's most concurrency-heavy cell
(an event-driven service with replicated consumers), so it gets its
own seeded-determinism gate: repeated runs must produce byte-identical
tables, and a warm content-addressed cache must serve every cell
without recompute.
"""

from repro.exec import ResultCache, SweepRunner, build_spec


def _render(result):
    return [t.render() for t in result.tables]


def test_e24_repeat_runs_are_byte_identical():
    first = SweepRunner(build_spec("e24")).run()
    second = SweepRunner(build_spec("e24")).run()
    assert first.rows == second.rows
    assert _render(first) == _render(second)


def test_e24_cached_rerun_recomputes_nothing(tmp_path):
    cache = ResultCache(tmp_path)
    cold = SweepRunner(build_spec("e24"), cache=cache).run()
    assert cold.computed == cold.cells and cold.hits == 0
    warm = SweepRunner(build_spec("e24"), cache=cache).run()
    assert warm.hits == warm.cells and warm.computed == 0
    assert _render(warm) == _render(cold)
