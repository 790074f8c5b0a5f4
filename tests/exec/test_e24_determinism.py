"""E24 determinism: byte-identical runs.

The serving experiment is the registry's most concurrency-heavy cell
(an event-driven service with replicated consumers), so it gets its
own seeded-determinism gate: repeated runs must produce equal
full-precision rows and byte-identical tables.
"""

import dataclasses

from repro.exec import build_spec, run_spec


def _run() -> tuple[list[dict], list[str]]:
    spec = build_spec("e24")
    captured = []
    spec = dataclasses.replace(
        spec,
        assemble=lambda rows, orig=spec.assemble: (
            captured.append(rows) or orig(rows)
        ),
    )
    tables = [t.render() for t in run_spec(spec)]
    (rows,) = captured
    return rows, tables


def test_e24_repeat_runs_are_byte_identical():
    first_rows, first_tables = _run()
    second_rows, second_tables = _run()
    assert first_rows == second_rows
    assert first_tables == second_tables
