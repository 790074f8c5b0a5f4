"""Sweep runner: determinism, cache accounting, CLI wiring.

e22 is the workhorse spec here — its grid computes in well under a
second — so the cold and cached paths are exercised end to end.
"""

import os

import pytest

from repro.exec import (
    ExperimentSpec,
    ResultCache,
    SweepRunner,
    build_spec,
)


def _counting_spec(calls):
    return ExperimentSpec(
        experiment="toy",
        title="toy counting spec",
        grid=tuple({"x": x} for x in (1, 2, 3)),
        seeds=(0, 1),
        prepare=lambda: {"offset": 100},
        cell=lambda ctx, config, seed: (
            calls.append(1) or
            {"y": ctx["offset"] + config["x"] * 10 + seed}
        ),
        assemble=lambda rows: [],
    )


def test_serial_order_is_seed_major_grid_minor():
    calls = []
    result = SweepRunner(_counting_spec(calls)).run()
    assert [r["y"] for r in result.rows] == [110, 120, 130, 111, 121, 131]
    assert result.computed == 6 and result.hits == 0
    assert len(calls) == 6


def test_cache_skips_completed_cells(tmp_path):
    calls = []
    spec = _counting_spec(calls)
    cache = ResultCache(tmp_path)
    first = SweepRunner(spec, cache=cache).run()
    assert first.hits == 0 and first.computed == 6
    second = SweepRunner(spec, cache=cache).run()
    assert second.hits == 6 and second.computed == 0
    assert second.rows == first.rows
    assert len(calls) == 6, "cached cells must not recompute"


def test_code_version_change_invalidates(tmp_path, monkeypatch):
    calls = []
    spec = _counting_spec(calls)
    cache = ResultCache(tmp_path)
    SweepRunner(spec, cache=cache).run()
    monkeypatch.setattr("repro.exec.cache._CODE_VERSION", "0123456789abcdef")
    stale = SweepRunner(spec, cache=cache).run()
    assert stale.hits == 0 and stale.computed == 6


def test_registry_rejects_unknown_experiment():
    with pytest.raises(KeyError):
        build_spec("e99")


def test_e22_cached_rerun_is_identical(tmp_path):
    cache = ResultCache(tmp_path)
    cold = SweepRunner(build_spec("e22"), cache=cache).run()
    warm = SweepRunner(build_spec("e22"), cache=cache).run()
    assert warm.hits == warm.cells and warm.computed == 0
    assert [t.render() for t in warm.tables] == \
        [t.render() for t in cold.tables]


def test_cli_parallel_run(tmp_path, monkeypatch, capsys):
    from repro.__main__ import main

    monkeypatch.chdir(tmp_path)  # results/cache lands in the tmp dir
    assert main(["run", "e22"]) == 0
    out = capsys.readouterr().out
    assert "E22: tail latency and goodput under injected faults" in out
    assert "6 cells: 0 cached, 6 computed" in out
    assert main(["run", "e22"]) == 0
    out = capsys.readouterr().out
    assert "6 cells: 6 cached, 0 computed" in out
    assert (tmp_path / "results" / "cache").is_dir()


def test_cli_faults_do_not_outlive_the_run(monkeypatch, capsys):
    from repro.__main__ import main

    monkeypatch.delenv("REPRO_FAULT_RATE", raising=False)
    assert main(["run", "e22", "--no-cache", "--faults", "0.05"]) == 0
    assert "[e22] 4 cells" in capsys.readouterr().out
    assert "REPRO_FAULT_RATE" not in os.environ
    # The next run in the same process sweeps the default 3-rate ladder.
    assert main(["run", "e22", "--no-cache"]) == 0
    assert "[e22] 6 cells" in capsys.readouterr().out

    monkeypatch.setenv("REPRO_FAULT_RATE", "0.02")
    assert main(["run", "e22", "--no-cache", "--faults", "0.05"]) == 0
    assert os.environ["REPRO_FAULT_RATE"] == "0.02"
