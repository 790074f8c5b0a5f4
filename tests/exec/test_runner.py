"""Experiment runner: grid order, CLI wiring, the --faults ladder.

e22 is the workhorse spec here — its grid computes in well under a
second — so the CLI is exercised end to end.
"""

import pytest

from repro.exec import ExperimentSpec, build_spec, run_spec


def test_serial_order_is_seed_major_grid_minor():
    calls = []
    assembled = []
    spec = ExperimentSpec(
        experiment="toy",
        title="toy counting spec",
        grid=tuple({"x": x} for x in (1, 2, 3)),
        seeds=(0, 1),
        prepare=lambda: {"offset": 100},
        cell=lambda ctx, config, seed: (
            calls.append(1) or
            {"y": ctx["offset"] + config["x"] * 10 + seed}
        ),
        assemble=lambda rows: assembled.append(rows) or [],
    )
    assert run_spec(spec) == []
    assert [r["y"] for r in assembled[0]] == [110, 120, 130, 111, 121, 131]
    assert len(calls) == 6


def test_registry_rejects_unknown_experiment():
    with pytest.raises(KeyError):
        build_spec("e99")


def test_cli_run_writes_no_file(tmp_path, monkeypatch, capsys):
    from repro.__main__ import main

    monkeypatch.chdir(tmp_path)
    assert main(["run", "e22"]) == 0
    out = capsys.readouterr().out
    assert "E22: tail latency and goodput under injected faults" in out
    assert "[e22] 6 cells\n" in out
    assert list(tmp_path.iterdir()) == []


def test_cli_rejects_no_cache(capsys):
    from repro.__main__ import main

    with pytest.raises(SystemExit) as excinfo:
        main(["run", "e22", "--no-cache"])
    assert excinfo.value.code == 2
    assert "--no-cache" in capsys.readouterr().err


def _farview_rates(out: str) -> list[str]:
    """The fault % column of the printed E22 Farview rows."""
    return [line.split()[2] for line in out.splitlines()
            if line.startswith(" farview scans")]


def test_cli_faults_do_not_outlive_the_run(capsys):
    from repro.__main__ import main

    assert main(["run", "e22", "--faults", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "[e22] 4 cells" in out
    assert _farview_rates(out) == ["0", "5"]
    # The next run in the same process sweeps the default 3-rate ladder.
    assert main(["run", "e22"]) == 0
    out = capsys.readouterr().out
    assert "[e22] 6 cells" in out
    assert _farview_rates(out) == ["0", "0.1", "1"]
