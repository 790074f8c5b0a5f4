"""``repro serve``: one online-serving session from the command line."""

import re

from repro.__main__ import main


def test_serve_microrec_session_accounts_for_every_request(capsys):
    assert main(["serve", "--backend", "microrec", "--requests", "300"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("serve: microrec x")
    match = re.search(
        r"outcome\s+(\d+) completed, (\d+) shed, (\d+) failed "
        r"of (\d+) offered",
        out,
    )
    assert match, out
    completed, shed, failed, offered = map(int, match.groups())
    assert offered == 300
    assert completed + shed + failed == offered


def test_serve_rejects_fault_rate_out_of_range(capsys):
    assert main(["serve", "--backend", "microrec", "--faults", "2"]) == 2
    assert "--faults must be in [0, 1]" in capsys.readouterr().err
