"""Golden command-line outputs: stdout and exit code of ``betti``, ``hodge``
and ``purity`` for n = 0..5, in JSON and table format, must match the
recorded files under ``tests/golden/`` byte for byte."""

import json
from pathlib import Path

import pytest

from conftorus import cli

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["stdout"] for c in CASES])
def test_cli_output_matches_golden(capsys, case):
    code = cli.main(list(case["argv"]))
    out = capsys.readouterr().out
    assert code == case["exit_code"]
    assert out == (GOLDEN / case["stdout"]).read_text()
