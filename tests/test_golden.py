"""Golden command-line outputs: stdout and exit code of every case in
``tests/golden/cases.json`` must match the recorded files byte for byte.

The cases are:

* ``betti``, ``hodge`` and ``purity`` for n = 0..5 in JSON, table and CSV
  format, with the default engine (both);
* ``purity --n 6..7 --format json``, the full report for n = 6
  and 7, which pins the engine's output beyond n = 5;
* ``betti --n 0..5 --engine series`` (table),
  ``hodge --n 0..4 --engine series --format json`` and
  ``betti --n 0..3 --engine spectral`` (table);
* ``series --which K4 --t-order 4`` in table, JSON and CSV format;
* ``series --which K --t-order 30`` (table) and ``series --which K4
  --t-order 30`` in JSON and CSV format, deep enough that many terms of the
  Vakil–Wood quotient cancel;
* ``selftest --n 3`` (table), and ``selftest --n 3`` and ``--n 4`` in JSON
  format, which pin every ``n_range`` and the ``detail`` of ``tree_to_path``
  both when it is skipped (below n = 4) and when it runs.
"""

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
