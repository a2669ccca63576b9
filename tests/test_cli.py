"""Command-line front end: formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftorus import cli, oracle, series
from conftorus.specseq import MatchingEngine


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_betti_both_engines_match(capsys):
    code, out = run(capsys, "betti", "--n", "2", "--engine", "both")
    assert code == 0
    assert "1,2,2" in out and "match" in out


def test_betti_csv_schema(capsys):
    code, out = run(
        capsys, "betti", "--n", "1..3", "--engine", "series", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,i,h_i"
    assert lines[1] == "1,0,1"
    assert len(lines) == 1 + 2 + 3 + 4


def test_betti_n0(capsys):
    code, out = run(capsys, "betti", "--n", "0", "--engine", "spectral")
    assert code == 0
    assert "h = 1" in out


def test_purity_json(capsys):
    code, out = run(capsys, "purity", "--n", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out.strip())
    assert doc["purity"] is True and doc["violations"] == []


def test_purity_table(capsys):
    code, out = run(capsys, "purity", "--n", "1")
    assert code == 0 and "pure" in out


def test_hodge_contains_expected_entry(capsys):
    code, out = run(capsys, "hodge", "--n", "2")
    assert code == 0
    assert "h^{2,1}(H^2)=1" in out


def test_series_command(capsys):
    code, out = run(capsys, "series", "--which", "K", "--t-order", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert lines[0] == "t^0: 1"
    assert "u^6" in lines[3]


def test_series_json_deterministic(capsys):
    _, out1 = run(capsys, "series", "--which", "K4", "--t-order", "4")
    _, out2 = run(capsys, "series", "--which", "K4", "--t-order", "4")
    assert out1 == out2
    _, j1 = run(capsys, "series", "--which", "Z4", "--t-order", "4", "--format", "json")
    _, j2 = run(capsys, "series", "--which", "Z4", "--t-order", "4", "--format", "json")
    assert j1 == j2
    doc = json.loads(j1.strip().splitlines()[1])
    assert set(doc) == {"n", "coefficients"}


def test_report_json_deterministic(capsys):
    _, out1 = run(capsys, "betti", "--n", "0..2", "--format", "json")
    _, out2 = run(capsys, "betti", "--n", "0..2", "--format", "json")
    assert out1 == out2


def test_betti_n6_runs_without_a_flag(capsys):
    code, out = run(capsys, "betti", "--n", "6")
    assert code == 0
    assert out == "n=6: h = 1,2,4,5,7,8,4  [match]\n"


def test_allowed_n6_runs_without_a_warning(capsys):
    code = cli.main(["purity", "--n", "6"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "n=6: pure\n"
    assert captured.err == ""


def test_series_only_run_reaches_n12(capsys):
    code = cli.main(["betti", "--n", "12", "--engine", "series"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "n=12: h = 1,2,4,5,7,8,10,11,13,14,16,17,7\n"
    assert captured.err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["betti", "--n", "abc"],
        ["betti", "--n", "5..3"],
        ["betti", "--n", "2", "--engine", "all"],
        ["hodge", "--engine", "spectral"],
        ["purity", "--n", "-1"],
        ["series", "--t-order", "-1"],
        ["series", "--t-order", "x"],
    ],
)
def test_usage_errors_name_the_subcommand(capsys, argv):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    assert capsys.readouterr().err.startswith(f"usage: conftorus {argv[0]} ")


def test_bad_range_rejected(capsys):
    # "-1..3" looks like a flag to argparse; it must still reach --n's check
    for spec in ("-1", "-1..3", "-2..-1"):
        with pytest.raises(SystemExit) as err:
            cli.main(["betti", "--n", spec])
        assert err.value.code == 2, spec
        assert "n must be nonnegative" in capsys.readouterr().err, spec


def test_reversed_range_names_the_empty_range(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["betti", "--n", "5..3"])
    assert err.value.code == 2
    assert "empty range 5..3" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["abc", "3..", "2..x"])
def test_malformed_n_names_the_flag_and_the_spec(capsys, spec):
    with pytest.raises(SystemExit) as err:
        cli.main(["betti", "--n", spec])
    assert err.value.code == 2
    err_text = capsys.readouterr().err
    assert "--n" in err_text and repr(spec) in err_text
    assert "invalid literal" not in err_text


def test_negative_t_order_is_a_usage_error(capsys):
    # a ValueError from series.expand would escape as a traceback, exit 1
    with pytest.raises(SystemExit) as err:
        cli.main(["series", "--t-order", "-1"])
    assert err.value.code == 2
    assert "--t-order" in capsys.readouterr().err


def test_mismatch_gives_nonzero_exit(capsys, monkeypatch):
    def wrong_decode(coeff, n, weight_inverse=None):
        return [42]

    monkeypatch.setattr(series, "decode_betti", wrong_decode)
    code, out = run(capsys, "betti", "--n", "1", "--engine", "both")
    assert code == 1
    assert "MISMATCH" in out


def test_betti_match_covers_the_hodge_table(capsys, monkeypatch):
    monkeypatch.setattr(series, "decode_hodge", lambda coeff, n: {})
    code = cli.main(["betti", "--n", "1", "--engine", "both"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "n=1: h = 1,2  [MISMATCH]\n"
    assert captured.err.startswith("n=1: series MISMATCH [")
    assert '"what": "hodge i=' in captured.err


def test_csv_mismatch_names_its_entries_on_stderr(capsys, monkeypatch):
    monkeypatch.setattr(series, "decode_betti", lambda coeff, n: [42])
    code = cli.main(["betti", "--n", "1", "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "n,i,h_i\n1,0,1\n1,1,2\n"
    assert captured.err == (
        'n=1: series MISMATCH [{"what": "betti", "engine": [1, 2], "series": [42]}]\n'
    )


def test_selftest_small(capsys):
    code, out = run(capsys, "selftest", "--n", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out.strip())
    assert doc["all_passed"] is True
    names = {r["name"] for r in doc["results"]}
    assert "vakil_wood_identity" in names
    assert "genus_zero_table" in names


def test_selftest_cross_checks_every_requested_n(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "run_selftest", lambda n_max: [])
    monkeypatch.setattr(series, "property_checks", lambda: [])
    code, out = run(capsys, "selftest", "--n", "6", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["name,passed"] + [
        f"engine_matches_series_n{n},1" for n in range(7)
    ]


def test_selftest_reports_an_engine_series_disagreement(capsys, monkeypatch):
    # no d-rank at n = 2: g12 and its d-image both survive, in degrees 1 and 2
    monkeypatch.setattr(oracle, "run_selftest", lambda n_max: [])
    monkeypatch.setattr(series, "property_checks", lambda: [])
    d_rank = MatchingEngine.d_rank
    monkeypatch.setattr(
        MatchingEngine, "d_rank",
        lambda self, p, q, ab: 0 if self.n == 2 else d_rank(self, p, q, ab),
    )
    code, out = run(capsys, "selftest", "--n", "3")
    assert code == 1
    lines = out.splitlines()
    assert [line.split(" ", 2)[:2] for line in lines[:-1]] == [
        ["PASS", "engine_matches_series_n0"],
        ["PASS", "engine_matches_series_n1"],
        ["FAIL", "engine_matches_series_n2"],
        ["PASS", "engine_matches_series_n3"],
    ]
    assert json.loads(lines[2].split(" ", 2)[2]) == [
        {"what": "betti", "engine": [1, 3, 3], "series": [1, 2, 2]},
        {"what": "hodge i=1 a=1 b=1", "engine": 1, "series": 0},
        {"what": "hodge i=2 a=1 b=1", "engine": 1, "series": 0},
    ]
    assert lines[-1] == "3/4 passed"


def test_purity_violation_is_reported_not_raised(capsys, monkeypatch):
    monkeypatch.setattr(MatchingEngine, "d_rank", lambda self, p, q, ab: 0)
    code, out = run(capsys, "purity", "--n", "3")
    assert code == 1
    assert out.startswith("n=3: VIOLATED at [(")
    code, out = run(capsys, "betti", "--n", "3", "--engine", "spectral")
    assert code == 1
    assert out.startswith("n=3: h = ")


@pytest.mark.parametrize("command", ["betti", "hodge", "purity"])
def test_negative_e3_is_reported_not_raised(capsys, monkeypatch, command):
    # d-ranks as large as the block: out + into exceeds E2 somewhere
    monkeypatch.setattr(
        MatchingEngine, "d_rank",
        lambda self, p, q, ab: len(self.blocks[(p, q, ab)]),
    )
    code = cli.main([command, "--n", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(
        f"conftorus {command}: negative E3 dimension at n=2, (p, q) = ("
    )
    assert "(a, b) = (" in captured.err


def test_undecodable_series_is_reported_not_raised(capsys, monkeypatch):
    # u^1 at t^0 has no weight preimage
    bad = series.MultiPoly({(1, 0, 0, 0): 1})
    monkeypatch.setattr(series, "conf_series_betti", lambda order: [bad] * (order + 1))
    code = cli.main(["betti", "--n", "0", "--engine", "both"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == (
        "conftorus betti: u-exponent 1 at t^0 has no weight preimage\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "--which", "K", "--t-order", "70000"],
        ["series", "--which", "K4", "--t-order", "17000"],
        ["hodge", "--n", "17000", "--engine", "series"],
    ],
)
def test_oversize_series_order_is_reported_not_raised(capsys, argv):
    # a product of total degree 65536 would carry out of a packed key field
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"conftorus {argv[0]}: exponent (u, x, y, t) = (")
    assert line.endswith("above the 65535 a packed key holds")


def test_hodge_mismatch_gives_nonzero_exit(capsys, monkeypatch):
    monkeypatch.setattr(series, "decode_hodge", lambda coeff, n: {})
    code, out = run(capsys, "hodge", "--n", "1", "--engine", "both")
    assert code == 1
    assert "MISMATCH" in out


def test_failed_selftest_check_gives_nonzero_exit(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "check_left_inverse", lambda n: "injected")
    code, out = run(capsys, "selftest", "--n", "2")
    assert code == 1
    assert "FAIL left_inverse_and_relation_annihilation" in out


def test_genus_zero_verdict_is_reported_not_raised(capsys, monkeypatch):
    # a live degree n makes arnold_conf_betti raise its AssertionError
    monkeypatch.setattr(
        oracle.ArnoldAlgebra, "quotient_dim", lambda self, q: int(q <= self.n)
    )
    code, out = run(capsys, "selftest", "--n", "3", "--format", "json")
    assert code == 1
    doc = json.loads(out.strip())
    assert doc["all_passed"] is False
    (entry,) = [r for r in doc["results"] if r["name"] == "genus_zero_table"]
    assert entry["passed"] is False
    assert entry["counterexample"] == "nonzero piece above degree n-1 at n=3"
    code, out = run(capsys, "selftest", "--n", "3")
    assert code == 1
    assert "FAIL genus_zero_table" in out
    # a wrong table, with no AssertionError, is recorded the same way
    monkeypatch.setattr(oracle, "arnold_conf_betti", lambda n: [1, 2])
    code, out = run(capsys, "selftest", "--n", "2")
    assert code == 1
    assert "FAIL genus_zero_table n=2: [1, 2]" in out.splitlines()


@pytest.mark.parametrize(
    "argv",
    [
        ["betti", "--n", "2", "--modular-prescreen"],
        ["purity", "--n", "2", "--engine", "both"],
        ["selftest", "--n", "2", "--workers", "2"],
        ["betti", "--n", "0..2", "--workers", "2"],
        ["purity", "--n", "0..2", "--workers", "2"],
        ["betti", "--n", "6", "--allow-n6"],
    ],
)
def test_removed_flags_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_closed_pipe_exits_without_traceback():
    # stdout is a pipe whose read end is closed before the child starts, so
    # its first write fails on every run; a reader that closes the pipe
    # after the header would race a command that takes 0.2 s in all.
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["betti", "--n", "0..6", "--format", "csv"]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        with subprocess.Popen(
            [sys.executable, "-m", "conftorus.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env,
        ) as proc:
            _, err = proc.communicate(timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert b"Traceback" not in err and b"BrokenPipeError" not in err
