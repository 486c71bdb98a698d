"""Tests for the command line interface.

main() is driven in-process for speed; one subprocess test confirms the
module entry point works end to end.  Exit codes are part of the
contract: 0 ok, 2 bad arguments, 3 verification failure, 4 not
quasimodular, 5 insufficient precision.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from k3series import cli
from k3series.cli import main
from k3series.series import Series, series_to_text
from k3series.modforms import eisenstein
from k3series.kkv import inv_discriminant_q


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_table_r_json(capsys):
    code, out = run_cli(capsys, "table", "--kind", "r", "--gmax", "1",
                        "--hmax", "1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "r"
    assert {"g": 0, "h": 1, "value": "24"} in obj["rows"]
    assert {"g": 1, "h": 1, "value": "-2"} in obj["rows"]


def test_table_R_csv(capsys):
    code, out = run_cli(capsys, "table", "--kind", "R", "--gmax", "2",
                        "--hmax", "1", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "g,h,value"
    assert "1,0,1/12" in lines
    assert "2,1,1/10" in lines


def test_genus_zero_size_is_valid(capsys):
    # --gmax 0 leaves the Bernoulli x Eisenstein exponent an empty u-window
    code, out = run_cli(capsys, "table", "--kind", "R", "--gmax", "0",
                        "--hmax", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["g,h,value", "0,0,1", "0,1,24", "0,2,324", "0,3,3200"]
    code, out = run_cli(capsys, "verify", "--suite", "kkv", "--gmax", "0", "--hmax", "0")
    assert code == 0
    assert "suite kkv: all checks passed" in out


def test_table_euler_text(capsys):
    code, out = run_cli(capsys, "table", "--kind", "euler", "--nmax", "3",
                        "--hmax", "1", "--format", "text")
    assert code == 0
    assert any("24" in ln for ln in out.splitlines())


def test_table_euler_h0_row(capsys):
    code, out = run_cli(capsys, "table", "--kind", "euler", "--nmax", "3",
                        "--hmax", "0", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["n,h,value", "1,0,1", "2,0,2", "3,0,3"]


def test_table_euler_pk(capsys):
    code, out = run_cli(capsys, "table", "--kind", "euler_pk", "--k", "1",
                        "--nmax", "2", "--hmax", "1", "--format", "csv")
    assert code == 0
    assert "1,0,1,1" in out.splitlines()


def test_table_output_file(tmp_path, capsys):
    target = tmp_path / "r.csv"
    code, out = run_cli(capsys, "table", "--kind", "r", "--gmax", "0",
                        "--hmax", "1", "--format", "csv", "--output", str(target))
    assert code == 0
    assert out == ""
    assert "0,1,24" in target.read_text()


def test_verify_suites_pass(capsys):
    fast = [
        ["verify", "--suite", "kkv", "--gmax", "2", "--hmax", "2"],
        ["verify", "--suite", "points", "--nmax", "4", "--hmax", "1", "--gmax", "2"],
        ["verify", "--suite", "gwpt", "--hmax", "1", "--kmax", "1", "--uorder", "6"],
        ["verify", "--suite", "appendixB", "--hmax", "2", "--qorder", "12"],
        ["verify", "--suite", "vertex", "--mu", "2", "--excess", "2"],
    ]
    for argv in fast:
        code, out = run_cli(capsys, *argv)
        assert code == 0, (argv, out)
        assert "all checks passed" in out
        assert "FAIL" not in out


def test_verify_failure_exit_3_with_mismatch_location(capsys, monkeypatch):
    from k3series import kkv

    real = kkv.bps_r_table

    def corrupted(g_max, h_max):
        table = real(g_max, h_max)
        entries = dict(table.entries)
        entries[(0, 1)] = entries[(0, 1)] + 1
        return kkv.InvariantTable(table.kind, entries, meta=table.meta)

    monkeypatch.setattr(kkv, "bps_r_table", corrupted)
    code, out = run_cli(capsys, "verify", "--suite", "kkv",
                        "--gmax", "1", "--hmax", "1")
    assert code == 3
    assert "FAIL" in out
    assert "first mismatch at h=1" in out
    assert "suite kkv: FAILED" in out


def test_recognize_eisenstein(capsys, tmp_path):
    path = tmp_path / "e4.txt"
    path.write_text(series_to_text(eisenstein(4, 20)))
    code, out = run_cli(capsys, "recognize", str(path), "--weight-max", "8")
    assert code == 0
    assert out.strip() == "E2^0*E4^1*E6^0: 1/1"


def test_recognize_not_quasimodular_exit_4(capsys, tmp_path):
    from fractions import Fraction
    path = tmp_path / "bad.txt"
    s = Series("q", 0, [Fraction(1), Fraction(1)] + [Fraction(0)] * 20, 21)
    path.write_text(series_to_text(s))
    code, _ = run_cli(capsys, "recognize", str(path), "--weight-max", "6")
    assert code == 4


def test_recognize_exp_q_exit_4(capsys, tmp_path):
    from fractions import Fraction
    from math import factorial
    path = tmp_path / "expq.txt"
    coeffs = [Fraction(1, factorial(n)) for n in range(0, 41)]
    path.write_text(series_to_text(Series("q", 0, coeffs, 40)))
    code, _ = run_cli(capsys, "recognize", str(path))
    assert code == 4


def test_recognize_weighted_divisor_sum(capsys, tmp_path):
    # sum_n n sigma_1(n) q^n is q d/dq of (1 - E2)/24, so Ramanujan's rule
    # gives exactly (E4 - E2^2)/288
    from fractions import Fraction
    path = tmp_path / "nsigma.txt"
    coeffs = [Fraction(0)] + [
        Fraction(n * sum(d for d in range(1, n + 1) if n % d == 0))
        for n in range(1, 21)]
    path.write_text(series_to_text(Series("q", 0, coeffs, 20)))
    code, out = run_cli(capsys, "recognize", str(path), "--weight-max", "4")
    assert code == 0
    assert out.splitlines() == [
        "E2^0*E4^1*E6^0: 1/288",
        "E2^2*E4^0*E6^0: -1/288",
    ]


def test_recognize_insufficient_precision_exit_5(capsys, tmp_path):
    path = tmp_path / "short.txt"
    path.write_text(series_to_text(eisenstein(4, 8)))
    code, _ = run_cli(capsys, "recognize", str(path), "--weight-max", "8")
    assert code == 5


def test_recognize_huge_weight_on_short_file_exits_5_quickly(capsys, tmp_path):
    # the basis is counted, not listed, before the precision check: listing it
    # at weight 5000 would take about 4e8 triples
    path = tmp_path / "short.txt"
    path.write_text(series_to_text(eisenstein(4, 3)))
    t0 = time.perf_counter()
    code = main(["recognize", str(path), "--weight-max", "5000"])
    elapsed = time.perf_counter() - t0
    m = 2500  # triples (a, b, c) with a + 2b + 3c <= m, counted over b and c
    dim = sum(m - 3 * c - 2 * b + 1 for c in range(m // 3 + 1) for b in range((m - 3 * c) // 2 + 1))
    assert code == 5 and elapsed < 0.2, elapsed
    assert capsys.readouterr().err == (
        f"insufficient precision: need at least {dim + 5} certified coefficients, have 4\n")


def test_recognize_delta_pole(capsys, tmp_path):
    path = tmp_path / "invd.txt"
    path.write_text(series_to_text(inv_discriminant_q(30)))
    code, out = run_cli(capsys, "recognize", str(path), "--weight-max", "12",
                        "--delta-pole")
    assert code == 0
    assert out.strip() == "E2^0*E4^0*E6^0: 1/1"
    # without the flag the pole is an input error
    code, _ = run_cli(capsys, "recognize", str(path), "--weight-max", "12")
    assert code == 2


@pytest.mark.parametrize("order", [-1, -2, -5])
@pytest.mark.parametrize("flags", [[], ["--delta-pole"]])
def test_recognize_header_only_exits_5(order, flags, capsys, tmp_path):
    # no coefficients at all: too few certified coefficients, never a pole
    path = tmp_path / "empty.txt"
    path.write_text(f"var=q order={order}\n")
    assert main(["recognize", str(path), "--weight-max", "12"] + flags) == 5
    assert "insufficient precision" in capsys.readouterr().err


@pytest.mark.parametrize("order, code, out", [(40, 0, "0\n"), (20, 5, "")])
def test_recognize_header_only_is_the_zero_series(order, code, out, capsys, tmp_path):
    # a header with no exponent lines is the zero series through q^order:
    # long enough a window recognizes it as 0, a short one is too few coefficients
    text = f"var=q order={order}\n"
    assert text == series_to_text(Series.zero("q", order))
    path = tmp_path / "zero.txt"
    path.write_text(text)
    assert run_cli(capsys, "recognize", str(path), "--weight-max", "12") == (code, out)


def test_vertex_subcommand(capsys):
    code, out = run_cli(capsys, "vertex", "--mu", "2,1", "--excess", "1",
                        "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["mu"] == [2, 1]
    assert obj["violations"] == 0
    assert obj["configs"] == len(obj["rows"])


def test_vertex_audit_flag(capsys):
    code, _ = run_cli(capsys, "vertex", "--mu", "1", "--excess", "2", "--audit")
    assert code == 0


def test_bad_arguments_exit_2(capsys):
    assert main(["table", "--kind", "nope"]) == 2
    assert main(["verify", "--suite", "nope"]) == 2
    assert main(["nonsense"]) == 2
    assert main(["vertex", "--mu", "fish"]) == 2
    assert main(["recognize", "/nonexistent/file.txt"]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


@pytest.mark.parametrize("argv", [
    ["table", "--kind", "r", "--gmax", "-1"],
    ["table", "--kind", "r", "--hmax", "-3"],
    ["table", "--kind", "euler", "--nmax", "-1"],
    ["table", "--kind", "C", "--k", "-1"],
    ["verify", "--suite", "gwpt", "--kmax", "-1"],
    ["verify", "--suite", "appendixB", "--qorder", "-1"],
    ["verify", "--suite", "gwpt", "--uorder", "-2"],
    ["verify", "--suite", "vertex", "--excess", "-1"],
    ["vertex", "--mu", "2,1", "--excess", "-1"],
    ["recognize", "E4_FILE", "--weight-max", "-4"],
])
def test_negative_size_exits_2(argv, capsys, tmp_path):
    path = tmp_path / "e4.txt"
    path.write_text(series_to_text(eisenstein(4, 20)))
    assert main([str(path) if a == "E4_FILE" else a for a in argv]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("text", [
    "var=q order=3\n0: 1/0\n1: 0/1\n2: 0/1\n3: 0/1\n",
    "var=q order=40\n0: 1/1\n1: 0/1\n2: 0/1\n3: 1/1\n",
    "var=q order=20\n0: 1/1\n1: 0/1\n3: 1/1\n",
])
def test_recognize_malformed_series_exits_2(text, capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    assert main(["recognize", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_module_entry_point_subprocess():
    # the child imports the same k3series as this process, installed or not
    import k3series
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(k3series.__file__).resolve().parent.parent)]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run(
        [sys.executable, "-m", "k3series", "table", "--kind", "r",
         "--gmax", "0", "--hmax", "1", "--format", "csv"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0
    assert "0,1,24" in proc.stdout


# argv corpus for the parser oracle: help, typos, bad values and short runs;
# E4_FILE stands for a weight-4 series file
PARSER_CORPUS = [
    ["--help"], ["-h"], [],
    ["table", "--help"], ["verify", "--help"], ["recognize", "--help"], ["vertex", "-h"],
    ["bogus"], ["--bogus"], ["tab"], ["--bogus", "table"], ["--help", "recognize"],
    ["table", "--kind", "r", "extra"], ["recognize", "E4_FILE", "extra", "more"],
    ["table", "--bogus"], ["vertex", "--mu", "1", "--bogus", "x"],
    ["table", "--kind", "nope"], ["verify", "--suite", "nope"],
    ["vertex", "--mu", "1", "--format", "xml"],
    ["table", "--kind", "r", "--gmax", "-1"], ["recognize", "E4_FILE", "--weight-max", "-4"],
    ["recognize", "E4_FILE", "--weight-max", "x"], ["table", "--kind"],
    ["table"], ["verify"], ["vertex"], ["recognize"],
    ["recognize", "E4_FILE", "-h"], ["vertex", "--mu", "1", "-h"],
    ["recognize", "E4_FILE"], ["recognize", "E4_FILE", "--delta-pole", "--weight-max", "4"],
    ["table", "--kind", "r", "--gmax", "1", "--hmax", "1", "--format", "text"],
    ["verify", "--suite", "kkv", "--gmax", "1", "--hmax", "2"],
    ["vertex", "--mu", "2,1", "--excess", "1", "--format", "csv"],
]


@pytest.mark.parametrize("argv", PARSER_CORPUS, ids=lambda a: " ".join(a) or "empty")
def test_main_matches_the_full_parser(argv, capsys, monkeypatch, tmp_path):
    # exit code, stdout and stderr equal those of main run on the full
    # four-command parser, built by the same interpreter
    path = tmp_path / "e4.txt"
    path.write_text(series_to_text(eisenstein(4, 20)))
    argv = [str(path) if a == "E4_FILE" else a for a in argv]
    got = main(list(argv)), capsys.readouterr()
    full = cli._parser
    monkeypatch.setattr(cli, "_parser", lambda *_: full())
    want = main(list(argv)), capsys.readouterr()
    assert got == want


@pytest.mark.parametrize("argv, choices", [
    (["recognize", "series.txt"], ["recognize"]),
    (["table", "--kind", "r"], ["table"]),
    (["--help"], ["table", "verify", "recognize", "vertex"]),
    (["tab"], ["table", "verify", "recognize", "vertex"]),
    ([], ["table", "verify", "recognize", "vertex"]),
])
def test_parser_builds_only_the_named_command(argv, choices):
    p = cli._parser(argv)
    (action,) = [a for a in p._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(action.choices) == choices


def test_full_parser_names_the_command_argument(capsys):
    # the full tree keeps argparse's own name for the command in its errors
    assert main([]) == 2
    assert "error: the following arguments are required: command\n" in capsys.readouterr().err
    assert main(["tab"]) == 2
    assert "error: argument command: invalid choice: 'tab'" in capsys.readouterr().err


def test_recognize_out_of_memory_exits_1(capsys, monkeypatch, tmp_path):
    # a header such as order=99999999999 makes the columns too large to build
    def exhausted(*_):
        raise MemoryError

    monkeypatch.setattr(cli, "qmod_recognize", exhausted)
    path = tmp_path / "e4.txt"
    path.write_text(series_to_text(eisenstein(4, 20)))
    assert main(["recognize", str(path)]) == 1
    assert capsys.readouterr() == ("", "internal error: out of memory (too large an order or size)\n")
