"""Command-line interface: outputs, formats, and the exit-code contract."""

import hashlib
import json
import subprocess
import sys

import pytest

from permroots.cli import main
from permroots.counting import root_count
from permroots.perm import parse_cycle_type

TABLE_M2_TEXT = """\
n  m  r_total  p_num  p_den       p_decimal
0  2        1      1      1  1.000000000000
1  2        1      1      1  1.000000000000
2  2        1      1      2  0.500000000000
3  2        3      1      2  0.500000000000
4  2       12      1      2  0.500000000000
5  2       60      1      2  0.500000000000
"""

TABLE_M2_CSV = """\
n,m,r_total,p_num,p_den,p_decimal
0,2,1,1,1,1.000000000000
1,2,1,1,1,1.000000000000
2,2,1,1,2,0.500000000000
3,2,3,1,2,0.500000000000
4,2,12,1,2,0.500000000000
5,2,60,1,2,0.500000000000
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_golden(capsys):
    code, out, err = run_cli(capsys, "count", "-m", "2", "--type", "1^4")
    assert (code, out, err) == (0, "10\n", "")


def test_count_json(capsys):
    code, out, _ = run_cli(capsys, "count", "-m", "2", "--perm", "2 1 4 3 6 5", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"m": 2, "cycle_type": "2^3", "count": 0}


def test_count_verbose_breakdown(capsys):
    # Four fixed points under m=2: g may be 1 (stay fixed) or 2 (pair up),
    # and 1*e1 + 2*e2 = 4 has the three solutions (4,0), (2,1), (0,2).
    code, out, err = run_cli(capsys, "count", "-m", "2", "--type", "1^4", "-v")
    assert (code, err) == (0, "")
    assert out == "10\nell=1 a=4 admissible g=[1, 2] solutions=3\n"


def test_count_verbose_json_detail(capsys):
    code, out, _ = run_cli(
        capsys, "count", "-m", "2", "--type", "1^2 2 3^2", "--format", "json", "-v"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == root_count(parse_cycle_type("1^2 2 3^2"), 2)
    assert payload["detail"] == [
        {"ell": 1, "a": 2, "admissible_g": [1, 2], "solutions": 2},
        {"ell": 2, "a": 1, "admissible_g": [], "solutions": 0},
        {"ell": 3, "a": 2, "admissible_g": [1, 2], "solutions": 2},
    ]


def test_count_without_verbose_omits_detail(capsys):
    code, out, _ = run_cli(capsys, "count", "-m", "2", "--type", "1^4", "--format", "json")
    assert code == 0
    assert "detail" not in json.loads(out)


def test_exists_golden(capsys):
    code, out, err = run_cli(capsys, "exists", "-m", "2", "--perm", "2 3 4 1")
    expected = "no\nell  a  required  divides\n  4  1         2       no\n"
    assert (code, out, err) == (0, expected, "")
    code, out, err = run_cli(capsys, "exists", "-m", "3", "--perm", "2 3 4 1")
    expected = "yes\nell  a  required  divides\n  4  1         1      yes\n"
    assert (code, out, err) == (0, expected, "")


def test_exists_witness_has_one_row_per_length(capsys):
    # 2 1 4 3 6 5 7 = 2^3 1^1; m=4 demands 4 | a_2, so the verdict is no
    # while the fixed-point row still divides.
    code, out, _ = run_cli(
        capsys, "exists", "-m", "4", "--perm", "2 1 4 3 6 5 7", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["exists"] is False
    assert payload["witness"] == [
        {"ell": 1, "a": 1, "required": 1, "divides": True},
        {"ell": 2, "a": 3, "required": 4, "divides": False},
    ]


def test_exists_json(capsys):
    code, out, _ = run_cli(capsys, "exists", "-m", "2", "--type", "1^2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "m": 2,
        "cycle_type": "1^2",
        "exists": True,
        "witness": [{"ell": 1, "a": 2, "required": 1, "divides": True}],
    }


def test_roots_streams_every_root(capsys):
    code, out, err = run_cli(capsys, "roots", "-m", "2", "--perm", "2 3 1")
    assert (code, err) == (0, "")
    assert out == "3 1 2\n"
    code, out, _ = run_cli(capsys, "roots", "-m", "2", "--type", "1^4")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 10
    assert len(set(lines)) == 10
    assert "1 2 3 4" in lines


def test_roots_no_roots_is_still_success(capsys):
    code, out, err = run_cli(capsys, "roots", "-m", "2", "--perm", "2 1")
    assert (code, out, err) == (0, "", "")


@pytest.mark.parametrize(
    "m,selector",
    [
        ("2", ("--type", "1^4")),
        ("3", ("--type", "1^3 3")),
        ("2", ("--perm", "2 1 4 3")),
        ("4", ("--type", "1^4 2^2")),
        ("2", ("--perm", "2 1")),
    ],
)
def test_streamed_roots_match_count_subcommand(capsys, m, selector):
    code, out, _ = run_cli(capsys, "count", "-m", m, *selector)
    assert code == 0
    expected = int(out)
    code, out, _ = run_cli(capsys, "roots", "-m", m, *selector, "--all")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == expected
    assert len(set(lines)) == expected


# (selector, number of roots, sha256 of the full stdout).  The streaming order
# is part of the CLI contract, so a change to construction must leave these
# unchanged.  Most inputs fuse several long cycles per bundle.
ROOTS_ALL_DIGESTS = [
    (
        ("-m", "2", "--type", "1^5 3^4"),
        1196,
        "7a206261c810fa5a9b35127148a6bd60db957ca11ebbc8118400282114c67414",
    ),
    (
        ("-m", "3", "--type", "1^8"),
        1233,
        "a5566ef7f027dac8ffa331a2b9ca6306fb7ba3e7f6d8f55245de8a3002e28e1e",
    ),
    (
        ("-m", "3", "--type", "1^1 2^5 3^3"),
        1458,
        "2ddf1843097376987f945a14561dbb7dc8cf8a33da9d23a358f316dde3e3526f",
    ),
    (
        ("-m", "4", "--type", "1^6 3^2"),
        1024,
        "5b52554afa81474adcf438c016d9adf3e56dafb6495dd5b52fbb8b6a67f931be",
    ),
    (
        ("-m", "4", "--type", "1^5 2^4"),
        2688,
        "49269ee330cf9d73832752bf6e171afa902ae368ce9768600b21d007ff9b15d5",
    ),
    (
        ("-m", "6", "--type", "1^5 3^3"),
        1188,
        "6b5edd6c5ba60025a1f41e28a2a7e5a07f9156a8a8b964e84091f4c923816703",
    ),
    (
        ("-m", "12", "--type", "1^5 3^3"),
        1728,
        "379ecc0b63ae2d395af7ff42da18f929612771d0d19a78dd15e95ae02edc44bc",
    ),
    (
        ("-m", "3", "--type", "2^3 3^3"),
        162,
        "8f221c674e7188bb4de319ae494f826b415d86384d83af31c59b7f78017d9539",
    ),
    (
        ("-m", "3", "--perm", "10 14 2 15 11 17 20 19 6 1 13 16 5 3 4 12 9 18 8 7"),
        1458,
        "b8d43a55f9c35382a60e2b5d2b37fafd4e1a71bff8f3b088ee88c56ab8034fce",
    ),
]


@pytest.mark.parametrize(
    "selector,count,digest", ROOTS_ALL_DIGESTS, ids=[" ".join(c[0]) for c in ROOTS_ALL_DIGESTS]
)
def test_roots_all_order_is_frozen(capsys, selector, count, digest):
    code, out, err = run_cli(capsys, "roots", "--all", *selector)
    assert (code, err) == (0, "")
    assert out.count("\n") == count
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_roots_limit_truncation_is_loud(capsys):
    code, out, err = run_cli(capsys, "roots", "-m", "2", "--type", "1^6", "--limit", "5")
    assert code == 4
    assert len(out.splitlines()) == 5
    assert "truncated" in err and "76" in err
    code, out, err = run_cli(capsys, "roots", "-m", "2", "--type", "1^6", "--all")
    assert code == 0
    assert len(out.splitlines()) == 76


def test_table_text_golden(capsys):
    code, out, err = run_cli(capsys, "table", "-m", "2", "--n", "0..5")
    assert (code, err) == (0, "")
    assert out == TABLE_M2_TEXT


def test_table_csv_golden(capsys):
    code, out, err = run_cli(capsys, "table", "-m", "2", "--n", "0..5", "--format", "csv")
    assert (code, err) == (0, "")
    assert out == TABLE_M2_CSV


def test_table_json(capsys):
    code, out, _ = run_cli(capsys, "table", "-m", "3", "--n", "3", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows == [
        {
            "n": 3,
            "m": 3,
            "r_total": 4,
            "p_num": 2,
            "p_den": 3,
            "p_decimal": "0.666666666667",
        }
    ]


def test_table_refuses_beyond_truncation_cap(capsys):
    code, out, err = run_cli(capsys, "table", "-m", "2", "--n", "0..41")
    assert code == 4
    assert "truncation cap" in err
    code, _, err = run_cli(capsys, "table", "-m", "2", "--n", "39..41", "--truncation-cap", "41")
    assert code == 0


def test_prob_text_and_json(capsys):
    code, out, err = run_cli(capsys, "prob", "-q", "2", "-r", "2", "--blocks", "4")
    assert (code, err) == (0, "")
    assert "m = 2^2 = 4" in out
    assert "all blocks equal: yes" in out
    code, out, _ = run_cli(capsys, "prob", "-q", "3", "--blocks", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == 3 and payload["all_equal"] is True
    assert payload["blocks"][1]["ns"] == [3, 4, 5]


def test_verify_is_an_alias_for_prob(capsys):
    code, out, _ = run_cli(capsys, "verify", "-q", "2", "--blocks", "3")
    assert code == 0
    assert "all blocks equal: yes" in out


def test_prob_rejects_composite_base(capsys):
    code, _, err = run_cli(capsys, "prob", "-q", "6", "--blocks", "2")
    assert code == 3
    assert "prime" in err


def test_selftest_passes(capsys):
    code, out, err = run_cli(capsys, "selftest", "--max-n", "3")
    assert code == 0, err
    assert "selftest passed" in out


def test_selftest_respects_oracle_bound(capsys):
    code, _, err = run_cli(capsys, "selftest", "--max-n", "9")
    assert code == 4
    assert "oracle bound" in err


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, )[0] == 2
    assert run_cli(capsys, "count", "-m", "2")[0] == 2  # no --perm/--type
    assert run_cli(capsys, "count", "-m", "x", "--type", "1^2")[0] == 2
    assert run_cli(capsys, "bogus")[0] == 2


def test_bad_inputs_exit_3(capsys):
    assert run_cli(capsys, "count", "-m", "2", "--perm", "1 2 2")[0] == 3
    assert run_cli(capsys, "count", "-m", "0", "--type", "1^2")[0] == 3
    assert run_cli(capsys, "exists", "-m", "2", "--type", "1^0")[0] == 3
    assert run_cli(capsys, "table", "-m", "2", "--n", "5..1")[0] == 3


def test_console_script_is_installed():
    result = subprocess.run(
        [sys.executable, "-m", "permroots.cli", "count", "-m", "2", "--type", "1^4"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "10\n"


def test_closed_pipe_ends_quietly_with_exit_0():
    proc = subprocess.Popen(
        [sys.executable, "-m", "permroots.cli", "roots", "-m", "2", "--type", "1^12", "--all"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert proc.stdout.readline() == "2 1 4 3 6 5 8 7 10 9 12 11\n"
    proc.stdout.close()  # the reader stops early, as `| head -1` does
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == ""
    proc.stderr.close()


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_exists_formats_share_the_verdict(capsys, fmt):
    code, out, _ = run_cli(capsys, "exists", "-m", "4", "--type", "2^2", "--format", fmt)
    assert code == 0
    if fmt == "json":
        assert json.loads(out)["exists"] is False
    else:
        assert out.splitlines()[0] == "no"
