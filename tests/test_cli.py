"""Command-line interface: outputs, formats, and the exit-code contract."""

import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from permroots import SizeCapError, cli, perm
from permroots._checks import InternalCheckError
from permroots.cli import MAX_ANSWER_DIGITS, TABLE_COLUMNS, main
from permroots.counting import _length_factor, root_count
from permroots.egf import EqualityReport, ProbabilityBlock
from permroots.numtheory import bracket
from permroots.perm import (
    MAX_DEGREE,
    Permutation,
    cycle_type,
    cycle_types,
    enumerate_roots,
    format_cycle_type,
    format_permutation,
    has_mth_root,
    parse_cycle_type,
    parse_permutation,
    power,
)
from references import fraction_decimal_text, identity, roots_under_replay_caps

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


SRC = Path(__file__).resolve().parents[1] / "src"

_TIMED_MAIN = """\
import contextlib, io, json, sys, time
from permroots.cli import main
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    start = time.perf_counter()
    code = main(sys.argv[1:])
    elapsed = time.perf_counter() - start
print(json.dumps([code, out.getvalue(), err.getvalue(), elapsed]))
"""


def run_cli_timed(*argv, timeout=30):
    """(exit code, stdout, stderr, seconds) of main(argv), run and timed in a
    child interpreter, so start-up is not counted; a call that hangs fails the
    test when the child's timeout expires instead of stalling the suite."""
    result = subprocess.run(
        [sys.executable, "-c", _TIMED_MAIN, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=timeout,
    )
    assert (result.returncode, result.stderr) == (0, "")
    code, out, err, elapsed = json.loads(result.stdout)
    return code, out, err, elapsed


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


def test_exists_verdict_is_its_witness_rows_and_a_nonzero_count(capsys):
    """Over every cycle type of S_0..S_9: the verdict says every witness row
    divides, as has_mth_root does, and so does the eps-sum, an independent
    route, by being nonzero; each row requires bracket(ell, m) cycles of
    length ell."""
    for n in range(10):
        for t in cycle_types(n):
            for m in [*range(1, 13), 24, 60, 360, 720]:
                code, out, _ = run_cli(
                    capsys, "exists", "-m", str(m), "--type", format_cycle_type(t), "--format", "json"
                )
                assert code == 0
                payload = json.loads(out)
                rows = payload["witness"]
                assert payload["exists"] == all(row["divides"] for row in rows) == has_mth_root(t, m)
                assert payload["exists"] == (root_count(t, m) > 0)
                assert [(row["ell"], row["a"], row["required"]) for row in rows] == [
                    (ell, a, bracket(ell, m)) for ell, a in t.nonzero()
                ]


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
    # Fusions of 3 and 4 cycles per bundle, and 11,264 roots of fixed points
    # under m = 8.  3^4, 1^2 2^6 and 2^2 4^2 have no root under their m, so
    # their stdout is empty.
    (
        ("-m", "6", "--type", "2^4 3^3"),
        216,
        "74da4498959a8eb1e5dcf604e66e76ff846743a4738c5737d4dd4ed675620ed5",
    ),
    (
        ("-m", "3", "--type", "3^3"),
        18,
        "28b7e5e8b1d403b4a1d7e2d338e33cd158621b6e902726e4ef96a97887307168",
    ),
    (
        ("-m", "4", "--type", "1^2 2^4"),
        96,
        "8276b64e7182f82519face4feb561fda5aef84b602eb3178e3fd2243fd1f3281",
    ),
    (
        ("-m", "8", "--type", "1^8"),
        11264,
        "eac49ee8cacde1edcd4323a4d0624579a0dd418609dfcfec8cb9ea374da130f7",
    ),
    (("-m", "3", "--type", "3^4"), 0, hashlib.sha256(b"").hexdigest()),
    (("-m", "4", "--type", "1^2 2^6"), 0, hashlib.sha256(b"").hexdigest()),
    (("-m", "8", "--type", "2^2 4^2"), 0, hashlib.sha256(b"").hexdigest()),
]


@pytest.mark.parametrize(
    "selector,count,digest", ROOTS_ALL_DIGESTS, ids=[" ".join(c[0]) for c in ROOTS_ALL_DIGESTS]
)
def test_roots_all_order_is_frozen(capsys, selector, count, digest):
    code, out, err = run_cli(capsys, "roots", "--all", *selector)
    assert (code, err) == (0, "")
    assert out.count("\n") == count
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# roots --all inputs whose lines must be format_permutation of each root: S_0,
# S_1, two-digit labels, and the nine cycle types that bench/workloads.py
# relabels for its roots-stream workload (degrees 7 to 17).
ROOTS_FORMAT_CASES = [
    ("2", ("--perm", "")),
    ("3", ("--perm", "1")),
    ("3", ("--perm", "10 14 2 15 11 17 20 19 6 1 13 16 5 3 4 12 9 18 8 7")),
    ("2", ("--type", "1^5 3^4")),
    ("3", ("--type", "1^8")),
    ("3", ("--type", "1^1 2^5 3^3")),
    ("4", ("--type", "1^6 3^2")),
    ("4", ("--type", "1^7")),
    ("4", ("--type", "1^5 2^4")),
    ("6", ("--type", "1^5 3^3")),
    ("6", ("--type", "1^7")),
    ("12", ("--type", "1^5 3^3")),
]


@pytest.mark.parametrize(
    "m,selector", ROOTS_FORMAT_CASES, ids=[f"{m} {' '.join(s)}" for m, s in ROOTS_FORMAT_CASES]
)
def test_roots_lines_are_the_formatted_enumerated_roots(capsys, m, selector):
    code, out, err = run_cli(capsys, "roots", "--all", "-m", m, *selector)
    assert (code, err) == (0, "")
    flag, text = selector
    if flag == "--perm":
        sigma = parse_permutation(text)
    else:
        sigma = parse_cycle_type(text).canonical_permutation()
    roots = list(enumerate_roots(sigma, int(m)))
    assert roots
    assert out == "".join(format_permutation(tau) + "\n" for tau in roots)


def _case_sigma(selector):
    flag, text = selector
    if flag == "--perm":
        return parse_permutation(text)
    return parse_cycle_type(text).canonical_permutation()


MULTI_LENGTH_CASES = [
    (m, selector)
    for m, selector in ROOTS_FORMAT_CASES
    if len({len(cyc) for cyc in _case_sigma(selector).cycles()}) > 1
]


@pytest.mark.parametrize(
    "m,selector", MULTI_LENGTH_CASES, ids=[f"{m} {' '.join(s)}" for m, s in MULTI_LENGTH_CASES]
)
def test_replayed_roots_equal_regenerated_roots(m, selector):
    sigma, m = _case_sigma(selector), int(m)
    runs = roots_under_replay_caps(sigma, m)
    regenerated = runs.pop(0)
    assert len(regenerated) == root_count(cycle_type(sigma), m)
    for cap, roots in runs.items():
        assert roots == regenerated, cap


def test_roots_limit_truncation_is_loud(capsys):
    code, out, err = run_cli(capsys, "roots", "-m", "2", "--type", "1^6", "--limit", "5")
    assert code == 4
    assert len(out.splitlines()) == 5
    assert "truncated" in err and "76" in err
    code, out, err = run_cli(capsys, "roots", "-m", "2", "--type", "1^6", "--all")
    assert code == 0
    assert len(out.splitlines()) == 76


def _counting_image_power(monkeypatch):
    """Route perm._image_power through a counter; return the list of calls."""
    calls = []
    real = perm._image_power

    def counted(image, m):
        calls.append(len(image))
        return real(image, m)

    monkeypatch.setattr(perm, "_image_power", counted)
    return calls


@pytest.mark.parametrize("limit,code,lines", [("5", 4, 5), ("75", 4, 75), ("76", 0, 76)])
def test_roots_builds_no_root_past_the_limit(capsys, monkeypatch, limit, code, lines):
    calls = _counting_image_power(monkeypatch)
    result = run_cli(capsys, "roots", "-m", "2", "--type", "1^6", "--limit", limit)
    assert result[0] == code
    assert len(result[1].splitlines()) == len(calls) == lines


def test_roots_limit_1_repowers_one_root_under_a_huge_m(capsys, monkeypatch):
    calls = _counting_image_power(monkeypatch)
    m = str(2 * 10**4000 + 1)  # 4,001 digits: each re-powering costs a reduction of m
    code, out, err = run_cli(capsys, "roots", "-m", m, "--type", "1^3000", "--limit", "1")
    assert code == 4
    assert out.count("\n") == 1
    assert err.startswith("error: output truncated at --limit 1 of ")
    assert calls == [3000]


def test_roots_computes_each_length_factor_once(capsys):
    """The count after the stream computes the factor of each of the two lengths once,
    and construction asks for neither: the 2-cycles' 2,904 solution vectors
    times their 2,880 points already pass the replay cap, so they are
    regenerated without their factor."""
    _length_factor.cache_clear()
    code, out, _ = run_cli(capsys, "roots", "-m", "720", "--type", "1^2 2^1440", "--limit", "1")
    assert code == 4
    assert out.count("\n") == 1
    info = _length_factor.cache_info()
    assert (info.misses, info.hits) == (2, 0)


class _FlushedText(io.StringIO):
    """stdout that keeps, on each flush, the text flushed so far."""

    flushed = ""

    def flush(self):
        self.flushed = self.getvalue()


@pytest.mark.parametrize("argv", [("--all",), ("--limit", "3")])
def test_roots_are_written_before_the_count(monkeypatch, argv):
    """roots streams first and counts afterwards: when the count starts,
    every root the command writes (all ten, or the first three) is out and
    flushed, so a reader on a pipe has them while the count runs."""
    out = _FlushedText()
    flushed = []  # stdout flushed as each count began
    real = cli.root_count

    def recording(t, m):
        flushed.append(out.flushed)
        return real(t, m)

    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(cli, "root_count", recording)
    code = main(["roots", "-m", "2", "--type", "1^4", *argv])
    assert code == (0 if argv == ("--all",) else 4)
    assert out.getvalue().startswith("2 1 4 3\n")
    assert flushed == [out.getvalue()]


def _skipping_first_root(real):
    return lambda sigma, m: itertools.islice(real(sigma, m), 1, None)


def _repeating_first_root(real):
    return lambda sigma, m: itertools.chain(itertools.islice(real(sigma, m), 1), real(sigma, m))


@pytest.mark.parametrize(
    "fault,argv,emitted",
    [
        (_skipping_first_root, ("--all",), 9),
        (_skipping_first_root, ("--limit", "10"), 9),
        (_skipping_first_root, ("--limit", "12"), 9),
        (_repeating_first_root, ("--all",), 11),
        (_repeating_first_root, ("--limit", "10"), 11),
    ],
)
def test_roots_exit_5_when_the_stream_and_the_count_disagree(
    capsys, monkeypatch, fault, argv, emitted
):
    monkeypatch.setattr(cli, "enumerate_roots", fault(cli.enumerate_roots))
    code, out, err = run_cli(capsys, "roots", "-m", "2", "--type", "1^4", *argv)
    assert code == 5
    assert out.count("\n") == emitted
    assert err == f"internal check failed: enumerate_roots streamed {emitted} roots where 10 were due\n"


def _involution_number(n):
    """T(n) = T(n-1) + (n-1) T(n-2): the square roots of the identity of S_n."""
    previous, current = 1, 1
    for k in range(2, n + 1):
        previous, current = current, current + (k - 1) * previous
    return current


@contextmanager
def _any_int_digits():
    """Lift the interpreter's 4300-digit limit on int <-> text for the test's own use."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def test_count_prints_an_answer_beyond_4300_digits(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "count", "-m", "2", "--type", "1^3000")
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    with _any_int_digits():
        expected = str(_involution_number(3000))
    assert len(expected) > 4300
    assert out == expected + "\n"
    assert elapsed < 30


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_count_formats_print_an_answer_beyond_4300_digits(capsys, fmt):
    # 1753 is prime: 1^1753 under m = 1753 fuses all or nothing, 1 + 1752! roots (4,924 digits)
    code, out, err = run_cli(capsys, "count", "-m", "1753", "--type", "1^1753", "--format", fmt)
    assert (code, err) == (0, "")
    with _any_int_digits():
        value = json.loads(out)["count"] if fmt == "json" else int(out)
    assert value == 1 + factorial(1752)


def test_roots_limit_message_carries_a_total_beyond_4300_digits(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "roots", "-m", "2", "--type", "1^3000", "--limit", "1")
    elapsed = time.perf_counter() - start
    assert code == 4
    [line] = out.splitlines()
    assert power(Permutation(map(int, line.split())), 2) == identity(3000)
    with _any_int_digits():
        total = str(_involution_number(3000))
    assert err == f"error: output truncated at --limit 1 of {total} roots; raise --limit or pass --all\n"
    assert elapsed < 30


def _orders_dividing(n, m):
    """The permutations of S_n whose order divides m, each cycle length a
    divisor g of m: t_0 = 1, t_k = sum over g <= k of (k-1)!/(k-g)! t_{k-g},
    as the cycle through the point k takes g - 1 of the other k - 1 in order."""
    divisors = [g for g in range(1, n + 1) if m % g == 0]
    t = [1]
    for k in range(1, n + 1):
        t.append(sum(factorial(k - 1) // factorial(k - g) * t[k - g] for g in divisors if g <= k))
    return t[n]


def _orders_dividing_mod(n, m, p):
    """_orders_dividing(n, m) modulo a prime p > n, where (k-1)!/(k-g)! is
    (k-1)! times the inverse of (k-g)!, so every number stays below p**2."""
    divisors = [g for g in range(1, n + 1) if m % g == 0]
    factorials = list(itertools.accumulate(range(1, n + 1), lambda f, k: f * k % p, initial=1))
    inverses = [pow(f, -1, p) for f in factorials]
    t = [1]
    for k in range(1, n + 1):
        t.append(sum(factorials[k - 1] * inverses[k - g] * t[k - g] for g in divisors if g <= k) % p)
    return t[n]


def test_count_answers_the_identity_of_s_20000_under_m_2_within_ten_seconds():
    code, out, err, elapsed = run_cli_timed("count", "-m", "2", "--type", "1^20000")
    assert elapsed < 10
    with _any_int_digits():
        expected = str(_involution_number(20000))
    assert (code, out, err) == (0, expected + "\n", "")


@pytest.mark.parametrize("verbose", [[], ["-v"]], ids=["plain", "verbose"])
def test_count_answers_the_identity_of_s_2000_under_m_720720_within_ten_seconds(verbose):
    # 720720 has 151 divisors up to 2000; the answer has 5,733 digits
    code, out, err, elapsed = run_cli_timed("count", "-m", "720720", "--type", "1^2000", *verbose)
    assert elapsed < 10
    assert (code, err) == (0, "")
    first, *detail = out.splitlines()
    with _any_int_digits():
        value = int(first)
    prime = 2**61 - 1
    assert value % prime == _orders_dividing_mod(2000, 720720, prime)
    if verbose:
        [row] = detail
        gs = ", ".join(str(g) for g in range(1, 2001) if 720720 % g == 0)
        assert row.startswith(f"ell=1 a=2000 admissible g=[{gs}] solutions=")
    else:
        assert detail == []


def test_roots_limit_1_under_m_720_exits_with_its_total_within_two_seconds():
    code, out, err, elapsed = run_cli_timed("roots", "-m", "720", "--type", "1^60", "--limit", "1")
    assert elapsed < 2
    assert code == 4
    [line] = out.splitlines()
    assert power(Permutation(map(int, line.split())), 720) == identity(60)
    total = _orders_dividing(60, 720)
    assert err == f"error: output truncated at --limit 1 of {total} roots; raise --limit or pass --all\n"


CAP_MESSAGE = (
    f"error: the answer has more than MAX_ANSWER_DIGITS = {MAX_ANSWER_DIGITS} "
    f"decimal digits; it is not printed\n"
)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_count_above_the_digits_cap_is_refused_within_a_second(fmt):
    # 25219 is prime: 1 + 25218! roots, more than 100,000 digits, from two eps-vectors
    code, out, err, elapsed = run_cli_timed(
        "count", "-m", "25219", "--type", "1^25219", "--format", fmt
    )
    assert elapsed < 1
    assert (code, out, err) == (4, "", CAP_MESSAGE)


@pytest.mark.parametrize("command", ["count", "exists"])
@pytest.mark.parametrize("cycle", ["100000000000", "1000001", "1^500001 2^250000"])
def test_a_type_above_the_degree_cap_is_refused_within_a_second(command, cycle):
    code, out, err, elapsed = run_cli_timed(command, "-m", "2", "--type", cycle)
    assert elapsed < 1
    assert (code, out) == (4, "")
    assert err == f"error: cycle type {cycle!r} has degree above MAX_DEGREE = {MAX_DEGREE}\n"


def test_a_bad_m_is_refused_before_a_million_point_type_is_built():
    code, out, err, elapsed = run_cli_timed("roots", "-m", "0", "--type", f"1^{MAX_DEGREE}")
    assert elapsed < 1
    assert (code, out, err) == (3, "", "error: m must be a positive integer, got 0\n")


@pytest.mark.parametrize(
    "argv,name",
    [
        (["exists", "-m", "0"], "m"),
        (["count", "-m", "0"], "m"),
        (["roots", "-m", "0"], "m"),
        (["roots", "-m", "2", "--limit", "0"], "--limit"),
        (["roots", "-m", "2", "--all", "--limit", "0"], "--limit"),  # --all checks it too
    ],
)
def test_the_scalar_options_are_checked_before_the_permutation_text(capsys, argv, name):
    code, out, err = run_cli(capsys, *argv, "--perm", "1 1")
    assert (code, out, err) == (3, "", f"error: {name} must be a positive integer, got 0\n")


M61 = str(2**61 - 1)  # a Mersenne prime: trial division to its square root never ends


@pytest.mark.parametrize(
    "argv,code,message",
    [
        (["prob", "-q", M61, "--blocks", "1"], 4, "1 blocks reach degree"),
        (["prob", "-q", M61, "-r", "0"], 3, "r must be a positive integer, got 0"),
    ],
)
def test_a_q_past_the_truncation_cap_is_refused_within_two_seconds(argv, code, message):
    # no block of such a q fits the cap, so its primality is never tested
    status, out, err, elapsed = run_cli_timed(*argv)
    assert elapsed < 2
    assert (status, out) == (code, "")
    assert err.startswith(f"error: {message}")


def test_a_type_at_the_degree_cap_is_answered(capsys):
    # one cycle of even length MAX_DEGREE: no square root, yet it is admitted
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "exists", "-m", "2", "--type", "1000000")
    assert time.perf_counter() - start < 10
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "no"


def test_the_digits_cap_is_exact(capsys, monkeypatch):
    largest = 10**MAX_ANSWER_DIGITS - 1
    cli._refuse_long(0, largest)
    with pytest.raises(SizeCapError, match="MAX_ANSWER_DIGITS = 100000"):
        cli._refuse_long(1, largest + 1)

    def broken(t, m):
        raise InternalCheckError("broken route")

    # main reads and writes MAX_ANSWER_DIGITS digits, then gives the caller's limit back
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4321)
    try:
        for count, code in ((lambda t, m: largest, 0), (lambda t, m: largest + 1, 4), (broken, 5)):
            monkeypatch.setattr(cli, "root_count", count)
            status, out, err = run_cli(capsys, "count", "-m", "2", "--type", "1")
            assert status == code
            assert sys.get_int_max_str_digits() == 4321
            if code == 0:
                assert out == "9" * MAX_ANSWER_DIGITS + "\n"
    finally:
        sys.set_int_max_str_digits(limit)


def _nines(k):
    return "9" * k


def _power_of_ten(k):
    return "1" + "0" * k


# Commands whose integers pass the interpreter's default limit of 4,300 digits,
# each with its exit code, the end of its stdout ("" for none) and the start
# of its stderr ("" for none): integers of up to MAX_ANSWER_DIGITS digits are
# read and written, a longer answer is refused (4), a longer input malformed (3).
OVERSIZED_INTEGER_COMMANDS = {
    "count-type": (
        ["count", "-m", "2", "--type", f"1^{_nines(5000)}"],
        4,
        "",
        f"error: cycle type '1^{_nines(5000)}' has degree above MAX_DEGREE = {MAX_DEGREE}\n",
    ),
    "table-range": (
        ["table", "-m", "2", "--n", f"0..{_nines(4400)}"],
        4,
        "",
        f"error: degree {_nines(4400)} exceeds the truncation cap 200",
    ),
    "table-range-past-the-cap": (
        ["table", "-m", "2", "--n", f"0..{_nines(100_001)}"],
        3,
        "",
        f"error: bad range '0..{_nines(100_001)}'",
    ),
    "prob-blocks": (
        ["prob", "-q", _power_of_ten(2500), "--blocks", _power_of_ten(2500)],
        4,
        "",
        f"error: {_power_of_ten(2500)} blocks reach degree <a 16610-bit integer>, above",
    ),
    "prob-blocks-past-the-cap": (
        ["prob", "-q", _power_of_ten(60_000), "--blocks", _power_of_ten(60_000)],
        4,
        "",
        f"error: {_power_of_ten(60_000)} blocks reach degree <a 398632-bit integer>, above",
    ),
    # the m-th roots of the identity of S_4 under m = 10**4999: all but the eight 3-cycles
    "count-m": (["count", "-m", _power_of_ten(4999), "--type", "1^4"], 0, "16\n", ""),
    "selftest-m": (["selftest", "--max-n", "3", "-m", f"2,{_nines(5000)}"], 0, "passed\n", ""),
}


@pytest.mark.parametrize(
    "argv,code,out_end,err_start",
    OVERSIZED_INTEGER_COMMANDS.values(),
    ids=OVERSIZED_INTEGER_COMMANDS.keys(),
)
def test_oversized_integers_end_with_their_documented_exit_within_two_seconds(
    argv, code, out_end, err_start
):
    status, out, err, elapsed = run_cli_timed(*argv)
    assert elapsed < 2
    assert status == code
    assert out.endswith(out_end) and bool(out) == bool(out_end)
    assert err.startswith(err_start) and bool(err) == bool(err_start)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_table_prints_answers_beyond_4300_digits_and_refuses_above_the_cap(
    capsys, monkeypatch, fmt
):
    # r(n, m) at such n is slow to compute, so the route returns a value of the
    # same size: a third of n!, so p = 1/3
    for n, printed in ((2000, True), (25300, False)):
        value = factorial(n) // 3
        monkeypatch.setattr(cli, "r_total_range", lambda lo, hi, m: (value,))
        argv = ["table", "-m", "2", "--n", str(n), "--truncation-cap", str(n), "--format", fmt]
        code, out, err = run_cli(capsys, *argv)
        if printed:
            assert (code, err) == (0, "")
            with _any_int_digits():
                assert str(value) in out
        else:
            assert (code, out, err) == (4, "", CAP_MESSAGE)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_prob_prints_probabilities_beyond_4300_digits_and_refuses_above_the_cap(
    capsys, monkeypatch, fmt
):
    for n, printed in ((2000, True), (25300, False)):
        p = Fraction(1, factorial(n))
        report = EqualityReport(2, 1, 2, (ProbabilityBlock(0, (0, 1), (p, p)),))
        monkeypatch.setattr(cli, "check_prime_power_equalities", lambda q, r, blocks: report)
        code, out, err = run_cli(capsys, "prob", "-q", "2", "--blocks", "1", "--format", fmt)
        if printed:
            assert (code, err) == (0, "")
            with _any_int_digits():
                assert f"1/{factorial(n)}" in out
        else:
            assert (code, out, err) == (4, "", CAP_MESSAGE)


@pytest.mark.parametrize(
    "q,r,printed",
    [(2, 200_000, True), (2, 332_193, False), (2, 10_000_000, False), (3, 300_000, False)],
)
def test_prob_refuses_an_m_above_the_digits_cap_within_two_seconds(q, r, printed):
    # 2**332192 has 100,000 digits and 2**332193 one more; an r that large is
    # refused before q**r is formed.  3**300000 has 143,137 digits.
    code, out, err, elapsed = run_cli_timed("prob", "-q", str(q), "-r", str(r), "--blocks", "3")
    assert elapsed < 2
    if printed:
        assert (code, err) == (0, "")
        with _any_int_digits():
            assert out.splitlines()[0] == f"m = {q}^{r} = {q**r}"
    else:
        assert (code, out, err) == (4, "", CAP_MESSAGE)


@pytest.mark.parametrize(
    "q,r,message",
    [
        (2, 0, "r must be a positive integer, got 0"),
        (2, -1, "r must be a positive integer, got -1"),
        (0, -1, "q must be prime, got 0"),
        (4, 10_000_000, "q must be prime, got 4"),
    ],
)
def test_prob_checks_q_and_r_before_the_digits_cap(capsys, q, r, message):
    code, out, err = run_cli(capsys, "prob", "-q", str(q), "-r", str(r), "--blocks", "3")
    assert (code, out, err) == (3, "", f"error: {message}\n")


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


@st.composite
def _ratios(draw):
    """(num, den) with 0 <= num <= den, small denominators as well as long ones."""
    den = draw(st.one_of(st.integers(1, 100), st.integers(1, 10**40)))
    return draw(st.integers(0, den)), den


@given(_ratios())
@example((0, 1))
@example((1, 1))
@example((1, 3))
@example((2, 3))
@example((10**12 - 1, 10**12))
def test_decimal_text_matches_the_fraction_rendering(ratio):
    num, den = ratio
    assert cli._decimal_text(num, den) == fraction_decimal_text(Fraction(num, den))


@given(st.integers(0, 10**12 - 1), st.integers(1, 10**6))
@example(0, 1)
@example(1, 1)
@example(10**12 - 1, 1)
def test_decimal_text_rounds_exact_ties_half_to_even(k, scale):
    # (2k+1) / (2 * 10**12) lies halfway between k and k+1 units of 10**-12
    num, den = (2 * k + 1) * scale, 2 * 10**12 * scale
    text = cli._decimal_text(num, den)
    assert text == fraction_decimal_text(Fraction(num, den))
    assert int(text.replace(".", "")) == k + k % 2  # the even neighbour


@pytest.mark.parametrize("m", [2, 6, 720720])
def test_table_rows_match_their_fraction_forms(capsys, m):
    code, out, err = run_cli(capsys, "table", "-m", str(m), "--n", "0..200", "--format", "json")
    assert (code, err) == (0, "")
    rows = json.loads(out)
    assert [row["n"] for row in rows] == list(range(201))
    for row in rows:
        p = Fraction(row["r_total"], factorial(row["n"]))
        assert (row["p_num"], row["p_den"]) == (p.numerator, p.denominator)
        assert row["p_decimal"] == fraction_decimal_text(p)


def test_table_refuses_beyond_truncation_cap(capsys):
    code, out, err = run_cli(capsys, "table", "-m", "2", "--n", "0..201")
    assert code == 4
    assert "truncation cap" in err
    code, _, err = run_cli(
        capsys, "table", "-m", "2", "--n", "199..201", "--truncation-cap", "201"
    )
    assert code == 0


def test_table_at_the_default_truncation_cap(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "table", "-m", "2", "--n", "0..200", "--format", "csv")
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == ",".join(TABLE_COLUMNS)
    assert [line.split(",")[0] for line in lines[1:]] == [str(n) for n in range(201)]
    assert elapsed < 30


def test_prob_at_the_default_truncation_cap(capsys):
    # 100 blocks of two degrees reach n = 199: the equal-probability theorem at scale
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "prob", "-q", "2", "--blocks", "100")
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[100].startswith("block j=99  n=198..199  p: ")
    assert all(line.endswith("  [equal]") for line in lines[1:101])
    assert lines[-1] == "all blocks equal: yes"
    assert elapsed < 30


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


@pytest.mark.parametrize("text", ["2,x", "2,-3", "x", "0", ",", "2.5"])
def test_selftest_names_every_bad_m_list_the_same_way(capsys, text):
    code, out, err = run_cli(capsys, "selftest", "-m", text)
    assert (code, out, err) == (3, "", f"error: bad -m list {text!r}\n")


HUGE_M = "99999999999999999999"  # 10**20 - 1: trial division to its square root never ends


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["count", "-m", HUGE_M, "--type", "1^3"], "3\n"),  # the identity and the two 3-cycles
        (["roots", "-m", HUGE_M, "--type", "1^2"], "1 2\n"),  # m is odd: no transposition
        (["selftest", "-m", HUGE_M, "--max-n", "2"], None),
    ],
)
def test_a_huge_root_degree_is_answered_within_two_seconds(argv, expected):
    code, out, err, elapsed = run_cli_timed(*argv)
    assert elapsed < 2
    assert (code, err) == (0, "")
    if expected is None:
        assert out.endswith("selftest passed\n")
    else:
        assert out == expected


# One process runs these in turn; each must behave as it does in a fresh process.
REUSE_SEQUENCE = [
    ["count", "-m", "2"],  # usage error: neither --perm nor --type
    ["--help"],
    ["count", "--help"],
    ["count", "-m", "0", "--type", "1^2"],  # bad input
    ["selftest", "--max-n", "9"],  # above the oracle bound
    ["count", "-m", "2", "--type", "1^4", "-v"],
    ["count", "-m", "2", "--type", "1^4", "-v"],
    ["count", "-m", "2", "--type", "1^4"],
    ["table", "-m", "2", "--n", "201..201", "--truncation-cap", "201"],
    ["table", "-m", "2", "--n", "201..201"],  # the default cap of 200 again
    ["roots", "-m", "2", "--type", "1^6", "--limit", "5"],
    ["roots", "-m", "3", "--type", "1^3"],
    ["prob", "-q", "2", "--blocks", "3"],
    ["verify", "-q", "3", "-r", "2", "--blocks", "2", "--format", "json"],
    ["selftest", "-m", "2,x"],
    # spellings the table parse leaves to argparse
    ["count", "-m", "2", "--type", "1^4", "--format=json"],
    ["roots", "-m", "2", "--type", "1^6", "--lim", "5"],
    ["count", "-m", "-2", "--type", "1^2"],  # bad input
    ["count", "-m", "2", "-m", "3", "--type", "1^2"],  # the last -m holds
]


def test_one_parser_serves_many_commands_as_fresh_processes_do(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the terminal width
    env = {**os.environ, "PYTHONPATH": str(SRC), "COLUMNS": "80"}
    in_process = [run_cli(capsys, *argv) for argv in REUSE_SEQUENCE]
    for argv, got in zip(REUSE_SEQUENCE, in_process):
        fresh = subprocess.run(
            [sys.executable, "-m", "permroots.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    codes = [code for code, _, _ in in_process]
    assert codes == [2, 0, 0, 3, 4, 0, 0, 0, 0, 4, 4, 0, 0, 0, 3, 0, 4, 3, 0]


def test_main_builds_no_parser_per_call(capsys, monkeypatch):
    def refuse():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "_build_parser", refuse)
    assert run_cli(capsys, "count", "-m", "2", "--type", "1^4") == (0, "10\n", "")


def test_each_parse_starts_from_a_fresh_namespace():
    argv = ["count", "-m", "2", "--type", "1^4", "-v"]
    for parse in (cli._PARSER.parse_args, cli._parse_plain):  # argparse, and the table parse
        first, second = parse(argv), parse(argv)
        assert first is not second
        assert (first.verbose, second.verbose) == (1, 1)
        first.format, first.perm = "json", "2 1"  # no defaults are shared with the next parse
        third = parse(argv)
        assert (third.format, third.perm, third.verbose) == ("text", None, 1)


def test_importing_the_library_builds_no_parser():
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, permroots; "
            "print(sorted({'argparse', 'permroots.cli'} & set(sys.modules)))",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # -S: no site hooks, so the modules seen are those permroots imports
    result = subprocess.run(
        [
            sys.executable,
            "-S",
            "-c",
            "import sys, permroots.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast'} & set(sys.modules)))",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


def test_console_script_is_installed():
    result = subprocess.run(
        [sys.executable, "-m", "permroots.cli", "count", "-m", "2", "--type", "1^4"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "10\n"


@pytest.mark.parametrize(
    "argv,first,within_s",
    [
        (("-m", "2", "--type", "1^12"), "2 1 4 3 6 5 8 7 10 9 12 11\n", None),
        # the count of 1^80 under m = 720 took 20 s when it came first; the
        # first line no longer waits for it
        (("-m", "720", "--type", "1^80"), " ".join(map(str, [*range(2, 81), 1])) + "\n", 10),
    ],
    ids=["1^12", "1^80"],
)
def test_closed_pipe_ends_quietly_with_exit_0(argv, first, within_s):
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "permroots.cli", "roots", *argv, "--all"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert proc.stdout.readline() == first
    if within_s is not None:
        assert time.perf_counter() - start < within_s
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
