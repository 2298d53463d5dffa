"""The shared checks: integer-argument validation and internal cross-checks
that keep running under ``python -O``."""

import ast
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from permroots import cli
from permroots import (
    CycleType,
    MultiSeries,
    Permutation,
    bracket,
    brute_force_root_table,
    check_prime_power_equalities,
    count_epsilons,
    cycle_types,
    enumerate_roots,
    factorize,
    g_set_bounded,
    has_mth_root,
    iter_epsilons,
    power,
    r_total,
    r_total_from_types,
    r_total_range,
    r_total_series,
    root_count,
    root_count_egf,
    root_probability,
)
from permroots._checks import FrozenRecord
from permroots.egf import EqualityReport, ProbabilityBlock
from permroots.series import UniSeries
from references import (
    brute_force_roots,
    divisors,
    exp_q,
    g_set,
    generalized_binomial,
    homogeneous_count,
    identity,
    nu_p,
    one_minus_xp_root,
    prime_power_block_series,
    prime_root_count_egf,
    root_count_from_egf,
    substitute_scaled_power,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def test_no_assert_statements_in_the_package():
    """Bare asserts vanish under -O; every check must raise explicitly."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "permroots").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def run_optimized(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh ``python -O`` interpreter that imports permroots from src."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )


# An inner cycle length whose maps lose their last one: the 3-cycles of
# 1^6 3^2 under m = 4, recorded beneath the fixed points' maps.  The maps are
# counted on a copy of the image, then that many less one are built.
DROPPED_MAP = (
    "(lambda real: lambda cycles, ell, m, sizes, image: "
    "target.itertools.islice(real(cycles, ell, m, sizes, image), "
    "sum(1 for _ in real(cycles, ell, m, sizes, list(image))) - (ell == 3)))"
    "(target._ell_part_maps)"
)


# A replay of an inner cycle length's recorded maps that writes one wrong
# value: the first replayed map sends its last point where its first goes, so
# the first root built from it takes that value twice.
WRONG_REPLAY = (
    "(lambda real: lambda image, support, recording: "
    "real(image, support, [recording[0][:-1] + recording[0][:1], *recording[1:]]))"
    "(target._replay)"
)


# Checks whose messages carry an integer past the interpreter's default limit
# of 4,300 digits on int-to-text conversion: a failed check must still raise
# InternalCheckError there, not the conversion's ValueError.  Every length of
# 1^3000 reported blocked leaves root_count a factor of 4,588 digits; a
# convolution value of 10**5000 disagrees with the series.
ALL_BLOCKED = (
    "(lambda real: lambda t, m: ((ell, a, q, False) for ell, a, q, _ in real(t, m)))"
    "(target._witness)"
)
LONG_CONVOLUTION = (
    "(lambda real: lambda hi, m: [10**5000, *real(hi, m)[1:]])(target._r_total_convolution)"
)
# A series route that counts only the empty permutation: r_total 1 at n = 0
# and 0 above, where the convolution counts r_total(1, m) = 1.
SERIES_OF_ONE = "lambda m, order: (1,) + (0,) * order"
# The series' last division off by one at degree 1: the value held there,
# order! times r_total(1, m) = 1, is divided by order!/1! + 1.
DEGREE_1_SCALE_PLUS_ONE = "(lambda real: lambda n, k: real(n, k) + (k == n - 1))(target.perm)"


# The recurrence without its largest fusion size: one term of every step
# dropped, so it undercounts wherever that size is reached.
DROPPED_TERM = (
    "(lambda real: lambda ell, a, sizes, scaled: real(ell, a, sizes[:-1], scaled))"
    "(target._recurrence)"
)
# a! off by one: the scaled form starts from it, and a! + 1 is coprime to
# every step n <= a, so the first step whose true value has n in its
# denominator leaves a remainder.
FACTORIAL_PLUS_ONE = "(lambda real: lambda k: real(k) + 1)(target.factorial)"


FAULT_PROBE = """
import sys
import permroots
from permroots._checks import InternalCheckError
import {module} as target
if not sys.flags.optimize:
    sys.exit("interpreter is not running with -O")
target.{attr} = {replacement}
try:
    {call}
except InternalCheckError as exc:
    print("InternalCheckError:", exc)
else:
    sys.exit("the broken route went unnoticed")
"""


@pytest.mark.parametrize(
    "module,attr,replacement,call",
    [
        (
            "permroots.cli",
            "r_total_from_types",
            "lambda n, m: -1",
            "target._cmd_selftest("
            "target._build_parser().parse_args(['selftest', '--max-n', '5', '-m', '2']))",
        ),
        (
            "permroots.perm",
            "_image_power",
            "lambda image, m: ()",
            "list(target.enumerate_roots(target.Permutation((1, 2)), 2))",
        ),
        ("permroots.egf", "r_total_series", SERIES_OF_ONE, "target.r_total_range(0, 5, 2)"),
        ("permroots.egf", "perm", DEGREE_1_SCALE_PLUS_ONE, "target.r_total_range(0, 5, 2)"),
        (
            "permroots.counting",
            "bracket",
            "lambda ell, m: 1",
            "target.root_count(permroots.CycleType((0, 1)), 2)",
        ),
        (
            "permroots.counting",
            "factorial",
            "lambda k: 3",  # a! becomes 3: the eps-vector (0, 1) of 1^2 leaves 3 % 6
            "target.root_count(permroots.CycleType((2,)), 2)",
        ),
        (
            "permroots.egf",
            "factorial",
            # 2! becomes 3, so the factor for ell=1 holds 5!/3 at x**2 and the
            # product step for ell=3 leaves 40 * 40 % 5!
            "(lambda real: lambda k: real(k) + (k == 2))(target.factorial)",
            "target.r_total_series(2, 5)",
        ),
        (
            "permroots.cli",
            "brute_force_root_table",
            "(lambda real: lambda n, m, max_n: "
            "{key: bucket[1:] for key, bucket in real(n, m, max_n).items()})"
            "(target.brute_force_root_table)",
            "target._cmd_selftest("
            "target._build_parser().parse_args(['selftest', '--max-n', '3', '-m', '2']))",
        ),
        (
            "permroots.perm",
            "_replay",
            WRONG_REPLAY,
            "list(target.enumerate_roots("
            "target.parse_cycle_type('1^6 3^2').canonical_permutation(), 4))",
        ),
        (
            "permroots.perm",
            "_ell_part_maps",
            DROPPED_MAP,
            "list(target.enumerate_roots("
            "target.parse_cycle_type('1^6 3^2').canonical_permutation(), 4))",
        ),
        (
            # the 3-cycle's sizes are (1,) under m = 2: its one map is written
            # before the stream, here as sigma itself, which squares to sigma**2
            "permroots.perm",
            "_closing",
            "lambda anchor, g, ell, m: anchor",
            "list(target.enumerate_roots(target.Permutation((2, 3, 1)), 2))",
        ),
        (
            "permroots.counting",
            "_witness",
            ALL_BLOCKED,
            "target.root_count(permroots.CycleType((3000,)), 2)",
        ),
        ("permroots.egf", "_r_total_convolution", LONG_CONVOLUTION, "target.r_total_range(0, 3, 2)"),
        (
            # the factor 0 disagrees with bracket 1 under an m of 5,001 digits
            "permroots.counting",
            "_length_factor",
            "lambda ell, a, m: 0",
            "target.root_count(permroots.CycleType((2,)), 10**5000 + 1)",
        ),
        (
            # form A on 1^4 under m = 2, against its three eps-vectors
            "permroots.counting",
            "_recurrence",
            DROPPED_TERM,
            "target.root_count(permroots.CycleType((4,)), 2)",
        ),
        (
            # form B on 1^12 under m = 720720, against its 77 eps-vectors
            "permroots.counting",
            "_recurrence",
            DROPPED_TERM,
            "target.root_count(permroots.CycleType((12,)), 720720)",
        ),
        (
            # form B on 1^200 under m = 720720, with no eps-sum check
            "permroots.counting",
            "factorial",
            FACTORIAL_PLUS_ONE,
            "target.root_count(permroots.CycleType((200,)), 720720)",
        ),
    ],
    ids=[
        "r_total",
        "enumerate_roots",
        "r_total_range",
        "r_total_range_non_integer",
        "root_count",
        "length_factor_remainder",
        "r_total_series_remainder",
        "oracle_table",
        "replay",
        "dropped_inner_map",
        "one_map_part",
        "long_factor",
        "long_convolution_value",
        "long_m",
        "unscaled_dropped_term",
        "scaled_dropped_term",
        "scaled_remainder",
    ],
)
def test_cross_checks_fire_under_optimize(module, attr, replacement, call):
    probe = FAULT_PROBE.format(module=module, attr=attr, replacement=replacement, call=call)
    result = run_optimized(probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1].startswith("InternalCheckError:")  # after selftest's ok lines


# Faults in root construction that the re-powering check alone must catch,
# since a root that passes it is not validated again.  Each hits the first
# fusion written into a root of degree >= 2, so the first such root is not a
# permutation: it keeps a 0 where the fusion was not written, or it takes one
# value twice when the fusion's first slot gets another slot's value.
UNWRITTEN_SLOT = (
    "(lambda real, fault: lambda image, anchor, chain, closing: "
    "None if len(image) > 2 and next(fault, False) else real(image, anchor, chain, closing))"
    "(target._write_fusion, iter([True]))"
)
REPEATED_VALUE = (
    "(lambda real, fault: lambda image, anchor, chain, closing: "
    "(real(image, anchor, chain, closing), len(image) > 2 and next(fault, False) "
    "and image.__setitem__(anchor[0], image[anchor[0]] % (len(image) - 1) + 1)))"
    "(target._write_fusion, iter([True]))"
)


def test_cli_exits_5_under_optimize_when_a_route_is_broken():
    for module, attr, replacement, argv, message in [
        (
            "permroots.egf",
            "r_total_series",
            SERIES_OF_ONE,
            ["table", "-m", "2", "--n", "0..5"],
            "convolution and series routes disagree",
        ),
        (
            "permroots.egf",
            "perm",
            DEGREE_1_SCALE_PLUS_ONE,
            ["table", "-m", "2", "--n", "0..5"],
            "non-integer r_total at n=1, m=2",
        ),
        (
            "permroots.cli",
            "r_total_from_types",
            "lambda n, m: -1",
            ["selftest", "--max-n", "5", "-m", "2"],
            "series and classification routes disagree",
        ),
        (
            "permroots.counting",
            "factorial",
            "lambda k: 3",
            ["count", "-m", "2", "--type", "1^2"],
            "non-integer factor for ell=1, a=2, m=2",
        ),
        (
            "permroots.counting",
            "_recurrence",
            DROPPED_TERM,
            ["count", "-m", "2", "--type", "1^4"],
            "eps-sum 10 and recurrence 1 disagree for ell=1, a=4, m=2",
        ),
        (
            # 12! permutations of S_12 have an order dividing 720720, 11! of them a 12-cycle
            "permroots.counting",
            "_recurrence",
            DROPPED_TERM,
            ["count", "-m", "720720", "--type", "1^12"],
            "eps-sum 479001600 and recurrence 439084800 disagree for ell=1, a=12, m=720720",
        ),
        (
            # the first 16 steps divide exactly, as every size up to 16 divides 720720
            "permroots.counting",
            "factorial",
            FACTORIAL_PLUS_ONE,
            ["count", "-m", "720720", "--type", "1^200"],
            "scaled recurrence not integral at n=17 for ell=1, a=200",
        ),
        (
            "permroots.counting",
            "_witness",
            ALL_BLOCKED,
            ["count", "-m", "2", "--type", "1^3000"],
            "factor <a 15241-bit integer> for ell=1, a=3000, m=2 disagrees",
        ),
        (
            "permroots.egf",
            "_r_total_convolution",
            LONG_CONVOLUTION,
            ["table", "-m", "2", "--n", "0..3"],
            "convolution and series routes disagree at n=0, m=2: <a 16610-bit integer> vs 1",
        ),
        (
            "permroots.cli",
            "enumerate_roots",
            "(lambda real: lambda sigma, m: (tau for i, tau in enumerate(real(sigma, m)) if i))"
            "(target.enumerate_roots)",  # drops the first root
            ["roots", "--all", "-m", "2", "--type", "1^4"],
            "enumerate_roots streamed 9 roots where 10 were due",
        ),
        (
            "permroots.perm",
            "_replay",
            WRONG_REPLAY,
            ["roots", "--all", "-m", "4", "--type", "1^6 3^2"],
            "constructed root failed re-powering",
        ),
        (
            "permroots.perm",
            "_ell_part_maps",
            DROPPED_MAP,
            ["roots", "--all", "-m", "4", "--type", "1^6 3^2"],
            "3 inner maps built where 4 were due",
        ),
        *(
            ("permroots.perm", "_write_fusion", fault, argv, "constructed root failed re-powering")
            for fault in (UNWRITTEN_SLOT, REPEATED_VALUE)
            for argv in (
                ["roots", "--all", "-m", "2", "--type", "1^4"],
                ["selftest", "--max-n", "4", "-m", "2"],
            )
        ),
    ]:
        result = run_optimized(
            f"import sys, {module} as target\n"
            "from permroots.cli import main\n"
            f"target.{attr} = {replacement}\n"
            f"sys.exit(main({argv!r}))\n"
        )
        assert result.returncode == 5, (argv, result.stderr)
        assert result.stderr.startswith(f"internal check failed: {message}"), result.stderr
        if argv[0] in ("table", "count"):
            assert result.stdout == ""


def test_selftest_exits_5_when_the_oracle_table_drops_a_root(monkeypatch, capsys):
    real = cli.brute_force_root_table

    def dropping(n, m, max_n):
        table = real(n, m, max_n)
        if n == 3:
            table[(1, 2, 3)].pop()  # one of the four square roots of the identity
        return table

    monkeypatch.setattr(cli, "brute_force_root_table", dropping)
    assert cli.main(["selftest", "--max-n", "3", "-m", "2"]) == 5
    err = capsys.readouterr().err
    assert err.startswith("internal check failed: root sets differ for"), err


T2 = CycleType((2,))
UNIT = UniSeries(4, [1])
SIGMA = identity(2)
S0 = identity(0)

# (entry point, argument name, its smallest valid value, a call passing v as that argument).
# Every public function, constructor and classmethod whose integer argument is
# a count, degree, order or bound, and the test references whose arguments
# are checked the same way (the binomial one_minus_xp_root expands with
# included).  Left out:
# is_prime, a predicate that answers False rather than raising; and per-element
# integers (CycleType multiplicities, Permutation images, MultiSeries
# exponents, the epsilon sizes, coefficient indices), which read the same
# is_int in their own checks; ELEMENT_INTEGERS below covers the last two.
INTEGER_ARGUMENTS = [
    ("factorize", "n", 1, factorize),
    ("nu_p", "n", 1, lambda v: nu_p(v, 2)),
    ("nu_p", "p", 2, lambda v: nu_p(12, v)),
    ("bracket", "ell", 1, lambda v: bracket(v, 6)),
    ("bracket", "m", 1, lambda v: bracket(6, v)),
    ("divisors", "m", 1, divisors),
    ("g_set", "m", 1, lambda v: g_set(v, 1)),
    ("g_set", "ell", 1, lambda v: g_set(2, v)),
    ("g_set_bounded", "m", 1, lambda v: g_set_bounded(v, 1, 2)),
    ("g_set_bounded", "ell", 1, lambda v: g_set_bounded(2, v, 2)),
    ("g_set_bounded", "a", 0, lambda v: g_set_bounded(2, 1, v)),
    ("iter_epsilons", "a", 0, lambda v: list(iter_epsilons((1, 2), v))),
    ("count_epsilons", "a", 0, lambda v: count_epsilons((1, 2), v)),
    ("root_count", "m", 1, lambda v: root_count(T2, v)),
    ("homogeneous_count", "ell", 1, lambda v: homogeneous_count(v, 2, 1, 2)),
    ("homogeneous_count", "g", 1, lambda v: homogeneous_count(1, v, 1, 2)),
    ("homogeneous_count", "p", 0, lambda v: homogeneous_count(1, 2, v, 2)),
    ("homogeneous_count", "m", 1, lambda v: homogeneous_count(1, 2, 1, v)),
    ("identity", "n", 0, identity),
    ("Permutation.from_cycles", "n", 0, lambda v: Permutation.from_cycles(v, ())),
    ("power", "m", 1, lambda v: power(SIGMA, v)),
    ("Permutation.__pow__", "m", 1, lambda v: SIGMA**v),
    ("has_mth_root", "m", 1, lambda v: has_mth_root(T2, v)),
    ("cycle_types", "n", 0, lambda v: list(cycle_types(v))),
    ("enumerate_roots", "m", 1, lambda v: list(enumerate_roots(SIGMA, v))),
    ("brute_force_roots", "m", 1, lambda v: brute_force_roots(SIGMA, v)),
    ("brute_force_roots", "max_n", 0, lambda v: brute_force_roots(S0, 2, max_n=v)),
    ("brute_force_root_table", "n", 0, lambda v: brute_force_root_table(v, 2)),
    ("brute_force_root_table", "m", 1, lambda v: brute_force_root_table(2, v)),
    ("brute_force_root_table", "max_n", 0, lambda v: brute_force_root_table(0, 2, max_n=v)),
    ("exp_q", "q", 1, lambda v: exp_q(v, 4)),
    ("exp_q", "order", 0, lambda v: exp_q(2, v)),
    ("root_count_egf", "m", 1, lambda v: root_count_egf(v, 4)),
    ("root_count_egf", "weight_bound", 0, lambda v: root_count_egf(2, v)),
    ("root_count_from_egf", "m", 1, lambda v: root_count_from_egf(v, T2)),
    ("prime_root_count_egf", "p", 2, lambda v: prime_root_count_egf(v, 4)),
    ("prime_root_count_egf", "weight_bound", 0, lambda v: prime_root_count_egf(2, v)),
    ("r_total_series", "m", 1, lambda v: r_total_series(v, 4)),
    ("r_total_series", "order", 0, lambda v: r_total_series(2, v)),
    ("r_total_from_types", "n", 0, lambda v: r_total_from_types(v, 2)),
    ("r_total_from_types", "m", 1, lambda v: r_total_from_types(4, v)),
    ("r_total_range", "lo", 0, lambda v: r_total_range(v, 4, 2)),
    ("r_total_range", "hi", 0, lambda v: r_total_range(0, v, 2)),
    ("r_total_range", "m", 1, lambda v: r_total_range(0, 4, v)),
    ("r_total", "n", 0, lambda v: r_total(v, 2)),
    ("r_total", "m", 1, lambda v: r_total(4, v)),
    ("root_probability", "n", 0, lambda v: root_probability(v, 2)),
    ("root_probability", "m", 1, lambda v: root_probability(4, v)),
    ("prime_power_block_series", "p", 2, lambda v: prime_power_block_series(v, 1, 4)),
    ("prime_power_block_series", "r", 1, lambda v: prime_power_block_series(2, v, 4)),
    ("prime_power_block_series", "order", 0, lambda v: prime_power_block_series(2, 1, v)),
    ("check_prime_power_equalities", "q", 2, lambda v: check_prime_power_equalities(v, 1, 2)),
    ("check_prime_power_equalities", "r", 1, lambda v: check_prime_power_equalities(2, v, 2)),
    ("check_prime_power_equalities", "blocks", 1, lambda v: check_prime_power_equalities(2, 1, v)),
    ("UniSeries", "order", 0, UniSeries),
    ("substitute_scaled_power", "k", 1, lambda v: substitute_scaled_power(UNIT, 1, v, 4)),
    ("substitute_scaled_power", "order", 0, lambda v: substitute_scaled_power(UNIT, 1, 2, v)),
    ("generalized_binomial", "k", 0, lambda v: generalized_binomial(Fraction(1, 2), v)),
    ("one_minus_xp_root", "p", 1, lambda v: one_minus_xp_root(v, 4)),
    ("one_minus_xp_root", "order", 0, lambda v: one_minus_xp_root(2, v)),
    ("MultiSeries", "weight_bound", 0, MultiSeries),
]


@pytest.mark.parametrize("kind", ["bool", "float", "below_minimum"])
@pytest.mark.parametrize(
    "entry,name,minimum,call", INTEGER_ARGUMENTS, ids=[f"{e[0]}-{e[1]}" for e in INTEGER_ARGUMENTS]
)
def test_integer_arguments_refuse_bools_floats_and_small_values(entry, name, minimum, call, kind):
    call(2)  # valid first: a memoized answer for 2 must not be handed to 2.0
    bad = {"bool": True, "float": 2.0, "below_minimum": minimum - 1}[kind]
    with pytest.raises(ValueError, match=rf"^{name}\b"):
        call(bad)


# (entry point, the start of its message, a call passing v as one element).
# A bool counts as 1 in arithmetic and a float 1.0 equals 1, so each would
# pass a value check and be read as the int it equals.
ELEMENT_INTEGERS = [
    ("iter_epsilons", "sizes", lambda v: list(iter_epsilons((v,), 2))),
    ("iter_epsilons", "sizes", lambda v: list(iter_epsilons((v, 2), 2))),
    ("count_epsilons", "sizes", lambda v: count_epsilons((v, 2), 2)),
    ("UniSeries.coefficient", "j", UNIT.coefficient),
]


@pytest.mark.parametrize("bad", [True, 1.0], ids=["bool", "float"])
@pytest.mark.parametrize(
    "entry,name,call", ELEMENT_INTEGERS, ids=[f"{e[0]}-{i}" for i, e in enumerate(ELEMENT_INTEGERS)]
)
def test_element_integers_refuse_bools_and_floats(entry, name, call, bad):
    call(1)  # the int the bad value equals is valid
    with pytest.raises(ValueError, match=rf"^{name}\b"):
        call(bad)


def test_only_is_int_names_bool_in_an_isinstance_test():
    """Every integer rule reads _checks.is_int: it is the one place that
    excludes bool, so no hand-written isinstance pair can drift from it."""
    found, home = [], None
    for path in sorted((SRC / "permroots").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and (path.stem, node.name) == ("_checks", "is_int"):
                home = range(node.lineno, node.end_lineno + 1)
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "isinstance"
                and any(getattr(arg, "id", None) == "bool" for arg in ast.walk(node))
            ):
                found.append((path.stem, node.lineno))
    assert found and all(stem == "_checks" and line in home for stem, line in found), found


BLOCK = ProbabilityBlock(0, (0, 1), (Fraction(1), Fraction(1)))
# (record, an equal record built anew, a record that differs in one field, its repr)
RECORDS = [
    (
        CycleType((2, 0, 1)),
        CycleType([2, 0, 1]),
        CycleType((2, 0, 1, 0)),
        "CycleType(a=(2, 0, 1))",
    ),
    (
        BLOCK,
        ProbabilityBlock(0, (0, 1), (Fraction(1), Fraction(1))),
        ProbabilityBlock(1, (0, 1), (Fraction(1), Fraction(1))),
        "ProbabilityBlock(j=0, ns=(0, 1), probabilities=(Fraction(1, 1), Fraction(1, 1)))",
    ),
    (
        EqualityReport(2, 1, 2, (BLOCK,)),
        EqualityReport(2, 1, 2, (ProbabilityBlock(0, (0, 1), (Fraction(1), Fraction(1))),)),
        EqualityReport(2, 1, 2, ()),
        f"EqualityReport(q=2, r=1, m=2, blocks=({BLOCK!r},))",
    ),
]


@pytest.mark.parametrize("record,same,other,text", RECORDS, ids=lambda v: type(v).__name__)
def test_records_compare_hash_and_print_by_their_fields(record, same, other, text):
    assert record == same and hash(record) == hash(same)
    assert record != other
    assert record != text and record != record._fields()  # another class is never equal
    assert repr(record) == text
    assert hash(record) == hash(record._fields())


@pytest.mark.parametrize("record", [r[0] for r in RECORDS], ids=lambda v: type(v).__name__)
def test_records_refuse_rebinding(record):
    name = record.__slots__[0]
    before = getattr(record, name)
    with pytest.raises(AttributeError, match="is immutable"):
        setattr(record, name, before)
    with pytest.raises(AttributeError, match="is immutable"):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1  # no __dict__ to hold it either
    assert getattr(record, name) == before


class _Pair(FrozenRecord):
    __slots__ = ("x", "y")


def test_a_record_binds_its_values_to_its_fields_in_slot_order():
    pair = _Pair(1, 2)
    assert (pair.x, pair.y) == (1, 2) and pair == _Pair(1, 2) != _Pair(2, 1)


@pytest.mark.parametrize(
    "cls,values",
    [(_Pair, (1,)), (_Pair, (1, 2, 3)), (ProbabilityBlock, (0, (0, 1))), (EqualityReport, ())],
    ids=["pair-short", "pair-over", "block-short", "report-empty"],
)
def test_a_record_refuses_a_wrong_number_of_values(cls, values):
    with pytest.raises(TypeError, match=rf"^{cls.__name__} takes \("):
        cls(*values)
