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
    """Bare asserts vanish under -O and __debug__ reads False there; with
    neither, -O cannot change what the package does, so every check must
    raise explicitly."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "permroots").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert) or getattr(node, "id", None) == "__debug__"
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
# A recording of the innermost cycle length's maps that holds one wrong
# value: the first recorded map sends its last point where its first goes,
# so the first root gathered from it takes that value twice.
WRONG_REPLAY = (
    "(lambda real: lambda maps, support, image, count: "
    "(values[:-1] + values[:1] if i == 0 else values "
    "for i, values in enumerate(real(maps, support, image, count))))"
    "(target._recorded)"
)
# A memo that loses its last item once it is complete: the 3-cycles of
# 1^6 3^2 under m = 4 are recorded beneath the fixed points' 256 maps, and
# every outer map after the first gathers 3 of their 4 maps.
DROPPED_MEMO_ITEM = (
    "(lambda real: type('_Memo', (real,), {'__iter__': lambda self: "
    "iter(self.built[:-1]) if self.complete else real.__iter__(self)}))"
    "(target._Memo)"
)
# A walk over the untaken cycles that leaves the last companion of each
# bundle linked: a later bundle of the same map takes that cycle again, and
# a cycle it should have taken keeps the values of an earlier root.  The
# order of the relinks has no check of its own: the frozen --all order
# guards it.
LINKED_COMPANION = (
    "(lambda real: lambda nxt, prv, head, size, k: "
    "(picked for picked in real(nxt, prv, head, size, k) for _ in [picked and "
    "(nxt.__setitem__(prv[picked[-1]], picked[-1]), prv.__setitem__(nxt[picked[-1]], picked[-1]))]))"
    "(target._unlinked_subsets)"
)
# A walk over the untaken cycles that never relinks a bundle's anchor, made
# from the source of _partitions with that one line dropped (if the line
# changes, nothing is dropped and the rows fail).  The list then runs out
# while bundles are left to place (1^4 under m = 3), or it is not whole when
# a solution vector's partitions are done (1^4 under m = 4).
SKIPPED_RELINK = (
    "(lambda namespace: exec(__import__('inspect').getsource(target._partitions)"
    ".replace('nxt[prv[first]] = prv[nxt[first]] = first', 'pass'), vars(target), namespace) "
    "or namespace['_partitions'])({})"
)
# A fusion pattern that sends two points to the same place: the first fusion
# _fusions writes has its last position sent where its first goes.  Under
# m = 6 the first partition of 1^7 holds a 3-bundle, so that fusion is the
# first pattern of the 3-bundles that the stream gathers.
DOUBLED_PATTERN = (
    "(lambda real, fault: lambda bundle, ell, m, image: "
    "(next(fault, False) and image.__setitem__(-1, image[0]) for _ in real(bundle, ell, m, image)))"
    "(target._fusions, iter([True]))"
)
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
# The oracle's bucket of each permutation without its first root.
DROPPED_ORACLE_ROOT = (
    "(lambda real: lambda n, m, max_n: "
    "{key: bucket[1:] for key, bucket in real(n, m, max_n).items()})"
    "(target.brute_force_root_table)"
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
# 2! becomes 4, which no free length's recurrence reads: under m = 2 the factor
# for ell = 2 (q = 2) holds 6!/16 = 45 at x**4 in place of 6!/8, and the
# product step at n = 6 leaves 360 * 45 % 6!.
TWO_FACTORIAL_FOUR = "(lambda real: lambda k: 4 if k == 2 else real(k))(target.factorial)"
# The free length 3 (q = 1 under m = 2) read as a factor beyond the order, so
# one route leaves it out: the convolution asks for the moduli first, then the
# series.  Without 3-cycles r(3, 2) is 1, not 3.
DROP_LENGTH_3 = (
    "(lambda real, calls: lambda m, order: (lambda moduli: "
    "moduli[:2] + (order + 1,) + moduli[3:] if next(calls, False) else moduli)(real(m, order)))"
    "(target._moduli, iter({calls}))"
)
# The recurrence without its largest fusion size: one term of every step
# dropped, so it undercounts wherever that size is reached.
DROPPED_TERM = (
    "(lambda real: lambda ell, a, sizes, scaled: real(ell, a, sizes[:-1], scaled))"
    "(target._recurrence)"
)
# k! off by one.  The root count's scaled recurrence starts from a! + 1, which
# is coprime to every step n <= a, so the first step whose true value has n in
# its denominator leaves a remainder.  The series' free-length recurrence
# starts from h_0 = 5! + 1, and under m = 2, 2 * h_2 = h_1 = h_0 is odd.
FACTORIAL_PLUS_ONE = "(lambda real: lambda k: real(k) + 1)(target.factorial)"
# r(1, m) one too many in egf, where the probability blocks read it (cli
# keeps its own binding): block 0 under q = 2 holds p(0) = 1 and p(1) = 2.
R_1_PLUS_ONE = (
    "(lambda real: lambda lo, hi, m: [v + (n == 1) for n, v in enumerate(real(lo, hi, m))])"
    "(target.r_total_range)"
)


# Each row breaks the input of one check in a fresh python -O interpreter, then
# runs a command through main, or a library call whose InternalCheckError the
# probe reports as main does.  Either way the run must exit 5 and write only
# that check's message to stderr, so a row fails when another check, or none,
# catches the fault.  The library rows keep the interpreter's own limit on
# int-to-text conversion, which main raises for a command.
FAULT_PROBE = """
import sys
import permroots
import permroots.{module} as target
from permroots._checks import InternalCheckError
from permroots.cli import main
if not sys.flags.optimize:
    sys.exit("interpreter is not running with -O")
target.{attr} = {replacement}
try:
    status = {call}
except InternalCheckError as exc:
    print(f"internal check failed: {{exc}}", file=sys.stderr)
    status = 5
sys.exit(status)
"""


def fault(name, where, replacement, call, message):
    """A row: where is the replaced attribute as "module.name" in permroots,
    call a command's argv or a library expression, message all that the
    check writes to stderr."""
    return pytest.param(*where.split("."), replacement, call, message, id=name)


TABLE_0_5 = ["table", "-m", "2", "--n", "0..5"]
ROOTS_1_6_3_2 = ["roots", "--all", "-m", "4", "--type", "1^6 3^2"]

FAULTS = [
    # r_total: the convolution against the integer series, the series' divisions
    fault(
        "series-of-one",
        "egf.r_total_series",
        SERIES_OF_ONE,
        TABLE_0_5,
        "convolution and series routes disagree at n=1, m=2: 1 vs 0",
    ),
    fault(
        "series-free-length-dropped",
        "egf._moduli",
        DROP_LENGTH_3.format(calls=[False, True]),
        TABLE_0_5,
        "convolution and series routes disagree at n=3, m=2: 3 vs 1",
    ),
    fault(
        "convolution-free-length-dropped",
        "egf._moduli",
        DROP_LENGTH_3.format(calls=[True]),
        TABLE_0_5,
        "convolution and series routes disagree at n=3, m=2: 1 vs 3",
    ),
    fault(
        "series-free-length-remainder",
        "egf.factorial",
        FACTORIAL_PLUS_ONE,
        TABLE_0_5,
        "non-integer scaled coefficient at n=2, m=2",
    ),
    fault(
        "series-factor-remainder",
        "egf.factorial",
        TWO_FACTORIAL_FOUR,
        ["table", "-m", "2", "--n", "0..6"],
        "non-integer scaled series coefficient at n=6, ell=2, m=2",
    ),
    fault(
        "series-value-remainder",
        "egf.perm",
        DEGREE_1_SCALE_PLUS_ONE,
        TABLE_0_5,
        "non-integer r_total at n=1, m=2",
    ),
    fault(
        "long-convolution-value",
        "egf._r_total_convolution",
        LONG_CONVOLUTION,
        ["table", "-m", "2", "--n", "0..3"],
        "convolution and series routes disagree at n=0, m=2: <a 16610-bit integer> vs 1",
    ),
    fault(
        "long-convolution-value-library",
        "egf._r_total_convolution",
        LONG_CONVOLUTION,
        "target.r_total_range(0, 3, 2)",
        "convolution and series routes disagree at n=0, m=2: <a 16610-bit integer> vs 1",
    ),
    # root_count: the eps-sum against the recurrence, the recurrence's
    # divisions, the factor against divisibility by the bracket, the sizes
    fault(
        "eps-sum-term-remainder",
        "counting.factorial",
        "lambda k: 3",  # a! becomes 3: the eps-vector (0, 1) of 1^2 leaves 3 % 6
        ["count", "-m", "2", "--type", "1^2"],
        "non-integer factor for ell=1, a=2, m=2",
    ),
    fault(
        "unscaled-dropped-term",
        "counting._recurrence",
        DROPPED_TERM,
        ["count", "-m", "2", "--type", "1^4"],
        "eps-sum 10 and recurrence 1 disagree for ell=1, a=4, m=2",
    ),
    fault(
        # 12! permutations of S_12 have an order dividing 720720, 11! of them a 12-cycle
        "scaled-dropped-term",
        "counting._recurrence",
        DROPPED_TERM,
        ["count", "-m", "720720", "--type", "1^12"],
        "eps-sum 479001600 and recurrence 439084800 disagree for ell=1, a=12, m=720720",
    ),
    fault(
        # past the eps-sum's budget; the first 16 steps divide exactly, as every
        # size up to 16 divides 720720
        "scaled-remainder",
        "counting.factorial",
        FACTORIAL_PLUS_ONE,
        ["count", "-m", "720720", "--type", "1^200"],
        "scaled recurrence not integral at n=17 for ell=1, a=200",
    ),
    fault(
        "bracket-one",
        "counting.bracket",
        "lambda ell, m: 1",
        ["count", "-m", "2", "--type", "2"],
        "factor 0 for ell=2, a=1, m=2 disagrees with divisibility by bracket 1",
    ),
    fault(
        # the definition's first gcd answers 1, so the size 1 is admitted for
        # the 2-cycle under m = 2, where gcd(1*2, 2) is 2: its factor is then
        # 1 where bracket 2 does not divide a = 1
        "g-set-definition",
        "gsets.gcd",
        "(lambda real, lies: lambda x, y: 1 if next(lies, False) else real(x, y))"
        "(target.gcd, iter([True]))",
        ["count", "-m", "2", "--type", "2"],
        "factor 1 for ell=2, a=1, m=2 disagrees with divisibility by bracket 2",
    ),
    fault(
        "long-factor",
        "counting._witness",
        ALL_BLOCKED,
        ["count", "-m", "2", "--type", "1^3000"],
        "factor <a 15241-bit integer> for ell=1, a=3000, m=2 "
        "disagrees with divisibility by bracket 1",
    ),
    fault(
        "long-factor-library",
        "counting._witness",
        ALL_BLOCKED,
        "target.root_count(permroots.CycleType((3000,)), 2)",
        "factor <a 15241-bit integer> for ell=1, a=3000, m=2 "
        "disagrees with divisibility by bracket 1",
    ),
    fault(
        # the factor 0 disagrees with bracket 1 under an m of 5,001 digits
        "long-m-library",
        "counting._length_factor",
        "lambda ell, a, m: 0",
        "target.root_count(permroots.CycleType((2,)), 10**5000 + 1)",
        "factor 0 for ell=1, a=2, m=<a 16610-bit integer> "
        "disagrees with divisibility by bracket 1",
    ),
    # root construction: the stream's length, the replay's count, the walk's
    # list of untaken cycles, re-powering
    fault(
        "first-root-dropped",
        "cli.enumerate_roots",
        "(lambda real: lambda sigma, m: (tau for i, tau in enumerate(real(sigma, m)) if i))"
        "(target.enumerate_roots)",
        ["roots", "--all", "-m", "2", "--type", "1^4"],
        "enumerate_roots streamed 9 roots where 10 were due",
    ),
    fault(
        "dropped-inner-map",
        "perm._ell_part_maps",
        DROPPED_MAP,
        ROOTS_1_6_3_2,
        "3 inner maps built where 4 were due",
    ),
    fault(
        "wrong-replay",
        "perm._recorded",
        WRONG_REPLAY,
        ROOTS_1_6_3_2,
        "constructed root failed re-powering",
    ),
    fault(
        "memo-dropped-item",
        "perm._Memo",
        DROPPED_MEMO_ITEM,
        ROOTS_1_6_3_2,
        "enumerate_roots streamed 769 roots where 1024 were due",
    ),
    fault(
        "linked-companion",
        "perm._unlinked_subsets",
        LINKED_COMPANION,
        ["roots", "--all", "-m", "2", "--type", "1^4"],
        "constructed root failed re-powering",
    ),
    fault(
        "skipped-relink-ran-out",
        "perm._partitions",
        SKIPPED_RELINK,
        ["roots", "--all", "-m", "3", "--type", "1^4"],
        "untaken 1-cycles ran out with bundles left to place",
    ),
    fault(
        "skipped-relink-not-whole",
        "perm._partitions",
        SKIPPED_RELINK,
        ["roots", "--all", "-m", "4", "--type", "1^4"],
        "untaken 1-cycles not relinked after a solution vector",
    ),
    fault(
        "doubled-pattern",
        "perm._fusions",
        DOUBLED_PATTERN,
        ["roots", "--all", "-m", "6", "--type", "1^7"],
        "constructed root failed re-powering",
    ),
    fault(
        "empty-power",
        "perm._padded_power",
        "lambda padded, m: ()",
        ["roots", "-m", "2", "--perm", "1 2"],
        "constructed root failed re-powering",
    ),
    fault(
        # the 3-cycle's sizes are (1,) under m = 2: its one map is written
        # before the stream, here as sigma itself, which squares to sigma**2
        "one-map-part",
        "perm._closing",
        "lambda anchor, g, ell, m: anchor",
        ["roots", "-m", "2", "--perm", "2 3 1"],
        "constructed root failed re-powering",
    ),
    *(
        fault(
            f"{name}-{argv[0]}",
            "perm._write_fusion",
            replacement,
            argv,
            "constructed root failed re-powering",
        )
        for name, replacement in (
            ("unwritten-slot", UNWRITTEN_SLOT),
            ("repeated-value", REPEATED_VALUE),
        )
        for argv in (
            ["roots", "--all", "-m", "2", "--type", "1^4"],
            ["selftest", "--max-n", "4", "-m", "2"],
        )
    ),
    # selftest's routes against each other
    fault(
        "oracle-root-dropped",
        "cli.brute_force_root_table",
        DROPPED_ORACLE_ROOT,
        ["selftest", "--max-n", "3", "-m", "2"],
        "root sets differ for , m=2",
    ),
    fault(
        "selftest-root-count",
        "cli.root_count",
        "(lambda real: lambda t, m: real(t, m) + 1)(target.root_count)",
        ["selftest", "--max-n", "0", "-m", "2"],
        "root count differs for , m=2",
    ),
    fault(
        "selftest-global-identity",
        "cli.cycle_types",
        "(lambda real: lambda n: list(real(n))[1:])(target.cycle_types)",  # S_0 without ()
        ["selftest", "--max-n", "1", "-m", "2"],
        "global root identity fails at n=0, m=2",
    ),
    fault(
        # the series of m = 3: a transposition has a cube root, itself, and no square root
        "selftest-series-product",
        "cli.root_count_egf",
        "(lambda real: lambda m, w: real(m + 1, w))(target.root_count_egf)",
        ["selftest", "--max-n", "2", "-m", "2"],
        "series and product formulas differ at CycleType(a=(0, 1)), m=2",
    ),
    fault(
        # every term of the series' exponent halved: t_1 has the coefficient 1/2
        "series-count-non-integer",
        "egf.MultiSeries",
        "(lambda real: lambda w, terms: real(w, {k: c / 2 for k, c in terms.items()}))"
        "(target.MultiSeries)",
        ["selftest", "--max-n", "1", "-m", "2"],
        "non-integer EGF root count for CycleType(a=(1,)), m=2",
    ),
    fault(
        "classification-route",
        "cli.r_total_from_types",
        "lambda n, m: -1",
        ["selftest", "--max-n", "5", "-m", "2"],
        "series and classification routes disagree at n=0, m=2: 1 vs -1",
    ),
    # the probability blocks, which selftest checks and prob reports
    fault(
        "selftest-probability-blocks",
        "egf.r_total_range",
        R_1_PLUS_ONE,
        ["selftest", "--max-n", "1", "-m", "2"],
        "probability blocks unequal for m=2^1",
    ),
    fault(
        "prob-probability-blocks",
        "egf.r_total_range",
        R_1_PLUS_ONE,
        ["prob", "-q", "2", "--blocks", "2"],
        "error: a probability block failed its equality check",
    ),
]


@pytest.mark.parametrize("module,attr,replacement,call,message", FAULTS)
def test_each_check_exits_5_with_its_message_under_optimize(
    module, attr, replacement, call, message
):
    command = call if isinstance(call, str) else f"main({call!r})"
    result = run_optimized(
        FAULT_PROBE.format(module=module, attr=attr, replacement=replacement, call=command)
    )
    # prob reports an unequal block as an error of its own, after the blocks
    expected = message if message.startswith("error: ") else f"internal check failed: {message}"
    assert result.returncode == 5, result.stderr
    assert result.stderr == f"{expected}\n"
    if isinstance(call, list) and call[0] in ("table", "count"):
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
