"""Command-line interface.

Subcommands: exists, count, roots, table, prob (alias: verify), selftest.
Exit codes: 0 success (a correct "no roots exist" answer is success),
2 usage errors, 3 malformed inputs (a ValueError), 4 size-cap refusals (a
SizeCapError), 5 internal-check failures (an InternalCheckError), also
under ``python -O``.  A reader that closes the output pipe early ends the
command with exit 0 and no message.  Size caps (S_n scan bound, root
stream limit, series truncation) are explicit flags with loud refusals,
never silent clamps.  One digits limit, MAX_ANSWER_DIGITS = 100,000, holds
for the whole command, as main sets the interpreter's int-to-text limit to
it (restoring the caller's after): an input integer of more digits is
malformed (exit 3, or 2 from the parser), and a longer answer (a count, the
total in the roots --limit message, r_total, p_num, p_den, prob's m = q**r,
a probability's terms) is refused with exit 4 before any of it is printed.
A --type of degree above perm.MAX_DEGREE = 1,000,000 is refused with exit 4
before it is built.
Decimal columns are presentation only, rounded half to even from the exact
integer ratio; all computation is exact.

Each subcommand's options are declared once, in _COMMANDS, which both drives
_parse_plain and builds the argparse parser.  An argv of a subcommand name
or alias and then exact option names, each at most once and each followed
by its value as a separate token not starting with "-", parses in
_parse_plain to a SimpleNamespace of the attributes argparse would set, in
4-6 us against argparse's 46-63 us (timeit, Intel Xeon, Python 3.11.7).
argparse still decides every other argv (--help, usage errors,
abbreviations, --opt=value, bundled flags, repeats, values starting with
"-"), with its own output and exit codes.  Its parser is built on the first
such argv, once per process, so ``main(argv)`` may be called any number of
times in one process and pays only for parsing and the command itself.
``import permroots`` does not import this module, so library users never
build the parser.

Importing this module loads no argparse, json or fractions (nor decimal,
which fractions imports): argparse is imported with the parser, json in each
--format json branch, and fractions only where a Fraction is made, which of
the commands only prob and selftest do.  A plain text exists, count, roots
or table imports none of them: ``python -S -X importtime -c "import
permroots.cli"`` reads 6.7 ms for this module, against 21.3 ms when all
three were imported with it (medians of five, Intel Xeon, Python 3.11.7).
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
from math import factorial, gcd
from operator import itemgetter
from types import SimpleNamespace

from ._checks import InternalCheckError, SizeCapError, int_text, require_int
from .counting import _witness, root_count
from .egf import check_prime_power_equalities, r_total_from_types, r_total_range
from .egf import _count_from_series, _require_prime_power, root_count_egf
from .gsets import count_epsilons, g_set_bounded
from .perm import (
    DEFAULT_ORACLE_BOUND,
    CycleType,
    Permutation,
    brute_force_root_table,
    cycle_type,
    cycle_types,
    enumerate_roots,
    format_cycle_type,
    format_permutation,
    parse_cycle_type,
    parse_permutation,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_SIZE = 4
EXIT_INTERNAL = 5

DEFAULT_ROOT_LIMIT = 10_000
DEFAULT_TRUNCATION_CAP = 200
# The longest integer a command reads or writes: converting an int to or from
# decimal text takes time quadratic in its length.
MAX_ANSWER_DIGITS = 100_000
# 2**_ANSWER_BITS < 10**MAX_ANSWER_DIGITS, as log2(10) > 3.321928
_ANSWER_BITS = MAX_ANSWER_DIGITS * 3_321_928 // 1_000_000


def _refuse_long(*answers: int) -> None:
    """Refuse any answer of more than MAX_ANSWER_DIGITS decimal digits."""
    for value in answers:
        if value.bit_length() > _ANSWER_BITS and value >= 10**MAX_ANSWER_DIGITS:
            raise SizeCapError(
                f"the answer has more than MAX_ANSWER_DIGITS = {MAX_ANSWER_DIGITS} "
                f"decimal digits; it is not printed"
            )


def _resolve_cycle_type(args) -> CycleType:
    if args.perm is not None:
        return cycle_type(parse_permutation(args.perm))
    return parse_cycle_type(args.type)


def _resolve_permutation(args) -> Permutation:
    if args.perm is not None:
        return parse_permutation(args.perm)
    return parse_cycle_type(args.type).canonical_permutation()


def _parse_range(text: str) -> tuple[int, int]:
    """Inclusive degree range: "0..5", or a single degree "7"."""
    lo_text, sep, hi_text = text.partition("..")
    try:
        lo = int(lo_text)
        hi = int(hi_text) if sep else lo
    except ValueError as exc:
        raise ValueError(f"bad range {text!r}: use A..B or a single integer") from exc
    if lo < 0 or hi < lo:
        raise ValueError(f"bad range {text!r}: need 0 <= A <= B")
    return lo, hi


def _decimal_text(num: int, den: int, places: int = 12) -> str:
    """Fixed-point rendering of num / den >= 0, presentation only: rounded
    half to even from the integer ratio, as round(Fraction) does."""
    rounded, remainder = divmod(num * 10**places, den)
    if 2 * remainder + (rounded & 1) > den:  # past the half, or at it with rounded odd
        rounded += 1
    digits = f"{rounded:0{places + 1}d}"
    return f"{digits[:-places]}.{digits[-places:]}"


def _print_aligned(rows: list[dict], columns: list[str]) -> None:
    widths = {
        col: max(len(col), *(len(str(row[col])) for row in rows)) if rows else len(col)
        for col in columns
    }
    print("  ".join(col.rjust(widths[col]) for col in columns))
    for row in rows:
        print("  ".join(str(row[col]).rjust(widths[col]) for col in columns))


def _cmd_exists(args) -> int:
    m = require_int(args.m, "m")
    t = _resolve_cycle_type(args)
    columns = ["ell", "a", "required", "divides"]
    rows = [dict(zip(columns, row)) for row in _witness(t, m)]
    answer = all(row["divides"] for row in rows)
    if args.format == "json":
        import json
        payload = {"m": m, "cycle_type": format_cycle_type(t), "exists": answer, "witness": rows}
        print(json.dumps(payload, sort_keys=True))
    else:
        print("yes" if answer else "no")
        if rows:
            _print_aligned(
                [{**row, "divides": "yes" if row["divides"] else "no"} for row in rows], columns
            )
    return EXIT_OK


def _count_detail(t: CycleType, m: int) -> list[dict]:
    """Per-length breakdown: admissible cycle-fusion sizes and solution counts."""
    detail = []
    for ell, count in t.nonzero():
        elements = g_set_bounded(m, ell, count)
        detail.append(
            {
                "ell": ell,
                "a": count,
                "admissible_g": list(elements),
                "solutions": count_epsilons(elements, count),
            }
        )
    return detail


def _cmd_count(args) -> int:
    m = require_int(args.m, "m")
    t = _resolve_cycle_type(args)
    value = root_count(t, m)
    detail = _count_detail(t, m) if args.verbose else None
    _refuse_long(value, *(row["solutions"] for row in detail or ()))
    if args.format == "json":
        import json
        payload = {"m": m, "cycle_type": format_cycle_type(t), "count": value}
        if detail is not None:
            payload["detail"] = detail
        print(json.dumps(payload, sort_keys=True))
    else:
        print(value)
        if detail is not None:
            for row in detail:
                gs = ", ".join(str(g) for g in row["admissible_g"])
                print(
                    f"ell={row['ell']} a={row['a']} admissible g=[{gs}] "
                    f"solutions={row['solutions']}"
                )
    return EXIT_OK


def _write_roots(roots, names: list[str]) -> int:
    """Write each root as one line, the texts of its labels (names[i] is
    the text of i) gathered in one itemgetter pass; return how many.
    The gather is one C call per root, where a list comprehension over
    names made roots-stream about 5% slower end to end.  itemgetter()
    raises and itemgetter(i) returns a bare text, so S_0 and S_1, one root
    each, are written by format_permutation instead."""
    emitted = 0
    if len(names) <= 2:
        for emitted, tau in enumerate(roots, 1):
            sys.stdout.write(format_permutation(tau) + "\n")
        return emitted
    for emitted, tau in enumerate(roots, 1):
        sys.stdout.write(" ".join(itemgetter(*tau.image)(names)) + "\n")
    return emitted


def _cmd_roots(args) -> int:
    """Write each root as enumerate_roots builds it, then count: the count
    checks the stream and decides truncation, so no root waits for it.
    Under --all, or when the count fits --limit, the stream is read to its
    end; otherwise it stops at the limit, and a --limit run waits for the
    count before its truncation message, which names the total."""
    m = require_int(args.m, "m")
    limit = require_int(args.limit, "--limit")  # checked under --all too
    sigma = _resolve_permutation(args)
    names = list(map(str, range(sigma.degree + 1)))  # each label's text, built once per command
    roots = enumerate_roots(sigma, m)
    emitted = _write_roots(roots if args.all else itertools.islice(roots, limit), names)
    sys.stdout.flush()  # on a pipe too, the roots reach the reader before the count runs
    total = root_count(cycle_type(sigma), m)
    shown = total if args.all else min(total, limit)
    if shown == total:  # a stream that fits is read to its end
        emitted += _write_roots(roots, names)
    if emitted != shown:
        raise InternalCheckError(f"enumerate_roots streamed {emitted} roots where {shown} were due")
    if shown < total:
        _refuse_long(total)
        print(
            f"error: output truncated at --limit {args.limit} of {total} roots; "
            f"raise --limit or pass --all",
            file=sys.stderr,
        )
        return EXIT_SIZE
    return EXIT_OK


def _table_rows(lo: int, hi: int, m: int) -> list[dict]:
    rows = []
    for n, count in enumerate(r_total_range(lo, hi, m), start=lo):
        n_factorial = factorial(n)
        divisor = gcd(count, n_factorial)
        rows.append(
            {
                "n": n,
                "m": m,
                "r_total": count,
                "p_num": count // divisor,
                "p_den": n_factorial // divisor,
                "p_decimal": _decimal_text(count, n_factorial),
            }
        )
    return rows


TABLE_COLUMNS = ["n", "m", "r_total", "p_num", "p_den", "p_decimal"]


def _refuse_past_truncation(args, top: int, reach: str) -> None:
    """Refuse a series expansion to degree top above --truncation-cap;
    reach words the request for the message."""
    cap = require_int(args.truncation_cap, "--truncation-cap", minimum=0)
    if top > cap:
        raise SizeCapError(f"{reach} the truncation cap {cap}; raise --truncation-cap explicitly")


def _cmd_table(args) -> int:
    m = require_int(args.m, "m")
    lo, hi = _parse_range(args.n)
    _refuse_past_truncation(args, hi, f"degree {hi} exceeds")
    rows = _table_rows(lo, hi, m)
    _refuse_long(*(row[col] for row in rows for col in ("r_total", "p_num", "p_den")))
    if args.format == "json":
        import json
        print(json.dumps(rows, sort_keys=True))
    elif args.format == "csv":  # no value holds a comma or a quote
        print(",".join(TABLE_COLUMNS))
        for row in rows:
            print(",".join(str(row[col]) for col in TABLE_COLUMNS))
    else:
        _print_aligned(rows, TABLE_COLUMNS)
    return EXIT_OK


def _cmd_prob(args) -> int:
    # q and r before the caps, but a q past the truncation cap meets it untested:
    # deciding that q is prime takes up to sqrt(q) divisions
    if args.q <= require_int(args.truncation_cap, "--truncation-cap", minimum=0) + 1:
        _require_prime_power(args.q, args.r)
    else:
        require_int(args.r, "r")
    blocks = require_int(args.blocks, "--blocks")
    top = blocks * args.q - 1
    _refuse_past_truncation(args, top, f"{blocks} blocks reach degree {int_text(top)}, above")
    # m = q**r is printed too; q**(_ANSWER_BITS + 1) already passes the digits cap
    _refuse_long(args.q ** min(args.r, _ANSWER_BITS + 1))
    report = check_prime_power_equalities(args.q, args.r, args.blocks)
    all_equal = report.all_equal
    probabilities = [p for block in report.blocks for p in block.probabilities]
    _refuse_long(*(x for p in probabilities for x in (p.numerator, p.denominator)))
    if args.format == "json":
        import json
        payload = {
            "q": report.q,
            "r": report.r,
            "m": report.m,
            "all_equal": all_equal,
            "blocks": [
                {
                    "j": block.j,
                    "ns": list(block.ns),
                    "probabilities": [
                        f"{p.numerator}/{p.denominator}" for p in block.probabilities
                    ],
                    "equal": block.equal,
                }
                for block in report.blocks
            ],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"m = {report.q}^{report.r} = {report.m}")
        for block in report.blocks:
            probs = " ".join(f"{p.numerator}/{p.denominator}" for p in block.probabilities)
            verdict = "equal" if block.equal else "UNEQUAL"
            print(f"block j={block.j}  n={block.ns[0]}..{block.ns[-1]}  p: {probs}  [{verdict}]")
        print(f"all blocks equal: {'yes' if all_equal else 'NO'}")
    if not all_equal:
        print("error: a probability block failed its equality check", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


def _cmd_selftest(args) -> int:
    try:
        ms = [int(tok) for tok in args.m_values.split(",") if tok.strip()]
    except ValueError:
        ms = []
    if not ms or any(m < 1 for m in ms):
        raise ValueError(f"bad -m list {args.m_values!r}")
    max_n = require_int(args.max_n, "--max-n", minimum=0)
    bound = require_int(args.oracle_bound, "--oracle-bound", minimum=0)
    if max_n > bound:
        raise SizeCapError(
            f"--max-n {max_n} exceeds the oracle bound {bound}; raise --oracle-bound explicitly"
        )

    counted: dict[tuple[tuple[int, ...], int], int] = {}  # root_count per (type vector, m)
    for m in ms:
        for n in range(max_n + 1):
            # one scan of S_n per (n, m): every permutation bucketed by its m-th power
            table = brute_force_root_table(n, m, max_n=bound)
            for image in itertools.permutations(range(1, n + 1)):
                sigma = Permutation._proved(image)
                expected = table.get(image, [])
                constructed = sorted(tau.image for tau in enumerate_roots(sigma, m))
                t = cycle_type(sigma)
                key = (t.a, m)
                if key not in counted:
                    counted[key] = root_count(t, m)
                if constructed != expected:
                    raise InternalCheckError(f"root sets differ for {sigma}, m={m}")
                if counted[key] != len(expected):
                    raise InternalCheckError(f"root count differs for {sigma}, m={m}")
    print(f"ok oracle equivalence: n <= {max_n}, m in {ms}")

    for m in ms:
        for n in range(max_n + 1):
            total = sum(counted[t.a, m] * t.class_size() for t in cycle_types(n))
            if total != factorial(n):
                raise InternalCheckError(f"global root identity fails at n={n}, m={m}")
    print(f"ok global identity sum(root_count * class_size) == n!: n <= {max_n}, m in {ms}")

    for m in ms:
        # one series per m: truncating the weight leaves lower weights as they are
        series = root_count_egf(m, max_n)
        for n in range(max_n + 1):
            for t in cycle_types(n):
                if _count_from_series(series, t, m) != counted[t.a, m]:
                    raise InternalCheckError(f"series and product formulas differ at {t}, m={m}")
    print(f"ok generating-function agreement: weight <= {max_n}, m in {ms}")

    for m in ms:
        # r_total_range checks its convolution against the series itself
        for n, value in enumerate(r_total_range(0, max_n, m)):
            by_types = r_total_from_types(n, m)
            if value != by_types:
                raise InternalCheckError(
                    f"series and classification routes disagree at n={n}, m={m}: "
                    f"{value} vs {by_types}"
                )
    print(f"ok r_total dual route: n <= {max_n}, m in {ms}")

    for q, r in ((2, 1), (2, 2), (3, 1)):
        blocks = max(1, (max_n + 1) // q)
        report = check_prime_power_equalities(q, r, blocks)
        if not report.all_equal:
            raise InternalCheckError(f"probability blocks unequal for m={q}^{r}")
    print("ok prime-power probability blocks: m in [2, 4, 3]")

    print("selftest passed")
    return EXIT_OK


def _option(*flags: str, one_of: bool = False, **keywords) -> tuple:
    """One option: its exact spellings, add_argument's keywords (dest always
    named) and whether it belongs to the command's required one-of group."""
    return flags, keywords, one_of


_M = _option("-m", dest="m", type=int, required=True, help="root degree")
_PERM = _option(
    "--perm", dest="perm", one_of=True, help='permutation in one-line notation, e.g. "2 3 1"'
)
_TYPE = _option(
    "--type",
    dest="type",
    one_of=True,
    help='cycle type, e.g. "1^2 3" for two fixed points and a 3-cycle',
)
_TEXT_OR_JSON = _option("--format", dest="format", choices=["text", "json"], default="text")
_TRUNCATION_CAP = _option(
    "--truncation-cap",
    dest="truncation_cap",
    type=int,
    default=DEFAULT_TRUNCATION_CAP,
    help=f"largest degree the series may be expanded to (default {DEFAULT_TRUNCATION_CAP})",
)

# Each subcommand declared once: (name, aliases, help, handler, options in
# --help order).  _parser hands every option to add_argument, and
# _parse_plain reads the same entries.  An option takes one value (converted
# by its type, if any, and checked against its choices) or is a store_true flag.
_COMMANDS = (
    (
        "exists",
        (),
        "decide whether an m-th root exists",
        _cmd_exists,
        (_M, _PERM, _TYPE, _TEXT_OR_JSON),
    ),
    (
        "count",
        (),
        "exact number of m-th roots",
        _cmd_count,
        (
            _M,
            _PERM,
            _TYPE,
            _TEXT_OR_JSON,
            _option(
                "-v",
                "--verbose",
                dest="verbose",
                action="store_true",
                help="also print the per-length breakdown (admissible g, solution counts)",
            ),
        ),
    ),
    (
        "roots",
        (),
        "stream all m-th roots in one-line notation",
        _cmd_roots,
        (
            _M,
            _PERM,
            _TYPE,
            _option(
                "--limit",
                dest="limit",
                type=int,
                default=DEFAULT_ROOT_LIMIT,
                help=f"refuse to stream more than this many roots (default {DEFAULT_ROOT_LIMIT})",
            ),
            _option(
                "--all", dest="all", action="store_true", help="stream every root, ignoring --limit"
            ),
        ),
    ),
    (
        "table",
        (),
        "r_total and root probability over a range of degrees",
        _cmd_table,
        (
            _M,
            _option("--n", dest="n", required=True, help='degree range "A..B" (or one degree)'),
            _option("--format", dest="format", choices=["text", "csv", "json"], default="text"),
            _TRUNCATION_CAP,
        ),
    ),
    (
        "prob",
        ("verify",),
        "verify equal root probabilities on blocks of prime-power length",
        _cmd_prob,
        (
            _option("-q", dest="q", type=int, required=True, help="prime base of m = q^r"),
            _option("-r", dest="r", type=int, default=1, help="exponent of m = q^r (default 1)"),
            _option(
                "--blocks",
                dest="blocks",
                type=int,
                default=8,
                help="number of blocks to verify (default 8)",
            ),
            _TEXT_OR_JSON,
            _TRUNCATION_CAP,
        ),
    ),
    (
        "selftest",
        (),
        "run the oracle-equivalence and identity suites",
        _cmd_selftest,
        (
            _option(
                "--max-n",
                dest="max_n",
                type=int,
                default=5,
                help="largest degree to scan exhaustively (default 5)",
            ),
            _option(
                "-m",
                dest="m_values",
                default="2,3,4",
                help='comma-separated root degrees (default "2,3,4")',
            ),
            _option(
                "--oracle-bound",
                dest="oracle_bound",
                type=int,
                default=DEFAULT_ORACLE_BOUND,
                help=f"cap on the exhaustive S_n scan (default {DEFAULT_ORACLE_BOUND})",
            ),
        ),
    ),
)


@functools.cache
def _parser():
    """The argparse parser of every subcommand in _COMMANDS, built on the
    first argv that _parse_plain leaves to it: parse_args makes a fresh
    Namespace on every call and never changes the parser, so one serves
    every command in the process."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="permroots",
        description="Exact m-th roots of permutations: existence, counts, "
        "construction, and root probabilities.",
        epilog="Exit codes: 0 ok, 2 usage, 3 bad input, 4 size-cap refusal, "
        "5 internal-check failure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, aliases, summary, handler, options in _COMMANDS:
        command = sub.add_parser(name, aliases=aliases, help=summary)
        group = None
        for flags, keywords, one_of in options:
            if one_of and group is None:  # the group takes its place in the usage line here
                group = command.add_mutually_exclusive_group(required=True)
            (group if one_of else command).add_argument(*flags, **keywords)
        command.set_defaults(func=handler)
    return parser


def _plain_readers() -> dict:
    """For each subcommand name and alias: (spelling -> (dest, convert or
    None for a flag, choices)), its defaults, its required dests and its
    one-of dests, all read from _COMMANDS."""
    readers = {}
    for name, aliases, _, handler, options in _COMMANDS:
        spellings, defaults, required, one_of = {}, {"func": handler}, set(), set()
        for flags, keywords, in_group in options:
            dest = keywords["dest"]
            flag = keywords.get("action") == "store_true"
            defaults[dest] = keywords.get("default", False if flag else None)
            reader = (dest, None if flag else keywords.get("type", str), keywords.get("choices"))
            spellings.update(dict.fromkeys(flags, reader))
            if keywords.get("required"):
                required.add(dest)
            if in_group:
                one_of.add(dest)
        for command in (name, *aliases):
            readers[command] = (spellings, defaults, frozenset(required), frozenset(one_of))
    return readers


_PLAIN_READERS = _plain_readers()


def _parse_plain(argv: list[str]) -> SimpleNamespace | None:
    """The attributes _parser().parse_args(argv) would set, as a
    SimpleNamespace, for an argv of plain spellings: a subcommand name or
    alias, then exact option names, each at most once, each value its own
    token not starting with "-".  None for any
    other argv (--help, abbreviations, --opt=value, bundled flags, a value
    starting with "-", a repeated option, every usage error), which argparse
    then decides with its own words and exit code."""
    if not argv or argv[0] not in _PLAIN_READERS:
        return None
    spellings, defaults, required, one_of = _PLAIN_READERS[argv[0]]
    values = {}
    i, end = 1, len(argv)
    while i < end:
        reader = spellings.get(argv[i])
        if reader is None:
            return None
        dest, convert, choices = reader
        if dest in values:
            return None
        if convert is None:
            values[dest] = True
            i += 1
            continue
        if i + 1 == end or argv[i + 1][:1] == "-":
            return None
        try:
            value = convert(argv[i + 1])
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
        i += 2
    if not required <= values.keys() or (one_of and len(one_of & values.keys()) != 1):
        return None
    return SimpleNamespace(command=argv[0], **{**defaults, **values})


def main(argv=None) -> int:
    # one digits limit for the whole command, parsing included
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(MAX_ANSWER_DIGITS)
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        args = _parse_plain(argv)
        if args is None:
            args = _parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe must fail here, not at interpreter exit
        return code
    except SystemExit as exc:  # from the parser: usage errors, --help
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except BrokenPipeError:
        # The reader stopped early (``| head -1``); that ends the command, quietly.
        # stdout goes to devnull so the flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except ValueError as exc:  # a SizeCapError is a refusal, any other bad input
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE if isinstance(exc, SizeCapError) else EXIT_INPUT
    except AssertionError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
