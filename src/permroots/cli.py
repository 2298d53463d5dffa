"""Command-line interface.

Subcommands: exists, count, roots, table, prob (alias: verify), selftest.
Exit codes: 0 success (a correct "no roots exist" answer is success),
2 usage errors, 3 malformed inputs (a ValueError), 4 size-cap refusals (a
SizeCapError), 5 internal-check failures (an InternalCheckError), also
under ``python -O``.  A reader that closes the output pipe early ends the
command with exit 0 and no message.  Size caps (S_n scan bound, root
stream limit, series truncation) are explicit flags with loud refusals,
never silent clamps.  Two caps are fixed: an answer (a count, the total in
the roots --limit message, r_total, p_num, p_den, prob's m = q**r, a
probability's numerator or denominator) of more than MAX_ANSWER_DIGITS =
100,000 decimal digits is refused with exit 4 instead of printed, and a
--type of degree above perm.MAX_DEGREE = 1,000,000 is refused with exit 4
before it is built.
Decimal columns are presentation only, rounded half to even from the exact
integer ratio; all computation is exact.

The argument parser is built once, when this module is imported, so
``main(argv)`` may be called any number of times in one process and pays
only for parsing and the command itself.  ``import permroots`` does not
import this module, so library users never build the parser.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from contextlib import contextmanager
from math import factorial, gcd

from ._checks import InternalCheckError, SizeCapError, require_int
from .counting import _witness, root_count
from .egf import check_prime_power_equalities, r_total_from_types, r_total_range
from .egf import _count_from_series, _require_prime_power, root_count_egf
from .gsets import count_epsilons, g_set_bounded
from .perm import (
    CycleType,
    Permutation,
    brute_force_root_table,
    cycle_type,
    cycle_types,
    enumerate_roots,
    format_cycle_type,
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
DEFAULT_ORACLE_BOUND = 8
# Answers longer than this are refused, not printed: writing an int as
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


@contextmanager
def _answer_text(*answers: int):
    """Convert the answers to decimal text only inside this block.

    An answer of more than MAX_ANSWER_DIGITS digits is refused before any
    conversion; the interpreter's own limit on int-to-text conversion
    (4300 digits by default) is lifted inside the block only."""
    _refuse_long(*answers)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: none (before 3.10.7)
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


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
    with _answer_text(value, *(row["solutions"] for row in detail or ())):
        if args.format == "json":
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


def _cmd_roots(args) -> int:
    m = require_int(args.m, "m")
    require_int(args.limit, "--limit")
    sigma = _resolve_permutation(args)
    total = root_count(cycle_type(sigma), m)
    shown = total if args.all else min(total, args.limit)
    names = list(map(str, range(sigma.degree + 1)))  # each label's text, built once per command
    emitted = 0
    # A stream that fits is read to its end; a longer one stops at the limit.
    for tau in itertools.islice(enumerate_roots(sigma, m), None if shown == total else shown):
        print(" ".join(map(names.__getitem__, tau.image)))
        emitted += 1
    if emitted != shown:
        raise InternalCheckError(f"enumerate_roots streamed {emitted} roots where {shown} were due")
    if shown < total:
        with _answer_text(total):
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
    with _answer_text(*(row[col] for row in rows for col in ("r_total", "p_num", "p_den"))):
        if args.format == "json":
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
    _refuse_past_truncation(args, top, f"{blocks} blocks reach degree {top}, above")
    # m = q**r is printed too; q**(_ANSWER_BITS + 1) already passes the digits cap
    _refuse_long(args.q ** min(args.r, _ANSWER_BITS + 1))
    report = check_prime_power_equalities(args.q, args.r, args.blocks)
    all_equal = report.all_equal
    probabilities = [p for block in report.blocks for p in block.probabilities]
    with _answer_text(*(x for p in probabilities for x in (p.numerator, p.denominator))):
        if args.format == "json":
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


def _add_query(sub, name: str, summary: str) -> argparse.ArgumentParser:
    """A command on one permutation: -m, and --perm or --type."""
    query = sub.add_parser(name, help=summary)
    query.add_argument("-m", type=int, required=True, help="root degree")
    group = query.add_mutually_exclusive_group(required=True)
    group.add_argument("--perm", help='permutation in one-line notation, e.g. "2 3 1"')
    group.add_argument("--type", help='cycle type, e.g. "1^2 3" for two fixed points and a 3-cycle')
    return query


def _add_truncation_cap(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--truncation-cap",
        type=int,
        default=DEFAULT_TRUNCATION_CAP,
        help=f"largest degree the series may be expanded to (default {DEFAULT_TRUNCATION_CAP})",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permroots",
        description="Exact m-th roots of permutations: existence, counts, "
        "construction, and root probabilities.",
        epilog="Exit codes: 0 ok, 2 usage, 3 bad input, 4 size-cap refusal, "
        "5 internal-check failure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exists = _add_query(sub, "exists", "decide whether an m-th root exists")
    p_exists.add_argument("--format", choices=["text", "json"], default="text")
    p_exists.set_defaults(func=_cmd_exists)

    p_count = _add_query(sub, "count", "exact number of m-th roots")
    p_count.add_argument("--format", choices=["text", "json"], default="text")
    p_count.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="also print the per-length breakdown (admissible g, solution counts)",
    )
    p_count.set_defaults(func=_cmd_count)

    p_roots = _add_query(sub, "roots", "stream all m-th roots in one-line notation")
    p_roots.add_argument(
        "--limit",
        type=int,
        default=DEFAULT_ROOT_LIMIT,
        help=f"refuse to stream more than this many roots (default {DEFAULT_ROOT_LIMIT})",
    )
    p_roots.add_argument(
        "--all", action="store_true", help="stream every root, ignoring --limit"
    )
    p_roots.set_defaults(func=_cmd_roots)

    p_table = sub.add_parser(
        "table", help="r_total and root probability over a range of degrees"
    )
    p_table.add_argument("-m", type=int, required=True, help="root degree")
    p_table.add_argument("--n", required=True, help='degree range "A..B" (or one degree)')
    p_table.add_argument("--format", choices=["text", "csv", "json"], default="text")
    _add_truncation_cap(p_table)
    p_table.set_defaults(func=_cmd_table)

    p_prob = sub.add_parser(
        "prob",
        aliases=["verify"],
        help="verify equal root probabilities on blocks of prime-power length",
    )
    p_prob.add_argument("-q", type=int, required=True, help="prime base of m = q^r")
    p_prob.add_argument("-r", type=int, default=1, help="exponent of m = q^r (default 1)")
    p_prob.add_argument(
        "--blocks", type=int, default=8, help="number of blocks to verify (default 8)"
    )
    p_prob.add_argument("--format", choices=["text", "json"], default="text")
    _add_truncation_cap(p_prob)
    p_prob.set_defaults(func=_cmd_prob)

    p_self = sub.add_parser(
        "selftest", help="run the oracle-equivalence and identity suites"
    )
    p_self.add_argument(
        "--max-n", type=int, default=5, help="largest degree to scan exhaustively (default 5)"
    )
    p_self.add_argument(
        "-m",
        dest="m_values",
        default="2,3,4",
        help='comma-separated root degrees (default "2,3,4")',
    )
    p_self.add_argument(
        "--oracle-bound",
        type=int,
        default=DEFAULT_ORACLE_BOUND,
        help=f"cap on the exhaustive S_n scan (default {DEFAULT_ORACLE_BOUND})",
    )
    p_self.set_defaults(func=_cmd_selftest)

    return parser


# Built once at import: parse_args makes a fresh Namespace on every call and
# never changes the parser, so main may run any number of commands in one process.
_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe must fail here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader stopped early (``| head -1``); that ends the command, quietly.
        # stdout goes to devnull so the flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AssertionError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
