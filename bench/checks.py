"""Independent check routes for the benchmark.

Nothing here imports permroots: every answer the program prints is compared
against a value this module computes its own way.

- Existence: bracket(ell, m) from a local factorization.
- Root counts: the integer recurrence
      b_a = sum over g <= a with gcd(g*ell, m) == g of
            (a-1)!/(a-g)! * ell**(g-1) * b_(a-g),
  multiplied over the cycle lengths ell.
- ``count -v`` rows: admissible sizes by a gcd scan, solution counts by a
  coin-change dynamic program.
- r(n, m): labelled (binomial) integer convolution over ell of the
  sequences (k*ell)! / (ell**k * k!), kept only where bracket(ell, m)
  divides k.
- Roots: own cycle decomposition and powering.

Each ``check_*`` function takes a command's argv and its captured stdout and
returns None when the output is right, or a one-line reason when it is not.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, factorial, gcd


# ---- number theory -------------------------------------------------------

def prime_factors(n: int) -> list[int]:
    """Distinct primes dividing n >= 1, increasing."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def bracket(ell: int, m: int) -> int:
    """Product over primes p dividing ell of the full power of p in m."""
    out = 1
    for p in prime_factors(ell):
        while m % p == 0:
            m //= p
            out *= p
    return out


def admissible_sizes(ell: int, m: int, a: int) -> list[int]:
    """Fusion sizes g <= a with gcd(g*ell, m) == g, by a direct scan."""
    return [g for g in range(1, min(a, m) + 1) if gcd(g * ell, m) == g]


def solution_count(sizes: list[int], a: int) -> int:
    """Nonnegative eps with sum(g_i * eps_i) == a (coin-change table)."""
    ways = [1] + [0] * a
    for g in sizes:
        for s in range(g, a + 1):
            ways[s] += ways[s - g]
    return ways[a]


# ---- cycle types and permutations ----------------------------------------

def parse_type(text: str) -> dict[int, int]:
    """"1^2 3" -> {1: 2, 3: 1}."""
    out: dict[int, int] = {}
    for token in text.split():
        ell, _, count = token.partition("^")
        out[int(ell)] = int(count) if count else 1
    return out


def type_of(image: list[int]) -> dict[int, int]:
    """Cycle type of a one-line image (values 1..n) as {length: count}."""
    seen = [False] * len(image)
    out: dict[int, int] = {}
    for start in range(len(image)):
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = image[x] - 1
            length += 1
        if length:
            out[length] = out.get(length, 0) + 1
    return out


def power(image: list[int], m: int) -> list[int]:
    """m-th power of a one-line image by repeated squaring of index maps."""
    n = len(image)
    result = list(range(n))
    base = [v - 1 for v in image]
    while m:
        if m & 1:
            result = [base[i] for i in result]
        base = [base[i] for i in base]
        m >>= 1
    return [v + 1 for v in result]


def class_size(t: dict[int, int]) -> int:
    size = factorial(sum(ell * a for ell, a in t.items()))
    for ell, a in t.items():
        size //= ell**a * factorial(a)
    return size


def partitions(n: int):
    """Cycle types of S_n as {length: count} dicts."""
    def rec(rest: int, largest: int):
        if rest == 0:
            yield {}
            return
        for part in range(min(rest, largest), 0, -1):
            for tail in rec(rest - part, part):
                t = dict(tail)
                t[part] = t.get(part, 0) + 1
                yield t
    yield from rec(n, n)


# ---- the counted quantities ----------------------------------------------

def exists(t: dict[int, int], m: int) -> bool:
    return all(a % bracket(ell, m) == 0 for ell, a in t.items() if a)


def length_factor(ell: int, a: int, m: int) -> int:
    """Number of m-th roots of a product of a disjoint ell-cycles."""
    sizes = admissible_sizes(ell, m, a)
    b = [1] + [0] * a
    for k in range(1, a + 1):
        b[k] = sum(
            factorial(k - 1) // factorial(k - g) * ell ** (g - 1) * b[k - g]
            for g in sizes
            if g <= k
        )
    return b[a]


def root_count(t: dict[int, int], m: int) -> int:
    total = 1
    for ell, a in t.items():
        if a:
            total *= length_factor(ell, a, m)
    return total


def r_values(top: int, m: int) -> list[int]:
    """r(0..top, m): permutations of n elements that have an m-th root."""
    r = [1] + [0] * top
    for ell in range(1, top + 1):
        q = bracket(ell, m)
        factor = [0] * (top + 1)
        for k in range(0, top // ell + 1, q):
            factor[k * ell] = factorial(k * ell) // (ell**k * factorial(k))
        r = [
            sum(comb(n, j) * factor[j] * r[n - j] for j in range(0, n + 1, ell))
            for n in range(top + 1)
        ]
    return r


def probability(n: int, r: list[int]) -> Fraction:
    return Fraction(r[n], factorial(n))


# ---- argv helpers --------------------------------------------------------

def option(argv: list[str], name: str, default=None):
    for i, tok in enumerate(argv):
        if tok == name:
            return argv[i + 1]
    return default


def input_type(argv: list[str]) -> dict[int, int]:
    perm = option(argv, "--perm")
    if perm is not None:
        return type_of([int(x) for x in perm.split()])
    return parse_type(option(argv, "--type"))


def type_text(t: dict[int, int]) -> str:
    return " ".join(f"{ell}^{a}" for ell, a in sorted(t.items()) if a)


# ---- output checks -------------------------------------------------------

def check_exists(argv: list[str], out: str) -> str | None:
    m = int(option(argv, "-m"))
    t = input_type(argv)
    verdict = exists(t, m)
    rows = [
        {"ell": ell, "a": a, "required": bracket(ell, m), "divides": a % bracket(ell, m) == 0}
        for ell, a in sorted(t.items())
        if a
    ]
    if option(argv, "--format") == "json":
        got = json.loads(out)
        want = {"m": m, "cycle_type": type_text(t), "exists": verdict, "witness": rows}
        return None if got == want else f"exists json {got!r} != {want!r}"
    lines = out.splitlines()
    if not lines or lines[0] != ("yes" if verdict else "no"):
        return f"exists verdict {lines[:1]!r}, want {verdict}"
    body = [line.split() for line in lines[1:]]
    want_body = []
    if rows:
        want_body.append(["ell", "a", "required", "divides"])
        want_body += [
            [str(r["ell"]), str(r["a"]), str(r["required"]), "yes" if r["divides"] else "no"]
            for r in rows
        ]
    return None if body == want_body else f"exists witness {body!r} != {want_body!r}"


def check_count(argv: list[str], out: str) -> str | None:
    m = int(option(argv, "-m"))
    t = input_type(argv)
    want = root_count(t, m)
    detail = [
        {
            "ell": ell,
            "a": a,
            "admissible_g": admissible_sizes(ell, m, a),
            "solutions": solution_count(admissible_sizes(ell, m, a), a),
        }
        for ell, a in sorted(t.items())
        if a
    ]
    verbose = "-v" in argv or "--verbose" in argv
    if option(argv, "--format") == "json":
        got = json.loads(out)
        expected = {"m": m, "cycle_type": type_text(t), "count": want}
        if verbose:
            expected["detail"] = detail
        return None if got == expected else f"count json {got!r} != {expected!r}"
    lines = out.splitlines()
    if not lines or lines[0] != str(want):
        return f"count {lines[:1]!r}, want {want}"
    rows = lines[1:]
    want_rows = []
    if verbose:
        want_rows = [
            f"ell={d['ell']} a={d['a']} admissible g=[{', '.join(map(str, d['admissible_g']))}] "
            f"solutions={d['solutions']}"
            for d in detail
        ]
    return None if rows == want_rows else f"count rows {rows!r} != {want_rows!r}"


def check_roots(argv: list[str], out: str) -> str | None:
    m = int(option(argv, "-m"))
    sigma = [int(x) for x in option(argv, "--perm").split()]
    n = len(sigma)
    want = root_count(type_of(sigma), m)
    lines = out.splitlines()
    if len(lines) != want:
        return f"{len(lines)} root lines, want {want}"
    if len(set(lines)) != len(lines):
        return "duplicate root lines"
    identity = list(range(1, n + 1))
    for line in lines:
        tau = [int(x) for x in line.split()]
        if sorted(tau) != identity:
            return f"not a permutation of 1..{n}: {line!r}"
        if power(tau, m) != sigma:
            return f"tau^{m} != sigma for {line!r}"
    return None


TABLE_COLUMNS = ["n", "m", "r_total", "p_num", "p_den", "p_decimal"]


def _table_rows(fmt: str, out: str) -> list[dict]:
    if fmt == "json":
        return [{k: str(v) for k, v in row.items()} for row in json.loads(out)]
    lines = out.splitlines()
    split = (lambda s: s.split(",")) if fmt == "csv" else str.split
    header = split(lines[0])
    if header != TABLE_COLUMNS:
        raise ValueError(f"table header {header!r}")
    return [dict(zip(header, split(line))) for line in lines[1:]]


def check_table(argv: list[str], out: str) -> str | None:
    m = int(option(argv, "-m"))
    lo, _, hi = option(argv, "--n").partition("..")
    lo, hi = int(lo), int(hi or lo)
    r = r_values(hi, m)
    rows = _table_rows(option(argv, "--format", default="text"), out)
    if [row.get("n") for row in rows] != [str(n) for n in range(lo, hi + 1)]:
        return f"table degrees {[row.get('n') for row in rows]!r}, want {lo}..{hi}"
    for row in rows:
        n = int(row["n"])
        p_num, p_den = int(row["p_num"]), int(row["p_den"])
        if int(row["m"]) != m or int(row["r_total"]) != r[n]:
            return f"table row n={n}: r_total {row['r_total']}, want {r[n]}"
        if gcd(p_num, p_den) != 1 or p_num * factorial(n) != r[n] * p_den:
            return f"table row n={n}: p={p_num}/{p_den}, want {probability(n, r)}"
        whole, _, frac = row["p_decimal"].partition(".")
        scaled = int(whole + frac)
        if abs(Fraction(scaled) - probability(n, r) * 10 ** len(frac)) > Fraction(1, 2):
            return f"table row n={n}: p_decimal {row['p_decimal']}"
    return None


def check_prob(argv: list[str], out: str) -> str | None:
    q = int(option(argv, "-q"))
    e = int(option(argv, "-r", default="1"))
    blocks = int(option(argv, "--blocks", default="8"))
    m = q**e
    r = r_values(blocks * q - 1, m)
    want_blocks = []
    for j in range(blocks):
        ns = list(range(j * q, (j + 1) * q))
        probs = [probability(n, r) for n in ns]
        if len(set(probs)) != 1:
            return f"block j={j} is not constant by the independent values"
        want_blocks.append((j, ns, [f"{p.numerator}/{p.denominator}" for p in probs]))
    if option(argv, "--format") == "json":
        got = json.loads(out)
        want = {
            "q": q, "r": e, "m": m, "all_equal": True,
            "blocks": [{"j": j, "ns": ns, "probabilities": ps, "equal": True} for j, ns, ps in want_blocks],
        }
        return None if got == want else f"prob json {got!r} != {want!r}"
    want = [f"m = {q}^{e} = {m}"]
    want += [f"block j={j}  n={ns[0]}..{ns[-1]}  p: {' '.join(ps)}  [equal]" for j, ns, ps in want_blocks]
    want.append("all blocks equal: yes")
    lines = out.splitlines()
    for i in range(max(len(lines), len(want))):
        got_line = lines[i] if i < len(lines) else None
        want_line = want[i] if i < len(want) else None
        if got_line != want_line:
            return f"prob line {i}: {got_line!r}, want {want_line!r}"
    return None


SELFTEST_OK_PREFIXES = [
    "ok oracle equivalence",
    "ok global identity",
    "ok generating-function agreement",
    "ok r_total dual route",
    "ok prime-power probability blocks",
]


def check_selftest(argv: list[str], out: str) -> str | None:
    lines = out.splitlines()
    if len(lines) != len(SELFTEST_OK_PREFIXES) + 1 or lines[-1] != "selftest passed":
        return f"selftest output {lines!r}"
    for line, prefix in zip(lines, SELFTEST_OK_PREFIXES):
        if not line.startswith(prefix):
            return f"selftest line {line!r}, want {prefix!r}..."
    return None


CHECKERS = {
    "exists": check_exists,
    "count": check_count,
    "roots": check_roots,
    "table": check_table,
    "prob": check_prob,
    "verify": check_prob,
    "selftest": check_selftest,
}


def check(argv: list[str], code: int, out: str, err: str) -> str | None:
    """None when a command exited 0, wrote nothing to stderr and printed
    the right answer; otherwise the reason it failed."""
    if code != 0:
        return f"exit code {code}: {err.strip()[:200]}"
    if err:
        return f"unexpected stderr: {err.strip()[:200]}"
    try:
        return CHECKERS[argv[0]](argv, out)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return f"unparseable output: {exc!r}"
