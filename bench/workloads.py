"""Seeded argv generators, one per workload.

Each function returns the commands of one round: the argv lists a run
passes to ``permroots.cli.main``, in order.  The same seed gives the same
round, and every run repeats its round until its time is up, so every run
attempts whole rounds of the same commands.

Where the cost of a command depends steeply on its input (the heavy count
queries, the cycle types in roots-stream, the root degrees and degree
ranges in rtotal-table, the oracle range in selftest-oracle), the
cost-setting part comes from a fixed menu and the seed draws only what
costs next to nothing: labels, extra cheap cycles, output formats and
order.  The small count-mix queries are drawn freely, but in fixed
proportions of each kind.  That keeps the work per round the same from seed
to seed, so the spread between seeds is the program's and not the
generator's.
"""

from __future__ import annotations

import random

from checks import bracket, parse_type, type_text

# count-mix ----------------------------------------------------------------

# (m, cycle type): large multiplicities under highly composite m, each
# 10 to 45 ms on the reference host.  Those marked rootless count their
# expensive ell=1 part before the zero factor.
HEAVY_COUNTS = [
    (720, "1^20"),
    (720, "1^22"),
    (720, "1^24"),
    (360, "1^22"),
    (360, "1^24 2^8"),
    (120, "1^24"),
    (12, "1^36 2^16"),
    (60, "1^28 2^6"),  # rootless
    (12, "1^32 2^14"),  # rootless
    (12, "1^36 2^18"),  # rootless
    (24, "1^28 2^10"),  # rootless
    (36, "1^30 2^8 3^6"),  # rootless
    (180, "1^24 2^8 3^6"),  # rootless
    (72, "1^28 2^12 3^6"),  # rootless
]
# Primes that divide no heavy m: the extra cycles a seed adds cost next to
# nothing, so the seed does not move the cost of a heavy query.
EXTRA_LENGTHS = (7, 11, 13, 17, 19)


def labelled(t: dict[int, int], rng: random.Random) -> str:
    """A permutation of cycle type t on randomly shuffled labels."""
    n = sum(ell * a for ell, a in t.items())
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    image = [0] * n
    pos = 0
    for ell, a in sorted(t.items()):
        for _ in range(a):
            cycle = labels[pos : pos + ell]
            pos += ell
            for i, x in enumerate(cycle):
                image[x - 1] = cycle[(i + 1) % ell]
    return " ".join(map(str, image))


def _input_args(t: dict[int, int], rng: random.Random) -> list[str]:
    if rng.random() < 0.25:
        return ["--perm", labelled(t, rng)]
    return ["--type", type_text(t)]


SMALL_KINDS = {"exists": 30, "count": 40, "count -v": 16}  # per round


def _small_query(kind: str, rng: random.Random) -> list[str]:
    lengths = rng.sample(range(1, 13), rng.randint(1, 4))
    t = {ell: rng.randint(1, 6) for ell in lengths}
    m = rng.randint(1, 60)
    argv = kind.split() + ["-m", str(m)] + _input_args(t, rng)
    if rng.random() < 0.2:
        argv += ["--format", "json"]
    return argv


def _heavy_query(m: int, core: str, verbose: bool, rng: random.Random) -> list[str]:
    t = parse_type(core)
    ell = rng.choice(EXTRA_LENGTHS)
    t[ell] = bracket(ell, m)  # keeps the existence verdict
    # Always --type: a relabelled --perm would let the seed reorder the
    # lengths, and with them how soon a rootless query finds its zero.
    argv = ["count", "-m", str(m), "--type", type_text(t)]
    if verbose:
        argv.append("-v")
    if rng.random() < 0.2:
        argv += ["--format", "json"]
    return argv


def count_mix(seed: int) -> list[list[str]]:
    """Every heavy core once (every third with -v), then SMALL_KINDS small
    mixed queries of each kind."""
    rng = random.Random(f"count-mix:{seed}")
    round_ = [_heavy_query(m, core, i % 3 == 0, rng) for i, (m, core) in enumerate(HEAVY_COUNTS)]
    round_ += [_small_query(kind, rng) for kind, k in SMALL_KINDS.items() for _ in range(k)]
    rng.shuffle(round_)
    return round_


# roots-stream -------------------------------------------------------------

# (m, cycle type, number of roots); test_bench_checks.py confirms the counts.
ROOT_TYPES = [
    (2, "1^5 3^4", 1196),
    (3, "1^8", 1233),
    (3, "1^1 2^5 3^3", 1458),
    (4, "1^6 3^2", 1024),
    (4, "1^7", 1072),
    (4, "1^5 2^4", 2688),
    (6, "1^5 3^3", 1188),
    (6, "1^7", 2052),
    (12, "1^5 3^3", 1728),
]


def roots_stream(seed: int) -> list[list[str]]:
    rng = random.Random(f"roots-stream:{seed}")
    round_ = [
        ["roots", "--all", "-m", str(m), "--perm", labelled(parse_type(text), rng)]
        for m, text, _ in ROOT_TYPES
    ]
    rng.shuffle(round_)
    return round_


# rtotal-table -------------------------------------------------------------

TABLE_TOP = 20
TABLE_MS = (2, 3, 6, 12, 60)
# (q, r, blocks): prime powers; blocks reach degree 13..19.
PROB_POWERS = ((2, 2, 10), (3, 2, 6), (5, 1, 3), (7, 1, 2))


def rtotal_table(seed: int) -> list[list[str]]:
    """Every table m and prime power once; the seed draws the output
    formats, the prob/verify alias and the order."""
    rng = random.Random(f"rtotal-table:{seed}")
    formats = ["text", "csv", "json"]
    round_ = [
        ["table", "-m", str(m), "--n", f"0..{TABLE_TOP}", "--format", rng.choice(formats)]
        for m in TABLE_MS
    ]
    round_ += [
        [rng.choice(["prob", "verify"]), "-q", str(q), "-r", str(r), "--blocks", str(b),
         "--format", rng.choice(formats[::2])]
        for q, r, b in PROB_POWERS
    ]
    rng.shuffle(round_)
    return round_


# selftest-oracle ----------------------------------------------------------

SELFTEST_MAX_N = 5
SELFTEST_MS = (2, 3, 4, 6, 12, 60)


def selftest_oracle(seed: int) -> list[list[str]]:
    """One exhaustive selftest per root degree of the menu, in seeded
    order.  Each is short (S_5 holds 120 permutations), so that many rounds
    fit into a run; S_6 would make one command of over a second.  The root
    degree is not drawn: the cost of a selftest grows with the number of
    divisors of m."""
    rng = random.Random(f"selftest-oracle:{seed}")
    round_ = [["selftest", "--max-n", str(SELFTEST_MAX_N), "-m", str(m)] for m in SELFTEST_MS]
    rng.shuffle(round_)
    return round_


WORKLOADS = {
    "count-mix": count_mix,
    "roots-stream": roots_stream,
    "rtotal-table": rtotal_table,
    "selftest-oracle": selftest_oracle,
}
