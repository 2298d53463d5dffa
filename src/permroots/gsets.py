"""Admissible cycle-fusion multiplicities and their solution vectors.

An m-th root tau of a permutation sigma acts on the ell-cycles of sigma by
fusing g of them into a single (g*ell)-cycle of tau, and the fusion size g
is admissible exactly when gcd(g*ell, m) == g.  The admissible sizes form
the finite set G_m(ell); capping by the number a of available ell-cycles
gives the bounded set.  A solution vector eps assigns a multiplicity to
each admissible size so that sum(g_i * eps_i) == a, i.e. it spends all a
cycles on fusions.  Roots exist for the ell-part iff a solution vector
exists, which happens iff bracket(ell, m) divides a.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from ._checks import InternalCheckError, require_int
from .numtheory import bracket, divisors


@dataclass(frozen=True)
class GSet:
    """Admissible fusion sizes for (m, ell), optionally capped at a bound.

    elements is strictly increasing.  bound is None for the uncapped set.
    """

    m: int
    ell: int
    bound: int | None
    elements: tuple[int, ...]


def g_set(m: int, ell: int) -> GSet:
    """The set {g : gcd(g*ell, m) == g}, built as {m/d : d | m, gcd(d, ell) == 1}.

    The two descriptions coincide; the divisor form is the builder and the
    gcd form is checked for every element produced.  Consequences worth
    remembering: every element divides m, the minimum (and the gcd of the
    whole set) is bracket(ell, m), and when gcd(ell, m) == 1 the set is all
    divisors of m.
    """
    require_int(m, "m")
    require_int(ell, "ell")
    elements = sorted(m // d for d in divisors(m) if gcd(d, ell) == 1)
    for g in elements:
        if gcd(g * ell, m) != g:
            raise InternalCheckError(
                f"divisor construction produced g={g} failing gcd({g}*{ell}, {m}) == {g}"
            )
    return GSet(m, ell, None, tuple(elements))


def g_set_bounded(m: int, ell: int, a: int) -> GSet:
    """g_set(m, ell) restricted to elements <= a; empty when a == 0."""
    require_int(m, "m")
    require_int(ell, "ell")
    require_int(a, "a", minimum=0)
    full = g_set(m, ell)
    return GSet(m, ell, a, tuple(g for g in full.elements if g <= a))


def _reachable_masks(g: tuple[int, ...], a: int) -> list[int]:
    """masks[i] has bit s set iff s <= a is a sum of multiples of g[i:]."""
    cap = (1 << (a + 1)) - 1
    masks = [0] * (len(g) + 1)
    masks[len(g)] = 1
    for i in range(len(g) - 1, -1, -1):
        r = masks[i + 1]
        while True:
            widened = (r | (r << g[i])) & cap
            if widened == r:
                break
            r = widened
        masks[i] = r
    return masks


def _validate_sizes(g: tuple[int, ...]) -> None:
    for prev, cur in zip((0,) + g, g):
        if not isinstance(cur, int) or cur <= prev:
            raise ValueError(f"sizes must be strictly increasing positive ints, got {g!r}")


def iter_epsilons(g: tuple[int, ...], a: int):
    """Yield all eps with sum(g[i]*eps[i]) == a, lexicographically.

    Depth-first with suffix-reachability pruning, so every branch entered
    produces at least one solution and the work is linear in the output.
    """
    g = tuple(g)
    _validate_sizes(g)
    require_int(a, "a", minimum=0)
    masks = _reachable_masks(g, a)
    k = len(g)
    eps = [0] * k

    def rec(i: int, rem: int):
        if i == k:
            if rem == 0:
                yield tuple(eps)
            return
        step = g[i]
        suffix = masks[i + 1]
        for count in range(rem // step + 1):
            left = rem - count * step
            if (suffix >> left) & 1:
                eps[i] = count
                yield from rec(i + 1, left)
        eps[i] = 0

    yield from rec(0, a)


def epsilon_set(g: tuple[int, ...], a: int) -> list[tuple[int, ...]]:
    """All solution vectors for the sizes g and target a, lexicographic."""
    return list(iter_epsilons(g, a))


def count_epsilons(g: tuple[int, ...], a: int) -> int:
    """Number of solution vectors, by a recursion independent of the DFS."""
    g = tuple(g)
    _validate_sizes(g)
    require_int(a, "a", minimum=0)
    memo: dict[tuple[int, int], int] = {}

    def cnt(i: int, rem: int) -> int:
        if i == len(g):
            return 1 if rem == 0 else 0
        key = (i, rem)
        if key not in memo:
            memo[key] = sum(cnt(i + 1, rem - c * g[i]) for c in range(rem // g[i] + 1))
        return memo[key]

    return cnt(0, a)


def is_solvable(m: int, ell: int, a: int) -> bool:
    """Whether a cycles of length ell can all be spent on admissible fusions.

    Decided two ways on every call and the answers checked equal:
    divisibility of a by bracket(ell, m), and subset-sum reachability of a
    over the bounded fusion sizes.  a == 0 is vacuously solvable.
    """
    require_int(m, "m")
    require_int(ell, "ell")
    require_int(a, "a", minimum=0)
    by_bracket = a % bracket(ell, m) == 0
    bounded = g_set_bounded(m, ell, a)
    by_reachability = bool((_reachable_masks(bounded.elements, a)[0] >> a) & 1)
    if by_bracket != by_reachability:
        raise InternalCheckError(
            f"divisibility and reachability disagree for m={m}, ell={ell}, a={a}"
        )
    return by_bracket
