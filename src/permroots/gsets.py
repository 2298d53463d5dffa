"""Admissible cycle-fusion multiplicities and their solution vectors.

An m-th root tau of a permutation sigma acts on the ell-cycles of sigma by
fusing g of them into a single (g*ell)-cycle of tau, and the fusion size g
is admissible exactly when gcd(g*ell, m) == g.  The admissible sizes form
the finite set G_m(ell), each a divisor of m; capping by the number a of
available ell-cycles gives the bounded set, which g_set_bounded reads
straight from that definition.  A solution vector eps assigns a
multiplicity to each admissible size so that sum(g_i * eps_i) == a, i.e.
it spends all a cycles on fusions.  Roots exist for the ell-part iff a solution vector
exists, which happens iff bracket(ell, m) divides a.
"""

from __future__ import annotations

import functools
from math import gcd

from ._checks import is_int, require_int


# typed: True or 2.0 must not read the entry for 1 or 2
@functools.lru_cache(maxsize=256, typed=True)
def g_set_bounded(m: int, ell: int, a: int) -> tuple[int, ...]:
    """The admissible fusion sizes g <= a, {g : gcd(g*ell, m) == g, g <= a},
    increasing; empty when a == 0.

    Read straight from the definition over g <= min(a, m): gcd(., m)
    divides m, so every admissible g divides m and none exceeds it.  One
    gcd per candidate, so at most one per ell-cycle: the order of building
    the cycle-type vector, and of the recurrence that follows, which does
    one big-integer step per cycle.  Memoized in a bounded cache, so one
    command finds the sizes of each (m, ell, a) once; the result is a
    tuple, which no caller can change.
    """
    require_int(m, "m")
    require_int(ell, "ell")
    require_int(a, "a", minimum=0)
    return tuple(g for g in range(1, min(a, m) + 1) if gcd(g * ell, m) == g)


def _reachable_masks(g: tuple[int, ...], a: int) -> list[int]:
    """masks[i] has bit s set iff s <= a is a sum of multiples of g[i:].

    Each widening doubles the shift: after k of them masks[i + 1] is spread
    by 0..2**k - 1 copies of g[i], so the closure takes O(log(a / g[i])) steps.
    """
    cap = (1 << (a + 1)) - 1
    masks = [0] * (len(g) + 1)
    masks[len(g)] = 1
    for i in range(len(g) - 1, -1, -1):
        r = masks[i + 1]
        shift = g[i]
        while True:
            widened = (r | (r << shift)) & cap
            if widened == r:
                break
            r = widened
            shift *= 2
        masks[i] = r
    return masks


def _validate_sizes(g: tuple[int, ...]) -> None:
    for prev, cur in zip((0,) + g, g):
        if not is_int(cur) or cur <= prev:
            raise ValueError(f"sizes must be strictly increasing positive ints, got {g!r}")


def iter_epsilons(g: tuple[int, ...], a: int):
    """Yield all eps with sum(g[i]*eps[i]) == a, lexicographically.

    Depth-first with suffix-reachability pruning, so every branch entered
    produces at least one solution and the work is linear in the output.
    The walk is one flat loop, not a recursion: rems[i] is what is left to
    spend at level i, and count is the next multiplicity to try there.
    """
    g = tuple(g)
    _validate_sizes(g)
    require_int(a, "a", minimum=0)
    masks = _reachable_masks(g, a)
    if not (masks[0] >> a) & 1:
        return
    last = len(g) - 1
    if last < 0:
        yield ()
        return
    eps = [0] * len(g)
    rems = [a] * len(g)
    i = count = 0
    while i >= 0:
        step, suffix = g[i], masks[i + 1]
        left = rems[i] - count * step
        while left >= 0 and not (suffix >> left) & 1:
            left -= step
        if left < 0:  # level i is exhausted: back up and try the next count there
            eps[i] = 0
            i -= 1
            count = eps[i] + 1
            continue
        count = eps[i] = (rems[i] - left) // step
        if left and i + 1 < last:
            rems[i + 1] = left
            i += 1
            count = 0
            continue
        # Complete: nothing is left (so every later entry is 0), or only the
        # last size is, and the masks made left a multiple of it.
        if i < last:
            eps[last] = left // g[last]
        yield tuple(eps)
        eps[last] = 0
        count += 1


def count_epsilons(g: tuple[int, ...], a: int) -> int:
    """Number of solution vectors, by a coin-change table independent of
    the walk: ways[s] counts the vectors over the sizes seen so far that
    spend s, in O(len(g) * a) additions."""
    g = tuple(g)
    _validate_sizes(g)
    require_int(a, "a", minimum=0)
    ways = [1] + [0] * a
    for step in g:
        for s in range(step, a + 1):
            ways[s] += ways[s - step]
    return ways[a]
