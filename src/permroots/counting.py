"""Exact m-th-root counts from the cycle type alone.

The number of m-th roots of any permutation with a_ell cycles of length
ell factors over the lengths: each ell contributes

    a_ell! * sum over solution vectors eps of
             prod_i ell**((g_i - 1) * eps_i) / (g_i**eps_i * eps_i!)

with g_1 < ... < g_k the admissible fusion sizes capped at a_ell.  The sum
counts the ways to bundle the a_ell cycles into fusions (divided by the
a_ell! relabelings, restored up front) times the (g-1)! * ell**(g-1)
interleavings per bundle.  Arithmetic is exact integers throughout: each
term a_ell! * ell**(...) / prod(...) is one exact division, checked to
leave no remainder, and each per-ell factor is checked to be zero exactly
when bracket(ell, m) does not divide a_ell: the existence rule, which only
_witness writes, for root_count, perm.has_mth_root and the CLI alike.
"""

from __future__ import annotations

import functools
from math import factorial

from ._checks import InternalCheckError, int_text, require_int
from .gsets import g_set_bounded, iter_epsilons
from .numtheory import bracket

TYPE_CHECKING = False  # true for type checkers; spares importing typing at run time
if TYPE_CHECKING:  # perm imports _length_factor and _witness: CycleType is only an annotation
    from .perm import CycleType


# typed: True or 2.0 must not read the entry for 1 or 2
@functools.lru_cache(maxsize=256, typed=True)
def _length_factor(ell: int, a: int, m: int) -> int:
    """The factor of root_count for a cycles of length ell: a! times the
    eps-sum, which is empty (so 0) when bracket(ell, m) does not divide a.
    It is also the number of maps enumerate_roots builds on those cycles.

    Every term a! * ell**(sum (g-1)*e) / prod(g**e * e!) is an integer, so
    each is one exact division, checked to leave no remainder.  Memoized in
    a bounded cache, so a command's count and construction share each factor.
    """
    sizes = g_set_bounded(m, ell, a)
    top = factorial(a)
    total = 0
    for eps in iter_epsilons(sizes, a):
        den = 1
        spent = 0
        for g, e in zip(sizes, eps):
            if e:
                den *= g**e * factorial(e)
                spent += (g - 1) * e
        term, rest = divmod(top, den)
        if rest:
            raise InternalCheckError(f"non-integer factor for ell={ell}, a={a}, m={int_text(m)}")
        total += term * ell**spent
    return total


def _witness(t: CycleType, m: int):
    """Yield (ell, a_ell, q = bracket(ell, m), whether q divides a_ell) per length
    of t, ell increasing, once m is checked: a root exists iff every row divides."""
    require_int(m, "m")
    for ell, a in t.nonzero():
        q = bracket(ell, m)
        yield ell, a, q, a % q == 0


def root_count(t: CycleType, m: int) -> int:
    """Number of m-th roots of any permutation with cycle type t.

    Depends only on the nonzero (ell, a_ell) pairs.  Zero exactly when
    some ell admits no solution vector, i.e. the existence criterion
    fails; then only the first such ell's factor is computed.  m == 1
    always gives 1.
    """
    rows = list(_witness(t, m))
    blocked = [row for row in rows if not row[3]]
    total = 1
    for ell, a, q, _ in blocked[:1] or rows:
        factor = _length_factor(ell, a, m)
        if (factor == 0) != bool(blocked):
            raise InternalCheckError(
                f"factor {int_text(factor)} for ell={ell}, a={a}, m={int_text(m)} "
                f"disagrees with divisibility by bracket {int_text(q)}"
            )
        total *= factor
    return total
