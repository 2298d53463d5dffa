"""Exact m-th-root counts from the cycle type alone.

The number of m-th roots of any permutation with a_ell cycles of length
ell factors over the lengths: each ell contributes

    a! * [x**a] exp(sum over g in G of ell**(g - 1) * x**g / g),   a = a_ell,

with G the admissible fusion sizes capped at a: the exponential formula
for bundling the a cycles into fusions of g cycles each, with (g-1)! *
ell**(g-1) interleavings per bundle (Flajolet & Sedgewick, Analytic
Combinatorics, ch. II; Wilf, generatingfunctionology, sec. 4.8).  The
coefficient comes from the derivative recurrence in exact integers, in
one of two forms chosen by an estimate of their work; either takes
O(|G| * a) big-integer steps and keeps only the last max(G)/d values, with
d the gcd of G.

The paper's explicit sum over solution vectors eps,

    a! * sum over eps of prod_i ell**((g_i - 1) * eps_i) / (g_i**eps_i * eps_i!),

checks the recurrence wherever it is cheap: one exact division of a! per
vector, each checked to leave no remainder, and so only while a is small or
the vectors times a stay within a budget.  Each per-ell factor is also
checked to be zero exactly when bracket(ell, m) does not divide a: the
existence rule, which only _witness writes, for root_count,
perm.has_mth_root and the CLI alike.
"""

from __future__ import annotations

import functools
from collections import deque
from math import factorial, gcd, perm

from ._checks import InternalCheckError, int_text, require_int
from .gsets import count_epsilons, g_set_bounded, iter_epsilons
from .numtheory import bracket

TYPE_CHECKING = False  # true for type checkers; spares importing typing at run time
if TYPE_CHECKING:  # perm imports _length_factor and _witness: CycleType is only an annotation
    from .perm import CycleType

# Form A when the falling factorials it multiplies, one of g - 1 factors per
# size g at each of the a - g + 1 steps that reach g, are at most
# UNSCALED_WORK factors per step; else form B.  Form B divides a number the
# size of a! at every step, which form A never does, but form A's factorials
# grow with g.  Fitted to in-process timings of both forms on ell in {1, 2, 3},
# a from 8 to 3000 and m in {2, 6, 12, 60, 720, 1024, 2018, 2187, 720720}: the
# rule's pick is within 1.9x of the faster form on every case, and all its
# picks together take 1% longer than the faster forms would.  For example (A / B seconds):
# 1^20000 under m = 2 0.21 / 1.9; 1^25219 under m = 25219 0.024 / 2.2;
# 1^2000 under m = 720720 8.6 / 0.17; 2^6000 under m = 720 0.29 / 0.072.
UNSCALED_WORK = 16
# The eps-sum check runs when a <= WALK_A: at most p(12) = 77 solution
# vectors whatever the sizes, so no count is needed first.  Past that, it
# runs when the vectors times a are at most CHECK_BUDGET, counted only when
# the sizes times a, the count's own cost, are at most CHECK_BUDGET too.  So
# the gate costs O(1) for small a, and the check never divides a! for
# a > CHECK_BUDGET, nor more than CHECK_BUDGET / a times.
WALK_A = 12
CHECK_BUDGET = 2048


def _recurrence(ell: int, a: int, sizes: tuple[int, ...], scaled: bool) -> int:
    """a! [x**a] exp(sum over g in sizes of ell**(g-1) x**g / g), sizes increasing,
    in one of two forms:

    A (unscaled): b_0 = 1, b_n = sum over g <= n of perm(n-1, g-1) * ell**(g-1) * b_{n-g},
    with perm(n-1, g-1) = (n-1)!/(n-g)!; no division, but each term costs a
    falling factorial of g - 1 factors.

    B (scaled): h_0 = a!, n * h_n = sum over g <= n of ell**(g-1) * h_{n-g}.
    h_n = a!/n! * b_n is an integer for every n <= a, so each step is one
    exact division by n, checked to leave no remainder.

    Both end at the value for n = a.  Every g is a multiple of d = gcd(sizes),
    and so is every n with a nonzero value: n steps by d, and the factor is 0
    when d does not divide a.  A step reads only the last max(sizes)/d values,
    and only those are kept.
    """
    d = gcd(*sizes)
    if not d or a % d:
        return 0 if a else 1  # no sizes below a = 0: the empty bundling
    if sizes == (1,):
        return 1  # b_n = b_{n-1}: every cycle stays a cycle (the commonest small case)
    terms = [(g // d, g - 1, ell ** (g - 1)) for g in sizes]
    values = deque([factorial(a) if scaled else 1], maxlen=terms[-1][0])  # values[-j]: n - j*d
    for k in range(1, a // d + 1):
        n = k * d
        total = 0
        for j, shift, weight in terms:
            if j > k:
                break
            c = weight if scaled else perm(n - 1, shift) * weight
            # form B with ell = 1 adds each value as it is: a product by 1 would copy it
            total += values[-j] if c == 1 else c * values[-j]
        if scaled:
            total, rest = divmod(total, n)
            if rest:
                raise InternalCheckError(
                    f"scaled recurrence not integral at n={n} for ell={ell}, a={a}"
                )
        values.append(total)
    return values[-1]


def _eps_sum(ell: int, a: int, m: int, sizes: tuple[int, ...]) -> int:
    """The paper's sum: a! times, per solution vector eps, the term
    ell**(sum (g-1)*e) / prod(g**e * e!).  Every such term times a! is an
    integer, so each is one exact division, checked to leave no remainder."""
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


# typed: True or 2.0 must not read the entry for 1 or 2
@functools.lru_cache(maxsize=256, typed=True)
def _length_factor(ell: int, a: int, m: int) -> int:
    """The factor of root_count for a cycles of length ell: a! [x**a] of the
    exponential of the admissible sizes' series, which is 0 when
    bracket(ell, m) does not divide a.  It is also the number of maps
    enumerate_roots builds on those cycles.

    The recurrence gives it, in the form UNSCALED_WORK picks, and the eps-sum
    checks it where WALK_A and CHECK_BUDGET allow: a mismatch raises
    InternalCheckError.  Memoized in a bounded cache, so a command's count
    and construction share each factor.
    """
    sizes = g_set_bounded(m, ell, a)
    # sum(sizes) bounds the work per step, so it decides most small inputs alone
    scaled = sum(sizes) > UNSCALED_WORK and (
        sum(g * (a - g + 1) for g in sizes) > UNSCALED_WORK * a
    )
    factor = _recurrence(ell, a, sizes, scaled)
    if a <= WALK_A or (
        len(sizes) * a <= CHECK_BUDGET and count_epsilons(sizes, a) * a <= CHECK_BUDGET
    ):
        checked = _eps_sum(ell, a, m, sizes)
        if checked != factor:
            raise InternalCheckError(
                f"eps-sum {int_text(checked)} and recurrence {int_text(factor)} disagree "
                f"for ell={ell}, a={a}, m={int_text(m)}"
            )
    return factor


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
