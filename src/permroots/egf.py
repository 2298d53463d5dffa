"""Generating functions for m-th-root counts and root-existence probabilities.

Two exact series routes live here.  The multivariate route encodes every
root count at once: with t_ell marking ell-cycles, the exponential
generating function

    exp( sum over ell >= 1 and admissible g of (ell**(g-1) / g) * t_ell**g )

has root_count(a, m) as the coefficient of prod(t_ell**a_ell / a_ell!).
Truncating it at weight w leaves every coefficient of lower weight as it
is, so one series serves every cycle type up to w: one reader,
_count_from_series, takes a count from it and checks that it is an
integer, for selftest, which expands one series per m.
The univariate route counts permutations having at least one m-th root:

    sum over n of r_total(n, m) * x**n / n!  =  prod over ell of
        exp_q(x**ell / ell)   with q = bracket(ell, m),

where exp_q(y), the sum of y**(i*q) / (i*q)! over i, keeps every q-th
term of exp (Wilf, "generatingfunctionology", 2nd ed., section 4.8).  The
values r_total(lo..hi, m) are produced by one integer pass, a binomial
(labelled) convolution of the factors, whose terms (k*ell)! / (ell**k * k!)
count the permutations made of k ell-cycles.  The product series, expanded
once to order hi, gives each value again: it is an ordinary (Cauchy)
product of the same factors, each coefficient held as an integer scaled by
hi!, so each product step is one exact division by hi!, and n! times
coefficient n is one more exact division, by hi!/n!.  The two tuples of
integers must agree value by value.  selftest and the tests
also compare the values with r_total_from_types, the sum of class sizes
over the cycle types passing the existence criterion.  For prime powers
m = p**r the probabilities r_total(n, m) / n! are constant on blocks of p
consecutive n, which check_prime_power_equalities verifies value by value
in exact arithmetic.  The series proof of that constancy, that the EGF of
r_total(n, p**r) is G / (1 - x) with G supported on multiples of p, is
checked by the tests (tests/references.py), not by any command.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, perm
from operator import mul

from ._checks import FrozenRecord, InternalCheckError, int_text, require_int
from .gsets import g_set_bounded
from .numtheory import bracket, is_prime
from .perm import CycleType, cycle_types, has_mth_root
from .series import MultiSeries


@lru_cache(maxsize=64, typed=True)  # typed: True or 2.0 must not read the entry for 1 or 2
def root_count_egf(m: int, weight_bound: int) -> MultiSeries:
    """The multivariate EGF of m-th-root counts by cycle type.

    Exponential of sum((ell**(g-1) / g) * t_ell**g) over ell >= 1 and
    admissible fusion sizes g with ell * g within the weight bound.
    Memoized: a pure function of (m, weight_bound)."""
    require_int(m, "m")
    require_int(weight_bound, "weight_bound", minimum=0)
    terms = {}
    for ell in range(1, weight_bound + 1):
        for g in g_set_bounded(m, ell, weight_bound // ell):
            key = (0,) * (ell - 1) + (g,)
            terms[key] = Fraction(ell ** (g - 1), g)
    return MultiSeries(weight_bound, terms).exp()


def _count_from_series(series: MultiSeries, t: CycleType, m: int) -> int:
    """root_count of type t read from root_count_egf(m, w) for any weight
    bound w >= t.n: the coefficient of prod(t_ell**a_ell) times
    prod(a_ell!), which must be an integer.  A truncation at weight w keeps
    every coefficient of lower weight as it is, so one series per m serves
    every type up to its bound."""
    value = series.coefficient(t.a)
    for count in t.a:
        value *= factorial(count)
    if value.denominator != 1:
        raise InternalCheckError(f"non-integer EGF root count for {t}, m={int_text(m)}")
    return value.numerator


@lru_cache(maxsize=8, typed=True)
def _moduli(m: int, order: int) -> tuple[int, ...]:
    """bracket(ell, m) for ell = 1..order, the input the convolution and the
    series routes share.  Memoized, so one r_total_range call finds each
    modulus once: for a huge m each is a chain of big-integer gcds and
    divisions."""
    return tuple(bracket(ell, m) for ell in range(1, order + 1))


def r_total_series(m: int, order: int) -> tuple[int, ...]:
    """r_total(n, m) for n = 0..order from the EGF prod over ell of
    exp_q(x**ell / ell) with q = bracket(ell, m): n! times coefficient n.
    Factors with ell > order are 1 up to the truncation, so the product runs
    ell = 1..order only.

    Exact in integers: every coefficient is held times order!.  The factor
    for ell has 1 / (ell**k * k!) at x**(k*ell) when q divides k, and
    order! / (ell**k * k!) is an integer because ell**k * k! divides
    (k*ell)!.  Each partial product is the EGF of a labelled class, so
    order! times each of its coefficients is an integer too: a remainder
    after dividing a Cauchy product sum by order! raises
    InternalCheckError.  n! times coefficient n is the held value divided
    by order!/n!, and a remainder there raises InternalCheckError too."""
    require_int(m, "m")
    require_int(order, "order", minimum=0)
    scale = factorial(order)
    scaled = [scale] + [0] * order  # scale * [x**n] of the partial product
    for ell, q in enumerate(_moduli(m, order), start=1):
        step = q * ell
        terms = [
            scale // (ell ** (j // ell) * factorial(j // ell)) for j in range(step, order + 1, step)
        ]
        for n in range(order, step - 1, -1):  # downwards: the slice below n is still old
            quotient, remainder = divmod(sum(map(mul, scaled[n - step :: -step], terms)), scale)
            if remainder:
                raise InternalCheckError(
                    f"non-integer scaled series coefficient at n={n}, ell={ell}, m={int_text(m)}"
                )
            scaled[n] += quotient
    values = []
    for n, value in enumerate(scaled):
        count, remainder = divmod(value, perm(order, order - n))  # order! / n!
        if remainder:
            raise InternalCheckError(f"non-integer r_total at n={n}, m={int_text(m)}")
        values.append(count)
    return tuple(values)


def r_total_from_types(n: int, m: int) -> int:
    """Permutations in S_n with an m-th root, summed class by class over
    the cycle types passing the existence criterion."""
    require_int(m, "m")
    require_int(n, "n", minimum=0)
    return sum(t.class_size() for t in cycle_types(n) if has_mth_root(t, m))


def _r_total_convolution(hi: int, m: int) -> list[int]:
    """r_total(0..hi, m) as integers: the binomial convolution of the
    factors exp_q(x**ell / ell), whose n! * [x**n] term is
    (k*ell)! / (ell**k * k!) at n = k*ell with q dividing k."""
    values = [1] + [0] * hi
    for ell, q in enumerate(_moduli(m, hi), start=1):
        step = q * ell
        terms = [
            (j, factorial(j) // (ell ** (j // ell) * factorial(j // ell)))
            for j in range(step, hi + 1, step)
        ]
        for n in range(hi, step - 1, -1):  # downwards, so values[n - j] is still old
            values[n] += sum(comb(n, j) * term * values[n - j] for j, term in terms if j <= n)
    return values


def r_total_range(lo: int, hi: int, m: int) -> tuple[int, ...]:
    """r_total(n, m) for n = lo..hi, from one integer convolution.

    Every value up to hi must equal the one r_total_series(m, hi) gives, the
    Cauchy product scaled by hi!, expanded once per call.  The two routes
    share their input, the moduli bracket(ell, m), found once per call, but
    not their arithmetic: the convolution does binomial sums of unscaled
    counts, the series divides by hi! after each product step."""
    require_int(m, "m")
    require_int(lo, "lo", minimum=0)
    require_int(hi, "hi", minimum=0)
    if hi < lo:
        raise ValueError(f"hi must be at least lo={lo}, got {hi}")
    values = _r_total_convolution(hi, m)
    for n, (value, by_series) in enumerate(zip(values, r_total_series(m, hi))):
        if by_series != value:
            raise InternalCheckError(
                f"convolution and series routes disagree at n={n}, m={int_text(m)}: "
                f"{int_text(value)} vs {int_text(by_series)}"
            )
    return tuple(values[lo:])


def r_total(n: int, m: int) -> int:
    """Number of permutations in S_n having at least one m-th root:
    r_total_range(n, n, m), checked against the series like every value
    it returns."""
    require_int(m, "m")
    require_int(n, "n", minimum=0)
    return r_total_range(n, n, m)[0]


def root_probability(n: int, m: int) -> Fraction:
    """Probability that a uniform permutation of S_n has an m-th root."""
    return Fraction(r_total(n, m), factorial(n))


class ProbabilityBlock(FrozenRecord):
    """Block j: the run ns of q consecutive degrees and their root probabilities."""

    __slots__ = ("j", "ns", "probabilities")

    @property
    def equal(self) -> bool:
        """Every probability equals the first; False for an empty block."""
        probabilities = self.probabilities
        return bool(probabilities) and probabilities.count(probabilities[0]) == len(probabilities)


class EqualityReport(FrozenRecord):
    __slots__ = ("q", "r", "m", "blocks")

    @property
    def all_equal(self) -> bool:
        return all(block.equal for block in self.blocks)


def _require_prime_power(q: int, r: int) -> None:
    """Refuse a q that is not prime or an r that is not positive, as m = q**r needs."""
    if not is_prime(q):
        raise ValueError(f"q must be prime, got {q!r}")
    require_int(r, "r")


def check_prime_power_equalities(q: int, r: int, blocks: int) -> EqualityReport:
    """For m = q**r with q prime, the root probability is the same at
    n = jq, jq+1, ..., jq+q-1.  Verify blocks j = 0..blocks-1 by exact
    arithmetic and report the probabilities found."""
    _require_prime_power(q, r)
    require_int(blocks, "blocks")
    m = q**r
    values = r_total_range(0, blocks * q - 1, m)
    found = []
    for j in range(blocks):
        ns = tuple(range(j * q, (j + 1) * q))
        probabilities = tuple(Fraction(values[n], factorial(n)) for n in ns)
        found.append(ProbabilityBlock(j, ns, probabilities))
    return EqualityReport(q, r, m, tuple(found))
