"""Prime-factorization arithmetic underlying root existence for permutations.

Factorization is deterministic trial division on desk-scale integers.  The
one non-standard quantity is ``bracket(ell, m)``: the product, over primes p
dividing ell, of the full power of p contained in m.  It always divides m,
equals 1 exactly when gcd(ell, m) == 1, and is the modulus that decides
whether a permutation with a given number of ell-cycles has an m-th root
(the Knopfmacher-Warlimont criterion; see Wilf, "generatingfunctionology",
2nd ed., section 4.8).
"""

from __future__ import annotations

from math import gcd

from ._checks import is_int, require_int

Factorization = list[tuple[int, int]]


def factorize(n: int) -> Factorization:
    """Prime factorization of n as (prime, exponent) pairs, primes increasing.

    factorize(1) == [] (empty product).  A prime or semiprime n costs up
    to sqrt(n) trial divisions; the CLI reaches this only through is_prime.
    """
    require_int(n, "n")
    out: Factorization = []
    rest = n
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if rest > 1:
        out.append((rest, 1))
    return out


def is_prime(p: int) -> bool:
    """Whether p is prime, by factorize: up to sqrt(p) trial divisions.
    The CLI asks only about prob's q, which --truncation-cap bounds."""
    if not is_int(p) or p < 2:
        return False
    return factorize(p) == [(p, 1)]


def bracket(ell: int, m: int) -> int:
    """Product over primes p dividing ell of the full power of p in m.

    Divides m, and equals 1 iff gcd(ell, m) == 1.  A permutation whose
    cycle type has a_ell cycles of length ell (for every ell) admits an
    m-th root iff bracket(ell, m) divides a_ell for every ell.
    """
    require_int(ell, "ell")
    require_int(m, "m")
    out, d = 1, gcd(ell, m)
    # d holds primes of ell still left in m, each to at most its power in
    # out, so every step doubles each exponent in out: O(log e) steps, e
    # the largest exponent in m of a prime dividing ell
    while d > 1:
        out *= d
        m //= d
        d = gcd(m, out)
    return out

