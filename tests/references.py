"""Closed forms, definitions and check routes that no command runs, kept
here as references that the package's own routes are checked against: the
number-theory definitions, the prime-power block series that proves the
constancy of root probabilities, the series algebra it needs, the EGF and
brute-force root lookups for one permutation, the group operations, the
interleaving the root construction once used, and the root construction
run under other replay caps, down to 0, where it regenerates every map as
it did before replay, and the Fraction rendering of the CLI's decimal
columns, which an integer rendering replaced.  Each refuses arguments outside its domain, as the
package's own entry points do, so a reference never answers for an input it
does not cover."""

import itertools
from fractions import Fraction
from math import factorial, gcd
from unittest import mock

from permroots import (
    CycleType,
    MultiSeries,
    Permutation,
    brute_force_root_table,
    cycle_type,
    enumerate_roots,
    factorize,
    g_set_bounded,
    is_prime,
    perm,
    root_count,
    root_count_egf,
)
from permroots._checks import InternalCheckError, require_int
from permroots.egf import _count_from_series
from permroots.series import UniSeries, _as_fraction


def identity(n: int) -> Permutation:
    return Permutation(range(1, require_int(n, "n", minimum=0) + 1))


def compose(a: Permutation, b: Permutation) -> Permutation:
    """The composition a after b: compose(a, b)(x) == a(b(x))."""
    if a.degree != b.degree:
        raise ValueError("cannot compose permutations of different degrees")
    return Permutation(a.image[y - 1] for y in b.image)


def inverse(p: Permutation) -> Permutation:
    image = [0] * p.degree
    for i, y in enumerate(p.image, start=1):
        image[y - 1] = i
    return Permutation(image)


def brute_force_roots(sigma: Permutation, m: int, max_n: int = 8) -> list[Permutation]:
    """All m-th roots of sigma by scanning S_n, in lexicographic order: sigma's
    bucket of brute_force_root_table, which refuses n > max_n."""
    bucket = brute_force_root_table(sigma.degree, m, max_n).get(sigma.image, ())
    return [Permutation(image) for image in bucket]


def root_count_from_egf(m: int, t: CycleType) -> int:
    """root_count recovered from the EGF: the coefficient of
    prod(t_ell**a_ell) times prod(a_ell!)."""
    return _count_from_series(root_count_egf(m, t.n), t, m)


def exp_q(q: int, order: int) -> UniSeries:
    """Every q-th term of exp: sum over i of x**(i*q) / (i*q)!."""
    require_int(q, "q")
    require_int(order, "order", minimum=0)
    coeffs = [Fraction(0)] * (order + 1)
    for j in range(0, order + 1, q):
        coeffs[j] = Fraction(1, factorial(j))
    return UniSeries(order, coeffs)


def substitute_scaled_power(series: UniSeries, c, k: int, order: int) -> UniSeries:
    """The series in x obtained by substituting c * x**k for the variable
    of series, truncated at the given order.  Requires enough source
    coefficients: series.order * k >= order."""
    require_int(order, "order", minimum=0)
    require_int(k, "k")
    c = _as_fraction(c)
    if series.order < order // k:
        raise ValueError(
            f"source order {series.order} too small to reach order {order} with k={k}"
        )
    out = [Fraction(0)] * (order + 1)
    power = Fraction(1)
    for j, a in enumerate(series.coeffs[: order // k + 1]):
        if a:
            out[j * k] = a * power
        power *= c
    return UniSeries(order, out)


def partial_sums(series: UniSeries) -> UniSeries:
    """series / (1 - x): coefficient n becomes sum(coeffs[0..n])."""
    return UniSeries(series.order, itertools.accumulate(series.coeffs))


def egf_values(series: UniSeries) -> tuple:
    """n! times coefficient n, for n = 0..order: the counts an exponential
    generating function holds, in the form r_total_series returns them."""
    return tuple(c * factorial(n) for n, c in enumerate(series.coeffs))


def generalized_binomial(alpha: Fraction, k: int) -> Fraction:
    """Binomial coefficient alpha over k for rational alpha:
    alpha * (alpha-1) * ... * (alpha-k+1) / k!."""
    require_int(k, "k", minimum=0)
    alpha = _as_fraction(alpha)
    num = Fraction(1)
    for i in range(k):
        num *= alpha - i
    return num / factorial(k)


def fraction_decimal_text(value: Fraction, places: int = 12) -> str:
    """Fixed-point rendering of a nonnegative rational by Fraction rounding,
    half to even: the rendering of table's p_decimal before it was computed
    from the integer ratio."""
    rounded = round(value * 10**places)
    digits = f"{rounded:0{places + 1}d}"
    return f"{digits[:-places]}.{digits[-places:]}"


def one_minus_xp_root(p: int, order: int) -> UniSeries:
    """(1 - x**p)**(1/p) as an exact truncated series, expanded with rational
    binomials: sum(binom(1/p, k) * (-1)**k * x**(p*k))."""
    require_int(p, "p")
    require_int(order, "order", minimum=0)
    alpha = Fraction(1, p)
    coeffs = [Fraction(0)] * (order + 1)
    for k in range(order // p + 1):
        coeffs[p * k] = generalized_binomial(alpha, k) * (-1) ** k
    return UniSeries(order, coeffs)


def prime_power_block_series(p: int, r: int, order: int) -> UniSeries:
    """The series G with egf_values(G / (1 - x)) == r_total_series(p**r, order).

    Splitting the product over ell by divisibility by p: the coprime part
    prod(exp(x**ell / ell), p not dividing ell) telescopes to
    (1 - x**p)**(1/p) / (1 - x), so

        G = (1 - x**p)**(1/p) * prod(exp_q(x**(jp) / (jp)), j >= 1)

    with q = p**r.  G has nonzero coefficients only at exponents divisible
    by p, which is why the probabilities are constant on blocks of p
    consecutive n: dividing by (1 - x) turns isolated coefficients into
    runs of equal partial sums."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p!r}")
    require_int(r, "r")
    require_int(order, "order", minimum=0)
    m = p**r
    series = one_minus_xp_root(p, order)
    for ell in range(p, order + 1, p):
        factor = substitute_scaled_power(exp_q(m, order // ell), Fraction(1, ell), ell, order)
        series = series * factor
    return series


def divisors(m: int) -> list[int]:
    """All positive divisors of m, increasing, from the prime powers in
    factorize(m): up to sqrt(m) trial divisions for a prime or semiprime m."""
    require_int(m, "m")
    out = [1]
    for p, e in factorize(m):
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def nu_p(n: int, p: int) -> int:
    """p-adic valuation of n: the exponent of the prime p in n.  Checking that
    p is prime costs up to sqrt(p) trial divisions."""
    require_int(n, "n")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p!r}")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def g_set(m: int, ell: int) -> tuple[int, ...]:
    """The whole admissible set {g : gcd(g*ell, m) == g}, increasing, built
    as {m/d : d | m, gcd(d, ell) == 1} from every divisor of m, with the gcd
    form checked for every element.  g_set_bounded finds the elements up to
    a bound from the divisors of m up to it; this lists all of them, by one
    factorize(m)."""
    require_int(m, "m")
    require_int(ell, "ell")
    elements = tuple(m // d for d in reversed(divisors(m)) if gcd(d, ell) == 1)
    for g in elements:
        if gcd(g * ell, m) != g:
            raise InternalCheckError(
                f"g={g} from the divisor form fails gcd({g}*{ell}, {m}) == {g}"
            )
    return elements


def homogeneous_count(ell: int, g: int, p: int, m: int) -> int:
    """Roots of a permutation made of g*p cycles of length ell when all
    fusions have the same admissible size g: (g*p)! * ell**(p*(g-1)) /
    (g**p * p!).  Rejects g not admissible for (m, ell)."""
    require_int(m, "m")
    require_int(p, "p", minimum=0)
    require_int(g, "g")
    if g not in g_set_bounded(m, ell, g):
        raise ValueError(f"g={g} is not an admissible fusion size for m={m}, ell={ell}")
    value, rest = divmod(factorial(g * p) * ell ** (p * (g - 1)), g**p * factorial(p))
    if rest:
        raise InternalCheckError(f"non-integer homogeneous count for {(ell, g, p, m)}")
    return value


def prime_root_count_egf(p: int, weight_bound: int) -> MultiSeries:
    """The prime specialization of root_count_egf:

        exp( sum(i**(p-1)/p * t_i**p, all i) + sum(t_j, p not dividing j) )

    since the admissible sizes for prime p are {1, p} when p does not
    divide ell and {p} when it does.  p must be prime."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p!r}")
    require_int(weight_bound, "weight_bound", minimum=0)
    terms: dict[tuple[int, ...], Fraction] = {}
    for i in range(1, weight_bound + 1):
        if i * p <= weight_bound:
            terms[(0,) * (i - 1) + (p,)] = Fraction(i ** (p - 1), p)
        if i % p:
            terms[(0,) * (i - 1) + (1,)] = Fraction(1)
    return MultiSeries(weight_bound, terms).exp()


def interleaved_fusions(bundle, ell: int, m: int, image: list[int]):
    """The fusions of a bundle of g ell-cycles, written by interleaving as
    perm._fusions once did: for each ordering of the companions and each
    rotation offset of each, the (g*ell)-cycle D read off the sequence with

        seq[(j + t*m) mod g*ell] = cycle_j[(offset_j + t) mod ell],

    the anchor being cycle 0 at offset 0.  Each D is written into the
    unpadded image (image[x-1] = D(x)) before a yield.  Rejects a bundle
    size g that is not admissible for (m, ell)."""
    g = len(bundle)
    span = g * ell
    if gcd(span, m) != g:
        raise ValueError(f"g={g} is not an admissible fusion size for m={m}, ell={ell}")
    anchor, others = bundle[0], bundle[1:]
    for ordering in itertools.permutations(others):
        for offsets in itertools.product(range(ell), repeat=g - 1):
            seq = [0] * span
            for t in range(ell):
                seq[t * m % span] = anchor[t]
            for j in range(1, g):
                cyc = ordering[j - 1]
                off = offsets[j - 1]
                for t in range(ell):
                    seq[(j + t * m) % span] = cyc[(off + t) % ell]
            for i in range(span):
                image[seq[i - 1] - 1] = seq[i]
            yield


def roots_under_replay_caps(sigma, m: int) -> dict[int, list]:
    """list(enumerate_roots(sigma, m)) for each of several replay caps: the
    default; 0, under which every inner cycle length's maps are regenerated
    for each map of the lengths before it, as before replay; and half, all
    but one, and all of the slots the recordable lengths take together, so
    that some of them are left out for size, the last one only, or none.  A
    length is recordable when the lengths before it have more than one map
    in all, the product of their single-length root counts; it is recorded
    when its own slots fit what the lengths before it left of the cap."""
    slots, outer_maps = 0, 1
    for ell, a in cycle_type(sigma).nonzero():
        maps = root_count(CycleType((0,) * (ell - 1) + (a,)), m)
        if outer_maps > 1:
            slots += maps * ell * a
        outer_maps *= maps
    runs = {}
    for cap in sorted({perm._REPLAY_CAP, 0, slots // 2, max(slots - 1, 0), slots}):
        with mock.patch.object(perm, "_REPLAY_CAP", cap):
            runs[cap] = list(enumerate_roots(sigma, m))
    return runs
