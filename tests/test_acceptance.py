"""Acceptance suite.

One test per criterion, each printing a single PASS line with its size and
elapsed time.  All comparisons are exact (integers and Fractions); the only
tolerances are the per-criterion wall-clock budgets, asserted at the end of
each test.
"""

import itertools
import time
from collections import Counter
from fractions import Fraction
from math import factorial, gcd

from permroots import (
    CycleType,
    Permutation,
    bracket,
    brute_force_root_table,
    check_prime_power_equalities,
    cycle_type,
    cycle_types,
    enumerate_roots,
    g_set_bounded,
    has_mth_root,
    iter_epsilons,
    power,
    r_total,
    r_total_series,
    root_count,
    root_count_egf,
)
from references import (
    brute_force_roots,
    divisors,
    egf_values,
    g_set,
    identity,
    partial_sums,
    prime_power_block_series,
    prime_root_count_egf,
    root_count_from_egf,
)


def test_criterion_1_oracle_equivalence():
    """Brute force, constructive enumeration, and the counting formula agree
    on every permutation of S_0..S_8 for m in {2,3,4,5,6,8,9,12}, with one
    oracle scan of S_n per (n, m) and one root_count per (cycle type, m)."""
    start = time.time()
    ms = (2, 3, 4, 5, 6, 8, 9, 12)
    pairs = 0
    counted = {}
    for m in ms:
        for n in range(9):
            table = brute_force_root_table(n, m)
            for image in itertools.permutations(range(1, n + 1)):
                sigma = Permutation(image)
                expected = table.get(image, [])
                constructed = sorted(tau.image for tau in enumerate_roots(sigma, m))
                assert constructed == expected, (sigma, m)
                key = (cycle_type(sigma), m)
                if key not in counted:
                    counted[key] = root_count(*key)
                assert counted[key] == len(expected), (sigma, m)
                pairs += 1
    elapsed = time.time() - start
    assert elapsed < 120
    print(
        f"PASS criterion 1: brute force == enumeration == count on "
        f"{pairs} (sigma, m) pairs, S_0..S_8 ({elapsed:.1f}s < 120s)"
    )


def test_criterion_2_egf_matches_counting_formula():
    """The multivariate EGF reproduces root_count for every cycle type of
    weight <= 12 and m in {2,3,4,6,8}."""
    start = time.time()
    checked = 0
    for m in (2, 3, 4, 6, 8):
        for n in range(13):
            for t in cycle_types(n):
                assert root_count_from_egf(m, t) == root_count(t, m), (m, t)
                checked += 1
    elapsed = time.time() - start
    assert elapsed < 60
    print(
        f"PASS criterion 2: EGF == counting formula on {checked} "
        f"(type, m) pairs up to weight 12 ({elapsed:.1f}s < 60s)"
    )


def test_criterion_3_prime_specialization_is_exact():
    """The prime closed form equals the general EGF, term for term, at
    weight 12 for p in {2,3,5}."""
    start = time.time()
    for p in (2, 3, 5):
        assert prime_root_count_egf(p, 12) == root_count_egf(p, 12), p
    elapsed = time.time() - start
    print(f"PASS criterion 3: prime EGF specialization exact for p in (2, 3, 5) ({elapsed:.1f}s)")


def _independent_partitions(n, largest=None):
    """Partitions of n as descending part lists; written here, on purpose,
    with no code shared with the package's cycle-type iterator."""
    if largest is None:
        largest = n
    if n == 0:
        yield []
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _independent_partitions(n - part, part):
            yield [part] + rest


def _independent_rooted_count(n, m):
    total = 0
    for parts in _independent_partitions(n):
        counts = Counter(parts)
        if all(count % bracket(ell, m) == 0 for ell, count in counts.items()):
            size = factorial(n)
            for ell, count in counts.items():
                size //= ell**count * factorial(count)
            total += size
    return total


def test_criterion_4_r_total_three_routes():
    """r_total: series route == independent classification sum for n <= 20
    and m in {2,3,4,6,8,9}; == the S_n power-image scan for n <= 6; and the
    m = 2 anchors are 1, 1, 1, 3, 12, 60."""
    start = time.time()
    ms = (2, 3, 4, 6, 8, 9)
    for m in ms:
        for n in range(21):
            series_route = r_total_series(m, n)[n]
            assert series_route == _independent_rooted_count(n, m), (n, m)
            assert r_total(n, m) == series_route, (n, m)
    for m in ms:
        for n in range(7):
            images = {power(Permutation(img), m) for img in itertools.permutations(range(1, n + 1))}
            assert len(images) == r_total(n, m), (n, m)
    assert [r_total(n, 2) for n in range(6)] == [1, 1, 1, 3, 12, 60]
    elapsed = time.time() - start
    assert elapsed < 60
    print(
        f"PASS criterion 4: r_total series == classification (n <= 20) == "
        f"oracle scan (n <= 6) for m in {ms}, anchors exact ({elapsed:.1f}s < 60s)"
    )


def test_criterion_5_prime_power_probability_blocks():
    """Root probabilities are constant on blocks of q consecutive degrees
    for m = q^r over six prime powers, all n <= 30; and the block structure
    is explained by the factored series at truncation 24."""
    start = time.time()
    for q, r in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)):
        blocks = (31 + q - 1) // q
        report = check_prime_power_equalities(q, r, blocks)
        assert report.all_equal, (q, r)
        assert report.blocks[-1].ns[-1] >= 30
    order = 24
    for p, r in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
        g = prime_power_block_series(p, r, order)
        for j in range(order + 1):
            if j % p:
                assert g.coefficient(j) == 0, (p, r, j)
        h = partial_sums(g)
        assert egf_values(h) == r_total_series(p**r, order), (p, r)
        for k in range(order // p):
            for offset in range(1, p):
                if k * p + offset <= order:
                    assert h.coefficient(k * p + offset) == h.coefficient(k * p), (p, r, k)
    elapsed = time.time() - start
    assert elapsed < 60
    print(
        f"PASS criterion 5: equal-probability blocks for six prime powers "
        f"(n <= 30) + factored-series structure at order 24 ({elapsed:.1f}s < 60s)"
    )


def test_criterion_6_root_counts_cover_the_group():
    """Summing root_count over a conjugacy-class decomposition of S_n gives
    exactly n! (every tau lands on exactly one sigma = tau^m)."""
    start = time.time()
    for m in (2, 3, 4, 6):
        for n in range(13):
            total = sum(root_count(t, m) * t.class_size() for t in cycle_types(n))
            assert total == factorial(n), (n, m)
    elapsed = time.time() - start
    print(f"PASS criterion 6: sum(root_count * class_size) == n! for n <= 12, m in (2, 3, 4, 6) ({elapsed:.1f}s)")


def test_criterion_7_g_set_laws_exhaustive():
    """For all m, ell <= 60: the reference's divisor construction == the
    package's definition scan g_set_bounded(m, ell, m); every element
    divides m; min == gcd of the set == bracket(ell, m); coprime
    case == divisors(m); and for a <= 60 ell-cycles, has_mth_root is exactly
    divisibility by bracket(ell, m) and exactly the existence of a solution
    vector over the admissible sizes."""
    start = time.time()
    one_length = {
        (ell, a): CycleType((0,) * (ell - 1) + (a,)) for ell in range(1, 61) for a in range(61)
    }
    for m in range(1, 61):
        for ell in range(1, 61):
            elements = g_set(m, ell)
            assert elements == g_set_bounded(m, ell, m), (m, ell)
            assert all(m % g == 0 for g in elements)
            b = bracket(ell, m)
            assert min(elements) == b
            assert gcd(*elements) == b
            assert (1 in elements) == (gcd(ell, m) == 1)
            if gcd(ell, m) == 1:
                assert list(elements) == divisors(m)
            for a in range(61):
                sizes = tuple(g for g in elements if g <= a)
                vector = next(iter_epsilons(sizes, a), None)
                exists = has_mth_root(one_length[ell, a], m)
                assert exists == (a % b == 0) == (vector is not None), (m, ell, a)
    elapsed = time.time() - start
    assert elapsed < 30
    print(f"PASS criterion 7: g-set laws exhaustive for m, ell <= 60, a <= 60 ({elapsed:.1f}s < 30s)")


def test_criterion_8_square_roots_of_the_identity():
    """Counting square roots of the identity recovers the involution
    numbers T(n): T(0) = T(1) = 1, T(n) = T(n-1) + (n-1) T(n-2), n <= 25."""
    start = time.time()
    telephone = [1, 1]
    for n in range(2, 26):
        telephone.append(telephone[-1] + (n - 1) * telephone[-2])
    for n in range(26):
        t = cycle_type(identity(n))
        assert root_count(t, 2) == telephone[n], n
    for n in range(7):
        assert len(brute_force_roots(identity(n), 2)) == telephone[n]
    elapsed = time.time() - start
    print(f"PASS criterion 8: square roots of identity == involution numbers, n <= 25 ({elapsed:.1f}s)")
