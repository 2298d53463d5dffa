"""Admissible fusion sizes and solution vectors."""

import itertools
import math
import os
import subprocess
import sys
from bisect import bisect_right
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permroots import (
    CycleType,
    bracket,
    count_epsilons,
    factorize,
    g_set_bounded,
    has_mth_root,
    iter_epsilons,
)
from references import divisors, g_set, nu_p

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def test_g_set_frozen_values():
    assert g_set(2, 1) == (1, 2)
    assert g_set(6, 2) == (2, 6)
    assert g_set(4, 2) == (4,)
    assert g_set(1, 7) == (1,)
    assert g_set(12, 1) == (1, 2, 3, 4, 6, 12)


def test_g_set_bounded_frozen_values():
    assert g_set_bounded(2, 1, 0) == ()
    assert g_set_bounded(2, 1, 2) == (1, 2)
    assert g_set_bounded(2, 4, 1) == ()
    assert g_set_bounded(6, 2, 5) == (2,)


def test_g_set_matches_definition_scan():
    for m in range(1, 31):
        for ell in range(1, 31):
            built = g_set(m, ell)
            scanned = tuple(g for g in range(1, m + 1) if math.gcd(g * ell, m) == g)
            assert built == scanned, (m, ell)


def test_g_set_structural_laws():
    for m in range(1, 31):
        for ell in range(1, 31):
            elements = g_set(m, ell)
            assert elements, "the set is never empty (m itself always qualifies)"
            assert list(elements) == sorted(set(elements))
            assert all(m % g == 0 for g in elements)
            b = bracket(ell, m)
            assert min(elements) == b
            assert math.gcd(*elements) == b
            if math.gcd(ell, m) == 1:
                assert list(elements) == divisors(m)


def test_g_set_prime_valuation_characterization():
    """Membership is determined prime by prime: g must divide m, carry the
    full m-valuation at every prime shared with ell, and (consequently)
    be divisible by every prime of gcd(ell, m).  Checked two-sided against
    every candidate g <= m."""
    for m in range(1, 61):
        for ell in range(1, 61):
            elements = set(g_set(m, ell))
            shared_primes = [p for p, _ in factorize(m) if ell % p == 0]
            for g in range(1, m + 1):
                characterized = m % g == 0 and all(
                    nu_p(g, p) == nu_p(m, p) for p in shared_primes
                )
                assert (g in elements) == characterized, (m, ell, g)
            for g in elements:
                assert all(m % p == 0 for p, _ in factorize(g))
                for p in shared_primes:
                    assert g % p == 0


def test_g_set_bounded_equals_the_filtered_full_set():
    # g_set_bounded tests each g <= min(a, m) against the definition
    # gcd(g*ell, m) == g; g_set builds every size as m/d from the divisors d
    # of m coprime to ell.  Every pair (m, a) with m <= 2000 and a <= 60 is
    # checked, with ell running through 1..30 as a does, so every pair
    # (m, ell) is checked at two or three bounds.
    for m in range(1, 2001):
        full = [None] + [g_set(m, ell) for ell in range(1, 31)]
        for a in range(61):
            ell = 1 + (m + a) % 30
            expected = full[ell][: bisect_right(full[ell], a)]
            assert g_set_bounded(m, ell, a) == expected, (m, ell, a)


@pytest.mark.parametrize(
    "m, ells, a",
    [(2, (1,), 20000), (720720, (1, 2, 3, 7), 2000), (10**20 - 1, (1, 2, 3, 11), 3000)],
    ids=["a-past-m", "a-between-sqrt-m-and-m", "m-past-64-bits"],
)
def test_g_set_bounded_equals_the_filtered_full_set_past_the_grid(m, ells, a):
    # the scan stops at min(a, m): at m when a >> m, at a otherwise
    for ell in ells:
        full = g_set(m, ell)
        assert g_set_bounded(m, ell, a) == full[: bisect_right(full, a)], (m, ell, a)


def test_the_full_set_of_a_huge_m_is_built_within_a_second():
    # the divisors come from factorize(10**20 - 1), whose largest prime is
    # 27961; trial division up to sqrt(m) would take 10**10 steps.  The child
    # process's timeout turns a hang into a failure.
    code = (
        "import time\n"
        "from references import g_set\n"
        "start = time.perf_counter()\n"
        "elements = g_set(10**20 - 1, 1)\n"
        "print(len(elements), time.perf_counter() - start)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(TESTS)])},
        timeout=30,
    )
    assert (result.returncode, result.stderr) == (0, "")
    count, elapsed = result.stdout.split()
    assert int(count) == 384  # every divisor: gcd(d, 1) == 1 for all d
    assert float(elapsed) < 1


def test_bracket_is_always_a_member():
    for m in range(1, 41):
        for ell in range(1, 41):
            b = bracket(ell, m)
            assert b in g_set(m, ell)
            for a in (b, 2 * b, 5 * b):
                assert b in g_set_bounded(m, ell, a)
            if b > 1:
                assert b not in g_set_bounded(m, ell, b - 1)


def test_g_set_bounded_cache_refuses_what_the_function_refuses():
    # typed: True == 1 and 1.0 == 1 hash alike, but must not read the entry for 1
    assert g_set_bounded(1, 1, 2) == (1,)
    assert g_set_bounded(1, 1, 1) == (1,)
    size = g_set_bounded.cache_info().currsize
    for args in [(True, 1, 2), (1.0, 1, 2), (1, True, 2), (1, 1.0, 2), (1, 1, 2.0), (1, 1, True)]:
        with pytest.raises(ValueError):
            g_set_bounded(*args)
    assert g_set_bounded.cache_info().currsize == size  # nothing raised is cached
    assert type(g_set_bounded(12, 1, 12)) is tuple  # shared by every caller, so immutable


def test_the_bench_worker_empties_the_g_set_bounded_cache():
    # the benchmark starts every command with empty caches, found by name
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(TESTS.parent / 'bench')!r})\n"
        "import worker\n"
        "import permroots.cli as cli\n"
        "print(cli.g_set_bounded.cache_clear in worker.cache_clearers())\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    assert (result.returncode, result.stderr, result.stdout) == (0, "", "True\n")


def test_g_set_rejects_nonpositive():
    with pytest.raises(ValueError):
        g_set(0, 3)
    with pytest.raises(ValueError):
        g_set_bounded(2, 3, -1)


def test_iter_epsilons_frozen_values():
    assert list(iter_epsilons((1, 2), 2)) == [(0, 1), (2, 0)]
    assert list(iter_epsilons((1, 2), 4)) == [(0, 2), (2, 1), (4, 0)]
    assert list(iter_epsilons((2,), 3)) == []
    assert list(iter_epsilons((), 0)) == [()]
    assert list(iter_epsilons((), 3)) == []


def test_iter_epsilons_is_lexicographic():
    for sizes in ((1, 2), (1, 3, 4), (2, 3), (1, 2, 5)):
        for a in range(15):
            vectors = list(iter_epsilons(sizes, a))
            assert vectors == sorted(vectors)


def test_iter_epsilons_streams_lazily():
    stream = iter_epsilons((1, 2), 30)
    first = next(stream)
    assert first == (0, 15)


@st.composite
def _size_vectors(draw):
    k = draw(st.integers(min_value=0, max_value=4))
    sizes = draw(
        st.lists(st.integers(min_value=1, max_value=12), min_size=k, max_size=k, unique=True)
    )
    return tuple(sorted(sizes))


@given(_size_vectors(), st.integers(min_value=0, max_value=30))
def test_epsilon_vectors_hit_target_and_count_matches(sizes, a):
    vectors = list(iter_epsilons(sizes, a))
    assert len(set(vectors)) == len(vectors)
    for eps in vectors:
        assert len(eps) == len(sizes)
        assert all(e >= 0 for e in eps)
        assert sum(g * e for g, e in zip(sizes, eps)) == a
    assert len(vectors) == count_epsilons(sizes, a)


@given(_size_vectors(), st.integers(min_value=0, max_value=20))
def test_walk_equals_a_lexicographic_filter_of_the_product(sizes, a):
    product = itertools.product(*(range(a // g + 1) for g in sizes))
    expected = [eps for eps in product if sum(g * e for g, e in zip(sizes, eps)) == a]
    assert list(iter_epsilons(sizes, a)) == expected


def test_walk_depth_is_not_bounded_by_the_recursion_limit():
    # 3,000 sizes: the first vector is found 2,999 levels down
    sizes = tuple(range(1, 3001))
    assert next(iter_epsilons(sizes, 3000)) == (0,) * 2999 + (1,)


def test_count_epsilons_on_large_targets():
    assert count_epsilons((1, 2), 3000) == 1501
    assert count_epsilons((1, 2, 3), 600) == 30301  # round((600 + 3)**2 / 12)
    assert count_epsilons((), 0) == 1
    assert count_epsilons((), 5) == 0


def test_iter_epsilons_rejects_bad_sizes():
    with pytest.raises(ValueError):
        list(iter_epsilons((2, 2), 4))  # not strictly increasing
    with pytest.raises(ValueError):
        list(iter_epsilons((0, 1), 2))
    with pytest.raises(ValueError):
        list(iter_epsilons((1, 2), -1))


def _ell_cycles(ell, a):
    return CycleType((0,) * (ell - 1) + (a,))


def test_has_mth_root_frozen_values_on_one_length():
    assert has_mth_root(_ell_cycles(2, 3), 2) is False
    assert has_mth_root(_ell_cycles(2, 4), 2) is True
    assert has_mth_root(_ell_cycles(6, 0), 9) is True
    assert has_mth_root(_ell_cycles(5, 7), 1) is True


def test_has_mth_root_iff_some_epsilon_exists():
    # the bracket rule against reachability: a solution vector spends all a cycles
    for m in range(1, 13):
        for ell in range(1, 13):
            for a in range(13):
                vectors = list(iter_epsilons(g_set_bounded(m, ell, a), a))
                assert has_mth_root(_ell_cycles(ell, a), m) == bool(vectors), (m, ell, a)
