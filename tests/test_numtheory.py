"""Factorization, valuations, and the bracket quantity."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permroots import bracket, factorize, is_prime
from references import divisors, nu_p


def test_factorize_frozen_values():
    assert factorize(1) == []
    assert factorize(2) == [(2, 1)]
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert factorize(97) == [(97, 1)]


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-12)


@given(st.integers(min_value=1, max_value=10**6))
def test_factorize_reconstructs_input(n):
    product = 1
    previous = 1
    for p, e in factorize(n):
        assert p > previous, "primes must be strictly increasing"
        assert e >= 1
        assert is_prime(p)
        product *= p**e
        previous = p
    assert product == n


def test_nu_p_frozen_values():
    assert nu_p(8, 2) == 3
    assert nu_p(7, 2) == 0
    assert nu_p(360, 3) == 2
    assert nu_p(1, 5) == 0


def test_nu_p_rejects_bad_arguments():
    with pytest.raises(ValueError):
        nu_p(8, 4)  # composite
    with pytest.raises(ValueError):
        nu_p(8, 1)
    with pytest.raises(ValueError):
        nu_p(0, 2)


@given(
    st.integers(min_value=1, max_value=10**4),
    st.integers(min_value=1, max_value=10**4),
    st.sampled_from([2, 3, 5, 7, 11]),
)
def test_nu_p_is_additive(a, b, p):
    assert nu_p(a * b, p) == nu_p(a, p) + nu_p(b, p)


def test_divisors_frozen_values():
    assert divisors(1) == [1]
    assert divisors(6) == [1, 2, 3, 6]
    assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]
    assert divisors(97) == [1, 97]


@given(st.integers(min_value=1, max_value=5000))
def test_divisors_complete_and_sorted(m):
    ds = divisors(m)
    assert ds == sorted(ds)
    assert ds == [d for d in range(1, m + 1) if m % d == 0]


def _divisors_by_trial_division(m):
    """Every d <= sqrt(m) that divides m, with its partner m // d: a second
    route to divisors' products of prime powers."""
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d != m // d:
                large.append(m // d)
        d += 1
    return small + large[::-1]


def test_divisors_equal_the_trial_division_loop():
    for m in range(1, 5001):
        assert divisors(m) == _divisors_by_trial_division(m), m
    # 10**20 - 1 = (10**10 - 1)(10**10 + 1) with coprime factors, so its
    # divisors are the products of theirs; each factor's loop takes 10**5 steps
    low, high = 10**10 - 1, 10**10 + 1
    assert math.gcd(low, high) == 1
    expected = sorted(
        a * b
        for a in _divisors_by_trial_division(low)
        for b in _divisors_by_trial_division(high)
    )
    assert divisors(10**20 - 1) == expected
    assert len(expected) == 384


def test_bracket_frozen_values():
    assert bracket(5, 2) == 1
    assert bracket(2, 8) == 8
    assert bracket(12, 18) == 18
    assert bracket(1, 360) == 1
    assert bracket(6, 360) == 72  # 2^3 * 3^2


def test_bracket_prime_power_specialization():
    # for m = p^r: 1 when p does not divide ell, the full m when it does
    for p in (2, 3, 5):
        for r in (1, 2, 3):
            m = p**r
            for ell in range(1, 101):
                expected = 1 if ell % p else m
                assert bracket(ell, m) == expected


def test_bracket_divides_m_and_detects_coprimality():
    for ell in range(1, 40):
        for m in range(1, 40):
            b = bracket(ell, m)
            assert m % b == 0
            assert (b == 1) == (math.gcd(ell, m) == 1)


def test_bracket_equals_the_factorization_route():
    # the definition: product over primes p dividing ell of p**nu_p(m, p)
    for ell in range(1, 150):
        for m in range(1, 150):
            expected = math.prod(p ** nu_p(m, p) for p, _ in factorize(ell))
            assert bracket(ell, m) == expected, (ell, m)


@given(
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=60),
)
def test_bracket_multiplicative_over_coprime_m(ell, m1, m2):
    if math.gcd(m1, m2) == 1:
        assert bracket(ell, m1 * m2) == bracket(ell, m1) * bracket(ell, m2)


@pytest.mark.parametrize("r", [1, 2, 3, 63, 64, 65, 14_000, 200_000])
def test_bracket_takes_out_a_prime_power_of_any_valuation(r):
    # each step of the loop doubles the exponents taken out: 18 steps for r = 200,000
    m = 2**r * 3**5 * 7
    assert bracket(2, m) == 2**r
    assert bracket(6, m) == 2**r * 3**5
    assert bracket(35, m) == 7
    assert bracket(5, m) == 1


def test_bracket_rejects_nonpositive():
    with pytest.raises(ValueError):
        bracket(0, 4)
    with pytest.raises(ValueError):
        bracket(4, 0)
