"""Exact truncated power series, one variable and many."""

import json
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permroots import MultiSeries, UniSeries, one_minus_xp_root
from permroots.series import _generalized_binomial as generalized_binomial

GOLDEN = Path(__file__).parent / "golden"


def test_uniseries_construction_and_coefficients():
    s = UniSeries(4, [1, 0, Fraction(1, 2)])
    assert s.coefficient(0) == 1
    assert s.coefficient(2) == Fraction(1, 2)
    assert s.coefficient(4) == 0
    with pytest.raises(ValueError):
        s.coefficient(5)
    with pytest.raises(ValueError):
        UniSeries(1, [1, 2, 3])
    with pytest.raises(TypeError):
        UniSeries(2, [0.5])


def test_uniseries_arithmetic():
    x = UniSeries.monomial(5, 1)
    s = (x + UniSeries.one(5)) * (x + UniSeries.one(5))
    assert [s.coefficient(j) for j in range(3)] == [1, 2, 1]
    assert (2 * x).coefficient(1) == 2
    assert (x - x) == UniSeries.zero(5)
    with pytest.raises(ValueError):
        x * UniSeries.one(4)


def test_uniseries_mul_truncates():
    x4 = UniSeries.monomial(5, 4)
    assert (x4 * x4) == UniSeries.zero(5)


def test_exp_of_x():
    x = UniSeries.monomial(8, 1)
    e = x.exp()
    for j in range(9):
        assert e.coefficient(j) == Fraction(1, factorial(j))
    with pytest.raises(ValueError):
        UniSeries.one(3).exp()


@st.composite
def _sparse_series(draw, order=10):
    terms = draw(
        st.dictionaries(
            st.integers(min_value=1, max_value=order),
            st.fractions(min_value=-3, max_value=3, max_denominator=6),
            max_size=4,
        )
    )
    coeffs = [Fraction(0)] * (order + 1)
    for j, c in terms.items():
        coeffs[j] = c
    return UniSeries(order, coeffs)


@settings(max_examples=80)
@given(_sparse_series(), _sparse_series())
def test_exp_turns_sums_into_products(a, b):
    assert (a + b).exp() == a.exp() * b.exp()


def test_partial_sums_is_division_by_one_minus_x():
    s = UniSeries(6, [1, 0, 2, 0, 0, Fraction(1, 3)])
    geometric = UniSeries(6, [1] * 7)
    assert s.partial_sums() == s * geometric


def test_substitute_scaled_power():
    # f(y) = 1 + y + y^2 at y = x^2/2, truncated to order 5
    f = UniSeries(2, [1, 1, 1])
    g = f.substitute_scaled_power(Fraction(1, 2), 2, 5)
    assert g.coefficient(0) == 1
    assert g.coefficient(2) == Fraction(1, 2)
    assert g.coefficient(4) == Fraction(1, 4)
    assert g.coefficient(3) == 0
    with pytest.raises(ValueError):
        f.substitute_scaled_power(1, 2, 12)  # source order too small
    with pytest.raises(ValueError):
        f.substitute_scaled_power(1, 0, 2)


def test_generalized_binomial_frozen_values():
    half = Fraction(1, 2)
    assert generalized_binomial(half, 0) == 1
    assert generalized_binomial(half, 1) == half
    assert generalized_binomial(half, 2) == Fraction(-1, 8)
    assert generalized_binomial(half, 3) == Fraction(1, 16)
    assert generalized_binomial(Fraction(1, 3), 2) == Fraction(-1, 9)
    assert generalized_binomial(Fraction(3), 2) == 3
    with pytest.raises(ValueError):
        generalized_binomial(half, -1)


def test_one_minus_xp_root_is_a_pth_root():
    for p in (2, 3, 5):
        order = 20
        g = one_minus_xp_root(p, order)
        product = UniSeries.one(order)
        for _ in range(p):
            product = product * g
        expected = UniSeries.one(order) - UniSeries.monomial(order, p)
        assert product == expected, p
        assert all(g.coefficient(j) == 0 for j in range(order + 1) if j % p)


def test_multiseries_basics():
    t1 = MultiSeries.monomial(6, (1,))
    t2 = MultiSeries.monomial(6, (0, 1))
    s = t1 * t2 + 2 * t1
    assert s.coefficient((1, 1)) == 1
    assert s.coefficient((1,)) == 2
    assert s.coefficient((0, 0)) == 0  # trailing zeros normalize to ()
    assert s.coefficient((1, 1, 0)) == 1
    with pytest.raises(ValueError):
        s.coefficient((7,))  # weight beyond the bound
    with pytest.raises(ValueError):
        t1 + MultiSeries.monomial(5, (1,))


def test_multiseries_weight_truncation():
    t3 = MultiSeries.monomial(5, (0, 0, 1))  # weight 3
    assert (t3 * t3).terms == {}  # weight 6 > 5 dropped
    assert (t3 * MultiSeries.monomial(5, (2,))).coefficient((2, 0, 1)) == 1


def test_multiseries_mul_mixed_key_lengths():
    a = MultiSeries(8, {(1, 1): Fraction(2)})
    b = MultiSeries(8, {(0, 0, 0, 1): Fraction(3), (1,): Fraction(5)})
    product = a * b
    assert product.coefficient((1, 1, 0, 1)) == 6
    assert product.coefficient((2, 1)) == 10


def test_multiseries_exp():
    bound = 6
    t1 = MultiSeries.monomial(bound, (1,))
    t2 = MultiSeries.monomial(bound, (0, 1))
    e = (t1 + t2).exp()
    for a in range(4):
        for b in range(2):
            if a + 2 * b <= bound:
                assert e.coefficient((a, b)) == Fraction(1, factorial(a) * factorial(b))
    with pytest.raises(ValueError):
        MultiSeries.one(3).exp()


def test_multiseries_exp_addition_law():
    bound = 7
    a = MultiSeries(bound, {(1,): Fraction(1, 2), (0, 1): Fraction(3)})
    b = MultiSeries(bound, {(0, 0, 1): Fraction(-2), (1,): Fraction(1, 3)})
    assert (a + b).exp() == a.exp() * b.exp()


# The golden files hold coefficients as "num/den" text: a dense array indexed
# by exponent, and a map from comma-joined exponent tuples ("" for the
# constant term) beside the weight bound.


def test_uniseries_golden_file():
    from permroots import r_total_series

    data = json.loads((GOLDEN / "r_total_series_m2_order8.json").read_text())
    expected = UniSeries(len(data) - 1, [Fraction(text) for text in data])
    assert r_total_series(2, 8) == expected


def test_multiseries_golden_file():
    from permroots import root_count_egf

    data = json.loads((GOLDEN / "root_count_egf_m2_weight4.json").read_text())
    terms = {
        tuple(int(e) for e in key.split(",")) if key else (): Fraction(text)
        for key, text in data["terms"].items()
    }
    assert root_count_egf(2, 4) == MultiSeries(data["weight_bound"], terms)
