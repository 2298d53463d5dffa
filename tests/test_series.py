"""Exact truncated power series, one variable and many."""

import json
from fractions import Fraction
from itertools import product
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permroots import MultiSeries, egf
from permroots.series import UniSeries
from references import (
    egf_values,
    generalized_binomial,
    one_minus_xp_root,
    partial_sums,
    substitute_scaled_power,
)

GOLDEN = Path(__file__).parent / "golden"

_SMALL_FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def _uniseries(draw, order=8):
    return UniSeries(order, draw(st.lists(_SMALL_FRACTIONS, max_size=order + 1)))


@st.composite
def _multiseries(draw, weight_bound=6, constant=True):
    """A sparse MultiSeries in t_1..t_3 whose terms lie within the weight
    bound, with or without a constant term."""
    keys = [
        key
        for key in product(range(weight_bound + 1), repeat=3)
        if (constant or any(key)) and key[0] + 2 * key[1] + 3 * key[2] <= weight_bound
    ]
    terms = draw(st.dictionaries(st.sampled_from(keys), _SMALL_FRACTIONS, max_size=4))
    return MultiSeries(weight_bound, terms)


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


def test_uniseries_constructor_pads_with_zeros():
    assert UniSeries(3, [1]).coeffs == (1, 0, 0, 0)
    assert UniSeries(3).coeffs == (Fraction(0),) * 4
    assert all(type(c) is Fraction for c in UniSeries(2, [1, 2]).coeffs)
    with pytest.raises(TypeError):
        UniSeries(2, [True])


def test_uniseries_arithmetic():
    one_plus_x = UniSeries(5, [1, 1])
    s = one_plus_x * one_plus_x
    assert [s.coefficient(j) for j in range(3)] == [1, 2, 1]
    with pytest.raises(ValueError):
        UniSeries(5, [0, 1]) * UniSeries(4, [1])


def test_uniseries_mul_truncates():
    x4 = UniSeries(5, [0, 0, 0, 0, 1])
    assert (x4 * x4) == UniSeries(5)


@settings(max_examples=60)
@given(_uniseries(), _uniseries(), _uniseries())
def test_uniseries_mul_commutes_and_associates(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


def test_partial_sums_is_division_by_one_minus_x():
    s = UniSeries(6, [1, 0, 2, 0, 0, Fraction(1, 3)])
    geometric = UniSeries(6, [1] * 7)
    assert partial_sums(s) == s * geometric


def test_substitute_scaled_power():
    # f(y) = 1 + y + y^2 at y = x^2/2, truncated to order 5
    f = UniSeries(2, [1, 1, 1])
    g = substitute_scaled_power(f, Fraction(1, 2), 2, 5)
    assert g.coefficient(0) == 1
    assert g.coefficient(2) == Fraction(1, 2)
    assert g.coefficient(4) == Fraction(1, 4)
    assert g.coefficient(3) == 0
    with pytest.raises(ValueError):
        substitute_scaled_power(f, 1, 2, 12)  # source order too small
    with pytest.raises(ValueError):
        substitute_scaled_power(f, 1, 0, 2)


@settings(max_examples=60)
@given(_uniseries(order=4), _uniseries(order=4), _SMALL_FRACTIONS, st.integers(1, 3))
def test_substitute_scaled_power_respects_products(f, g, c, k):
    order = 4 * k
    assert substitute_scaled_power(f * g, c, k, order) == (
        substitute_scaled_power(f, c, k, order) * substitute_scaled_power(g, c, k, order)
    )


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
        product = UniSeries(order, [1])
        for _ in range(p):
            product = product * g
        expected = UniSeries(order, [1] + [0] * (p - 1) + [-1])
        assert product == expected, p
        assert all(g.coefficient(j) == 0 for j in range(order + 1) if j % p)


def _sum(*series):
    """The termwise sum of series under one weight bound: the tests' own,
    as MultiSeries keeps only the product and exp the routes call."""
    bound = series[0].weight_bound
    assert all(s.weight_bound == bound for s in series)
    terms = {}
    for s in series:
        for key, coeff in s.terms.items():
            terms[key] = terms.get(key, 0) + coeff
    return MultiSeries(bound, terms)


def test_multiseries_basics():
    t1 = MultiSeries(6, {(1,): 1})
    t2 = MultiSeries(6, {(0, 1): 1})
    s = _sum(t1 * t2, t1, t1)
    assert s.coefficient((1, 1)) == 1
    assert s.coefficient((1,)) == 2
    assert s.coefficient((0, 0)) == 0  # trailing zeros normalize to ()
    assert s.coefficient((1, 1, 0)) == 1
    with pytest.raises(ValueError):
        s.coefficient((7,))  # weight beyond the bound
    with pytest.raises(ValueError):
        t1 * MultiSeries(5, {(1,): 1})


def test_multiseries_constructor_merges_keys_and_drops_zeros():
    s = MultiSeries(4, {(1, 0): 1, (1,): 2, (0, 1): 1, (0, 1, 0): -1, (0, 0, 0, 0, 1): 7})
    assert s.terms == {(1,): 3}  # (0, 1) cancelled; weight 5 > 4 dropped
    assert MultiSeries(4, {(): 0}).terms == {}
    for key in [(-1,), (True,), (0.5,)]:
        with pytest.raises(ValueError):
            MultiSeries(4, {key: 1})


# Keys that are not exponent sequences of nonnegative ints, each refused by
# the one key rule that the constructor and coefficient share.
BAD_KEYS = [(1.0,), (True,), (-1,), (2, -1), (1, False), (1, 0.0)]


@pytest.mark.parametrize("key", BAD_KEYS, ids=repr)
def test_multiseries_refuses_bad_keys_in_both_paths(key):
    with pytest.raises(ValueError, match="^exponents must be nonnegative ints"):
        MultiSeries(4, {key: 1})
    with pytest.raises(ValueError, match="^exponents must be nonnegative ints"):
        MultiSeries(4).coefficient(key)


def test_multiseries_has_no_scalar_product_or_sum():
    s = MultiSeries(4, {(1,): 1})
    for scalar in (2, Fraction(1, 2)):
        with pytest.raises(TypeError):
            s * scalar
        with pytest.raises(TypeError):
            scalar * s
    with pytest.raises(TypeError):
        s + s


@settings(max_examples=60)
@given(_multiseries(), _multiseries(), _multiseries())
def test_multiseries_mul_commutes_and_distributes_over_sums(a, b, c):
    assert a * b == b * a
    assert a * _sum(b, c) == _sum(a * b, a * c)


def test_multiseries_weight_truncation():
    t3 = MultiSeries(5, {(0, 0, 1): 1})  # weight 3
    assert (t3 * t3).terms == {}  # weight 6 > 5 dropped
    assert (t3 * MultiSeries(5, {(2,): 1})).coefficient((2, 0, 1)) == 1


def test_multiseries_mul_mixed_key_lengths():
    a = MultiSeries(8, {(1, 1): Fraction(2)})
    b = MultiSeries(8, {(0, 0, 0, 1): Fraction(3), (1,): Fraction(5)})
    product = a * b
    assert product.coefficient((1, 1, 0, 1)) == 6
    assert product.coefficient((2, 1)) == 10


def test_multiseries_exp():
    bound = 6
    t1 = MultiSeries(bound, {(1,): 1})
    t2 = MultiSeries(bound, {(0, 1): 1})
    e = _sum(t1, t2).exp()
    for a in range(4):
        for b in range(2):
            if a + 2 * b <= bound:
                assert e.coefficient((a, b)) == Fraction(1, factorial(a) * factorial(b))
    with pytest.raises(ValueError):
        MultiSeries(3, {(): 1}).exp()


def test_multiseries_exp_addition_law():
    bound = 7
    a = MultiSeries(bound, {(1,): Fraction(1, 2), (0, 1): Fraction(3)})
    b = MultiSeries(bound, {(0, 0, 1): Fraction(-2), (1,): Fraction(1, 3)})
    assert _sum(a, b).exp() == a.exp() * b.exp()


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_multiseries_exp_of_one_variable(ell):
    # exp(c * t_ell) = sum(c**k / k! * t_ell**k) up to weight ell * k <= bound
    bound, c = 7, Fraction(-2, 3)
    key = (0,) * (ell - 1) + (1,)
    e = MultiSeries(bound, {key: c}).exp()
    expected = {
        (0,) * (ell - 1) + (k,) if k else (): c**k / factorial(k) for k in range(bound // ell + 1)
    }
    assert e.terms == expected


@settings(max_examples=60, deadline=None)
@given(_multiseries(constant=False), _multiseries(constant=False))
def test_multiseries_exp_turns_sums_into_products(a, b):
    assert _sum(a, b).exp() == a.exp() * b.exp()


def test_root_count_egf_makes_at_most_one_product_per_power(monkeypatch):
    products = []
    real = MultiSeries.__mul__
    monkeypatch.setattr(MultiSeries, "__mul__", lambda a, b: products.append(b) or real(a, b))
    egf.root_count_egf.__wrapped__(2, 5)  # past the cache
    # the powers 2..5 of the exponent, whose least weight is 1 (t_1): the sixth,
    # of weight at least 6, is not formed, as every term of it passes the bound 5
    assert len(products) == 4


def test_multiseries_products_drop_cancelled_terms_and_stay_read_only():
    a = MultiSeries(4, {(1,): 1, (0, 1): 1})
    b = MultiSeries(4, {(1,): 1, (0, 1): -1})
    product = a * b  # t_1**2 - t_2**2: the two t_1 * t_2 terms cancel
    assert dict(product.terms) == {(2,): 1, (0, 2): -1}
    assert all(type(c) is Fraction for c in product.terms.values())
    with pytest.raises(TypeError):
        product.terms[(1, 1)] = 1
    # exp(t_1 - t_1**2 / 2) = 1 + t_1 + (1/2 - 1/2) * t_1**2 + ...
    assert dict(MultiSeries(2, {(1,): 1, (2,): Fraction(-1, 2)}).exp().terms) == {(): 1, (1,): 1}


# (series, an equal series built anew, one that differs in one coefficient, its repr)
SERIES = [
    (
        UniSeries(2, [1, Fraction(1, 2)]),
        UniSeries(2, [Fraction(1), Fraction(1, 2), 0]),
        UniSeries(2, [1, Fraction(1, 3)]),
        "UniSeries(order=2, coeffs=[Fraction(1, 1), Fraction(1, 2), Fraction(0, 1)])",
    ),
    (
        MultiSeries(3, {(): 1, (0, 1): 2}),
        MultiSeries(3, {(0,): 1, (0, 1, 0): 2}),
        MultiSeries(3, {(): 1, (0, 1): 3}),
        "MultiSeries(weight_bound=3, 2 terms)",
    ),
]


@pytest.mark.parametrize("series,same,other,text", SERIES, ids=lambda v: type(v).__name__)
def test_series_compare_by_value_and_print(series, same, other, text):
    assert series == same
    assert series != other
    assert series != text and series != 1  # another class is never equal
    assert repr(series) == text


@pytest.mark.parametrize("series", [s[0] for s in SERIES], ids=lambda v: type(v).__name__)
def test_series_refuse_rebinding(series):
    for name in series.__slots__:
        before = getattr(series, name)
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(series, name, before)
        with pytest.raises(AttributeError, match="is immutable"):
            delattr(series, name)
        assert getattr(series, name) == before
    with pytest.raises(AttributeError):
        series.extra = 1  # no __dict__ to hold it either


# The golden files hold coefficients as "num/den" text: a dense array indexed
# by exponent, and a map from comma-joined exponent tuples ("" for the
# constant term) beside the weight bound.


def test_uniseries_golden_file():
    from permroots import r_total_series

    data = json.loads((GOLDEN / "r_total_series_m2_order8.json").read_text())
    expected = UniSeries(len(data) - 1, [Fraction(text) for text in data])
    assert r_total_series(2, 8) == egf_values(expected)


def test_multiseries_golden_file():
    from permroots import root_count_egf

    data = json.loads((GOLDEN / "root_count_egf_m2_weight4.json").read_text())
    terms = {
        tuple(int(e) for e in key.split(",")) if key else (): Fraction(text)
        for key, text in data["terms"].items()
    }
    assert root_count_egf(2, 4) == MultiSeries(data["weight_bound"], terms)
