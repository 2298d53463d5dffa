"""The exact root-count formula."""

from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permroots import (
    CycleType,
    count_epsilons,
    cycle_types,
    g_set_bounded,
    has_mth_root,
    iter_epsilons,
    root_count,
)
import permroots.counting as counting
from permroots.counting import _length_factor
from references import homogeneous_count


def test_root_count_frozen_values():
    assert root_count(CycleType((2, 0)), 2) == 2
    assert root_count(CycleType((4, 0, 0, 0)), 2) == 10
    assert root_count(CycleType((0, 0, 0, 1)), 2) == 0
    assert root_count(CycleType(()), 2) == 1


def test_root_count_depends_only_on_nonzero_pairs():
    assert root_count(CycleType((2,)), 2) == root_count(CycleType((2, 0)), 2)
    assert root_count(CycleType((0, 2)), 3) == root_count(CycleType((0, 2, 0, 0)), 3)


def test_first_power_always_has_exactly_one_root():
    for n in range(9):
        for t in cycle_types(n):
            assert root_count(t, 1) == 1


def test_single_cycle_root_counts():
    # a lone ell-cycle has one m-th root when gcd(ell, m) == 1, none otherwise
    from math import gcd

    for ell in range(1, 10):
        for m in range(1, 10):
            t = CycleType((0,) * (ell - 1) + (1,))
            expected = 1 if gcd(ell, m) == 1 else 0
            assert root_count(t, m) == expected, (ell, m)


def test_count_factors_over_cycle_lengths():
    """A mixed type counts as the product of its single-length slices:
    roots act independently on the cycles of each length."""
    for m in (2, 3, 4, 6):
        for n in range(9):
            for t in cycle_types(n):
                slice_product = 1
                for ell, a in t.nonzero():
                    single = CycleType((0,) * (ell - 1) + (a,))
                    slice_product *= root_count(single, m)
                assert root_count(t, m) == slice_product, (t, m)


def test_zero_exactly_when_existence_fails():
    for n in range(9):
        for t in cycle_types(n):
            for m in (2, 3, 4, 6):
                assert (root_count(t, m) > 0) == has_mth_root(t, m), (t, m)


def test_global_identity_every_permutation_is_some_power():
    # tau -> tau**m is a bijection-free cover: summing root counts over a
    # conjugacy-class decomposition of S_n recovers n! exactly
    for m in (2, 3, 5):
        for n in range(9):
            total = sum(root_count(t, m) * t.class_size() for t in cycle_types(n))
            assert total == factorial(n), (n, m)


def test_homogeneous_count_frozen_values():
    assert homogeneous_count(1, 2, 1, 2) == 1
    assert homogeneous_count(1, 2, 2, 2) == 3
    assert homogeneous_count(2, 2, 1, 2) == 2
    # four 3-cycles left unfused (g=1): single root, the cycle-wise one
    assert homogeneous_count(3, 1, 4, 2) == 1
    # three fixed points fused into one 3-cycle: 3 | m however large m is
    assert homogeneous_count(1, 3, 1, 10**20 - 1) == 2


def test_homogeneous_count_rejects_inadmissible_size():
    with pytest.raises(ValueError):
        homogeneous_count(2, 2, 1, 4)  # only g=4 is admissible for m=4, ell=2
    with pytest.raises(ValueError):
        homogeneous_count(1, 3, 1, 2)


def test_homogeneous_matches_full_formula_on_pure_types():
    # when the solution vector is forced to a single size, the formulas meet
    assert homogeneous_count(2, 4, 2, 4) == root_count(CycleType((0, 8)), 4)
    # identity on 6 points under m=2: all-pairs fusing (p=3 transposition
    # bundles) is one epsilon's contribution, strictly below the full count
    assert homogeneous_count(1, 2, 3, 2) == 15
    assert homogeneous_count(1, 2, 3, 2) < root_count(CycleType((6,)), 2)


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=10), st.integers(min_value=1, max_value=12))
def test_counts_are_nonnegative_integers(n, m):
    for t in cycle_types(n):
        value = root_count(t, m)
        assert isinstance(value, int)
        assert value >= 0


def test_a_rootless_type_computes_only_its_zero_factor(monkeypatch):
    import permroots.counting as counting

    computed = []
    original = counting._length_factor

    def spy(ell, a, m):
        computed.append(ell)
        return original(ell, a, m)

    monkeypatch.setattr(counting, "_length_factor", spy)
    # bracket(2, 12) == 4 does not divide 30, so only ell = 2 is needed
    assert root_count(CycleType((60, 30, 20)), 12) == 0
    assert computed == [2]


def _fraction_eps_sum(ell, a, m):
    """Reference: the rational eps-sum, a! * sum of prod ell**((g-1)e) / (g**e e!)."""
    sizes = g_set_bounded(m, ell, a)
    acc = Fraction(0)
    for eps in iter_epsilons(sizes, a):
        term = Fraction(1)
        for g, e in zip(sizes, eps):
            term *= Fraction(ell ** ((g - 1) * e), g**e * factorial(e))
        acc += term
    factor = factorial(a) * acc
    assert factor.denominator == 1
    return factor.numerator


def _derivative_recurrence(ell, a, m):
    """Reference that visits no eps-vector: a! [x^a] exp(sum_g ell**(g-1) x**g / g)
    over the admissible g (gcd(g*ell, m) == g), by b_0 = 1 and
    b_k = sum_{g <= k} (k-1)!/(k-g)! * ell**(g-1) * b_{k-g}."""
    sizes = [g for g in range(1, a + 1) if gcd(g * ell, m) == g]
    b = [1]
    for k in range(1, a + 1):
        b.append(
            sum(
                factorial(k - 1) // factorial(k - g) * ell ** (g - 1) * b[k - g]
                for g in sizes
                if g <= k
            )
        )
    return b[a]


@st.composite
def _types_up_to_weight_30(draw):
    left = draw(st.integers(min_value=0, max_value=30))
    counts: dict[int, int] = {}
    while left:
        ell = draw(st.integers(min_value=1, max_value=left))
        a = draw(st.integers(min_value=1, max_value=left // ell))
        counts[ell] = counts.get(ell, 0) + a
        left -= ell * a
    a_vec = [0] * max(counts, default=0)
    for ell, a in counts.items():
        a_vec[ell - 1] = a
    return CycleType(tuple(a_vec))


@settings(max_examples=150, deadline=None)
@given(_types_up_to_weight_30(), st.sampled_from([1, 2, 6, 12, 60, 360, 720]))
def test_integer_length_factor_equals_the_fraction_sum_and_the_recurrence(t, m):
    product = 1
    for ell, a in t.nonzero():
        factor = _length_factor(ell, a, m)
        assert type(factor) is int
        assert factor == _fraction_eps_sum(ell, a, m) == _derivative_recurrence(ell, a, m), (
            ell,
            a,
            m,
        )
        product *= factor
    assert root_count(t, m) == product


def test_length_factor_on_large_multiplicities():
    # 1^24 under m = 720 has 1,072 eps-vectors, past the check's budget;
    # 2^30 and 3^20 under m = 12
    for ell, a, m in ((1, 24, 720), (2, 30, 12), (3, 20, 12), (1, 60, 2)):
        assert _length_factor(ell, a, m) == _derivative_recurrence(ell, a, m), (ell, a, m)


@pytest.mark.parametrize("m", [60, 720, 720720])
def test_both_recurrence_forms_agree_with_each_other_and_the_eps_sum(monkeypatch, m):
    """Both forms on every (ell, a <= 80), on both sides of the form rule,
    which picks each of them somewhere in this range for every m."""
    real = counting._recurrence
    picked = set()

    def spy(ell, a, sizes, scaled):
        picked.add(scaled)
        return real(ell, a, sizes, scaled)

    monkeypatch.setattr(counting, "_recurrence", spy)
    for ell in (1, 2, 3):
        for a in range(81):
            sizes = g_set_bounded(m, ell, a)
            unscaled = real(ell, a, sizes, False)
            assert unscaled == real(ell, a, sizes, True) == _length_factor.__wrapped__(ell, a, m)
            if count_epsilons(sizes, a) <= 500:
                assert unscaled == counting._eps_sum(ell, a, m, sizes), (ell, a, m)
    assert picked == {False, True}


@pytest.mark.parametrize(
    "ell,a,m,scaled",
    [
        (1, 20000, 2, False),  # sizes (1, 2): no falling factorial is longer than one factor
        (1, 25219, 25219, False),  # sizes (1, 25219): the long one only at the last step
        (1, 36, 12, True),
        (1, 2000, 720720, True),
        (2, 6000, 720, True),  # sizes 16, 48, ..., 720: every step reaches long factorials
    ],
)
def test_the_form_rule(monkeypatch, ell, a, m, scaled):
    picked = []
    monkeypatch.setattr(counting, "_recurrence", lambda ell, a, sizes, scaled: picked.append(scaled))
    _length_factor.__wrapped__(ell, a, m)
    assert picked == [scaled]


@pytest.mark.parametrize(
    "ell,a,m,counted,walked",
    [
        (1, 4, 2, False, 3),  # a <= WALK_A: walked without a count
        (1, 12, 720720, False, 77),  # every partition of 12
        (2, 16, 12, True, 2),  # sizes (4, 12): 2 vectors times 16 fit CHECK_BUDGET
        (1, 24, 720, True, 0),  # 1,072 vectors times 24 do not
        (1, 2000, 720720, False, 0),  # 151 sizes times 2000: not even counted
        (1, 20000, 2, False, 0),
    ],
)
def test_the_eps_sum_checks_only_where_it_is_cheap(monkeypatch, ell, a, m, counted, walked):
    calls = {"count": 0, "walk": 0}
    factorials = []
    real_walk, real_count, real_factorial = counting.iter_epsilons, counting.count_epsilons, factorial

    def walk(sizes, total):
        for eps in real_walk(sizes, total):
            calls["walk"] += 1
            yield eps

    def count(sizes, total):
        calls["count"] += 1
        return real_count(sizes, total)

    def spy_factorial(k):
        factorials.append(k)
        return real_factorial(k)

    monkeypatch.setattr(counting, "iter_epsilons", walk)
    monkeypatch.setattr(counting, "count_epsilons", count)
    monkeypatch.setattr(counting, "factorial", spy_factorial)
    _length_factor.__wrapped__(ell, a, m)
    assert (calls["count"] > 0, calls["walk"]) == (counted, walked)
    if a > counting.CHECK_BUDGET:
        assert a not in factorials  # the recurrence's form A and no walk: a! is never formed


def test_a_prime_length_fuses_all_or_nothing():
    # under m = p prime, p fixed points stay fixed or form one p-cycle of the root
    assert _length_factor(1, 25219, 25219) == 1 + factorial(25218)
