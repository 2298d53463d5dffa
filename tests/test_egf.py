"""Generating functions and prime-power probability blocks."""

from fractions import Fraction
from math import factorial

import pytest

import permroots.cli as cli
import permroots.egf as egf
from permroots import (
    CycleType,
    check_prime_power_equalities,
    cycle_types,
    r_total,
    r_total_from_types,
    r_total_range,
    r_total_series,
    root_count,
    root_count_egf,
    root_probability,
)
from permroots.cli import main
from permroots.series import UniSeries
from references import (
    egf_values,
    exp_q,
    partial_sums,
    prime_power_block_series,
    prime_root_count_egf,
    root_count_from_egf,
    substitute_scaled_power,
)


def test_exp_q_frozen_values():
    e = exp_q(2, 4)
    assert [e.coefficient(j) for j in range(5)] == [
        1,
        0,
        Fraction(1, 2),
        0,
        Fraction(1, 24),
    ]
    e = exp_q(3, 6)
    assert e.coefficient(0) == 1
    assert e.coefficient(3) == Fraction(1, 6)
    assert e.coefficient(6) == Fraction(1, 720)
    assert all(e.coefficient(j) == 0 for j in (1, 2, 4, 5))
    # q = 1 is exp itself
    e = exp_q(1, 6)
    assert all(e.coefficient(j) == Fraction(1, factorial(j)) for j in range(7))
    with pytest.raises(ValueError):
        exp_q(0, 4)


def test_root_count_egf_anchor_coefficients():
    e = root_count_egf(2, 4)
    assert e.coefficient((4,)) * factorial(4) == 10
    assert e.coefficient((0, 2)) * factorial(2) == 2
    assert e.coefficient((0, 1)) == 0
    assert e.coefficient((0, 0, 0, 1)) == 0


def test_cached_egf_cannot_be_changed_by_a_caller():
    with pytest.raises(TypeError):
        root_count_egf(2, 2).terms[(2,)] = 99
    assert root_count_from_egf(2, CycleType((2,))) == 2


def test_root_count_from_egf_matches_product_formula():
    for m in (2, 3, 4, 6):
        for n in range(10):
            for t in cycle_types(n):
                assert root_count_from_egf(m, t) == root_count(t, m), (m, t)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 12])
def test_one_series_reads_the_count_of_every_lower_weight(m):
    # a truncation at weight 8 leaves every coefficient of lower weight as it is
    series = root_count_egf(m, 8)
    for n in range(9):
        for t in cycle_types(n):
            assert egf._count_from_series(series, t, m) == root_count_from_egf(m, t), t


def test_selftest_expands_one_root_count_series_per_m(capsys):
    root_count_egf.cache_clear()
    assert main(["selftest", "--max-n", "5", "-m", "2,3"]) == 0
    assert root_count_egf.cache_info().misses == 2
    assert capsys.readouterr().err == ""


def test_first_power_egf_counts_every_type_once():
    e = root_count_egf(1, 5)
    for t in cycle_types(5):
        assert root_count_from_egf(1, t) == 1


def test_prime_specialization_equals_general_egf():
    for p in (2, 3, 5):
        assert prime_root_count_egf(p, 8) == root_count_egf(p, 8)


def test_prime_specialization_anchor_coefficients():
    e2 = prime_root_count_egf(2, 4)
    assert e2.coefficient((2,)) * factorial(2) == 2
    assert e2.coefficient((0, 1)) == 0
    e3 = prime_root_count_egf(3, 3)
    assert e3.coefficient((3,)) * factorial(3) == 3


def test_prime_specialization_rejects_composites():
    with pytest.raises(ValueError):
        prime_root_count_egf(4, 6)
    with pytest.raises(ValueError):
        prime_root_count_egf(1, 6)


def test_r_total_frozen_values():
    assert [r_total(n, 2) for n in range(6)] == [1, 1, 1, 3, 12, 60]
    assert r_total(0, 9) == 1
    for n in range(7):
        assert r_total(n, 1) == factorial(n)


def test_r_total_routes_agree():
    for m in (2, 3, 4, 6, 8, 9):
        for n in range(13):
            # r_total checks its convolution against the series internally;
            # the classification route is compared here
            assert r_total(n, m) == r_total_from_types(n, m)


def fraction_product_series(m, order):
    """The Wilf product as a product of dense Fraction series: the reference
    for the integer-scaled r_total_series."""
    from permroots.numtheory import bracket

    series = UniSeries(order, [1])
    for ell in range(1, order + 1):
        series = series * substitute_scaled_power(
            exp_q(bracket(ell, m), order // ell), Fraction(1, ell), ell, order
        )
    return series


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 12, 60, 720])
def test_r_total_series_equals_the_fraction_product(m):
    # a truncated product is the truncation of the longer product, so one
    # reference at order 40 serves every order 0..40
    reference = fraction_product_series(m, 40)
    for order in range(41):
        assert r_total_series(m, order) == egf_values(reference)[: order + 1], order


def test_r_total_series_equals_the_fraction_product_at_order_100():
    series = r_total_series(2, 100)
    assert series == egf_values(fraction_product_series(2, 100))
    assert series == r_total_range(0, 100, 2)
    assert {type(value) for value in series} == {int}


@pytest.mark.parametrize("m", [1, 2, 3, 4, 8, 9, 12, 60, 720720, 61])
def test_both_routes_equal_the_fraction_product_to_order_60(m):
    # every length is free (q = 1) under m = 1 and under the prime 61, which
    # is above the order; under m = 720720 = lcm(1..16), ell = 1 is the only
    # free length below 17
    reference = egf_values(fraction_product_series(m, 60))
    for order in range(61):
        assert r_total_series(m, order) == reference[: order + 1], order
        assert egf._r_total_convolution(order, m) == list(reference[: order + 1]), order


def test_r_total_series_ignores_factors_beyond_the_order():
    # factors for ell > order contribute nothing below the truncation
    from permroots.numtheory import bracket

    order = 9
    for m in (2, 6):
        base = r_total_series(m, order)
        extended = UniSeries(order, [Fraction(value, factorial(n)) for n, value in enumerate(base)])
        for ell in range(order + 1, order + 6):
            factor = substitute_scaled_power(
                exp_q(bracket(ell, m), order // ell), Fraction(1, ell), ell, order
            )
            extended = extended * factor
        assert egf_values(extended) == base


def test_root_probability_frozen_values():
    assert root_probability(0, 5) == 1
    assert root_probability(2, 2) == Fraction(1, 2)
    assert root_probability(5, 2) == Fraction(1, 2)
    assert root_probability(4, 4) == Fraction(3, 8)


def test_root_probability_bounds_and_first_power():
    for n in range(13):
        assert root_probability(n, 1) == 1
        for m in (2, 3, 6):
            assert 0 <= root_probability(n, m) <= 1


def test_probability_blocks_for_prime_powers():
    for q, r in ((2, 1), (2, 2), (3, 1)):
        report = check_prime_power_equalities(q, r, 6)
        assert report.m == q**r
        assert report.all_equal
        for j, block in enumerate(report.blocks):
            assert block.j == j
            assert block.ns == tuple(range(j * q, (j + 1) * q))
            assert len(set(block.probabilities)) == 1


@pytest.mark.parametrize(
    "probabilities,equal",
    [
        ((), False),
        ((Fraction(1, 2),), True),
        ((Fraction(1, 2), Fraction(2, 4), Fraction(1, 2)), True),
        ((Fraction(1, 2), Fraction(1, 2), Fraction(1, 3)), False),
        ((Fraction(1, 3), Fraction(1, 2), Fraction(1, 2)), False),
    ],
    ids=["empty", "one", "all_equal", "last_differs", "first_differs"],
)
def test_block_equality_and_the_report_verdict(probabilities, equal):
    block = egf.ProbabilityBlock(0, tuple(range(len(probabilities))), probabilities)
    assert block.equal is equal
    good = egf.ProbabilityBlock(1, (2, 3), (Fraction(1, 2), Fraction(1, 2)))
    assert egf.EqualityReport(2, 1, 2, (good, block)).all_equal is equal
    assert egf.EqualityReport(2, 1, 2, (block,)).all_equal is equal
    assert egf.EqualityReport(2, 1, 2, (good,)).all_equal is True


def test_probability_blocks_reject_bad_arguments():
    with pytest.raises(ValueError):
        check_prime_power_equalities(4, 1, 3)
    with pytest.raises(ValueError):
        check_prime_power_equalities(2, 0, 3)
    with pytest.raises(ValueError):
        check_prime_power_equalities(2, 1, 0)


def test_block_series_has_only_p_divisible_exponents():
    for p, r in ((2, 1), (2, 2), (3, 1), (5, 1)):
        g = prime_power_block_series(p, r, 16)
        for j in range(17):
            if j % p:
                assert g.coefficient(j) == 0, (p, r, j)


def test_block_series_partial_sums_reproduce_r_total_series():
    # dividing by (1 - x) must recover the EGF of r_total, and the
    # coefficient runs explain the equal-probability blocks
    for p, r in ((2, 1), (2, 3), (3, 2)):
        order = 16
        g = prime_power_block_series(p, r, order)
        h = partial_sums(g)
        assert egf_values(h) == r_total_series(p**r, order)
        for k in range(order // p):
            base = h.coefficient(k * p)
            for offset in range(1, p):
                if k * p + offset <= order:
                    assert h.coefficient(k * p + offset) == base


def test_block_series_rejects_bad_arguments():
    with pytest.raises(ValueError):
        prime_power_block_series(6, 1, 10)
    with pytest.raises(ValueError):
        prime_power_block_series(2, 0, 10)


def test_probability_is_weakly_decreasing_in_n_for_m2():
    probabilities = [root_probability(n, 2) for n in range(13)]
    assert all(a >= b for a, b in zip(probabilities, probabilities[1:]))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 12, 60])
def test_r_total_range_equals_the_classification_sum(m):
    expected = [r_total_from_types(n, m) for n in range(21)]
    for lo in range(21):
        for hi in range(lo, 21):
            assert r_total_range(lo, hi, m) == tuple(expected[lo : hi + 1]), (lo, hi)


# The classification sum is the reference for the r values that reach
# output: acceptance criterion 5's blocks (n <= 31, 32, 34 for q = 2, 3, 5)
# and the table at the old truncation cap of 40 (n = 39..41); the default
# cap is now 200, where the sum over p(200) cycle types is out of reach.
@pytest.mark.parametrize("q,r", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)])
def test_prime_power_blocks_equal_the_classification_sum(q, r):
    report = check_prime_power_equalities(q, r, (31 + q - 1) // q)
    for block in report.blocks:
        for n, probability in zip(block.ns, block.probabilities):
            assert probability * factorial(n) == r_total_from_types(n, q**r), (q, r, n)


def test_table_at_the_truncation_cap_equals_the_classification_sum():
    assert r_total_range(39, 41, 2) == tuple(r_total_from_types(n, 2) for n in range(39, 42))


def test_r_total_range_refuses_an_empty_range():
    with pytest.raises(ValueError, match=r"^hi must be at least lo=3, got 2$"):
        r_total_range(3, 2, 2)


def counted(monkeypatch, module, name):
    """Replace module.<name> by a wrapper that counts its calls."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize(
    "argv,expansions,classifications",
    [
        (["table", "-m", "2", "--n", "0..20"], 1, 0),
        (["table", "-m", "2", "--n", "15..20"], 1, 0),
        (["prob", "-q", "2", "-r", "2", "--blocks", "10"], 1, 0),
        # one r_total_range per m and per prime-power block check; the
        # classification sum once for each n = 0..5 and each m
        (["selftest", "--max-n", "5", "-m", "2,3"], 5, 12),
    ],
    ids=["table-0..20", "table-15..20", "prob", "selftest"],
)
def test_one_series_expansion_per_range_and_classification_only_in_selftest(
    argv, expansions, classifications, monkeypatch, capsys
):
    series_calls = counted(monkeypatch, egf, "r_total_series")
    type_calls = counted(monkeypatch, egf, "r_total_from_types")
    type_calls_in_cli = counted(monkeypatch, cli, "r_total_from_types")
    assert main(argv) == 0
    assert len(series_calls) == expansions
    assert type_calls == []
    assert len(type_calls_in_cli) == classifications
    assert capsys.readouterr().err == ""


def test_cached_series_cannot_be_rebound():
    series = r_total_series(2, 5)
    with pytest.raises(TypeError):
        series[5] = 0
    assert r_total_series(2, 5)[5] == 60
    with pytest.raises(AttributeError):
        root_count_egf(2, 2).terms = {(2,): Fraction(99)}
    assert root_count_from_egf(2, CycleType((2,))) == 2


def test_r_total_range_finds_each_modulus_once(monkeypatch):
    calls = []
    real = egf.bracket

    def counted(ell, m):
        calls.append(ell)
        return real(ell, m)

    monkeypatch.setattr(egf, "bracket", counted)
    egf._moduli.cache_clear()
    hi = 30
    values = r_total_range(0, hi, 12)
    assert sorted(calls) == list(range(1, hi + 1))  # the two routes share one list
    assert values[:8] == tuple(r_total_from_types(n, 12) for n in range(8))
