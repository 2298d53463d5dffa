"""Permutations, powers, root existence, and root construction."""

import itertools
import json
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import factorial, gcd, lcm
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from permroots import (
    CycleType,
    Permutation,
    SizeCapError,
    brute_force_root_table,
    cycle_type,
    cycle_types,
    enumerate_roots,
    format_cycle_type,
    format_permutation,
    has_mth_root,
    parse_cycle_type,
    parse_permutation,
    power,
    root_count,
)
from permroots import perm
from permroots._checks import InternalCheckError
from permroots.perm import (
    _closing,
    _fusions,
    _image_power,
    _Memo,
    _order_multiple,
    _unlinked_subsets,
    _write_fusion,
)
from references import (
    brute_force_roots,
    compose,
    identity,
    interleaved_fusions,
    inverse,
    roots_under_replay_caps,
)


@st.composite
def _permutations(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    return Permutation(draw(st.permutations(list(range(1, n + 1)))))


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation([1, 1])
    with pytest.raises(ValueError):
        Permutation([0, 1])
    with pytest.raises(ValueError):
        Permutation([2, 3])
    with pytest.raises(ValueError, match="^cycles are not disjoint at 2$"):
        Permutation.from_cycles(3, [(1, 2), (2, 3)])
    assert Permutation([]).degree == 0


def test_one_line_text_round_trip():
    sigma = parse_permutation("2 3 1")
    assert sigma(1) == 2 and sigma(2) == 3 and sigma(3) == 1
    assert format_permutation(sigma) == "2 3 1"
    assert repr(Permutation([2, 1, 3])) == "Permutation([2, 1, 3])"
    assert parse_permutation("") == Permutation([])
    with pytest.raises(ValueError):
        parse_permutation("2 3 x")
    with pytest.raises(ValueError):
        parse_permutation("1 2 2")


def test_cycles_are_canonical():
    sigma = Permutation([3, 4, 1, 2, 5])
    assert sigma.cycles() == [(1, 3), (2, 4), (5,)]


def test_the_kept_split_cannot_be_changed_through_cycles():
    sigma = Permutation([2, 3, 1, 5, 4])
    roots = list(enumerate_roots(sigma, 5))
    listed = sigma.cycles()
    listed.append((9,))
    listed[0] = (1,)
    assert sigma.cycles() == [(1, 2, 3), (4, 5)]
    assert sigma.cycles() is not sigma.cycles()
    assert cycle_type(sigma).a == (0, 1, 1, 0, 0)
    assert list(enumerate_roots(sigma, 5)) == roots == [Permutation([3, 1, 2, 5, 4])]


def test_a_permutation_cannot_be_rebound_under_its_kept_split():
    sigma = Permutation((2, 1, 3))
    kept = cycle_type(sigma)
    key = hash(sigma)
    table = {sigma: "kept"}
    with pytest.raises(AttributeError, match="is immutable"):
        sigma.image = (1, 2, 3)
    with pytest.raises(AttributeError, match="is immutable"):
        sigma._cycles = ((1,), (2,), (3,))
    with pytest.raises(AttributeError, match="is immutable"):
        del sigma.image
    assert sigma.image == (2, 1, 3) and sigma.cycles() == [(1, 2), (3,)]
    assert cycle_type(sigma) == kept == CycleType((1, 1, 0))
    assert hash(sigma) == key and table[Permutation((2, 1, 3))] == "kept"
    assert root_count(cycle_type(sigma), 2) == 0 and not list(enumerate_roots(sigma, 2))
    assert len(list(enumerate_roots(Permutation((1, 2, 3)), 2))) == 4


@pytest.mark.parametrize("point", [0, -1, 4, True, 1.0, "1", None])
def test_a_permutation_refuses_a_point_outside_1_to_n(point):
    sigma = Permutation((2, 3, 1))
    assert [sigma(i) for i in (1, 2, 3)] == [2, 3, 1]
    with pytest.raises(ValueError, match="point"):
        sigma(point)


def test_permutations_are_ordered_among_themselves_only():
    a, b = Permutation([1, 2]), Permutation([2, 1])
    assert a < b and b > a and not b < a and sorted([b, a]) == [a, b]
    for other in (5, (1, 2), None):
        with pytest.raises(TypeError):
            a < other
        with pytest.raises(TypeError):
            other > a


@pytest.mark.parametrize("point", [1.0, True, Fraction(1)], ids=["float", "bool", "Fraction"])
def test_a_permutation_is_built_from_int_points_only(point):
    # each point equals 1, so sorting the image alone would admit it
    for image in ([2, point], [point + 1, point]):
        with pytest.raises(ValueError, match="not a permutation of 1..2"):
            Permutation(image)
    with pytest.raises(ValueError, match="is not an int in 1..2"):
        Permutation.from_cycles(2, [(point, 2)])
    assert Permutation([2, 1]) == Permutation.from_cycles(2, [(1, 2)])


def test_power_and_from_cycles_do_not_validate_their_result_again(monkeypatch):
    sigma = Permutation((2, 3, 1, 5, 4))
    validated = []
    real = Permutation.__init__
    monkeypatch.setattr(
        Permutation, "__init__", lambda self, image: validated.append(image) or real(self, image)
    )
    assert power(sigma, 2) == Permutation._proved((3, 1, 2, 4, 5))
    assert Permutation.from_cycles(5, [(1, 2, 3), (4, 5)]) == sigma
    assert parse_cycle_type("1^2 3").canonical_permutation().image == (1, 2, 4, 5, 3)
    assert validated == []


def _assert_validated(sigma):
    assert type(sigma.image) is tuple
    assert sigma == Permutation(sigma.image) and hash(sigma) == hash(Permutation(sigma.image))


def test_powers_and_cycle_builds_equal_validated_ones_on_s_0_to_s_6():
    for n in range(7):
        for image in itertools.permutations(range(1, n + 1)):
            sigma = Permutation(image)
            for m in (1, 2, 3, 4, 6, 60):
                _assert_validated(power(sigma, m))
            built = Permutation.from_cycles(n, sigma.cycles())
            _assert_validated(built)
            assert built == sigma
        for t in cycle_types(n):
            _assert_validated(t.canonical_permutation())


@given(_permutations(max_n=40), st.integers(min_value=1, max_value=10**30))
def test_powers_and_cycle_builds_equal_validated_ones_on_sampled_permutations(sigma, m):
    powered = power(sigma, m)
    _assert_validated(powered)
    assert powered.image == _image_power_by_rotation(sigma.image, m)
    built = Permutation.from_cycles(sigma.degree, sigma.cycles())
    _assert_validated(built)
    assert built == sigma


def test_counted_cycle_types_equal_validated_ones_on_s_0_to_s_6():
    for n in range(7):
        for image in itertools.permutations(range(1, n + 1)):
            counted = cycle_type(Permutation(image))
            validated = CycleType(counted.a)
            assert type(counted) is CycleType
            assert counted == validated and hash(counted) == hash(validated)
            assert counted.n == n


def test_group_operations():
    a = Permutation([2, 3, 1])
    assert compose(a, inverse(a)) == identity(3)
    assert compose(a, a).image == power(a, 2).image
    assert a**3 == identity(3)


def test_cycle_type_frozen_values():
    assert cycle_type(Permutation([2, 1, 4, 3, 5])).a == (1, 2, 0, 0, 0)
    assert cycle_type(Permutation([])).a == ()
    assert cycle_type(identity(3)).a == (3, 0, 0)


def test_cycle_type_weight_and_class_size():
    t = CycleType((1, 2, 0, 0, 0))
    assert t.n == 5
    assert t.nonzero() == [(1, 1), (2, 2)]
    assert t.class_size() == factorial(5) // (2**2 * 2)
    assert CycleType(()).class_size() == 1
    with pytest.raises(ValueError):
        CycleType((1, -1))


def test_cycle_type_text_round_trip():
    t = parse_cycle_type("1^2 3")
    assert t.a == (2, 0, 1, 0, 0)  # length n = 5, trailing zeros kept
    assert format_cycle_type(t) == "1^2 3^1"
    assert parse_cycle_type("") == CycleType(())
    assert parse_cycle_type(format_cycle_type(t)) == t
    with pytest.raises(ValueError):
        parse_cycle_type("1^2 1")  # repeated length
    with pytest.raises(ValueError):
        parse_cycle_type("0^2")
    with pytest.raises(ValueError):
        parse_cycle_type("2^")


@st.composite
def _cycle_types(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    return draw(st.sampled_from(list(cycle_types(n))))


@given(_cycle_types())
def test_cycle_type_text_round_trip_on_generated_types(t):
    assert parse_cycle_type(format_cycle_type(t)) == t


@given(_permutations(max_n=12))
def test_one_line_text_round_trip_on_generated_permutations(sigma):
    assert parse_permutation(format_permutation(sigma)) == sigma


def test_canonical_permutation_has_the_type():
    for n in range(7):
        for t in cycle_types(n):
            sigma = t.canonical_permutation()
            assert cycle_type(sigma).a == tuple(t.a) + (0,) * (n - len(t.a))


def test_cycle_types_enumerates_partitions():
    partition_counts = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, expected in enumerate(partition_counts):
        types = list(cycle_types(n))
        assert len(types) == expected
        assert len(set(types)) == expected
        assert all(t.n == n for t in types)
        assert sum(t.class_size() for t in types) == factorial(n)


# p(n), the number of partitions of n, for n = 0..20
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231, 297, 385, 490, 627]


def test_enumerated_types_equal_validated_ones():
    for n, expected in enumerate(PARTITION_COUNTS):
        types = list(cycle_types(n))
        assert len(types) == len(set(types)) == expected
        if n <= 12:
            for t in types:
                validated = CycleType(t.a)
                assert type(t) is CycleType
                assert t == validated and hash(t) == hash(validated)


@given(st.dictionaries(st.integers(1, 30), st.integers(1, 5), max_size=6))
def test_parsed_types_equal_validated_ones(counts):
    # lengths in the dictionary's drawn order, a count of 1 written bare
    text = " ".join(f"{ell}^{count}" if count > 1 else str(ell) for ell, count in counts.items())
    a = [0] * sum(ell * count for ell, count in counts.items())
    for ell, count in counts.items():
        a[ell - 1] = count
    parsed = parse_cycle_type(text)
    assert type(parsed) is CycleType
    assert parsed == CycleType(a) and hash(parsed) == hash(CycleType(a))


def test_enumerated_and_parsed_types_are_built_without_the_validating_constructor(monkeypatch):
    built = []
    real = CycleType.__init__
    monkeypatch.setattr(CycleType, "__init__", lambda self, a: built.append(a) or real(self, a))
    assert len(list(cycle_types(8))) == 22
    assert parse_cycle_type("1^3 2^2 5 7^4").a == (3, 2, 0, 0, 1, 0, 4) + (0,) * 33
    assert built == []


def test_power_splits_an_eight_cycle():
    sigma = Permutation([2, 3, 4, 5, 6, 7, 8, 1])
    squared = power(sigma, 2)
    assert sorted(len(c) for c in squared.cycles()) == [4, 4]
    assert squared.cycles() == [(1, 3, 5, 7), (2, 4, 6, 8)]


def test_power_rejects_nonpositive_exponent():
    with pytest.raises(ValueError):
        power(identity(2), 0)


@settings(max_examples=150)
@given(_permutations(max_n=10), st.integers(min_value=1, max_value=12))
def test_power_splitting_law(sigma, m):
    # each L-cycle of sigma contributes gcd(L, m) cycles of length L/gcd(L, m)
    expected = sorted(
        length // gcd(length, m)
        for cyc in sigma.cycles()
        for length in [len(cyc)]
        for _ in range(gcd(length, m))
    )
    assert sorted(len(c) for c in power(sigma, m).cycles()) == expected


def _image_power_by_rotation(image, m):
    """m-th power of a one-line image, one rotation per cycle: the reference
    for the repeated squaring in the package."""
    n = len(image)
    out = [0] * n
    seen = [False] * n
    for start in range(1, n + 1):
        if seen[start - 1]:
            continue
        cyc = [start]
        seen[start - 1] = True
        x = image[start - 1]
        while x != start:
            seen[x - 1] = True
            cyc.append(x)
            x = image[x - 1]
        length = len(cyc)
        shift = m % length
        for i in range(length):
            out[cyc[i] - 1] = cyc[(i + shift) % length]
    return tuple(out)


# 420 * 2**40 is a multiple of lcm(1..7) = 420 long enough to be reduced on S_1..S_7
SQUARING_MS = (*range(1, 14), 60, 720, 2**61 - 1, 10**20 - 1, 420 * 2**40, 420 * 2**40 + 1)


def test_squaring_equals_rotation_on_all_of_s_0_to_s_7():
    for n in range(8):
        images = list(itertools.permutations(range(1, n + 1)))
        for m in SQUARING_MS:
            expected = [_image_power_by_rotation(image, m) for image in images]
            assert [_image_power(image, m) for image in images] == expected, (n, m)


def test_squaring_equals_rotation_at_degree_3000():
    image = list(range(1, 3001))
    random.Random(3000).shuffle(image)
    image = tuple(image)
    for m in (2, 720, 10**20 - 1):
        assert _image_power(image, m) == _image_power_by_rotation(image, m), m


def test_the_order_multiple_is_below_4_to_the_n():
    # so reducing an m of more than 2n bits modulo lcm(1..n) always shrinks it
    bound = 1
    for n in range(1, 3001):
        bound = lcm(bound, n)
        assert bound.bit_length() <= 2 * n, n
    assert _order_multiple(3000) == bound


_HUGE_POWER = """\
import json, random, time
from permroots import Permutation, power
image = list(range(1, 3001))
random.Random(3000).shuffle(image)
sigma = Permutation(image)
start = time.perf_counter()
tau = power(sigma, 10**20000 + 1)
print(json.dumps([time.perf_counter() - start, image, list(tau.image)]))
"""


def test_a_huge_exponent_at_degree_3000_is_powered_within_two_seconds():
    # m has 66,439 bits; reduced modulo lcm(1..3000) it needs at most 6,000 squarings
    result = subprocess.run(
        [sys.executable, "-c", _HUGE_POWER],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        timeout=60,
    )
    assert (result.returncode, result.stderr) == (0, "")
    elapsed, image, powered = json.loads(result.stdout)
    assert tuple(powered) == _image_power_by_rotation(tuple(image), 10**20000 + 1)
    assert elapsed < 2


_FIRST_ROOT = """\
import json, time
from permroots import enumerate_roots, parse_cycle_type
sigma = parse_cycle_type("1^2 2^6000").canonical_permutation()
start = time.perf_counter()
tau = next(enumerate_roots(sigma, 720))
print(json.dumps([time.perf_counter() - start, list(sigma.image), list(tau.image)]))
"""


def test_a_length_past_the_replay_cap_yields_a_first_root_without_its_count():
    """The 6,000 2-cycles under m = 720 have more solution vectors than the
    replay cap has room for at 12,000 points each, so their maps are not
    counted and are rebuilt for each map of the two fixed points.  The first
    root still comes quickly."""
    result = subprocess.run(
        [sys.executable, "-c", _FIRST_ROOT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        timeout=60,
    )
    assert (result.returncode, result.stderr) == (0, "")
    elapsed, image, root = json.loads(result.stdout)
    assert power(Permutation(root), 720) == Permutation(image)
    assert elapsed < 10


def test_has_mth_root_frozen_values():
    assert has_mth_root(cycle_type(Permutation([2, 3, 4, 1])), 2) is False
    assert has_mth_root(CycleType((0, 2)), 2) is True
    assert has_mth_root(cycle_type(Permutation([2, 3, 4, 1])), 3) is True
    assert has_mth_root(CycleType(()), 9) is True


def test_enumerate_roots_frozen_values():
    assert sorted(enumerate_roots(identity(2), 2)) == [
        Permutation([1, 2]),
        Permutation([2, 1]),
    ]
    roots_of_id4 = sorted(enumerate_roots(identity(4), 2))
    assert len(roots_of_id4) == 10
    assert sorted(enumerate_roots(Permutation([2, 3, 1]), 2)) == [Permutation([3, 1, 2])]
    assert list(enumerate_roots(Permutation([2, 3, 4, 1]), 2)) == []


def test_empty_permutation_is_its_own_root():
    for m in (1, 2, 7):
        assert list(enumerate_roots(Permutation([]), m)) == [Permutation([])]


def test_enumeration_is_deterministic_and_lazy():
    sigma = identity(6)
    first = list(enumerate_roots(sigma, 2))
    second = list(enumerate_roots(sigma, 2))
    assert first == second
    assert len(set(first)) == len(first)
    head = list(itertools.islice(enumerate_roots(sigma, 2), 3))
    assert head == first[:3]


def test_every_emitted_root_powers_back():
    for image in itertools.permutations(range(1, 6)):
        sigma = Permutation(image)
        for m in (2, 3, 6):
            for tau in enumerate_roots(sigma, m):
                assert power(tau, m) == sigma


def test_brute_force_frozen_values():
    assert brute_force_roots(Permutation([2, 1]), 2) == []
    assert brute_force_roots(identity(2), 2) == [
        Permutation([1, 2]),
        Permutation([2, 1]),
    ]
    assert brute_force_roots(Permutation([]), 5) == [Permutation([])]


def test_brute_force_respects_its_bound():
    with pytest.raises(SizeCapError):
        brute_force_roots(identity(9), 2)
    # the bound is an argument, not ambient state
    assert len(brute_force_roots(identity(3), 2, max_n=3)) == 4
    with pytest.raises(SizeCapError):
        brute_force_roots(identity(4), 2, max_n=3)
    message = r"^exhaustive scan over S_9 refused \(bound max_n=8\); pass a larger max_n$"
    with pytest.raises(SizeCapError, match=message):
        brute_force_root_table(9, 2)
    assert len(brute_force_root_table(3, 2, max_n=3)) == 3  # the identity and two 3-cycles
    with pytest.raises(SizeCapError, match=r"S_4 refused \(bound max_n=3\)"):
        brute_force_root_table(4, 2, max_n=3)


def test_oracle_equivalence_small_degrees():
    for m in (1, 2, 3, 4, 6):
        for n in range(5):
            table = brute_force_root_table(n, m)
            for image in itertools.permutations(range(1, n + 1)):
                sigma = Permutation(image)
                expected = table.get(image, [])
                constructed = sorted(tau.image for tau in enumerate_roots(sigma, m))
                assert constructed == expected, (sigma, m)
                assert root_count(cycle_type(sigma), m) == len(expected)


TABLE_MS = (1, 2, 3, 4, 6, 12)


def _power_by_composition(image, m):
    """image**m by m compositions, sharing no code with the package."""
    out = tuple(range(1, len(image) + 1))
    for _ in range(m):
        out = tuple(image[x - 1] for x in out)
    return out


def test_root_table_buckets_all_of_s_n_by_mth_power():
    for n in range(6):
        for m in TABLE_MS:
            table = brute_force_root_table(n, m)
            assert sum(len(bucket) for bucket in table.values()) == factorial(n), (n, m)
            for key, bucket in table.items():
                assert bucket == sorted(bucket), (n, m, key)
                for tau in bucket:
                    assert _power_by_composition(tau, m) == key, (n, m, tau)


def test_brute_force_roots_equals_a_filtered_scan_of_s_n():
    for n in range(6):
        for m in TABLE_MS:
            for image in itertools.permutations(range(1, n + 1)):
                sigma = Permutation(image)
                scanned = [
                    Permutation(cand)
                    for cand in itertools.permutations(range(1, n + 1))
                    if power(Permutation(cand), m) == sigma
                ]
                assert brute_force_roots(sigma, m) == scanned, (sigma, m)


def test_oracle_equivalence_sampled_larger_degrees():
    samples = [
        (Permutation([2, 3, 4, 5, 6, 7, 1]), 7),        # 7-cycle
        (Permutation([2, 1, 4, 3, 6, 5, 7]), 2),        # 2^3 1
        (Permutation([2, 3, 1, 5, 6, 4, 8, 7]), 3),     # 3^2 2
        (Permutation([2, 3, 4, 1, 6, 5, 8, 7]), 2),     # 4 2^2
        (identity(7), 2),
    ]
    for sigma, m in samples:
        expected = brute_force_roots(sigma, m)
        assert sorted(enumerate_roots(sigma, m)) == expected
        assert root_count(cycle_type(sigma), m) == len(expected)


@st.composite
def _permutation_pairs(draw, max_n=5):
    n = draw(st.integers(min_value=0, max_value=max_n))
    values = list(range(1, n + 1))
    return (
        Permutation(draw(st.permutations(values))),
        Permutation(draw(st.permutations(values))),
    )


@settings(max_examples=60, deadline=None)
@given(_permutation_pairs(), st.sampled_from([2, 3, 4]))
def test_roots_transform_under_conjugation(pair, m):
    sigma, rho = pair
    conjugate = compose(rho, compose(sigma, inverse(rho)))
    roots = set(enumerate_roots(sigma, m))
    conjugated_roots = {compose(rho, compose(tau, inverse(rho))) for tau in roots}
    assert set(enumerate_roots(conjugate, m)) == conjugated_roots
    assert root_count(cycle_type(conjugate), m) == len(roots)


def test_construction_depth_is_not_bounded_by_the_recursion_limit():
    # 2,400 fixed points under m = 2: the first solution vector pairs them
    # all, 1,200 bundles deep
    sigma = identity(2400)
    first = next(enumerate_roots(sigma, 2))
    assert power(first, 2) == sigma
    assert first.image[:4] == (2, 1, 4, 3)
    # 1,100 distinct cycle lengths, one level each
    sigma = CycleType((1,) * 1100).canonical_permutation()
    assert list(enumerate_roots(sigma, 1)) == [sigma]
    # 2,400 fixed points under m = 6: the first solution vector fuses them
    # all into 6-cycles, 400 bundle choices above 400 fusions
    sigma = identity(2400)
    first = next(enumerate_roots(sigma, 6))
    assert power(first, 6) == sigma
    assert cycle_type(first) == CycleType((0,) * 5 + (400,) + (0,) * 2394)


FUSION_PREFIX = 512  # every fusion of a bundle of g <= 3 cycles; a prefix of larger ones


def test_fusion_writes_match_the_interleaving_reference():
    """The closing-table writes of _fusions, and the direct write of a
    one-fusion bundle, give the images the interleaving gives, in its order,
    for every admissible (g, ell, m) with g*ell <= 48 and m <= 60."""
    cases = 0
    for m in range(1, 61):
        for g in (g for g in range(1, 49) if m % g == 0):
            for ell in (ell for ell in range(1, 48 // g + 1) if gcd(m // g, ell) == 1):
                labels = list(range(1, g * ell + 1))
                random.Random(f"{g} {ell} {m}").shuffle(labels)
                bundle = tuple(tuple(labels[i * ell : (i + 1) * ell]) for i in range(g))
                padded, plain = [0] * (g * ell + 1), [0] * (g * ell)
                written = [
                    tuple(padded[1:])
                    for _ in itertools.islice(_fusions(bundle, ell, m, padded), FUSION_PREFIX)
                ]
                expected = [
                    tuple(plain)
                    for _ in itertools.islice(
                        interleaved_fusions(bundle, ell, m, plain), FUSION_PREFIX
                    )
                ]
                assert written == expected, (g, ell, m)
                assert len(written) == min(factorial(g - 1) * ell ** (g - 1), FUSION_PREFIX)
                if len(expected) == 1:  # a one-fusion bundle: its choose step writes it
                    padded = [0] * (g * ell + 1)
                    _write_fusion(padded, bundle[0], bundle[1:], _closing(bundle[0], g, ell, m))
                    assert [tuple(padded[1:])] == expected, (g, ell, m)
                cases += 1
    assert cases == 2880


def _linked(nxt, prv, head):
    """The entries of the doubly linked list at head, read forwards, after
    checking that reading backwards gives them reversed."""
    forwards, x = [], nxt[head]
    while x != head:
        forwards.append(x)
        x = nxt[x]
    backwards, x = [], prv[head]
    while x != head:
        backwards.append(x)
        x = prv[x]
    assert backwards == forwards[::-1]
    return forwards


def test_the_linked_subset_walk_gives_the_combinations_order():
    """For every pool of up to 8 entries of a list of 8 (the others unlinked
    first) and every k, _unlinked_subsets yields the k-subsets in
    itertools.combinations order, each with only the rest of the pool
    linked.  Between its steps a nested walk unlinks and relinks up to two
    more entries per step, as the next choose level does, and each walk
    leaves the list as it found it."""
    head = 8
    cases = 0
    for members in itertools.product((False, True), repeat=head):
        nxt, prv = [*range(1, head + 1), 0], [head, *range(head)]
        for x in (x for x in range(head) if not members[x]):
            nxt[prv[x]], prv[nxt[x]] = nxt[x], prv[x]
        pool = [x for x in range(head) if members[x]]
        assert _linked(nxt, prv, head) == pool
        for k in range(len(pool) + 1):
            walked = []
            for picked in _unlinked_subsets(nxt, prv, head, len(pool), k):
                walked.append(tuple(picked))
                rest = [x for x in pool if x not in picked]
                assert _linked(nxt, prv, head) == rest
                j = min(2, len(rest))
                nested = [tuple(p) for p in _unlinked_subsets(nxt, prv, head, len(rest), j)]
                assert nested == list(itertools.combinations(rest, j))
                assert _linked(nxt, prv, head) == rest
                cases += 1
            assert walked == list(itertools.combinations(pool, k))
            assert _linked(nxt, prv, head) == pool
    assert cases == 3**head


def test_construction_matches_the_count_beyond_the_oracle_range():
    cases = 0
    for n in range(8, 13):
        for t in cycle_types(n):
            for m in (2, 3, 4, 6, 12):
                expected = root_count(t, m)
                if 0 < expected <= 3000:
                    roots = list(enumerate_roots(t.canonical_permutation(), m))
                    assert len(roots) == len(set(roots)) == expected, (t, m)
                    cases += 1
    assert cases == 314


@st.composite
def _multi_length_powers(draw, max_n=12):
    """(tau**m, m) for tau of degree <= max_n and m in {2, 3, 4, 6, 12}: a
    sigma that has an m-th root, kept when it has two cycle lengths or more
    and at most 600 roots."""
    m = draw(st.sampled_from([2, 3, 4, 6, 12]))
    n = draw(st.integers(min_value=3, max_value=max_n))
    sigma = power(Permutation(draw(st.permutations(list(range(1, n + 1))))), m)
    t = cycle_type(sigma)
    assume(len(t.nonzero()) > 1 and root_count(t, m) <= 600)
    return sigma, m


@settings(max_examples=80, deadline=None)
@given(_multi_length_powers())
def test_replayed_roots_equal_regenerated_roots_on_sampled_permutations(case):
    sigma, m = case
    runs = roots_under_replay_caps(sigma, m)
    regenerated = runs.pop(0)
    assert len(regenerated) == root_count(cycle_type(sigma), m)
    for cap, roots in runs.items():
        assert roots == regenerated, cap


def _builds_and_replays(monkeypatch, text, m, caps):
    """For each cap, the roots of the canonical permutation of cycle type
    text under m, with how often each cycle length's maps were built (a walk
    over its partitions, whether its maps are written into the image or,
    for a streamed innermost length, gathered into roots) and how often a
    recording on each number of points was read under an outer map,
    written back or, for the innermost length, gathered.  A recording is
    read under every outer map, the first included, which builds it."""
    sigma = parse_cycle_type(text).canonical_permutation()
    built, replayed = Counter(), Counter()  # by cycle length; by points written
    real_walk, real_replay, real_gather = perm._partitions, perm._replay, perm._gather

    def counted_walk(cycles, ell, *rest):
        built[ell] += 1
        return real_walk(cycles, ell, *rest)

    def counted_replay(image, support, recording):
        replayed[len(support)] += 1
        return real_replay(image, support, recording)

    def counted_gather(gather, image, recording):
        yield from real_gather(gather, image, recording)
        replayed[len(recording.built[0])] += 1  # each of its items holds the values of every point

    monkeypatch.setattr(perm, "_partitions", counted_walk)
    monkeypatch.setattr(perm, "_replay", counted_replay)
    monkeypatch.setattr(perm, "_gather", counted_gather)
    runs = []
    for cap in caps:
        built.clear()
        replayed.clear()
        monkeypatch.setattr(perm, "_REPLAY_CAP", cap)
        runs.append((list(enumerate_roots(sigma, m)), dict(built), dict(replayed)))
    return runs


def test_an_inner_length_past_the_cap_is_regenerated(monkeypatch):
    """1^4 2^2 3^2 under m = 2: the fixed points have 10 maps, the 2-cycles 2
    maps on 4 points (8 slots) and the 3-cycles 4 maps on 6 points (24
    slots).  Both are recorded under the default cap, and read under each of
    their 10 and 20 outer maps.  Under a cap of 28 or 16 the 2-cycles' 8
    slots fit, and the 3-cycles' 24 do not fit the 20 or 8 left, so the
    3-cycles are built again for each of the 20 outer maps.  Under a cap of
    0 nothing is recorded."""
    expected = [
        ({1: 1, 2: 1, 3: 1}, {4: 10, 6: 20}),
        ({1: 1, 2: 1, 3: 20}, {4: 10}),
        ({1: 1, 2: 1, 3: 20}, {4: 10}),
        ({1: 1, 2: 10, 3: 20}, {}),
    ]
    runs = _builds_and_replays(monkeypatch, "1^4 2^2 3^2", 2, [perm._REPLAY_CAP, 28, 16, 0])
    assert [(built, replayed) for _, built, replayed in runs] == expected
    assert len(runs[0][0]) == 80
    assert all(roots == runs[0][0] for roots, _, _ in runs)


def test_a_later_smaller_length_is_recorded_after_a_skipped_one(monkeypatch):
    """1^2 2^4 3^2 under m = 2: the fixed points have 2 maps, the 2-cycles
    12 maps on 8 points (96 slots) and the 3-cycles 4 maps on 6 points (24
    slots).  Under a cap of 50 the 2-cycles do not fit and are built again
    for each fixed-point map, while the 3-cycles, later but smaller, still
    fit and are read under all 24 outer maps."""
    expected = [
        ({1: 1, 2: 1, 3: 1}, {8: 2, 6: 24}),
        ({1: 1, 2: 2, 3: 1}, {6: 24}),
        ({1: 1, 2: 2, 3: 24}, {}),
    ]
    runs = _builds_and_replays(monkeypatch, "1^2 2^4 3^2", 2, [perm._REPLAY_CAP, 50, 23])
    assert [(built, replayed) for _, built, replayed in runs] == expected
    assert len(runs[0][0]) == 96
    assert all(roots == runs[0][0] for roots, _, _ in runs)


def test_only_a_length_after_several_outer_maps_is_recorded(monkeypatch):
    """1^1 2^2 3^2 under m = 2: the fixed point has one map, so the
    2-cycles' level runs once and is streamed, not recorded.  The 2-cycles
    have two maps, so the 3-cycles' level runs twice and is recorded."""
    recorded = []
    real = perm._recorded

    def counted(maps, support, image, count):
        recorded.append(len(support))
        return real(maps, support, image, count)

    monkeypatch.setattr(perm, "_recorded", counted)
    sigma = parse_cycle_type("1^1 2^2 3^2").canonical_permutation()
    assert len(list(enumerate_roots(sigma, 2))) == root_count(cycle_type(sigma), 2) == 8
    assert recorded == [6]


@pytest.mark.parametrize(
    "text,count",
    [("1^1 2^40", 200_000), ("1^2 2^40", 20_000)],
    ids=["one-outer-map", "two-outer-maps"],
)
def test_streaming_memory_is_bounded_by_the_replay_cap(text, count):
    """Stream roots of 2-cycles under m = 2 after one or two fixed points.
    One fixed point has one map, so the 2-cycles' level runs once and is not
    recorded: the stream stays under 1 MB.  Two fixed points have two maps,
    so the 2-cycles' level runs twice, but their 39!! * 2**20 maps of 80
    points are far past the cap, so they are built again per outer map and
    nothing is recorded: the stream stays under 1 MB too."""
    sigma = parse_cycle_type(text).canonical_permutation()
    roots = enumerate_roots(sigma, 2)
    tracemalloc.start()
    try:
        for _ in itertools.islice(roots, count):
            pass
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # no recording was ever taken
    assert current < 2**20  # the stream is still open, and holds no recording


def test_a_memo_steps_its_source_once_for_overlapping_iterations():
    """Two interleaved iterations over a partly built _Memo yield the same
    items, each built by one step of the source whichever iteration reaches
    it first; complete flips only once an iteration finds the source
    exhausted, and later iterations read the kept items alone."""
    steps = []

    def source():
        for item in "abcd":
            steps.append(item)
            yield item

    memo = _Memo(source())
    first = iter(memo)
    assert [next(first), next(first)] == ["a", "b"]
    second = iter(memo)
    assert [next(second), next(second), next(second)] == ["a", "b", "c"]
    assert [next(first), next(first)] == ["c", "d"]
    assert not memo.complete  # every item is built, but the end is not yet seen
    assert list(second) == ["d"]
    assert memo.complete
    assert list(first) == []
    assert list(memo) == list(memo) == list("abcd")
    assert steps == list("abcd")


def test_a_memo_passes_on_the_check_its_source_raises_at_exhaustion():
    """_recorded counts its maps when they are exhausted: the memo over it
    lets that InternalCheckError through to the iteration that reached the
    end, and is not complete."""

    def source():
        yield "a"
        raise InternalCheckError("1 inner maps built where 2 were due")

    memo = _Memo(source())
    items = iter(memo)
    assert next(items) == "a"
    with pytest.raises(InternalCheckError, match="^1 inner maps built where 2 were due$"):
        next(items)
    assert not memo.complete


@pytest.mark.parametrize(
    "text,m,first_type",
    [("1^9", 2520, "9^1"), ("1^2 3^6", 2, "2^1 6^3")],
    ids=["streamed-patterns", "recorded-innermost"],
)
def test_the_first_gathered_root_waits_for_one_fusion_not_all(monkeypatch, text, m, first_type):
    """The first partition of 1^9 under m = 2520 is one bundle of all 9
    fixed points, whose 8! = 40,320 fusions fit the replay cap as patterns.
    The 3-cycles of 1^2 3^6 under m = 2 have 856 maps, recorded beneath the
    fixed points' 2, and the innermost length's roots are gathered from that
    recording.  Patterns and recordings alike are built as the stream
    reaches them, so the first root waits for a handful of fusions, not for
    all of them."""
    built = []
    real = perm._fusions

    def counted(bundle, ell, m, image):
        for _ in real(bundle, ell, m, image):
            built.append(len(bundle))
            yield

    monkeypatch.setattr(perm, "_fusions", counted)
    sigma = parse_cycle_type(text).canonical_permutation()
    first = next(enumerate_roots(sigma, m))
    assert power(first, m) == sigma
    assert cycle_type(first) == parse_cycle_type(first_type)
    assert 0 < len(built) < 100


@pytest.mark.parametrize(
    "text,m,caps",
    [
        ("1^8", 3, [0]),
        ("1^7", 4, [0]),
        ("1^7", 6, [0, 6]),  # no size, or the 3-bundles' 6 slots alone
        ("1^9", 6, [0, 6]),  # a partition may hold a 3-bundle and a 6-bundle
        ("2^6", 2, [0]),
        ("2^4", 4, [0]),
        ("3^3", 3, [0]),
        ("1^8", 8, [0, 24]),  # no size, or the 4-bundles' 24 slots alone
    ],
)
def test_gathered_fusions_equal_streamed_fusions(monkeypatch, text, m, caps):
    """A streamed innermost length gathers the fusions of each size whose
    patterns fit the cap, and a partition with a bundle of any other size
    runs its fusions through the image.  Both give the same roots in the
    same order, whichever sizes fit (the default cap fits them all here)."""
    sigma = parse_cycle_type(text).canonical_permutation()
    gathered = list(enumerate_roots(sigma, m))
    assert len(gathered) == len(set(gathered)) == root_count(cycle_type(sigma), m)
    for cap in caps:
        monkeypatch.setattr(perm, "_REPLAY_CAP", cap)
        assert list(enumerate_roots(sigma, m)) == gathered, cap
