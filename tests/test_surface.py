"""The names the package exports, pinned."""

import pytest

import permroots
from permroots import CycleType, MultiSeries, Permutation, UniSeries, has_mth_root

ANSWERS = [
    "CycleType",
    "EqualityReport",
    "OracleSizeError",
    "Permutation",
    "ProbabilityBlock",
    "bracket",
    "check_prime_power_equalities",
    "count_epsilons",
    "cycle_type",
    "cycle_types",
    "enumerate_roots",
    "factorize",
    "format_cycle_type",
    "format_permutation",
    "g_set_bounded",
    "has_mth_root",
    "is_prime",
    "iter_epsilons",
    "parse_cycle_type",
    "parse_permutation",
    "power",
    "r_total",
    "r_total_range",
    "root_count",
    "root_probability",
]
CHECK_ROUTES = [
    "MultiSeries",
    "UniSeries",
    "brute_force_root_table",
    "brute_force_roots",
    "exp_q",
    "one_minus_xp_root",
    "prime_power_block_series",
    "r_total_from_types",
    "r_total_series",
    "root_count_egf",
    "root_count_from_egf",
]
# No longer exported: each moved into the tests as a reference, became
# private, or is spelled with another public name.
REMOVED = [
    "GSet",
    "divisors",
    "epsilon_set",
    "g_set",
    "generalized_binomial",
    "homogeneous_count",
    "is_solvable",
    "multi_from_json",
    "multi_to_json",
    "nu_p",
    "prime_root_count_egf",
    "uni_from_json",
    "uni_to_json",
]


def test_the_public_surface_is_pinned():
    assert sorted(permroots.__all__) == sorted(ANSWERS + CHECK_ROUTES)
    assert len(permroots.__all__) == len(set(permroots.__all__)) == 36
    for name in permroots.__all__:
        assert getattr(permroots, name) is not None, name
    for name in REMOVED:
        assert not hasattr(permroots, name), name
        with pytest.raises(ImportError):
            exec(f"from permroots import {name}", {})


# The methods each check-route series class defines: the algebra the routes in
# egf, and the references the tests compare with, call.  A new method is an
# explicit change to these sets.
SERIES_METHODS = {
    UniSeries: {
        "__init__",
        "__setattr__",
        "__delattr__",
        "one",
        "coefficient",
        "__mul__",
        "__eq__",
        "__repr__",
        "substitute_scaled_power",
        "partial_sums",
    },
    MultiSeries: {
        "__init__",
        "__setattr__",
        "__delattr__",
        "one",
        "coefficient",
        "_check_bound",
        "__add__",
        "__mul__",
        "__eq__",
        "__repr__",
        "exp",
    },
}
REMOVED_SERIES_METHODS = {
    UniSeries: ["zero", "monomial", "exp", "__add__", "__sub__", "__rmul__"],
    MultiSeries: ["zero", "monomial", "__rmul__"],
}


@pytest.mark.parametrize("cls", [UniSeries, MultiSeries], ids=lambda cls: cls.__name__)
def test_the_series_methods_are_pinned(cls):
    defined = {
        name
        for name, value in vars(cls).items()
        if callable(value) or isinstance(value, classmethod)
    }
    assert defined == SERIES_METHODS[cls]
    for name in REMOVED_SERIES_METHODS[cls]:
        assert not hasattr(cls, name), name
    assert cls.__hash__ is None  # equal by value and immutable, but never a key
    with pytest.raises(TypeError):
        2 * cls.one(3)


def test_uniseries_has_no_scalar_product():
    with pytest.raises(TypeError):
        UniSeries.one(3) * 2


def test_has_mth_root_takes_a_cycle_type_only():
    assert has_mth_root(CycleType((0, 1)), 3) is True
    with pytest.raises(AttributeError):
        has_mth_root(Permutation([2, 1]), 3)
