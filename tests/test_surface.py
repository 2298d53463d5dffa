"""The names the package exports, pinned."""

import pytest

import permroots

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
