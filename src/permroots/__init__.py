"""Exact arithmetic for m-th roots of permutations.

Decide whether a permutation has an m-th root, count the roots exactly
from the cycle type alone, construct all of them, and expand the
generating functions that organize those counts, including the constancy
of root probabilities on blocks of prime-power length.  Everything is
stdlib-only and exact (integers and Fractions end to end); a brute-force
scan of small symmetric groups is included as an independent oracle.
"""

from .counting import homogeneous_count, root_count
from .egf import (
    EqualityReport,
    ProbabilityBlock,
    check_prime_power_equalities,
    exp_q,
    prime_power_block_series,
    prime_root_count_egf,
    r_total,
    r_total_from_types,
    r_total_range,
    r_total_series,
    root_count_egf,
    root_count_from_egf,
    root_probability,
)
from .gsets import GSet, count_epsilons, epsilon_set, g_set, g_set_bounded, is_solvable, iter_epsilons
from .numtheory import bracket, divisors, factorize, is_prime, nu_p
from .perm import (
    CycleType,
    OracleSizeError,
    Permutation,
    brute_force_root_table,
    brute_force_roots,
    cycle_type,
    cycle_types,
    enumerate_roots,
    format_cycle_type,
    format_permutation,
    has_mth_root,
    parse_cycle_type,
    parse_permutation,
    power,
)
from .series import (
    MultiSeries,
    UniSeries,
    generalized_binomial,
    multi_from_json,
    multi_to_json,
    one_minus_xp_root,
    uni_from_json,
    uni_to_json,
)

__all__ = [
    "CycleType",
    "EqualityReport",
    "GSet",
    "MultiSeries",
    "OracleSizeError",
    "Permutation",
    "ProbabilityBlock",
    "UniSeries",
    "bracket",
    "brute_force_root_table",
    "brute_force_roots",
    "check_prime_power_equalities",
    "count_epsilons",
    "cycle_type",
    "cycle_types",
    "divisors",
    "enumerate_roots",
    "epsilon_set",
    "exp_q",
    "factorize",
    "format_cycle_type",
    "format_permutation",
    "g_set",
    "g_set_bounded",
    "generalized_binomial",
    "has_mth_root",
    "homogeneous_count",
    "is_prime",
    "is_solvable",
    "iter_epsilons",
    "multi_from_json",
    "multi_to_json",
    "nu_p",
    "one_minus_xp_root",
    "parse_cycle_type",
    "parse_permutation",
    "power",
    "prime_power_block_series",
    "prime_root_count_egf",
    "r_total",
    "r_total_from_types",
    "r_total_range",
    "r_total_series",
    "root_count",
    "root_count_egf",
    "root_count_from_egf",
    "root_probability",
    "uni_from_json",
    "uni_to_json",
]
