"""Exact arithmetic for m-th roots of permutations.

Decide whether a permutation has an m-th root, count the roots exactly
from the cycle type alone, construct all of them, and expand the
generating functions that organize those counts, including the constancy
of root probabilities on blocks of prime-power length.  Everything is
stdlib-only and exact (integers and Fractions end to end); a brute-force
scan of small symmetric groups is included as an independent oracle.

The public names are answers with their pieces and check routes (the same
quantities a second way).  Every check route runs in some command:
brute_force_root_table, root_count_egf and r_total_from_types in selftest,
r_total_series inside r_total_range.  Routes that only the tests need,
such as the block series behind the prime-power constancy, live in the
tests' references.  has_mth_root is the one solvability rule.
"""

# Answers and their pieces.
from .counting import root_count
from .egf import EqualityReport, ProbabilityBlock, check_prime_power_equalities
from .egf import r_total, r_total_range, root_probability
from .gsets import count_epsilons, g_set_bounded, iter_epsilons
from .numtheory import bracket, factorize, is_prime
from .perm import (
    CycleType,
    OracleSizeError,
    Permutation,
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

# Check routes: the oracle, the generating functions and the classification sum.
from .egf import r_total_from_types, r_total_series, root_count_egf
from .perm import brute_force_root_table
from .series import MultiSeries, UniSeries

__all__ = [
    # answers
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
    # check routes
    "MultiSeries",
    "UniSeries",
    "brute_force_root_table",
    "r_total_from_types",
    "r_total_series",
    "root_count_egf",
]
