"""The names the package exports, pinned."""

import ast
import importlib
from pathlib import Path

import pytest

import permroots
from permroots import (
    CycleType,
    EqualityReport,
    MultiSeries,
    Permutation,
    ProbabilityBlock,
    SizeCapError,
    brute_force_root_table,
    check_prime_power_equalities,
    has_mth_root,
    parse_cycle_type,
)
from permroots.series import UniSeries

PACKAGE = Path(permroots.__file__).resolve().parent

ANSWERS = [
    "CycleType",
    "EqualityReport",
    "Permutation",
    "ProbabilityBlock",
    "SizeCapError",
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
# Each runs in some command; a route that only the tests call lives in
# tests/references.py instead.
CHECK_ROUTES = [
    "MultiSeries",
    "brute_force_root_table",
    "r_total_from_types",
    "r_total_series",
    "root_count_egf",
]
# No longer exported: each moved into the tests as a reference, became
# private, stays only in its module (UniSeries, which the references build
# on), or is spelled with another public name.
REMOVED = [
    "GSet",
    "OracleSizeError",
    "UniSeries",
    "brute_force_roots",
    "divisors",
    "epsilon_set",
    "exp_q",
    "g_set",
    "generalized_binomial",
    "homogeneous_count",
    "is_solvable",
    "multi_from_json",
    "multi_to_json",
    "nu_p",
    "one_minus_xp_root",
    "prime_power_block_series",
    "prime_root_count_egf",
    "root_count_from_egf",
    "uni_from_json",
    "uni_to_json",
]


def test_the_public_surface_is_pinned():
    assert sorted(permroots.__all__) == sorted(ANSWERS + CHECK_ROUTES)
    assert len(permroots.__all__) == len(set(permroots.__all__)) == 30
    for name in permroots.__all__:
        assert getattr(permroots, name) is not None, name
    for name in REMOVED:
        assert not hasattr(permroots, name), name
        with pytest.raises(ImportError):
            exec(f"from permroots import {name}", {})


def _uses(name: str, source: str) -> list[int]:
    """The lines where source reads name, by a bare name or an attribute,
    outside the function or class that defines it.  Imports, __all__
    strings and annotations do not count: none of them runs the route."""
    tree = ast.parse(source)
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            skipped.update(map(id, ast.walk(node)))
        for annotation in (getattr(node, "returns", None), getattr(node, "annotation", None)):
            if annotation is not None:
                skipped.update(map(id, ast.walk(annotation)))
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if id(node) not in skipped
        and (
            isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name
        )
    )


@pytest.mark.parametrize("name", CHECK_ROUTES)
def test_every_check_route_runs_in_the_package(name):
    uses = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in _uses(name, path.read_text(encoding="utf-8"))
    ]
    assert uses, f"no package code runs {name}: move it to tests/references.py"


def test_unexported_uniseries_runs_in_no_package_code():
    # The converse of the check above: a command that runs UniSeries again
    # makes it a check route, to be exported and listed in CHECK_ROUTES.
    uses = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in _uses("UniSeries", path.read_text(encoding="utf-8"))
    ]
    assert uses == []
    assert "UniSeries" not in permroots.__all__


USE_PROBE = """
from .egf import route
__all__ = ["route"]
def route(n: route) -> route:
    return route(n - 1) if n else 0
def caller(series: route) -> "route":
    return series
"""


def test_the_use_scan_counts_neither_definitions_nor_imports_nor_annotations():
    assert _uses("route", USE_PROBE) == []
    assert _uses("route", USE_PROBE + "value = route(3)\nother = egf.route\n") == [8, 9]


def test_the_unchecked_constructors_stay_private():
    for cls in (Permutation, CycleType, MultiSeries):
        assert "_proved" in vars(cls), cls
    assert not [name for name in permroots.__all__ if name.startswith("_")]


def test_permutation_leaves_its_group_operations_to_the_tests():
    for name in ("identity", "inverse", "__mul__", "cycle_string"):
        assert not hasattr(Permutation, name), name


# The methods each series class defines: the algebra the routes in egf, and
# the references the tests compare with, call.  UniSeries is no longer
# exported; the references build on it.  A new method is an explicit change
# to these sets.
SERIES_METHODS = {
    UniSeries: {
        "__init__",
        "coefficient",
        "__mul__",
        "__repr__",
    },
    MultiSeries: {
        "__init__",
        "_proved",
        "coefficient",
        "__mul__",
        "__repr__",
        "exp",
    },
}
REMOVED_SERIES_METHODS = {
    UniSeries: [
        "zero",
        "monomial",
        "one",
        "exp",
        "__add__",
        "__sub__",
        "__rmul__",
        "substitute_scaled_power",
        "partial_sums",
    ],
    MultiSeries: ["zero", "monomial", "__rmul__", "one", "__add__", "_check_bound"],
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
        2 * cls(3)


def test_uniseries_has_no_scalar_product():
    with pytest.raises(TypeError):
        UniSeries(3, [1]) * 2


def test_has_mth_root_takes_a_cycle_type_only():
    assert has_mth_root(CycleType((0, 1)), 3) is True
    with pytest.raises(AttributeError):
        has_mth_root(Permutation([2, 1]), 3)


def test_the_package_has_one_exception_class_per_exit_code():
    # exit 3 is a plain ValueError; 4 and 5 have a class each
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"permroots.{path.stem}".removesuffix(".__init__"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                cls = getattr(module, node.name)  # every class is defined at module level
                if issubclass(cls, BaseException):
                    found.append(node.name)
    assert sorted(found) == ["InternalCheckError", "SizeCapError"]
    assert issubclass(SizeCapError, ValueError)


def test_the_size_caps_raise_size_cap_error():
    with pytest.raises(SizeCapError, match="above MAX_DEGREE = 1000000"):
        parse_cycle_type("1^1000001")
    with pytest.raises(SizeCapError, match=r"S_9 refused \(bound max_n=8\)"):
        brute_force_root_table(9, 2)


# A value of each public class that is not an exception; the scan below
# fails on a class left out.
VALUES = {
    CycleType: lambda: CycleType((1, 1)),
    EqualityReport: lambda: check_prime_power_equalities(2, 1, 1),
    MultiSeries: lambda: MultiSeries(2, {(1,): 1}),
    Permutation: lambda: Permutation((2, 1, 3)),
    ProbabilityBlock: lambda: check_prime_power_equalities(2, 1, 1).blocks[0],
}
# Not exported, but the tests' references keep their series in it.
UNEXPORTED_VALUES = {UniSeries: lambda: UniSeries(2, [1])}


def test_the_rebinding_scan_covers_every_public_value_class():
    public = (getattr(permroots, name) for name in permroots.__all__)
    classes = {obj for obj in public if isinstance(obj, type) and not issubclass(obj, BaseException)}
    assert classes == set(VALUES)


@pytest.mark.parametrize("cls", [*VALUES, *UNEXPORTED_VALUES], ids=lambda cls: cls.__name__)
def test_every_public_value_refuses_rebinding_each_slot(cls):
    value = {**VALUES, **UNEXPORTED_VALUES}[cls]()
    assert not hasattr(value, "__dict__")
    before = {name: getattr(value, name, None) for name in cls.__slots__}
    for name in cls.__slots__:
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match="is immutable"):
            delattr(value, name)
    assert {name: getattr(value, name, None) for name in cls.__slots__} == before
