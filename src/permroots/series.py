"""Exact truncated power series over Fraction, in one variable or many.

They serve only the checking routes in egf and keep only the algebra
those call.  UniSeries is dense in a single variable x up to a fixed
truncation order: the type r_total_series returns, with a series product
for the Fraction references in the tests.  MultiSeries is sparse in
countably many variables t_1, t_2, ... truncated by total weight
sum(ell * e_ell), the natural grading when t_ell marks cycles of length
ell, with a sum, a product and exp.  All coefficients are Fractions, so
every identity checked against these classes is exact, not
floating-point.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType

from ._checks import refuse_rebinding, require_int


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"coefficients must be Fraction or int, got {value!r}")


class UniSeries:
    """A polynomial truncation sum(coeffs[j] * x**j, j = 0..order).
    Immutable, so no caller can change a cached series."""

    __slots__ = ("order", "coeffs")
    __setattr__ = __delattr__ = refuse_rebinding

    def __init__(self, order: int, coeffs=()):
        require_int(order, "order", minimum=0)
        coeffs = [_as_fraction(c) for c in coeffs]
        if len(coeffs) > order + 1:
            raise ValueError(f"{len(coeffs)} coefficients exceed order {order}")
        coeffs.extend([Fraction(0)] * (order + 1 - len(coeffs)))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def coefficient(self, j: int) -> Fraction:
        if not 0 <= j <= self.order:
            raise ValueError(f"coefficient {j} outside truncation order {self.order}")
        return self.coeffs[j]

    def __mul__(self, other: "UniSeries") -> "UniSeries":
        if not isinstance(other, UniSeries):
            return NotImplemented
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")
        out = [Fraction(0)] * (self.order + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs[: self.order + 1 - i]):
                if b:
                    out[i + j] += a * b
        return UniSeries(self.order, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UniSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __repr__(self) -> str:
        return f"UniSeries(order={self.order}, coeffs={list(self.coeffs)})"


def _strip(key: tuple[int, ...]) -> tuple[int, ...]:
    end = len(key)
    while end and not key[end - 1]:
        end -= 1
    return tuple(key[:end])


def _weight(key: tuple[int, ...]) -> int:
    return sum(ell * e for ell, e in enumerate(key, start=1))


class MultiSeries:
    """Sparse exact series in t_1, t_2, ... truncated by total weight.

    Keys are exponent tuples with trailing zeros stripped; terms whose
    weight exceeds the bound are dropped by every operation.  terms is a
    read-only mapping and the attributes cannot be rebound, so no caller
    can change a cached series."""

    __slots__ = ("weight_bound", "terms")
    __setattr__ = __delattr__ = refuse_rebinding

    def __init__(self, weight_bound: int, terms=None):
        require_int(weight_bound, "weight_bound", minimum=0)
        clean: dict[tuple[int, ...], Fraction] = {}
        for key, coeff in (terms or {}).items():
            key = _strip(tuple(key))
            for e in key:
                if not isinstance(e, int) or isinstance(e, bool) or e < 0:
                    raise ValueError(f"exponents must be nonnegative ints, got {key!r}")
            coeff = _as_fraction(coeff)
            if coeff and _weight(key) <= weight_bound:
                clean[key] = clean.get(key, Fraction(0)) + coeff
                if not clean[key]:
                    del clean[key]
        object.__setattr__(self, "weight_bound", weight_bound)
        object.__setattr__(self, "terms", MappingProxyType(clean))

    @classmethod
    def one(cls, weight_bound: int) -> "MultiSeries":
        return cls(weight_bound, {(): Fraction(1)})

    def coefficient(self, exponents) -> Fraction:
        key = _strip(tuple(exponents))
        if _weight(key) > self.weight_bound:
            raise ValueError(f"weight of {key!r} exceeds truncation bound {self.weight_bound}")
        return self.terms.get(key, Fraction(0))

    def _check_bound(self, other: "MultiSeries") -> None:
        if self.weight_bound != other.weight_bound:
            raise ValueError(f"weight bound mismatch: {self.weight_bound} vs {other.weight_bound}")

    def __add__(self, other: "MultiSeries") -> "MultiSeries":
        self._check_bound(other)
        out = self.terms.copy()
        for key, coeff in other.terms.items():
            out[key] = out.get(key, Fraction(0)) + coeff
        return MultiSeries(self.weight_bound, out)

    def __mul__(self, other):
        """The truncated product with another MultiSeries, or every
        coefficient times a Fraction or int on the right."""
        if isinstance(other, MultiSeries):
            self._check_bound(other)
            out: dict[tuple[int, ...], Fraction] = {}
            for k1, c1 in self.terms.items():
                w1 = _weight(k1)
                for k2, c2 in other.terms.items():
                    if w1 + _weight(k2) > self.weight_bound:
                        continue
                    longer, shorter = (k1, k2) if len(k1) >= len(k2) else (k2, k1)
                    key = tuple(
                        a + (shorter[i] if i < len(shorter) else 0)
                        for i, a in enumerate(longer)
                    )
                    out[key] = out.get(key, Fraction(0)) + c1 * c2
            return MultiSeries(self.weight_bound, out)
        scalar = _as_fraction(other)
        return MultiSeries(
            self.weight_bound, {k: scalar * c for k, c in self.terms.items()}
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiSeries)
            and self.weight_bound == other.weight_bound
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        return f"MultiSeries(weight_bound={self.weight_bound}, {len(self.terms)} terms)"

    def exp(self) -> "MultiSeries":
        """exp(self) for zero constant term, as sum(self**k / k!); each
        power raises the minimum weight, so the loop exits early once
        self**k is empty under the bound."""
        if self.terms.get((), Fraction(0)):
            raise ValueError("exp needs a zero constant term")
        result = MultiSeries.one(self.weight_bound)
        term = MultiSeries.one(self.weight_bound)
        for k in range(1, self.weight_bound + 1):
            term = term * self * Fraction(1, k)
            if not term.terms:
                break
            result = result + term
        return result
