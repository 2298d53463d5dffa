"""Exact truncated power series over Fraction, in one variable or many.

They serve only the checking routes and keep only the algebra those
call.  UniSeries is dense in a single variable x up to a fixed truncation
order, with a series product.  No package code uses it: the tests build
their Fraction references on it, among them the block series behind the
prime-power constancy, and bench/tracing.py wraps its product by name, so
it stays here, outside the package's exports.  MultiSeries is sparse in
countably many variables t_1, t_2, ... truncated by total weight
sum(ell * e_ell), the natural grading when t_ell marks cycles of length
ell, with a product and exp.  All coefficients are Fractions, so every
identity checked against these classes is exact, not floating-point.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from types import MappingProxyType

from ._checks import FrozenRecord, is_int, require_int


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if is_int(value):
        return Fraction(value)
    raise TypeError(f"coefficients must be Fraction or int, got {value!r}")


class UniSeries(FrozenRecord):
    """A polynomial truncation sum(coeffs[j] * x**j, j = 0..order).
    Immutable, so no caller can change a cached series."""

    __slots__ = ("order", "coeffs")
    __hash__ = None  # equal by value, but never a key

    def __init__(self, order: int, coeffs=()):
        require_int(order, "order", minimum=0)
        coeffs = [_as_fraction(c) for c in coeffs]
        if len(coeffs) > order + 1:
            raise ValueError(f"{len(coeffs)} coefficients exceed order {order}")
        coeffs.extend([Fraction(0)] * (order + 1 - len(coeffs)))
        super().__init__(order, tuple(coeffs))

    def coefficient(self, j: int) -> Fraction:
        require_int(j, "j", minimum=0)
        if j > self.order:
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

    def __repr__(self) -> str:
        return f"UniSeries(order={self.order}, coeffs={list(self.coeffs)})"


def _strip(key) -> tuple[int, ...]:
    """The series key of an exponent sequence: each exponent a nonnegative
    int, trailing zeros stripped; ValueError otherwise."""
    key = tuple(key)
    for e in key:
        if not is_int(e) or e < 0:
            raise ValueError(f"exponents must be nonnegative ints, got {key!r}")
    end = len(key)
    while end and not key[end - 1]:
        end -= 1
    return key[:end]


def _weight(key: tuple[int, ...]) -> int:
    return sum(ell * e for ell, e in enumerate(key, start=1))


class MultiSeries(FrozenRecord):
    """Sparse exact series in t_1, t_2, ... truncated by total weight.

    Keys are exponent tuples with trailing zeros stripped; terms whose
    weight exceeds the bound are dropped by every operation.  terms is a
    read-only mapping and the attributes cannot be rebound, so no caller
    can change a cached series."""

    __slots__ = ("weight_bound", "terms")
    __hash__ = None  # equal by value, but never a key

    def __init__(self, weight_bound: int, terms=None):
        require_int(weight_bound, "weight_bound", minimum=0)
        clean: dict[tuple[int, ...], Fraction] = {}
        for key, coeff in (terms or {}).items():
            key = _strip(key)
            coeff = _as_fraction(coeff)
            if coeff and _weight(key) <= weight_bound:
                clean[key] = clean.get(key, Fraction(0)) + coeff
                if not clean[key]:
                    del clean[key]
        super().__init__(weight_bound, MappingProxyType(clean))

    def coefficient(self, exponents) -> Fraction:
        key = _strip(exponents)
        if _weight(key) > self.weight_bound:
            raise ValueError(f"weight of {key!r} exceeds truncation bound {self.weight_bound}")
        return self.terms.get(key, Fraction(0))

    def __mul__(self, other: "MultiSeries") -> "MultiSeries":
        """The truncated product with another MultiSeries of the same bound."""
        if not isinstance(other, MultiSeries):
            return NotImplemented
        if self.weight_bound != other.weight_bound:
            raise ValueError(f"weight bound mismatch: {self.weight_bound} vs {other.weight_bound}")
        right = [(k2, _weight(k2), c2) for k2, c2 in other.terms.items()]
        out: dict[tuple[int, ...], Fraction] = {}
        for k1, c1 in self.terms.items():
            room = self.weight_bound - _weight(k1)
            for k2, w2, c2 in right:
                if w2 > room:
                    continue
                longer, shorter = (k1, k2) if len(k1) >= len(k2) else (k2, k1)
                key = tuple(
                    a + (shorter[i] if i < len(shorter) else 0)
                    for i, a in enumerate(longer)
                )
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return MultiSeries(self.weight_bound, out)

    def __repr__(self) -> str:
        return f"MultiSeries(weight_bound={self.weight_bound}, {len(self.terms)} terms)"

    def exp(self) -> "MultiSeries":
        """exp(self) for zero constant term, as sum(self**k / k!), one
        product per power; each power raises the minimum weight, so the
        loop ends once self**k is empty under the bound."""
        if self.terms.get(()):
            raise ValueError("exp needs a zero constant term")
        total = {(): Fraction(1)}
        power, k = self, 1
        while power.terms:
            scale = factorial(k)
            for key, coeff in power.terms.items():
                total[key] = total.get(key, 0) + coeff / scale
            power, k = power * self, k + 1
        return MultiSeries(self.weight_bound, total)
