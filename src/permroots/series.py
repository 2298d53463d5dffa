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
fractions, which brings decimal with it, is imported where a Fraction is
made, not with this module, which every CLI command imports: a plain text
exists, count, roots or table makes no Fraction.
"""

from __future__ import annotations

from math import factorial
from types import MappingProxyType

from ._checks import FrozenRecord, is_int, require_int


def _fractions(values) -> list:
    """Each of values as a Fraction: a Fraction as it is, an int converted;
    TypeError for anything else, a bool too."""
    from fractions import Fraction

    out = []
    for value in values:
        if not isinstance(value, Fraction):
            if not is_int(value):
                raise TypeError(f"coefficients must be Fraction or int, got {value!r}")
            value = Fraction(value)
        out.append(value)
    return out


class UniSeries(FrozenRecord):
    """A polynomial truncation sum(coeffs[j] * x**j, j = 0..order).
    Immutable, so no caller can change a cached series."""

    __slots__ = ("order", "coeffs")
    __hash__ = None  # equal by value, but never a key

    def __init__(self, order: int, coeffs=()):
        require_int(order, "order", minimum=0)
        coeffs = _fractions(coeffs)
        if len(coeffs) > order + 1:
            raise ValueError(f"{len(coeffs)} coefficients exceed order {order}")
        coeffs += _fractions([0] * (order + 1 - len(coeffs)))
        super().__init__(order, tuple(coeffs))

    def coefficient(self, j: int):
        """The Fraction coefficient of x**j."""
        require_int(j, "j", minimum=0)
        if j > self.order:
            raise ValueError(f"coefficient {j} outside truncation order {self.order}")
        return self.coeffs[j]

    def __mul__(self, other: "UniSeries") -> "UniSeries":
        if not isinstance(other, UniSeries):
            return NotImplemented
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")
        out = [0] * (self.order + 1)  # each sum a Fraction, the rest Fractions in __init__
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs[: self.order + 1 - i]):
                if b:
                    out[i + j] += a * b
        return UniSeries(self.order, out)

    def __repr__(self) -> str:
        return f"UniSeries(order={self.order}, coeffs={list(self.coeffs)})"


def _nonzero(terms: dict) -> MappingProxyType:
    """A read-only copy of terms without their zero coefficients."""
    return MappingProxyType({key: coeff for key, coeff in terms.items() if coeff})


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
        items = (terms or {}).items()
        keys = [_strip(key) for key, _ in items]
        clean = {}
        for key, coeff in zip(keys, _fractions(coeff for _, coeff in items)):
            if _weight(key) <= weight_bound:
                clean[key] = clean[key] + coeff if key in clean else coeff
        super().__init__(weight_bound, _nonzero(clean))

    @classmethod
    def _proved(cls, weight_bound: int, terms: dict) -> "MultiSeries":
        """The series of terms already proved, as the sums of products of
        proved series are: stripped exponent tuples of weight at most
        weight_bound, each with a Fraction.  They are not checked again;
        only the zero coefficients are dropped."""
        series = object.__new__(cls)
        FrozenRecord.__init__(series, weight_bound, _nonzero(terms))
        return series

    def coefficient(self, exponents):
        """The Fraction coefficient of t_1**e_1 * t_2**e_2 * ..."""
        from fractions import Fraction

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
        out = {}
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
                out[key] = out[key] + c1 * c2 if key in out else c1 * c2
        return MultiSeries._proved(self.weight_bound, out)

    def __repr__(self) -> str:
        return f"MultiSeries(weight_bound={self.weight_bound}, {len(self.terms)} terms)"

    def exp(self) -> "MultiSeries":
        """exp(self) for zero constant term, as sum(self**k / k!), one
        product per power.  Each term of self**k has weight at least k
        times the least weight low of self's terms, so the loop ends at the
        first empty power or at the first k with (k + 1) * low above the
        bound, without forming self**(k + 1), which has no term within it."""
        from fractions import Fraction

        if self.terms.get(()):
            raise ValueError("exp needs a zero constant term")
        low = min(map(_weight, self.terms), default=0)
        total = {(): Fraction(1)}
        power, k = self, 1
        while power.terms:
            scale = factorial(k)
            for key, coeff in power.terms.items():
                total[key] = total[key] + coeff / scale if key in total else coeff / scale
            if (k + 1) * low > self.weight_bound:
                break
            power, k = power * self, k + 1
        return MultiSeries._proved(self.weight_bound, total)
