"""The integer-argument rule, the internal-check error and the base of the
immutable records, shared by every module.

Cross-checks raise InternalCheckError rather than use ``assert``, so they
also run under ``python -O``; as an AssertionError it still maps to exit 5.
"""


class InternalCheckError(AssertionError):
    """Two independent routes to an exact answer disagreed, or a computed
    value broke an invariant: a defect in the program, not in its input."""


def require_int(value, name: str, minimum: int = 1):
    """Return value if it is an int (bool excluded) of at least minimum,
    which is 1 (positive) or 0 (nonnegative); raise ValueError otherwise."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        kind = "positive" if minimum == 1 else "nonnegative"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")
    return value


def refuse_rebinding(self, name, value=None):
    """__setattr__ and __delattr__ of an immutable __slots__ class: its
    __init__ binds each slot once through object.__setattr__."""
    raise AttributeError(f"{type(self).__name__} is immutable: cannot rebind {name!r}")


class FrozenRecord:
    """Base of the immutable records, in place of a frozen dataclass, whose
    module would import inspect and ast with it.  A subclass lists its
    fields as __slots__ and binds each once in __init__; a record is then
    equal to another of its class, and hashed, by the tuple of its fields,
    and shown as Name(field=value, ...)."""

    __slots__ = ()
    __setattr__ = __delattr__ = refuse_rebinding

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
