"""The integer rules, the two error classes and the text of integers in their
messages, and the refusal to rebind and the record base of immutable values.

Each error the CLI reports has one class, and each class one exit code: a
ValueError is bad input (exit 3), a SizeCapError a size-cap refusal (exit
4), and an InternalCheckError a failed check (exit 5).  Cross-checks raise
InternalCheckError rather than use ``assert``, so they also run under
``python -O``; as an AssertionError it still maps to exit 5.  Every value
the library returns, Permutation and each FrozenRecord, refuses rebinding
through refuse_rebinding.
"""


class InternalCheckError(AssertionError):
    """Two independent routes to an exact answer disagreed, or a computed
    value broke an invariant: a defect in the program, not in its input."""


class SizeCapError(ValueError):
    """A request within the rules that exceeds a size cap: it is refused
    before the work or the output it would take."""


def is_int(value) -> bool:
    """The rule for every count, degree and point: an int, bool excluded."""
    return isinstance(value, int) and not isinstance(value, bool)


def require_int(value, name: str, minimum: int = 1):
    """Return value if it is_int and at least minimum, which is 1
    (positive) or 0 (nonnegative); raise ValueError otherwise."""
    if not is_int(value) or value < minimum:
        kind = "positive" if minimum == 1 else "nonnegative"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")
    return value


def int_text(value: int) -> str:
    """value in decimal, or its size past 2,000 bits (603 digits, below 640,
    the lowest int-to-text limit): a message formats under any limit."""
    bits = value.bit_length()
    return str(value) if bits <= 2_000 else f"<a {bits}-bit integer>"


def refuse_rebinding(self, name, value=None):
    """__setattr__ and __delattr__ of an immutable __slots__ class, which
    binds each slot once through object.__setattr__ or the slot's __set__."""
    raise AttributeError(f"{type(self).__name__} is immutable: cannot rebind {name!r}")


class FrozenRecord:
    """Base of the immutable records, in place of a frozen dataclass, whose
    module would import inspect and ast with it.  A subclass lists its
    fields as __slots__, and __init__ binds its values to them in order; a
    record is then equal to another of its class, and hashed, by the tuple
    of its fields, and shown as Name(field=value, ...)."""

    __slots__ = ()
    __setattr__ = __delattr__ = refuse_rebinding

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {self.__slots__}, got {len(values)} values")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

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
