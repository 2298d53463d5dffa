"""The integer-argument rule and the internal-check error, shared by every module.

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
