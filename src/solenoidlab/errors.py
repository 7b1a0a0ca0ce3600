"""Exception types shared across the package."""

from __future__ import annotations


class InvalidInputError(ValueError):
    """Raised when arguments fail a precondition (bad shapes, ranges, membership)."""


class UnsupportedMapError(InvalidInputError):
    """Raised when an operation needs a bijection and the supplied map is not one."""


class UnsupportedModeError(InvalidInputError):
    """Raised when an operation is asked to run outside the regime it is defined for."""


class OutOfRegimeError(InvalidInputError):
    """Raised when a numeric parameter leaves the range a formula is valid on."""


class InvariantError(RuntimeError):
    """Raised when an internal invariant fails: a library bug, not bad input.

    Explicit checks raise it instead of ``assert`` so they hold under
    ``python -O`` too.
    """
