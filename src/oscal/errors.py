"""Exception types shared across the package."""

from __future__ import annotations


class OscalError(Exception):
    """Base class for all package-level errors."""


class SpaceError(OscalError):
    """Structurally invalid space, unknown node, or invalid point."""


class MismatchError(OscalError):
    """Two objects that must live on the same space (or basis) do not."""


class ExactnessError(OscalError):
    """An exact rational value was required but does not exist.

    Raised when a computation needs the modulus of a Gaussian rational as
    a rational and it is irrational, as in the stage layer on a complex
    function whose gaps have irrational moduli.
    """


class ResourceCapError(OscalError):
    """A hard structural cap (node count, table size) was exceeded."""


class PreconditionError(OscalError):
    """A documented precondition of an operation does not hold."""


class InternalCheckError(OscalError):
    """A self-check that should be unconditionally true failed (a bug)."""


class DocumentError(OscalError):
    """Malformed or semantically invalid serialized document."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
