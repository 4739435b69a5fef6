"""Shared exception types."""


class MaskforgeError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(MaskforgeError):
    pass


class ShapeMismatch(MaskforgeError):
    pass


class UserDigitsInvalid(MaskforgeError):
    pass


class WrongCount(MaskforgeError):
    pass


class NotInClass(MaskforgeError):
    """A mask does not satisfy the sum-rule order required by an operation."""


class MethodDisagreement(MaskforgeError):
    """The two independent sum-rule checkers disagreed (implementation bug guard)."""


class InternalIdentityViolation(MaskforgeError):
    """An exactly-preserved polynomial identity failed mid-computation (bug guard)."""


class BudgetExceeded(MaskforgeError):
    """An operation would grow past its size budget; it stops before it
    allocates."""
