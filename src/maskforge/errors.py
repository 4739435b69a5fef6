"""Shared exception types, and the size budget BudgetExceeded enforces."""

# the most pair products one step may form: a refine round forms
# |supp f| * |supp a| (the example mask's eighth round about 7.4 M, its tenth
# about 120 M), an operator power the sum over its entries of
# |left_ik| * |right_kj| (the 3-d 2I order-2 scheme's fourth power 16.1 M);
# and the most running sums one exact division by (1 - z_j) may form, the
# sum of its lines' spans
PRODUCT_BUDGET = 1 << 24


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
