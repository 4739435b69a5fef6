"""Rational intervals for certified norm and magnitude bounds.

All norm-based verdicts in this package require strict inequalities with the
full interval on the passing side, so intervals carry exact Fraction endpoints
and never silently collapse to floats.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational


class RatInterval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi) -> None:
        lo = Fraction(lo)
        hi = Fraction(hi)
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    @classmethod
    def exact(cls, value) -> "RatInterval":
        value = Fraction(value)
        return cls(value, value)

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, value) -> bool:
        return self.lo <= Fraction(value) <= self.hi

    def certified_below(self, bound) -> bool:
        """True when every point of the interval is strictly below bound."""
        return self.hi < Fraction(bound)

    def __add__(self, other) -> "RatInterval":
        other = _coerce(other)
        return RatInterval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __mul__(self, other) -> "RatInterval":
        other = _coerce(other)
        products = (self.lo * other.lo, self.lo * other.hi,
                    self.hi * other.lo, self.hi * other.hi)
        return RatInterval(min(products), max(products))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, Rational):
            return self.is_exact and self.lo == other
        if isinstance(other, RatInterval):
            return self.lo == other.lo and self.hi == other.hi
        return NotImplemented

    def __repr__(self) -> str:
        if self.is_exact:
            return f"RatInterval({self.lo})"
        return f"RatInterval({self.lo}, {self.hi})"

    def to_json(self):
        from .maskfile import format_rational
        if self.is_exact:
            return format_rational(self.lo)
        return {"lo": format_rational(self.lo), "hi": format_rational(self.hi)}


def _coerce(value) -> RatInterval:
    if isinstance(value, RatInterval):
        return value
    return RatInterval.exact(value)
