"""Truncated power series with exact rational coefficients.

Just enough arithmetic for exponential generating functions: addition,
multiplication, inversion, and integer extraction of n! times a coefficient.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import InvariantViolation, _Record, _setattr

DEFAULT_TRUNCATION = 12


class RationalSeries(_Record):
    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[Fraction, ...]):
        _setattr(self, "coeffs", coeffs)

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other):
        T = min(self.truncation, other.truncation)
        return RationalSeries(tuple(self.coeffs[k] + other.coeffs[k] for k in range(T + 1)))

    def __sub__(self, other):
        T = min(self.truncation, other.truncation)
        return RationalSeries(tuple(self.coeffs[k] - other.coeffs[k] for k in range(T + 1)))

    def __mul__(self, other):
        if isinstance(other, RationalSeries):
            T = min(self.truncation, other.truncation)
            out = []
            for k in range(T + 1):
                out.append(sum((self.coeffs[j] * other.coeffs[k - j] for j in range(k + 1)),
                               Fraction(0)))
            return RationalSeries(tuple(out))
        return RationalSeries(tuple(c * other for c in self.coeffs))

    __rmul__ = __mul__

    def inverse(self):
        if not self.coeffs[0]:
            raise ValueError("cannot invert a series with zero constant term")
        inv = [1 / self.coeffs[0]]
        for k in range(1, self.truncation + 1):
            acc = sum((self.coeffs[j] * inv[k - j] for j in range(1, k + 1)), Fraction(0))
            inv.append(-acc / self.coeffs[0])
        return RationalSeries(tuple(inv))


def series_const(c, T: int = DEFAULT_TRUNCATION) -> RationalSeries:
    return RationalSeries((Fraction(c),) + (Fraction(0),) * T)


def series_t(T: int = DEFAULT_TRUNCATION) -> RationalSeries:
    return RationalSeries((Fraction(0), Fraction(1)) + (Fraction(0),) * (T - 1))


def series_exp(T: int = DEFAULT_TRUNCATION) -> RationalSeries:
    return RationalSeries(tuple(Fraction(1, math.factorial(k)) for k in range(T + 1)))


def egf_coefficient(s: RationalSeries, n: int) -> int:
    """n! times the t^n coefficient; must come out an integer."""
    value = s.coeffs[n] * math.factorial(n)
    if value.denominator != 1:
        raise InvariantViolation(f"coefficient {n} is not integral: {value}")
    return int(value)
