"""Exact complex scalars with rational real and imaginary parts.

Finite-rank traces and chain identities are exact rational computations;
this module provides the scalar type they run on.  Floating scalars are
ordinary Python/numpy complex numbers and need no wrapper.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational


def _as_rational(x) -> int | Fraction:
    # a plain int stays an int: int arithmetic is exact and far cheaper than
    # Fraction's, and a Fraction operand promotes the result when needed
    if type(x) is int or isinstance(x, Fraction):
        return x
    if isinstance(x, (int, Rational)):
        return Fraction(x)
    if isinstance(x, float):
        # every double is a dyadic rational, so this conversion is exact
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


@dataclass(frozen=True)
class QGauss:
    """A Gaussian rational re + im*i with int or Fraction components.

    A component stays an int until an operation with a Fraction makes it
    one; the two are interchangeable (equal values compare and hash equal).
    """

    re: int | Fraction = 0
    im: int | Fraction = 0

    @staticmethod
    def of(value) -> "QGauss":
        """Coerce an int, Fraction, float, complex or QGauss to QGauss."""
        if isinstance(value, QGauss):
            return value
        if isinstance(value, complex):
            return QGauss(_as_rational(value.real), _as_rational(value.imag))
        return QGauss(_as_rational(value))

    def __add__(self, other) -> "QGauss":
        other = QGauss.of(other)
        return QGauss(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other) -> "QGauss":
        other = QGauss.of(other)
        return QGauss(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "QGauss":
        return QGauss.of(other) - self

    def __mul__(self, other) -> "QGauss":
        other = QGauss.of(other)
        return QGauss(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self) -> "QGauss":
        return QGauss(-self.re, -self.im)

    def conjugate(self) -> "QGauss":
        return QGauss(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __complex__(self) -> complex:
        return self.to_complex()

    def __bool__(self) -> bool:
        return not self.is_zero()


def format_rational(x: int | Fraction) -> str:
    """Serialize an int or Fraction as `p` or `p/q`."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
