"""Exact arithmetic in ℚ(i), the Gaussian rationals, and on polynomials
over it.

Every binary64 number is a Gaussian rational, so arithmetic on the exact
values of double coefficients decides what rounding would blur.  The exact
expansion of ``expressions.poly_coefficients`` and the Toeplitz verdicts of
``toeplitz`` both run on it.  Python integers hold the values, so nothing
overflows; the cost grows with the bits the integers need.

A polynomial is a list of ``Gaussian`` coefficients, lowest degree first.
``trimmed`` removes zeros on top, and the zero polynomial is then [].
"""

from __future__ import annotations

import math
from itertools import zip_longest


class Gaussian:
    """(a + b·i)/d: integers a, b and d > 0 with no common factor."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a: int, b: int = 0, d: int = 1):
        g = math.gcd(a, b, d)
        self.a, self.b, self.d = a // g, b // g, d // g

    @classmethod
    def of(cls, z) -> Gaussian:
        """The exact value of a number with finite binary64 parts."""
        (a, da), (b, db) = (float(x).as_integer_ratio()
                            for x in (z.real, z.imag))
        d = max(da, db)                   # both are powers of two
        return cls(a * (d // da), b * (d // db), d)

    def __complex__(self) -> complex:
        """The nearest binary64 parts; OverflowError past their range."""
        return complex(self.a / self.d, self.b / self.d)

    def __add__(self, other):
        return Gaussian(self.a * other.d + other.a * self.d,
                        self.b * other.d + other.b * self.d, self.d * other.d)

    def __sub__(self, other):
        return Gaussian(self.a * other.d - other.a * self.d,
                        self.b * other.d - other.b * self.d, self.d * other.d)

    def __mul__(self, other):
        if isinstance(other, int):
            return Gaussian(self.a * other, self.b * other, self.d)
        return Gaussian(self.a * other.a - self.b * other.b,
                        self.a * other.b + self.b * other.a, self.d * other.d)

    def __truediv__(self, other):
        # times conj(other)·other.d / |other.a + other.b·i|²
        scale = other.a * other.a + other.b * other.b
        return Gaussian((self.a * other.a + self.b * other.b) * other.d,
                        (self.b * other.a - self.a * other.b) * other.d,
                        self.d * scale)

    def __neg__(self):
        return Gaussian(-self.a, -self.b, self.d)

    def __bool__(self):
        return bool(self.a or self.b)

    def conjugate(self):
        return Gaussian(self.a, -self.b, self.d)

    def bits(self) -> int:
        """The bits of the largest of a, b and d."""
        return max(self.a.bit_length(), self.b.bit_length(), self.d.bit_length())


ZERO, ONE = Gaussian(0), Gaussian(1)


def exact(coeffs) -> list:
    """The exact value of each coefficient with finite binary64 parts."""
    return [Gaussian.of(c) for c in coeffs]


def trimmed(a: list) -> list:
    n = len(a)
    while n and not a[n - 1]:
        n -= 1
    return a[:n]


def add(a: list, b: list, sign: int = 1) -> list:
    """a + sign·b."""
    return trimmed([x + y * sign for x, y in zip_longest(a, b, fillvalue=ZERO)])


def mul(a: list, b: list) -> list:
    out = [ZERO] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return trimmed(out)


def divide(a: list, b: list) -> tuple:
    """Quotient and remainder of a by b ≠ 0."""
    rem, quo = list(a), [ZERO] * max(len(a) - len(b) + 1, 0)
    for k in reversed(range(len(quo))):
        quo[k] = rem[k + len(b) - 1] / b[-1]
        for i, c in enumerate(b):
            rem[k + i] = rem[k + i] - quo[k] * c
    return quo, trimmed(rem[: len(b) - 1])


def monic(a: list) -> list:
    return [c / a[-1] for c in a]


def gcd(a: list, b: list) -> list:
    """The monic gcd by Euclid's algorithm; [] when a = b = 0."""
    a, b = monic(trimmed(a)), monic(trimmed(b))
    while b:
        a, b = b, monic(divide(a, b)[1])
    return a


def derivative(a: list) -> list:
    return [c * k for k, c in enumerate(a)][1:]
