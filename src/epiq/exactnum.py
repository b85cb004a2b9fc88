"""Exact arithmetic over the field Q(sqrt(2)) and complex numbers built on it.

Balanced beam-splitter amplitudes are rational multiples of sqrt(2), so every
quantity that appears while folding such a network (sums, products, squared
moduli) stays inside Q(sqrt2).  Keeping them exact lets normalization and
distribution checks be literal equality tests instead of float comparisons.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

_SQRT2 = 2 ** 0.5

_TOKEN = re.compile(r"^(-?\d+(?:/\d+)?)(/sqrt2)?$")


@dataclass(frozen=True)
class Sqrt2Scalar:
    """The real number p + q*sqrt(2) with rational p, q."""

    p: Fraction
    q: Fraction = Fraction(0)

    @staticmethod
    def of(value) -> "Sqrt2Scalar":
        if isinstance(value, Sqrt2Scalar):
            return value
        return Sqrt2Scalar(Fraction(value))

    def __add__(self, other):
        other = Sqrt2Scalar.of(other)
        return Sqrt2Scalar(self.p + other.p, self.q + other.q)

    __radd__ = __add__

    def __sub__(self, other):
        other = Sqrt2Scalar.of(other)
        return Sqrt2Scalar(self.p - other.p, self.q - other.q)

    def __neg__(self):
        return Sqrt2Scalar(-self.p, -self.q)

    def __mul__(self, other):
        other = Sqrt2Scalar.of(other)
        # (p + q*s)(p' + q'*s) with s^2 = 2
        return Sqrt2Scalar(
            self.p * other.p + 2 * self.q * other.q,
            self.p * other.q + self.q * other.p,
        )

    __rmul__ = __mul__

    def __float__(self) -> float:
        return float(self.p) + float(self.q) * _SQRT2

    def is_rational(self) -> bool:
        return self.q == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.p

    def __repr__(self):
        if self.q == 0:
            return str(self.p)
        return f"({self.p} + {self.q}*sqrt2)"


ZERO = Sqrt2Scalar(Fraction(0))
ONE = Sqrt2Scalar(Fraction(1))


@dataclass(frozen=True)
class ExactAmplitude:
    """Complex number with real and imaginary parts in Q(sqrt2)."""

    re: Sqrt2Scalar = ZERO
    im: Sqrt2Scalar = ZERO

    @staticmethod
    def of(value) -> "ExactAmplitude":
        if isinstance(value, ExactAmplitude):
            return value
        if isinstance(value, Sqrt2Scalar):
            return ExactAmplitude(value)
        return ExactAmplitude(Sqrt2Scalar.of(value))

    def __add__(self, other):
        other = ExactAmplitude.of(other)
        return ExactAmplitude(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = ExactAmplitude.of(other)
        return ExactAmplitude(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return ExactAmplitude(-self.re, -self.im)

    def __mul__(self, other):
        other = ExactAmplitude.of(other)
        return ExactAmplitude(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conjugate(self) -> "ExactAmplitude":
        return ExactAmplitude(self.re, -self.im)

    def abs2(self) -> Sqrt2Scalar:
        return self.re * self.re + self.im * self.im

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))


def parse_exact(token: str) -> ExactAmplitude:
    """Parse tokens like "1/2", "-3", "1/sqrt2", "-1/sqrt2" exactly.

    "r/sqrt2" is stored as (r/2)*sqrt2.
    """
    m = _TOKEN.match(token.strip())
    if m is None:
        raise ValueError(f"cannot parse amplitude token {token!r}")
    r = Fraction(m.group(1))
    if m.group(2):
        return ExactAmplitude(Sqrt2Scalar(Fraction(0), r / 2))
    return ExactAmplitude(Sqrt2Scalar(r))


def abs2(a):
    """Squared modulus for either exact or floating amplitudes."""
    if isinstance(a, ExactAmplitude):
        return a.abs2()
    a = complex(a)
    return a.real * a.real + a.imag * a.imag
