"""Exact arithmetic over the field Q(sqrt(2)) and complex numbers built on it.

Balanced beam-splitter amplitudes are rational multiples of sqrt(2), so every
quantity that appears while folding such a network (sums, products, squared
moduli) stays inside Q(sqrt2).  Keeping them exact lets normalization and
distribution checks be literal equality tests instead of float comparisons.
A scalar is held as ints (a, b, d) standing for (a + b*sqrt2)/d, with d > 0
and gcd(a, b, d) == 1, so equal values have equal coordinates.  `float`
divides ints, which rounds correctly as `Fraction.__float__` does, so it is
bit-identical to float(p) + float(q)*sqrt(2).
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

_SQRT2 = 2 ** 0.5

_TOKEN = re.compile(r"^(-?\d+)(?:/(\d+))?(/sqrt2)?$")


class _Value:
    """Immutable value in one slot `_k`; equal to its own type's equal `_k`."""

    __slots__ = ("_k",)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._k == other._k

    def __hash__(self):
        return hash(self._k)

    def __reduce__(self):
        return _make, (type(self), self._k)


_new, _set_k = object.__new__, _Value._k.__set__


def _make(cls, k):
    value = _new(cls)
    _set_k(value, k)
    return value


class Sqrt2Scalar(_Value):
    """The real number p + q*sqrt(2) with rational p, q."""

    __slots__ = ()

    def __new__(cls, p, q=Fraction(0)):
        p, q = Fraction(p), Fraction(q)
        return _scalar(p.numerator * q.denominator, q.numerator * p.denominator,
                       p.denominator * q.denominator)

    p = property(lambda self: Fraction(self._k[0], self._k[2]))
    q = property(lambda self: Fraction(self._k[1], self._k[2]))

    @staticmethod
    def of(value) -> "Sqrt2Scalar":
        if type(value) is Sqrt2Scalar:
            return value
        if type(value) is int:
            return _scalar(value, 0, 1)
        return Sqrt2Scalar(value)

    def __add__(self, other):
        if type(other) is not Sqrt2Scalar:
            other = Sqrt2Scalar.of(other)
        (a, b, d), (c, e, f) = self._k, other._k
        if d == f:
            return _scalar(a + c, b + e, d)
        return _scalar(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -Sqrt2Scalar.of(other)

    def __neg__(self):
        a, b, d = self._k
        return _make(Sqrt2Scalar, (-a, -b, d))

    def __mul__(self, other):
        if type(other) is not Sqrt2Scalar:
            other = Sqrt2Scalar.of(other)
        (a, b, d), (c, e, f) = self._k, other._k
        # (a + b*s)(c + e*s) with s^2 = 2
        return _scalar(a * c + 2 * b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __float__(self) -> float:
        a, b, d = self._k
        return a / d + (b / d) * _SQRT2

    def is_rational(self) -> bool:
        return self._k[1] == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.p

    def __repr__(self):
        if self.is_rational():
            return str(self.p)
        return f"({self.p} + {self.q}*sqrt2)"


def _scalar(a: int, b: int, d: int) -> Sqrt2Scalar:
    """(a + b*sqrt2)/d in lowest terms; d must be positive."""
    g = gcd(a, b, d)
    value = _new(Sqrt2Scalar)
    _set_k(value, (a, b, d) if g == 1 else (a // g, b // g, d // g))
    return value


ZERO = Sqrt2Scalar(Fraction(0))
ONE = Sqrt2Scalar(Fraction(1))


class ExactAmplitude(_Value):
    """Complex number with real and imaginary parts in Q(sqrt2)."""

    __slots__ = ()

    def __new__(cls, re=ZERO, im=ZERO):
        return _make(ExactAmplitude, (Sqrt2Scalar.of(re), Sqrt2Scalar.of(im)))

    re = property(lambda self: self._k[0])
    im = property(lambda self: self._k[1])

    @staticmethod
    def of(value) -> "ExactAmplitude":
        if type(value) is ExactAmplitude:
            return value
        return _make(ExactAmplitude, (Sqrt2Scalar.of(value), ZERO))

    def __add__(self, other):
        if type(other) is not ExactAmplitude:
            other = ExactAmplitude.of(other)
        (a, b), (c, d) = self._k, other._k
        return _make(ExactAmplitude, (a + c, b + d))

    __radd__ = __add__

    def __sub__(self, other):
        return self + -ExactAmplitude.of(other)

    def __neg__(self):
        a, b = self._k
        return _make(ExactAmplitude, (-a, -b))

    def __mul__(self, other):
        if type(other) is not ExactAmplitude:
            other = ExactAmplitude.of(other)
        (a, b), (c, d) = self._k, other._k
        return _make(ExactAmplitude, (a * c - b * d, a * d + b * c))

    def abs2(self) -> Sqrt2Scalar:
        a, b = self._k
        return a * a + b * b

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"ExactAmplitude(re={self.re!r}, im={self.im!r})"


def parse_exact(token: str) -> ExactAmplitude:
    """Parse tokens like "1/2", "-3", "1/sqrt2", "-1/sqrt2" exactly.

    "r/sqrt2" is stored as (r/2)*sqrt2.  A malformed token, a zero
    denominator or too many digits for int() raise ValueError.
    """
    m = _TOKEN.match(token.strip())
    if m is None:
        raise ValueError(f"cannot parse amplitude token {token!r}")
    num, den = int(m.group(1)), int(m.group(2) or 1)
    if den == 0:
        raise ValueError(f"zero denominator in amplitude token {token!r}")
    if m.group(3):
        return ExactAmplitude(_scalar(0, num, 2 * den))
    return ExactAmplitude(_scalar(num, 0, den))


def abs2(a):
    """Squared modulus for either exact or floating amplitudes."""
    if isinstance(a, ExactAmplitude):
        return a.abs2()
    a = complex(a)
    return a.real * a.real + a.imag * a.imag
