"""Exact arithmetic over the field Q(sqrt(2)) and complex numbers built on it.

Balanced beam-splitter amplitudes are rational multiples of sqrt(2), so every
quantity that appears while folding such a network (sums, products, squared
moduli) stays inside Q(sqrt2).  Keeping them exact lets normalization and
distribution checks be literal equality tests instead of float comparisons.
A scalar is held as ints (a, b, d) standing for (a + b*sqrt2)/d, with d > 0
and gcd(a, b, d) == 1, so equal values have equal coordinates.  An amplitude
is held the same way as five ints (a, b, c, e, d) standing for
(a + b*sqrt2 + i(c + e*sqrt2))/d, with d > 0 and gcd(a, b, c, e, d) == 1;
`.re` and `.im` build the canonical scalars on demand.  An amplitude has no
arithmetic: its sums, products and squared moduli are made only by the row
kernels below.  A scalar's `+`, `-` and `*` are integer arithmetic with one
gcd per result.  `float` and `complex` divide ints, which rounds correctly as
`Fraction.__float__` does, so they are bit-identical to
float(p) + float(q)*sqrt(2) of each part.

Checking and folding a network make no value objects and no gcd per
operation: they run on integer rows.  An amplitude row is `(D, x)`, a shared
denominator D > 0 and a flat list x of numerators, (a, b, c, e) for each
entry; a scalar row is `(D, y)` with (p, q) for each entry.
`checked_rows` reads each entry of a matrix once: it puts the matrix on one
denominator D, squares each entry onto D^2, and names the rows that are not
normalized exactly, those whose p parts do not sum to D^2 or whose q parts
do not sum to 0.  `squared_moduli` squares the rows a carry makes.
`merge_rows` (the classical merge of a mixture) and `carry_rows` (a mixture
through a matrix) reduce each result row by one gcd over the whole row, and
`scalars` turns a scalar row into canonical scalars.

`fractions` is imported only where a `Fraction` is built: by
`Sqrt2Scalar(p, q)`, `.p`, `.q`, `as_fraction` and a scalar's `repr`.
A scalar's arithmetic, the row kernels, `float`, `complex` and `parse_exact`
work on the ints alone, so propagating and checking an exact network loads
neither `fractions` nor `decimal`.  Both value types are `epiq.Record`s with
the one field `_k`.
"""
from __future__ import annotations

import re
from math import gcd, lcm

from . import Record

_SQRT2 = 2 ** 0.5

_TOKEN = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?(/sqrt2)?")


class _Value(Record):
    """Immutable value in one slot `_k`; equal to its own type's equal `_k`."""

    __slots__ = ("_k",)


_new, _set_k = object.__new__, _Value._k.__set__


def _make(cls, k):
    value = _new(cls)
    _set_k(value, k)
    return value


def _fraction(numerator: int, denominator: int):
    """Fraction(numerator, denominator); fractions is imported on first use."""
    from fractions import Fraction
    return Fraction(numerator, denominator)


class Sqrt2Scalar(_Value):
    """The real number p + q*sqrt(2) with rational p, q."""

    __slots__ = ()

    def __new__(cls, p, q=0):
        from fractions import Fraction
        p, q = Fraction(p), Fraction(q)
        return _scalar(p.numerator * q.denominator, q.numerator * p.denominator,
                       p.denominator * q.denominator)

    p = property(lambda self: _fraction(self._k[0], self._k[2]))
    q = property(lambda self: _fraction(self._k[1], self._k[2]))

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
        return _scalar(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -Sqrt2Scalar.of(other)

    def __rsub__(self, other):
        return Sqrt2Scalar.of(other) + -self

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

    def as_fraction(self) -> "Fraction":
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


ZERO = _scalar(0, 0, 1)
ONE = _scalar(1, 0, 1)


class ExactAmplitude(_Value):
    """Complex number with real and imaginary parts in Q(sqrt2); it is read,
    compared and hashed, and the row kernels do its arithmetic."""

    __slots__ = ()

    def __new__(cls, re=ZERO, im=ZERO):
        (a, b, d), (c, e, f) = Sqrt2Scalar.of(re)._k, Sqrt2Scalar.of(im)._k
        return _amplitude(a * f, b * f, c * d, e * d, d * f)

    re = property(lambda self: _scalar(self._k[0], self._k[1], self._k[4]))
    im = property(lambda self: _scalar(self._k[2], self._k[3], self._k[4]))

    @staticmethod
    def of(value) -> "ExactAmplitude":
        if type(value) is ExactAmplitude:
            return value
        a, b, d = Sqrt2Scalar.of(value)._k
        return _make(ExactAmplitude, (a, b, 0, 0, d))

    def __complex__(self) -> complex:
        a, b, c, e, d = self._k
        return complex(a / d + (b / d) * _SQRT2, c / d + (e / d) * _SQRT2)

    def __repr__(self):
        return f"ExactAmplitude(re={self.re!r}, im={self.im!r})"


def _amplitude(a: int, b: int, c: int, e: int, d: int) -> ExactAmplitude:
    """(a + b*sqrt2 + i(c + e*sqrt2))/d in lowest terms; d must be positive."""
    g = gcd(a, b, c, e, d)
    value = _new(ExactAmplitude)
    _set_k(value, (a, b, c, e, d) if g == 1 else (a // g, b // g, c // g, e // g, d // g))
    return value


def parse_exact(token: str) -> ExactAmplitude:
    """Parse tokens like "1/2", "-3", "1/sqrt2", "-1/sqrt2" exactly.

    "r/sqrt2" is stored as (r/2)*sqrt2.  A malformed token, a zero
    denominator or too many digits for int() raise ValueError.
    """
    m = _TOKEN.fullmatch(token)
    if m is None:
        raise ValueError(f"cannot parse amplitude token {token!r}")
    num, den = int(m.group(1)), int(m.group(2) or 1)
    if den == 0:
        raise ValueError(f"zero denominator in amplitude token {token!r}")
    if m.group(3):
        return ExactAmplitude.of(_scalar(0, num, 2 * den))
    return ExactAmplitude.of(_scalar(num, 0, den))


def _lowest(d: int, x: list) -> tuple:
    """The row (d, x) with its numerators and denominator divided by their gcd."""
    g = gcd(d, *x)
    return (d, x) if g == 1 else (d // g, [v // g for v in x])


# the scalar row of the one entry 1: the weight of a mixture of one row
ONE_ROW = (1, (1, 0))


def checked_rows(matrix) -> tuple:
    """A matrix of ExactAmplitudes in one pass: its amplitude rows on one
    shared denominator D, their squared moduli as scalar rows (D^2, y), and
    the indices of the rows that do not sum to exactly 1, whose p parts do
    not sum to D^2 or whose q parts do not sum to 0."""
    ks = [[a._k for a in row] for row in matrix]
    dens = {k[4] for row in ks for k in row}
    d = dens.pop() if len(dens) == 1 else lcm(*dens)
    rows, squares, off = [], [], []
    for j, row in enumerate(ks):
        x, y, s, t = [], [], 0, 0
        for a, b, c, e, n in row:
            if n != d:
                f = d // n
                a, b, c, e = a * f, b * f, c * f, e * f
            p, q = a * a + c * c + 2 * (b * b + e * e), 2 * (a * b + c * e)
            x += a, b, c, e
            y += p, q
            s += p
            t += q
        rows.append((d, x))
        squares.append((d * d, y))
        if s != d * d or t:
            off.append(j)
    return rows, squares, off


def squared_moduli(rows) -> list:
    """|x_j|^2 of each entry of each amplitude row (D, x), as the scalar row
    (D^2, y) on the square of the row's own denominator."""
    out = []
    for d, x in rows:
        y, it = [], iter(x)
        for a, b, c, e in zip(it, it, it, it):
            y += (a * a + c * c + 2 * (b * b + e * e), 2 * (a * b + c * e))
        out.append((d * d, y))
    return out


def row_sum(row) -> Sqrt2Scalar:
    """The sum of a scalar row's entries."""
    d, y = row
    return _scalar(sum(y[0::2]), sum(y[1::2]), d)


def merge_rows(weights, squares) -> tuple:
    """The classical merge sum_b w_b * squares_b[j]: a scalar row of weights,
    one per scalar row of `squares`, gives one scalar row."""
    d, w = weights
    dens = {s for s, _ in squares}
    n = dens.pop() if len(dens) == 1 else lcm(*dens)
    t = [0] * len(squares[0][1])
    for b, (s, y) in enumerate(squares):
        f = n // s
        p, q = w[2 * b] * f, w[2 * b + 1] * f
        if q:
            for j in range(0, len(t), 2):
                u, v = y[j], y[j + 1]
                t[j] += p * u + 2 * q * v
                t[j + 1] += p * v + q * u
        elif p:
            for j in range(len(t)):
                t[j] += p * y[j]
    return _lowest(d * n, t)


def carry_rows(rows, matrix) -> list:
    """Each amplitude row x times a matrix of amplitude rows on one shared
    denominator: sum_j x_j * matrix[j], one amplitude row per row."""
    e = matrix[0][0]
    out = []
    for d, x in rows:
        t = [0] * len(matrix[0][1])
        for j, (_, m) in enumerate(matrix):
            a, b, c, g = x[4 * j:4 * j + 4]
            for k in range(0, len(t), 4):
                f, h, u, v = m[k:k + 4]
                # (a + b*s + i(c + g*s))(f + h*s + i(u + v*s)) with s^2 = 2
                t[k] += a * f + 2 * b * h - c * u - 2 * g * v
                t[k + 1] += a * h + b * f - c * v - g * u
                t[k + 2] += a * u + 2 * b * v + c * f + 2 * g * h
                t[k + 3] += a * v + b * u + c * h + g * f
        out.append(_lowest(d * e, t))
    return out


def scalars(row) -> tuple:
    """A scalar row's entries as canonical Sqrt2Scalars."""
    d, y = row
    return tuple(_scalar(y[j], y[j + 1], d) for j in range(0, len(y), 2))
