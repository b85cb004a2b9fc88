"""Per-entry Q(sqrt2)(i) arithmetic, kept as the tests' reference.

`epiq.exactnum` multiplies, adds and squares exact amplitudes only inside its
integer-row kernels (`checked_rows`, `squared_moduli`, `merge_rows`,
`carry_rows`); an `ExactAmplitude` itself has no arithmetic.  These functions
compute the same sums, products and squared moduli one entry at a time, from
each amplitude's real and imaginary `Sqrt2Scalar` parts and their own `+` and
`*`, so they share no code with the kernels they check.

Each function takes ExactAmplitudes, Sqrt2Scalars, ints or Fractions (read as
`ExactAmplitude.of` reads them) and returns an ExactAmplitude, or a
Sqrt2Scalar from `abs2`.  Operands that are all plain numbers (float or
complex) get Python's own arithmetic, so a strategy or a path-sum oracle can
serve both number fields.
"""
from epiq.exactnum import ExactAmplitude, Sqrt2Scalar


def _exact(*values) -> bool:
    return any(isinstance(v, (ExactAmplitude, Sqrt2Scalar)) for v in values)


def _parts(value) -> tuple:
    z = ExactAmplitude.of(value)
    return z.re, z.im


def add(z, w):
    if not _exact(z, w):
        return z + w
    (a, b), (c, d) = _parts(z), _parts(w)
    return ExactAmplitude(a + c, b + d)


def sub(z, w):
    if not _exact(z, w):
        return z - w
    (a, b), (c, d) = _parts(z), _parts(w)
    return ExactAmplitude(a - c, b - d)


def neg(z):
    if not _exact(z):
        return -z
    a, b = _parts(z)
    return ExactAmplitude(-a, -b)


def mul(z, w):
    if not _exact(z, w):
        return z * w
    (a, b), (c, d) = _parts(z), _parts(w)
    return ExactAmplitude(a * c - b * d, a * d + b * c)


def abs2(z):
    """|z|^2: a Sqrt2Scalar for an exact z, else a float."""
    if not _exact(z):
        z = complex(z)
        return z.real * z.real + z.imag * z.imag
    a, b = _parts(z)
    return a * a + b * b
