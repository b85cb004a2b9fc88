"""Executable calculus for an epistemic reconstruction of quantum mechanics.

Finite epistemic state spaces with a cardinality volume measure, experimental
contexts as layered amplitude networks with knowability levels, classical and
amplitude probability propagation, Born-map uniqueness verification,
contextual vector spaces with property operators, and state reduction by
observation and by epistemic consistency.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from enum import IntEnum
from itertools import accumulate
from operator import attrgetter

__version__ = "0.1.0"

# sets a field of a Record from its constructor, past the frozen __setattr__
_set = object.__setattr__


class Record:
    """Immutable value held in named slots.

    A subclass names its fields in ``__slots__`` and sets them in its
    constructor with ``_set``; assigning or deleting an attribute raises
    AttributeError.  Records of one type with equal fields are equal and hash
    alike, ``repr`` names the fields, and pickle and copy rebuild a record
    without calling its constructor.  Unlike a dataclass, the class is made
    without compiling generated methods or importing ``inspect``.

    A class with further slots, derived from the fields, names its fields in
    ``_fields`` and pickles through its constructor; a class that compares
    on fewer than all of its fields names those in ``_key``.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" not in cls.__dict__:
            cls._fields += cls.__dict__.get("__slots__", ())
        if "_key" not in cls.__dict__:
            # the field itself for one field, a tuple of them for several
            cls._key = property(attrgetter(*cls._fields))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return _record, (type(self), tuple(getattr(self, name) for name in self._fields))


def _record(cls, values):
    """The `cls` record with these field values, made without its constructor."""
    record = object.__new__(cls)
    for name, value in zip(cls._fields, values):
        _set(record, name, value)
    return record


# Shared by the network calculus (epiq.context) and the alternatives machinery
# (epiq.evolution), which re-export it; defined here so that neither module
# has to import the other.
class Knowability(IntEnum):
    """How the truth of an alternative relates to future knowledge.

    NEVER: it will never become known which alternative is true.
    CONTINGENT: it may become known, depending on later events.
    DECIDED: it will become known at a predefined moment of decision.
    """

    NEVER = 1
    CONTINGENT = 2
    DECIDED = 3


# Needs only the standard library; defined here so that the montecarlo command
# loads neither epiq.evolution (which re-exports it) nor the state space.
def borel_trial(probabilities: Sequence[float], n: int, seed: int) -> tuple[float, ...]:
    """Empirical outcome frequencies of n seeded draws.

    One multinomial sample, drawn as a chain of binomials: outcome j gets
    Binomial(n_left, p_j / p_left) and the last outcome takes the rest.  The
    binomials read only ``random()`` of one ``random.Random(seed)``, whose
    stream Python keeps for a given seed, so memory does not grow with n and
    the result depends only on (probabilities, n, seed).
    """
    from random import Random
    p = [float(x) for x in probabilities]
    # float propagation can land an ulp outside [0, 1]; NaN fails both checks
    if not all(-1e-12 <= x <= 1 + 1e-12 for x in p):
        raise ValueError("probabilities must lie in [0, 1]")
    p = [min(1.0, max(0.0, x)) for x in p]
    if not abs(math.fsum(p) - 1.0) <= 1e-12:
        raise ValueError("probabilities must sum to one")
    # a float count gives frequencies of no whole number of draws; True is one draw
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"draw count must be an int, not {n!r}")
    if n < 1:
        raise ValueError("need at least one draw")
    # Random would take a negative seed as its absolute value, a float by its hash
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValueError("seed must be an integer >= 0")
    # p_left for outcome j, summed from the end: never below p_j, so each
    # ratio is at most 1, and exactly 1 when no later outcome can occur
    p_left = list(accumulate(reversed(p)))[::-1]
    random = Random(seed).random
    counts, left = [], n
    for p_j, rest in zip(p[:-1], p_left):
        k = _binomial(random, left, p_j / rest) if p_j else 0
        counts.append(k)
        left -= k
    counts.append(left)
    return tuple(k / n for k in counts)


def _binomial(random, n, p):
    """A Binomial(n, p) count drawn from uniforms on [0, 1), for 0 <= p <= 1."""
    if p > 0.5:
        return n - _binomial(random, n, 1.0 - p)
    if n * p < 10:
        # Devroye's waiting times: count the geometric gaps between successes
        # that fit in n trials
        if p == 0:
            return 0
        log_q, k, trials = math.log1p(-p), 0, 0
        while True:
            gap = math.log(1.0 - random()) / log_q  # the gap is int(gap) + 1 trials
            if gap >= n - trials:
                return k
            trials += int(gap) + 1
            k += 1
    # Hörmann's BTRS, transformed rejection with a squeeze (1993)
    spq = math.sqrt(n * p * (1.0 - p))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    v_r = 0.92 - 4.2 / b
    alpha = (2.83 + 5.1 / b) * spq
    mode = math.floor((n + 1) * p)
    while True:
        u = random() - 0.5
        us = 0.5 - abs(u)
        if us == 0:  # u = -0.5 maps to k = -inf
            continue
        k = math.floor((2 * a / us + b) * u + c)
        if not 0 <= k <= n:
            continue
        v = random()
        if us >= 0.07 and v <= v_r:
            return k
        if v * alpha / (a / (us * us) + b) <= math.exp(_log_pmf_ratio(n, p, k, mode)):
            return k


def _log_pmf_ratio(n, p, k, m):
    """log(f(k) / f(m)) for the Binomial(n, p) probabilities f.

    The lgamma terms of the two log-probabilities are split into Stirling's
    approximation, whose difference is taken in log1p form, and the
    correction ``_stirling_tail``, so no digits are lost to n up to 2**63.
    """
    d = k - m
    return ((n - m + 0.5) * math.log1p(d / (n - k + 1)) - (m + 0.5) * math.log1p(d / (m + 1))
            + d * math.log((n - k + 1) * p / ((k + 1) * (1.0 - p)))
            + _stirling_tail(m) + _stirling_tail(n - m) - _stirling_tail(k) - _stirling_tail(n - k))


_HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)


def _stirling_tail(k):
    """lgamma(k + 1) less (k + 1/2) log(k + 1) - (k + 1) + log(2 pi) / 2."""
    y = k + 1.0
    if k < 10:
        return math.lgamma(y) - (k + 0.5) * math.log(y) + y - _HALF_LOG_2PI
    y2 = y * y
    return (1 / 12 - (1 / 360 - 1 / 1260 / y2) / y2) / y

