"""Executable calculus for an epistemic reconstruction of quantum mechanics.

Finite epistemic state spaces with a cardinality volume measure, experimental
contexts as layered amplitude networks with knowability levels, classical and
amplitude probability propagation, Born-map uniqueness verification,
contextual vector spaces with property operators, and state reduction by
observation and by epistemic consistency.
"""

from __future__ import annotations

from enum import IntEnum
from operator import attrgetter
from typing import Sequence

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
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields += cls.__dict__.get("__slots__", ())
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


# Needs only numpy, imported when called; defined here so that the montecarlo
# command loads neither epiq.evolution (which re-exports it) nor the state space.
def borel_trial(probabilities: Sequence[float], n: int, seed: int) -> np.ndarray:
    """Empirical outcome frequencies of n seeded draws.

    One multinomial sample from the counter-based Philox generator keyed by
    the seed, so memory does not grow with n and the result depends only on
    (probabilities, n, seed).
    """
    import numpy as np
    p = np.asarray([float(x) for x in probabilities], dtype=float)
    if abs(p.sum() - 1.0) > 1e-12:
        raise ValueError("probabilities must sum to one")
    # float propagation can land an ulp outside [0, 1], which multinomial refuses
    p = np.clip(p, 0.0, 1.0)
    if n < 1:
        raise ValueError("need at least one draw")
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng.multinomial(n, p) / n
