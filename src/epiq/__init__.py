"""Executable calculus for an epistemic reconstruction of quantum mechanics.

Finite epistemic state spaces with a cardinality volume measure, experimental
contexts as layered amplitude networks with knowability levels, classical and
amplitude probability propagation, Born-map uniqueness verification,
contextual vector spaces with property operators, and state reduction by
observation and by epistemic consistency.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Sequence

__version__ = "0.1.0"


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
