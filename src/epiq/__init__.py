"""Executable calculus for an epistemic reconstruction of quantum mechanics.

Finite epistemic state spaces with a cardinality volume measure, experimental
contexts as layered amplitude networks with knowability levels, classical and
amplitude probability propagation, Born-map uniqueness verification,
contextual vector spaces with property operators, and state reduction by
observation and by epistemic consistency.
"""

from enum import IntEnum

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
