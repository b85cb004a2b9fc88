"""Evolution of epistemic states and the alternatives machinery.

The evolution rule is stored per exact state; the action on a set is the
union of member images, so set-theoretic linearity holds by construction.
A rule turns its images into a table once per registry (for each image code,
one owner's code; an exact state is an int, its code, so the table indexes by
the states themselves), and applying it gathers the new mask's binary digits
from the state's, in plain Python.
A rule that maps the registry's states one-to-one onto themselves keeps every
relative volume, so ``check_invariance`` decides it from the table alone; a
rule with set-valued images, merged states or a partial domain is stepped.
The contracts the rule must honour (a state never overlaps its own future,
overlaps are preserved both ways) are checked at application time on the
states a scenario actually exercises.
"""
from __future__ import annotations

from array import array
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import reduce
from itertools import compress
from operator import itemgetter, or_

from . import Knowability, borel_trial  # re-exported: epiq.evolution.<name>
from . import Record, _set
from .statespace import (_DIGIT_FLAGS, EpistemicState, ObjectRegistry, PropertySpec,
                         _in_registry, _mask, relative_volume)


class EvolutionContractError(ValueError):
    """Raised when a rule violates a checked evolution contract."""


class EvolutionRule(Record):
    """Equality and hash are identity: the image map is a mutable mapping.
    Each registry's table is built on the first ``apply`` or
    ``check_invariance`` over it, so later changes to ``images`` do not reach it."""

    __slots__ = ("images", "_tables")  # images: ExactState -> frozenset of ExactState
    _fields = ("images",)  # _tables holds the per-registry tables
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, images: Mapping):
        if not all(images.values()):
            raise ValueError("every exact state needs a nonempty image")
        _set(self, "images", images)
        _set(self, "_tables", {})

    def __reduce__(self):
        return EvolutionRule, (self.images,)

    def _table(self, registry: ObjectRegistry) -> tuple:
        """What ``apply`` reads over ``registry``: ``domain``, the codes with
        images; ``first``, a gather of one owner code per image code (``size``
        for none); ``rest``, of the other owners, whose images are ``rest_targets``."""
        table = self._tables.get(registry)
        if table is None:
            size = registry._size
            first = [size] * size
            owners, rest, rest_targets = [], [], []
            state_type = registry._state_type  # a state is its code
            for z, img in self.images.items():
                if type(z) is state_type or _in_registry(z, registry):
                    owners.append(z)
                    try:
                        for w in img:
                            if type(w) is not state_type and not _in_registry(w, registry):
                                raise ValueError("image from a different registry")
                            if first[w] == size:
                                first[w] = z
                            else:
                                rest.append(z)
                                rest_targets.append(w)
                    except TypeError:  # only iterating an image that is no collection raises it
                        raise ValueError(
                            f"image of state {z.values} is not a collection of states") from None
            # owners are distinct codes, so as many owners as codes are all codes
            domain = (1 << size) - 1 if len(owners) == size else _mask(owners, size)
            # the gather holds plain ints, copied from the owners by the array in gather order
            table = self._tables[registry] = (domain, itemgetter(*array("q", first)),
                                              itemgetter(*rest) if rest else None, rest_targets)
        return table

    def apply(self, s: EpistemicState) -> EpistemicState:
        """The union of the member images, over the same registry, read from
        the mask's binary digits lowest code first, with a "0" at ``size`` for
        "no owner"; raises for a member outside the rule's domain."""
        domain, first, rest, rest_targets = self._table(s.registry)
        if s.mask & ~domain:
            raise ValueError("exact state outside the rule's domain")
        size = s.registry._size
        digits = bin(s.mask)[:1:-1].ljust(size + 1, "0")
        mask = int("".join(first(digits))[::-1], 2)
        if rest is not None:
            hits = "".join(rest(digits)).encode().translate(_DIGIT_FLAGS)
            mask |= _mask(compress(rest_targets, hits), size)
        return EpistemicState._of(s.registry, mask)


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


class FutureAlternative(Record):
    """The part of a parent object state that leads to one property value."""

    __slots__ = ("region", "property_id", "value_index", "level")

    def __init__(self, region: EpistemicState, property_id: str, value_index: int, level: int):
        _set(self, "region", region)
        _set(self, "property_id", property_id)
        _set(self, "value_index", value_index)
        _set(self, "level", Knowability(level))


class CompleteAlternativeSet(Record):
    __slots__ = ("parent", "alternatives")

    def __init__(self, parent: EpistemicState, alternatives: Sequence[FutureAlternative]):
        alts = tuple(alternatives)
        if len(alts) < 2:
            raise ValueError("no genuine alternatives")
        covered = 0
        for alt in alts:
            if not alt.region.issubset(parent):
                raise ValueError("alternative region outside parent state")
            if covered & alt.region.mask:
                raise ValueError("alternatives not mutually exclusive")
            covered |= alt.region.mask
        if covered != parent.mask:
            raise ValueError("alternative set incomplete")
        _set(self, "parent", parent)
        _set(self, "alternatives", alts)


def make_alternatives(parent: EpistemicState, p: PropertySpec,
                      future_preimages: Mapping[int, EpistemicState],
                      levels: Mapping[int, Knowability]) -> CompleteAlternativeSet:
    """Cut the parent state along caller-supplied future value regions; each
    value index with a nonempty cut needs a level."""
    alts = []
    for j, region in sorted(future_preimages.items()):
        if cut := parent._meet(region):
            if j not in levels:
                raise ValueError(f"no knowability level for value index {j}")
            alts.append(FutureAlternative(EpistemicState._of(parent.registry, cut), p.id, j,
                                          levels[j]))
    return CompleteAlternativeSet(parent, alts)


def probability(alt: FutureAlternative, parent: EpistemicState) -> Fraction:
    """Relative volume of a decided alternative within its parent."""
    if alt.level is not Knowability.DECIDED:
        raise ValueError("probability undefined at this knowability level")
    return relative_volume(alt.region, parent)


class InvarianceReport(Record):
    __slots__ = ("steps", "ratios")  # ratios: the alternatives' relative volumes at every step
    # not a field: check_invariance raises on any deviation; the state-space
    # benchmark reads it as the deviation it checks is zero
    max_deviation = Fraction(0)

    def __init__(self, steps: int, ratios: tuple):
        _set(self, "steps", steps)
        _set(self, "ratios", ratios)


def check_invariance(parent: EpistemicState, altset: CompleteAlternativeSet,
                     rule: EvolutionRule, steps: int) -> InvarianceReport:
    """Verify relative volumes stay fixed while parent and alternatives evolve.

    A rule whose table gives every state of the registry exactly one image,
    shared with no other state, is a permutation: it keeps every volume and
    maps disjoint regions to disjoint regions (Liouville's theorem, in finite
    form), so it is decided from the table without being applied.  Any other
    rule is stepped: the regions partition the parent, so the parent's image
    is the union of theirs, and the rule is applied once per region and step,
    never to the parent itself.
    """
    if type(steps) is not int or steps < 1:  # a bool is no step count
        raise ValueError("steps must be positive")
    if parent != altset.parent:
        raise ValueError("parent is not the alternative set's parent")
    initial = tuple(relative_volume(a.region, parent) for a in altset.alternatives)
    # every code owns a nonempty image and no image code has a second owner
    domain, _, rest, _ = rule._table(parent.registry)
    if rest is None and domain == (1 << parent.registry._size) - 1:
        return InvarianceReport(steps, initial)
    cur_regions = [a.region for a in altset.alternatives]
    for _ in range(steps):
        cur_regions = [rule.apply(r) for r in cur_regions]
        total = reduce(or_, (r.mask for r in cur_regions)).bit_count()
        if tuple(Fraction(len(r), total) for r in cur_regions) != initial:
            raise EvolutionContractError("evolution rule breaks volume invariance")
    return InvarianceReport(steps=steps, ratios=initial)
