"""Finite epistemic state spaces.

An exact state assigns one value to every (object, attribute) slot of a
registry.  Knowledge is represented by the set of exact states it does not
exclude; the measure on such sets is plain cardinality, which satisfies the
required axioms (nonnegative, additive over disjoint unions, 1 on singletons)
at the finite scale this library targets.

An exact state is its ``code``: the mixed-radix number whose digit at a slot
is the index of its value there, with place values ``ObjectRegistry._strides``,
so codes run in ``itertools.product`` order.  An epistemic state is the pair
(registry, mask), an integer whose bit ``code`` is set for each member, so AND,
OR, NOT, slices and volumes are integer operations that build no exact state.
A mask converts to and from one numpy flag per code, which is how rules are
applied, slices cut and members found.
"""
from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np


class ContradictionError(ValueError):
    """Raised when combined knowledge excludes every exact state."""


class VoidStateError(ValueError):
    """Raised when an operation is applied to an empty state set."""


class StateSpaceSizeError(ValueError):
    """Raised when a full state space has more than ``MAX_STATES`` members."""


MAX_STATES = 10**6


class AttributeKind(str, Enum):
    ORDERED = "ordered"
    DIRECTED = "directed"
    BINARY = "binary"
    CIRCULAR = "circular"


@dataclass(frozen=True)
class AttributeDef:
    """A named attribute with a finite value set.

    For ordered/directed kinds the tuple order carries the betweenness and
    succession structure; for binary and circular kinds it is arbitrary
    (circular values are understood cyclically).
    """

    id: str
    kind: AttributeKind
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "kind", AttributeKind(self.kind))
        object.__setattr__(self, "values", tuple(self.values))
        try:
            if len(set(self.values)) != len(self.values):
                raise ValueError(f"attribute {self.id}: duplicate values")
        except TypeError:
            raise ValueError(f"attribute {self.id}: values must be hashable") from None
        if self.kind is AttributeKind.BINARY and len(self.values) != 2:
            raise ValueError(f"attribute {self.id}: binary kind needs exactly 2 values")
        if self.kind is AttributeKind.CIRCULAR and len(self.values) < 3:
            raise ValueError(f"attribute {self.id}: circular kind needs >= 3 values")
        if self.kind in (AttributeKind.ORDERED, AttributeKind.DIRECTED) and len(self.values) < 2:
            raise ValueError(f"attribute {self.id}: ordered kind needs >= 2 values")

    def index(self, value) -> int:
        return self.values.index(value)

    def between(self, a, b, c) -> bool:
        """True if b lies between a and c.

        Ordered/directed: positional.  Circular: always true for distinct
        triples (every value lies on some arc between the other two).
        Binary: undefined.
        """
        if len({a, b, c}) != 3:
            raise ValueError("betweenness needs three different values")
        if self.kind is AttributeKind.BINARY:
            raise ValueError(f"attribute {self.id}: betweenness undefined for binary kind")
        if self.kind is AttributeKind.CIRCULAR:
            return True
        ia, ib, ic = self.index(a), self.index(b), self.index(c)
        return min(ia, ic) < ib < max(ia, ic)

    def succeeds(self, a, b) -> bool:
        """True if b succeeds a (directed attributes only)."""
        if self.kind is not AttributeKind.DIRECTED:
            raise ValueError(f"attribute {self.id}: succession defined only for directed kind")
        return self.index(b) > self.index(a)


@dataclass(frozen=True)
class ObjectRegistry:
    """Immutable table of objects and their attributes.

    ``objects`` maps each object id to the tuple of attribute ids it carries;
    the slot list (object, attribute) is the domain of every exact state.
    """

    attributes: tuple
    objects: tuple  # of (object_id, tuple_of_attribute_ids)

    @staticmethod
    def build(attributes: Sequence[AttributeDef], objects: dict) -> "ObjectRegistry":
        attrs = tuple(attributes)
        ids = [a.id for a in attrs]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate attribute ids")
        table = dict(zip(ids, attrs))
        objs = []
        for oid, attr_ids in objects.items():
            attr_ids = tuple(attr_ids)
            if len(set(attr_ids)) != len(attr_ids):
                raise ValueError(f"object {oid}: duplicate attribute")
            for aid in attr_ids:
                if aid not in table:
                    raise ValueError(f"object {oid}: unknown attribute {aid}")
            objs.append((oid, attr_ids))
        return ObjectRegistry(attributes=attrs, objects=tuple(objs))

    @property
    def attribute_table(self) -> dict:
        return {a.id: a for a in self.attributes}

    # Computed once per instance; cached_property writes the instance
    # ``__dict__`` directly, so it works on a frozen dataclass and leaves the
    # structural equality and hash over (attributes, objects) untouched.
    @cached_property
    def _slots(self) -> tuple:
        return tuple((oid, aid) for oid, attr_ids in self.objects for aid in attr_ids)

    @cached_property
    def _slot_values(self) -> tuple:
        table = self.attribute_table
        return tuple(table[aid].values for _, aid in self._slots)

    @cached_property
    def _slot_index(self) -> dict:
        return {slot: i for i, slot in enumerate(self._slots)}

    @cached_property
    def _digits(self) -> tuple:
        """Per slot, the map from each legal value to its digit."""
        return tuple({v: d for d, v in enumerate(values)} for values in self._slot_values)

    @cached_property
    def _size(self) -> int:
        """The number of exact states, refused above ``MAX_STATES``: a mask spans them all."""
        size = math.prod(map(len, self._slot_values))
        if size > MAX_STATES:
            raise StateSpaceSizeError(
                f"full state space has {size} exact states, above the limit of {MAX_STATES}")
        return size

    @cached_property
    def _strides(self) -> tuple:
        """Per slot, the product of the later slots' radices: its digit's place value."""
        radices = [len(legal) for legal in self._slot_values]
        return tuple(math.prod(radices[i + 1:]) for i in range(len(radices)))

    def _value_mask(self, idx: int, digit: int) -> int:
        """The mask of the codes whose digit at slot ``idx`` is ``digit``."""
        stride, radix = self._strides[idx], len(self._slot_values[idx])
        flags = np.zeros((self._size // (radix * stride), radix, stride), bool)
        flags[:, digit] = True
        return _mask(flags)

    def slots(self) -> tuple:
        return self._slots

    def slot_values(self) -> tuple:
        return self._slot_values

    def _position(self, object_id: str, attribute_id: str) -> int:
        try:
            return self._slot_index[(object_id, attribute_id)]
        except KeyError:
            raise ValueError(f"no slot ({object_id}, {attribute_id})") from None


@dataclass(frozen=True, slots=True, init=False)
class ExactState:
    """One complete value assignment over a registry (a point of state space).

    It is held as its ``code``, the state's position in ``all_exact_states``
    order; ``values`` decodes it.  The code is the hash.
    """

    registry: ObjectRegistry
    code: int

    def __init__(self, registry: ObjectRegistry, values: Sequence):
        if len(values) != len(registry._digits):
            raise ValueError("assignment is not total")
        try:
            code = sum(table[v] * stride
                       for table, v, stride in zip(registry._digits, values, registry._strides))
        except (KeyError, TypeError):  # TypeError: an unhashable value
            for (oid, aid), v, legal in zip(registry._slots, values, registry._slot_values):
                if v not in legal:
                    raise ValueError(f"illegal value {v!r} for ({oid}, {aid})") from None
            raise
        object.__setattr__(self, "registry", registry)
        object.__setattr__(self, "code", code)

    def __hash__(self):
        return self.code

    @property
    def values(self) -> tuple:
        return tuple(legal[self.code // stride % len(legal)] for legal, stride
                     in zip(self.registry._slot_values, self.registry._strides))

    def value(self, object_id: str, attribute_id: str):
        idx = self.registry._position(object_id, attribute_id)
        legal = self.registry._slot_values[idx]
        return legal[self.code // self.registry._strides[idx] % len(legal)]


_BATCH = 4096  # exact states built per step of ``_exact_states``


def _exact_states(registry: ObjectRegistry, codes: Iterable[int]) -> Iterator[ExactState]:
    """The exact states of ``codes``, built unchecked a batch at a time."""
    codes = iter(codes)
    while batch := list(itertools.islice(codes, _BATCH)):
        states = list(map(object.__new__, itertools.repeat(ExactState, len(batch))))
        deque(map(ExactState.registry.__set__, states, itertools.repeat(registry)), 0)
        deque(map(ExactState.code.__set__, states, batch), 0)
        yield from states


def _flags(mask: int, size: int) -> np.ndarray:
    """One bool per code below ``size``, lowest first: True for a member."""
    raw = np.frombuffer(mask.to_bytes(-(-size // 8), "little"), np.uint8)
    return np.unpackbits(raw, count=size, bitorder="little").view(bool)


def _mask(flags: np.ndarray) -> int:
    """The mask with bit ``c`` set where ``flags.flat[c]``: the inverse of ``_flags``."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _mask_of(codes: np.ndarray, size: int) -> int:
    """The mask with bit ``c`` set for each code ``c`` of an index array, below ``size``."""
    flags = np.zeros(size, bool)
    flags[codes] = True
    return _mask(flags)


@dataclass(frozen=True, init=False)
class EpistemicState:
    """A nonempty finite set of exact states over one registry.

    The set is ``mask``, with bit ``z.code`` set for each member ``z``.
    ``physical`` marks states meant to model actual incomplete knowledge,
    which always leaves more than one exact state open.  Scratch values
    produced by intersections may legitimately be singletons.
    """

    registry: ObjectRegistry
    mask: int
    physical: bool = False

    def __init__(self, registry: ObjectRegistry, members: Iterable[ExactState],
                 physical: bool = False):
        codes = []
        for z in members:
            if z.registry is not registry and z.registry != registry:
                raise ValueError("member from a different registry")
            codes.append(z.code)
        self._fill(registry, _mask_of(np.array(codes, np.intp), registry._size), physical)

    @classmethod
    def _of(cls, registry: ObjectRegistry, mask: int, physical: bool = False) -> "EpistemicState":
        s = object.__new__(cls)
        s._fill(registry, mask, physical)
        return s

    def _fill(self, registry, mask, physical):
        if not mask:
            raise VoidStateError("void state has no volume meaning")
        if physical and not mask & (mask - 1):
            raise ValueError("a physical state must leave at least two exact states open")
        object.__setattr__(self, "registry", registry)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "physical", physical)

    @cached_property
    def members(self) -> frozenset:
        """The exact states of the mask; only members are built."""
        codes = np.flatnonzero(_flags(self.mask, self.registry._size))
        return frozenset(_exact_states(self.registry, codes.tolist()))

    def __len__(self):
        return self.mask.bit_count()

    def __contains__(self, z: ExactState):
        return z.registry == self.registry and bool(self.mask >> z.code & 1)

    def _meet(self, other: "EpistemicState") -> int:
        """The mask of the common members; 0 across different registries."""
        return self.mask & other.mask if other.registry == self.registry else 0

    def issubset(self, other: "EpistemicState") -> bool:
        return self._meet(other) == self.mask

    def _map(self, owners: np.ndarray, targets: np.ndarray,
             domain: np.ndarray) -> "EpistemicState":
        """The union of the images ``targets[k]`` of the members ``owners[k]``;
        raises for a member outside ``domain``, the codes that have images."""
        size = self.registry._size
        flags = _flags(self.mask, size)
        if (flags & ~domain).any():
            raise ValueError("exact state outside the rule's domain")
        return EpistemicState._of(self.registry, _mask_of(targets[flags[owners]], size))


def all_exact_states(registry: ObjectRegistry) -> Iterator[ExactState]:
    """Enumerate the full state space of a registry; the enumeration index is the code."""
    return _exact_states(registry, range(math.prod(map(len, registry.slot_values()))))


def full_state(registry: ObjectRegistry) -> EpistemicState:
    """Every exact state of a registry, refused above ``MAX_STATES`` members."""
    return EpistemicState._of(registry, (1 << registry._size) - 1, physical=True)


def state_slice(state: EpistemicState, object_id: str, attribute_id: str, value) -> EpistemicState:
    """The members of ``state`` whose (object, attribute) slot has ``value``."""
    reg = state.registry
    idx = reg._position(object_id, attribute_id)
    try:
        mask = state.mask & reg._value_mask(idx, reg._digits[idx][value])
    except (KeyError, TypeError):  # TypeError: an unhashable value
        mask = 0
    if not mask:
        raise VoidStateError(f"no member has {object_id}.{attribute_id} = {value!r}")
    return EpistemicState._of(reg, mask)


def volume(s: EpistemicState) -> int:
    """Cardinality measure; 1 on singletons, additive over disjoint unions."""
    return len(s)


def relative_volume(part: EpistemicState, whole: EpistemicState) -> Fraction:
    if not part.issubset(whole):
        raise ValueError("relative volume requires part ⊆ whole")
    return Fraction(volume(part), volume(whole))


def combine(a: EpistemicState, b: EpistemicState, connective: str) -> EpistemicState:
    """Set-theoretic knowledge combination: AND, OR, or NOT (difference)."""
    if a.registry != b.registry:
        raise ValueError("states are over different registries")
    if connective == "AND":
        mask = a.mask & b.mask
        if not mask:
            raise ContradictionError("contradictory knowledge")
    elif connective == "OR":
        mask = a.mask | b.mask
    elif connective == "NOT":
        mask = a.mask & ~b.mask
        if not mask:
            raise VoidStateError("difference removed every exact state")
    else:
        raise ValueError(f"unknown connective {connective!r}")
    return EpistemicState._of(a.registry, mask)


def collective_state(subject_states: Sequence[EpistemicState]) -> EpistemicState:
    """Intersection of all subjects' states; what everyone together knows."""
    if not subject_states:
        raise ValueError("need at least one subject state")
    registry = subject_states[0].registry
    mask = subject_states[0].mask
    for s in subject_states[1:]:
        if s.registry != registry:
            raise ValueError("states are over different registries")
        mask &= s.mask
    if not mask:
        raise ContradictionError("subjects' knowledge contradicts")
    return EpistemicState._of(registry, mask)


def knowledge_dimension(distinct_attributes: Sequence[int]) -> int:
    """Product over objects of the number of distinct attributes each carries."""
    if not distinct_attributes:
        raise ValueError("no objects: knowledge dimension undefined")
    dim = 1
    for n in distinct_attributes:
        if n < 1:
            raise ValueError("each object needs at least one distinct attribute")
        dim *= n
    return dim


@dataclass(frozen=True)
class PropertySpec:
    """A property: a partial valuation of exact states into labelled values.

    ``valuation`` maps an exact state to a value index or None (undefined).
    Disjointness of the value preimages is automatic for a function; label
    distinctness is enforced here.
    """

    id: str
    labels: tuple
    valuation: Callable = field(compare=False)

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(float(x) for x in self.labels))
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"property {self.id}: value labels must be distinct")

    def preimage(self, j: int, within: EpistemicState) -> Optional[EpistemicState]:
        """The members of ``within`` where the property has value index j."""
        if not 0 <= j < len(self.labels):
            raise ValueError(f"property {self.id}: no value index {j}")
        members = [z for z in within.members if self.valuation(z) == j]
        return EpistemicState(within.registry, members) if members else None

    def defined_region(self, within: EpistemicState) -> Optional[EpistemicState]:
        members = [z for z in within.members if self.valuation(z) is not None]
        return EpistemicState(within.registry, members) if members else None
