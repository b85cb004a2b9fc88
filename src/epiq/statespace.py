"""Finite epistemic state spaces.

An exact state assigns one value to every (object, attribute) slot of a
registry.  Knowledge is represented by the set of exact states it does not
exclude; the measure on such sets is plain cardinality, which satisfies the
required axioms (nonnegative, additive over disjoint unions, 1 on singletons)
at the finite scale this library targets.

An exact state is its ``code``: the mixed-radix number whose digit at a slot
is the index of its value there, with place values ``ObjectRegistry._strides``,
so codes run in ``itertools.product`` order.  It is held as an int of its
registry's own ``ExactState`` subclass: one object that refers to nothing but
its class, built in C and hashed by ``int``.  An epistemic state is the pair
(registry, mask), an integer whose bit ``code`` is set for each member, so AND,
OR, NOT, slices and volumes are integer operations that build no exact state.
Members are read from the mask's binary digits, so the module needs only the
standard library.
"""
from __future__ import annotations

import itertools
import math
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from enum import Enum
from fractions import Fraction
from functools import reduce
from operator import attrgetter

from . import Record, _record, _set


class ContradictionError(ValueError):
    """Raised when combined knowledge excludes every exact state."""


class VoidStateError(ValueError):
    """Raised when an operation is applied to an empty state set."""


class StateSpaceSizeError(ValueError):
    """Raised when a full state space has more than ``MAX_STATES`` members."""


MAX_STATES = 10**6


class AttributeKind(str, Enum):
    """An attribute's kind, which fixes how many values it may have.  Callers
    may name a kind by its string, as the state-space benchmark does."""

    ORDERED = "ordered"
    DIRECTED = "directed"
    BINARY = "binary"
    CIRCULAR = "circular"


class AttributeDef(Record):
    """A named attribute with a finite value set: exactly 2 values for the
    binary kind, at least 3 for circular and at least 2 for ordered and
    directed.  The tuple order numbers the values (see ``ExactState``)."""

    __slots__ = ("id", "kind", "values")

    def __init__(self, id: str, kind: AttributeKind | str, values: Iterable):
        kind, values = AttributeKind(kind), tuple(values)
        try:
            if len(set(values)) != len(values):
                raise ValueError(f"attribute {id}: duplicate values")
        except TypeError:
            raise ValueError(f"attribute {id}: values must be hashable") from None
        if kind is AttributeKind.BINARY and len(values) != 2:
            raise ValueError(f"attribute {id}: binary kind needs exactly 2 values")
        if kind is AttributeKind.CIRCULAR and len(values) < 3:
            raise ValueError(f"attribute {id}: circular kind needs >= 3 values")
        if kind in (AttributeKind.ORDERED, AttributeKind.DIRECTED) and len(values) < 2:
            raise ValueError(f"attribute {id}: {kind.value} kind needs >= 2 values")
        _set(self, "id", id)
        _set(self, "kind", kind)
        _set(self, "values", values)


class ObjectRegistry(Record):
    """Immutable table of objects and their attributes.

    ``objects`` pairs each object id with the tuple of attribute ids it carries;
    the slot list (object, attribute) is the domain of every exact state.
    """

    __slots__ = ("attributes", "objects", "_slots", "_slot_values", "_slot_index",
                 "_digits", "_strides", "_count", "_state_type")
    _fields = ("attributes", "objects")  # the other slots are derived from these

    def __init__(self, attributes: tuple, objects: tuple):
        table = {a.id: a for a in attributes}
        if len(table) != len(attributes):
            raise ValueError("duplicate attribute ids")
        for oid, attr_ids in objects:
            if len(set(attr_ids)) != len(attr_ids):
                raise ValueError(f"object {oid}: duplicate attribute")
            for aid in attr_ids:
                if aid not in table:
                    raise ValueError(f"object {oid}: unknown attribute {aid}")
        _set(self, "attributes", attributes)
        _set(self, "objects", objects)
        slots = tuple((oid, aid) for oid, attr_ids in objects for aid in attr_ids)
        slot_values = tuple(table[aid].values for _, aid in slots)
        radices = [len(legal) for legal in slot_values]
        _set(self, "_slots", slots)
        _set(self, "_slot_values", slot_values)
        _set(self, "_slot_index", {slot: i for i, slot in enumerate(slots)})
        # per slot, the map from each legal value to its digit
        _set(self, "_digits", tuple({v: d for d, v in enumerate(legal)} for legal in slot_values))
        # per slot, the product of the later slots' radices: its digit's place value
        _set(self, "_strides", tuple(math.prod(radices[i + 1:]) for i in range(len(radices))))
        _set(self, "_count", math.prod(radices))  # the number of exact states
        # the registry's own ExactState subclass: its instances are its states
        _set(self, "_state_type",
             type("ExactState", (ExactState,), {"__slots__": (), "registry": self}))

    def __reduce__(self):
        return ObjectRegistry, (self.attributes, self.objects)

    @staticmethod
    def build(attributes: Sequence[AttributeDef], objects: dict) -> ObjectRegistry:
        return ObjectRegistry(tuple(attributes),
                              tuple((oid, tuple(attr_ids)) for oid, attr_ids in objects.items()))

    @property
    def _size(self) -> int:
        """The number of exact states, refused above ``MAX_STATES``: a mask spans them all."""
        if self._count > MAX_STATES:
            raise StateSpaceSizeError(
                f"full state space has {self._count} exact states, above the limit of {MAX_STATES}")
        return self._count

    def _value_mask(self, idx: int, digit: int) -> int:
        """The mask of the codes whose digit at slot ``idx`` is ``digit``: one
        period of ``radix * stride`` codes, doubled until it spans them all."""
        stride, size = self._strides[idx], self._size
        mask, width = ((1 << stride) - 1) << (digit * stride), stride * len(self._slot_values[idx])
        while width < size:
            mask |= mask << width
            width *= 2
        return mask & ((1 << size) - 1)

    def slots(self) -> tuple:
        return self._slots

    def slot_values(self) -> tuple:
        return self._slot_values

    def _position(self, object_id: str, attribute_id: str) -> int:
        try:
            return self._slot_index[(object_id, attribute_id)]
        except KeyError:
            raise ValueError(f"no slot ({object_id}, {attribute_id})") from None


class ExactState(int):
    """One complete value assignment over a registry (a point of state space).

    A state is its ``code``, its position in ``all_exact_states`` order, held
    as an int of its registry's ``_state_type``, a subclass whose class
    attribute ``registry`` names the registry; ``values`` decodes the code.
    The code is the hash.  States are equal when their registries are equal
    and their codes are; a state never equals a plain int, and every state is
    true, the one of code 0 too.  Order and arithmetic are those of the codes.
    A float, Fraction or complex on the left compares by the code, though
    (``3.0 == z``, not ``z == 3.0``), as those types take any int subclass as
    a number, so a float key finds a state in a dict.
    """

    __slots__ = ()
    _fields = ("registry", "code")
    registry: ObjectRegistry  # a class attribute of each registry's subclass

    def __new__(cls, registry: ObjectRegistry, values: Sequence):
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
        return int.__new__(registry._state_type, code)

    code = property(int.__int__)
    __hash__ = int.__hash__
    __repr__ = Record.__repr__

    def __eq__(self, other):
        if type(other) is type(self):
            return int.__eq__(self, other)
        # False, not NotImplemented, for a plain int: int.__eq__ would compare the codes
        return (isinstance(other, ExactState) and int.__eq__(self, other)
                and other.registry == self.registry)

    def __ne__(self, other):
        return not self.__eq__(other)

    def __bool__(self):
        return True

    def __reduce__(self):
        return _state, (self.registry, int(self))

    @property
    def values(self) -> tuple:
        return tuple(legal[self // stride % len(legal)] for legal, stride
                     in zip(self.registry._slot_values, self.registry._strides))

    def value(self, object_id: str, attribute_id: str):
        idx = self.registry._position(object_id, attribute_id)
        legal = self.registry._slot_values[idx]
        return legal[self // self.registry._strides[idx] % len(legal)]


def _state(registry: ObjectRegistry, code: int) -> ExactState:
    """The exact state of ``code`` over ``registry``, unchecked; pickle rebuilds states with it."""
    return int.__new__(registry._state_type, code)


def _in_registry(z, registry: ObjectRegistry) -> bool:
    """Whether ``z``, not of ``registry``'s own state type, is a state of an
    equal registry; refuses a value that is no exact state."""
    if not isinstance(z, ExactState):
        raise ValueError(f"{z!r} is not an exact state")
    return z.registry == registry


def _exact_states(registry: ObjectRegistry, codes: Iterable[int]) -> Iterator[ExactState]:
    """The exact states of ``codes``, built unchecked."""
    return map(int.__new__, itertools.repeat(registry._state_type), codes)


# the binary digits "0" and "1" as the bytes 0 and 1, which itertools.compress reads
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _codes(mask: int) -> Iterator[int]:
    """The codes of the set bits of ``mask``, lowest first."""
    return itertools.compress(itertools.count(), bin(mask)[:1:-1].encode().translate(_DIGIT_FLAGS))


def _mask(codes: Iterable[int], size: int) -> int:
    """The mask with bit ``c`` set for each code ``c`` below ``size``: the inverse of ``_codes``."""
    digits = bytearray(b"0") * size
    deque(map(digits.__setitem__, codes, itertools.repeat(ord("1"))), 0)
    return int(digits[::-1], 2)


class EpistemicState(Record):
    """A nonempty finite set of exact states over one registry.

    The set is ``mask``, with bit ``z`` set for each member ``z``.
    ``physical`` marks states meant to model actual incomplete knowledge,
    which always leaves more than one exact state open.  Scratch values
    produced by intersections may legitimately be singletons.
    """

    __slots__ = ("registry", "mask", "physical")

    def __new__(cls, registry: ObjectRegistry, members: Iterable[ExactState],
                physical: bool = False):
        members = list(members)  # the states are their codes
        for state_type in set(map(type, members)) - {registry._state_type}:
            if not issubclass(state_type, ExactState):
                raise ValueError(f"member of type {state_type.__name__} is not an exact state")
            if state_type.registry != registry:
                raise ValueError("member from a different registry")
        return cls._of(registry, _mask(members, registry._size), physical)

    @classmethod
    def _of(cls, registry: ObjectRegistry, mask: int, physical: bool = False) -> EpistemicState:
        if not mask:
            raise VoidStateError("void state has no volume meaning")
        if physical and not mask & (mask - 1):
            raise ValueError("a physical state must leave at least two exact states open")
        return _record(cls, (registry, mask, physical))

    @property
    def members(self) -> frozenset:
        """The exact states of the mask; only members are built."""
        return frozenset(_exact_states(self.registry, _codes(self.mask)))

    def __repr__(self):
        # the mask in hex: int-to-decimal refuses more than 4300 digits
        return (f"EpistemicState(registry={self.registry!r}, mask={self.mask:#x}, "
                f"physical={self.physical!r})")

    def __len__(self):
        return self.mask.bit_count()

    def __contains__(self, z) -> bool:
        return (isinstance(z, ExactState)
                and (type(z) is self.registry._state_type or z.registry == self.registry)
                and bool(self.mask >> z & 1))

    def _meet(self, other: EpistemicState) -> int:
        """The mask of the common members; 0 across different registries."""
        return self.mask & other.mask if other.registry == self.registry else 0

    def issubset(self, other: EpistemicState) -> bool:
        return self._meet(other) == self.mask


def all_exact_states(registry: ObjectRegistry) -> Iterator[ExactState]:
    """Enumerate the full state space of a registry; the enumeration index is the code."""
    return _exact_states(registry, range(registry._count))


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
    """Intersection of all subjects' states: the abstract's collective knowledge."""
    if not subject_states:
        raise ValueError("need at least one subject state")
    return reduce(lambda a, b: combine(a, b, "AND"), subject_states, subject_states[0])


class PropertySpec(Record):
    """A property: a partial valuation of exact states into labelled values.

    ``valuation`` maps an exact state to a value index or None (undefined).
    Disjointness of the value preimages is automatic for a function; finite,
    distinct labels are enforced here.
    """

    __slots__ = ("id", "labels", "valuation")
    _key = property(attrgetter("id", "labels"))  # the valuation is not compared

    def __init__(self, id: str, labels: Iterable, valuation: Callable):
        labels = tuple(float(x) for x in labels)
        if len(set(labels)) != len(labels):
            raise ValueError(f"property {id}: value labels must be distinct")
        if not all(map(math.isfinite, labels)):
            raise ValueError(f"property {id}: value labels must be finite")
        _set(self, "id", id)
        _set(self, "labels", labels)
        _set(self, "valuation", valuation)

    def preimages(self, within: EpistemicState) -> dict:
        """``{j: the members of within where the property has value index j}``
        for each j that some member has, calling the valuation once per member
        and refusing a result that is neither None nor a value index of type
        int (so a bool or a float is refused)."""
        codes = {j: [] for j in (*range(len(self.labels)), None)}
        for z in _exact_states(within.registry, _codes(within.mask)):
            j = self.valuation(z)
            members = codes.get(j) if j is None or type(j) is int else None
            if members is None:
                raise ValueError(f"property {self.id}: valuation gave {j!r}, not a value index")
            members.append(z)
        del codes[None]  # the members where the property is undefined
        size = within.registry._size
        return {j: EpistemicState._of(within.registry, _mask(c, size))
                for j, c in codes.items() if c}
