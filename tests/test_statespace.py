import copy
import dataclasses
import itertools
import pickle
from fractions import Fraction

import numpy as np
import pytest

from epiq import statespace
from epiq.statespace import (MAX_STATES, AttributeDef, ContradictionError, EpistemicState,
                             ExactState, ObjectRegistry, PropertySpec, StateSpaceSizeError,
                             VoidStateError, all_exact_states, collective_state, combine,
                             full_state, relative_volume, state_slice, volume)


class TestAttributeDef:
    def test_binary_needs_two_values(self):
        with pytest.raises(ValueError, match="binary"):
            AttributeDef(id="b", kind="binary", values=(1, 2, 3))

    def test_circular_needs_three_values(self):
        with pytest.raises(ValueError, match="circular"):
            AttributeDef(id="c", kind="circular", values=(1, 2))

    def test_duplicate_values_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            AttributeDef(id="o", kind="ordered", values=(1, 1, 2))

    def test_unhashable_values_rejected(self):
        with pytest.raises(ValueError, match="attribute a: values must be hashable"):
            AttributeDef(id="a", kind="ordered", values=([1], [2]))


class TestRegistryAndStates:
    def test_slots_enumeration(self, registry):
        assert registry.slots() == (("particle", "position"), ("particle", "spin"))

    def test_unknown_attribute_rejected(self):
        with pytest.raises(ValueError, match="unknown attribute"):
            ObjectRegistry.build(
                [AttributeDef(id="a", kind="binary", values=(0, 1))],
                {"o": ["a", "b"]})

    def test_exact_state_totality(self, registry):
        with pytest.raises(ValueError, match="total"):
            ExactState(registry, (1,))

    def test_exact_state_legality(self, registry):
        with pytest.raises(ValueError, match="illegal value"):
            ExactState(registry, (9, "up"))

    def test_state_space_size(self, registry):
        assert len(list(all_exact_states(registry))) == 8

    def test_void_state_rejected(self, registry):
        with pytest.raises(VoidStateError):
            EpistemicState(registry, frozenset())
        with pytest.raises(VoidStateError):  # not an IndexError from a float index array
            EpistemicState(registry, [])

    def test_physical_state_needs_two_members(self, registry):
        z = next(all_exact_states(registry))
        with pytest.raises(ValueError, match="at least two"):
            EpistemicState(registry, frozenset([z]), physical=True)


class TestExactStateCode:
    def test_equal_registries_give_equal_states(self, registry):
        r1, r2 = registry, ObjectRegistry(registry.attributes, registry.objects)
        assert r1 is not r2 and r1 == r2
        z1, z2 = ExactState(r1, (3, "down")), ExactState(r2, (3, "down"))
        assert z1 == z2 and hash(z1) == hash(z2)
        assert frozenset(all_exact_states(r1)) == frozenset(all_exact_states(r2))
        assert EpistemicState(r1, frozenset([z2])).members == {z1}

    def test_registries_differing_in_objects_give_unequal_states(self, registry):
        r1 = registry
        r2 = ObjectRegistry(registry.attributes, (("atom", ("position", "spin")),))
        assert r1 != r2
        assert ExactState(r1, (3, "down")) != ExactState(r2, (3, "down"))
        with pytest.raises(ValueError, match="different registry"):
            EpistemicState(r1, frozenset([ExactState(r2, (3, "down"))]))

    def test_state_is_its_registry_and_code(self, registry):
        assert [f.name for f in dataclasses.fields(ExactState)] == ["registry", "code"]
        z = ExactState(registry, (2, "down"))
        assert repr(z) == f"ExactState(registry={registry!r}, code={z.code})"

    def test_codes_follow_enumeration_order(self, registry):
        states = list(all_exact_states(registry))
        assert [z.code for z in states] == list(range(len(states)))
        assert [hash(z) for z in states] == list(range(len(states)))

    def test_unhashable_value_is_illegal(self, registry):
        with pytest.raises(ValueError, match="illegal value"):
            ExactState(registry, ([1], "up"))

    @pytest.mark.parametrize("value", [9, "sideways", [1]], ids=["illegal", "other", "unhashable"])
    def test_slice_on_an_impossible_value_is_void(self, whole, value):
        with pytest.raises(VoidStateError, match="no member has particle.position"):
            state_slice(whole, "particle", "position", value)

    def test_state_from_members_equals_state_from_mask(self, registry, whole):
        up = state_slice(whole, "particle", "spin", "up")
        rebuilt = EpistemicState(registry, up.members)
        assert rebuilt == up and hash(rebuilt) == hash(up) and rebuilt.mask == up.mask
        assert EpistemicState(registry, whole.members, physical=True) == whole
        assert up in {rebuilt}

    def test_unknown_slot_rejected(self, registry, whole):
        z = next(all_exact_states(registry))
        with pytest.raises(ValueError, match="no slot"):
            z.value("particle", "mass")
        with pytest.raises(ValueError, match="no slot"):
            state_slice(whole, "ghost", "spin", "up")

    @pytest.mark.parametrize("clone", [lambda z: pickle.loads(pickle.dumps(z)),
                                       copy.deepcopy], ids=["pickle", "deepcopy"])
    def test_state_survives_copying(self, registry, clone):
        z = ExactState(registry, (2, "down"))
        w = clone(z)
        assert w == z and hash(w) == hash(z) and w.code == z.code
        assert w.value("particle", "spin") == "down"

    def test_full_state_refuses_oversized_space(self):
        wide = AttributeDef(id="wide", kind="ordered", values=tuple(range(2**10)))
        big = ObjectRegistry.build([wide], {f"o{k}": ["wide"] for k in range(4)})
        with pytest.raises(StateSpaceSizeError, match=str(2**40)):
            full_state(big)
        first = next(all_exact_states(big))
        assert first.code == 0 and first.values == (0, 0, 0, 0)
        # enumeration stays lazy past the first batch
        head = list(itertools.islice(all_exact_states(big), statespace._BATCH + 1))
        assert head[-1].code == statespace._BATCH
        assert head[-1] == ExactState(big, head[-1].values)


    def test_full_state_builds_no_exact_state(self, monkeypatch):
        ten = AttributeDef(id="ten", kind="ordered", values=tuple(range(10)))
        big = ObjectRegistry.build([ten], {f"o{k}": ["ten"] for k in range(6)})
        monkeypatch.setattr(statespace, "ExactState", None)
        whole = full_state(big)
        assert volume(whole) == MAX_STATES
        assert volume(state_slice(whole, "o2", "ten", 7)) == MAX_STATES // 10


class TestMaskPacking:
    @pytest.mark.parametrize("size", [1, 7, 8, 9, 4097])
    def test_codes_to_mask_and_back_at_awkward_sizes(self, size):
        codes = sorted({0, size // 2, size - 1})  # the top code is always set
        expected = sum(1 << c for c in codes)
        assert statespace._mask_of(np.array(codes, np.intp), size) == expected
        flags = statespace._flags(expected, size)
        assert flags.dtype == bool and flags.shape == (size,)
        assert sum(1 << int(c) for c in np.flatnonzero(flags)) == expected


class TestBulkEnumeration:
    @pytest.fixture
    def wide(self):
        attrs = [AttributeDef(id=f"a{n}", kind="ordered", values=tuple(range(n)))
                 for n in (5, 7, 11, 4, 6)]
        return ObjectRegistry.build(attrs, {"o": [a.id for a in attrs[:3]],
                                            "p": [a.id for a in attrs[3:]]})

    def test_codes_cross_batch_boundaries_in_product_order(self, wide):
        states = list(all_exact_states(wide))
        assert len(states) == 5 * 7 * 11 * 4 * 6 > 2 * statespace._BATCH
        assert [z.code for z in states] == list(range(len(states)))
        for z, values in zip(states, itertools.product(*wide.slot_values())):
            checked = ExactState(wide, values)
            assert z.values == values and z == checked and hash(z) == hash(checked)

    def test_members_across_batch_boundaries(self, wide):
        states = list(all_exact_states(wide))
        picked = states[statespace._BATCH - 3::997] + [states[-1]]
        s = EpistemicState(wide, picked)
        assert s.members == frozenset(picked)
        assert {z.code for z in s.members} == {z.code for z in picked}
        assert full_state(wide).members == frozenset(states)


class TestVolume:
    def test_singleton_volume_is_one(self, registry):
        z = next(all_exact_states(registry))
        assert volume(EpistemicState(registry, frozenset([z]))) == 1

    def test_additivity_over_disjoint_union(self, registry, whole):
        up = state_slice(whole, "particle", "spin", "up")
        down = state_slice(whole, "particle", "spin", "down")
        assert volume(up) + volume(down) == volume(whole)

    def test_relative_volume_exact_fraction(self, whole):
        part = state_slice(whole, "particle", "position", 1)
        assert relative_volume(part, whole) == Fraction(1, 4)

    def test_relative_volume_requires_subset(self, whole):
        up = state_slice(whole, "particle", "spin", "up")
        down = state_slice(whole, "particle", "spin", "down")
        with pytest.raises(ValueError, match="part"):
            relative_volume(up, down)


class TestCombination:
    def test_and_intersects(self, whole):
        up = state_slice(whole, "particle", "spin", "up")
        left = state_slice(whole, "particle", "position", 1)
        both = combine(up, left, "AND")
        assert volume(both) == 1

    def test_and_contradiction(self, whole):
        up = state_slice(whole, "particle", "spin", "up")
        down = state_slice(whole, "particle", "spin", "down")
        with pytest.raises(ContradictionError):
            combine(up, down, "AND")

    def test_or_unions(self, whole):
        up = state_slice(whole, "particle", "spin", "up")
        down = state_slice(whole, "particle", "spin", "down")
        assert combine(up, down, "OR").members == whole.members

    def test_not_difference_void(self, whole):
        up = state_slice(whole, "particle", "spin", "up")
        with pytest.raises(VoidStateError):
            combine(up, up, "NOT")

    def test_collective_state_intersection(self, whole):
        up = state_slice(whole, "particle", "spin", "up")
        left = state_slice(whole, "particle", "position", 1)
        c = collective_state([whole, up, left])
        assert volume(c) == 1

    def test_collective_contradiction(self, whole):
        up = state_slice(whole, "particle", "spin", "up")
        down = state_slice(whole, "particle", "spin", "down")
        with pytest.raises(ContradictionError, match="contradict"):
            collective_state([up, down])


class TestPropertySpec:
    def test_preimages_partition_the_state(self, registry, whole):
        spin = PropertySpec(
            id="spin", labels=(1.0, -1.0),
            valuation=lambda z: 0 if z.value("particle", "spin") == "up" else 1)
        up = spin.preimage(0, whole)
        down = spin.preimage(1, whole)
        assert volume(up) == volume(down) == 4
        assert not (up.members & down.members)
        assert up.members | down.members == whole.members

    def test_partial_valuation(self, registry, whole):
        left = PropertySpec(
            id="leftish", labels=(1.0, 2.0),
            valuation=lambda z: 0 if z.value("particle", "position") == 1 else None)
        assert left.preimage(0, whole) == state_slice(whole, "particle", "position", 1)
        assert left.preimage(1, whole) is None

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            PropertySpec(id="p", labels=(1.0, 1.0), valuation=lambda z: 0)
