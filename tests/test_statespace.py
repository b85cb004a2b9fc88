import copy
import gc
import itertools
import pickle
from fractions import Fraction

import pytest

from epiq import statespace
from epiq.statespace import (MAX_STATES, AttributeDef, ContradictionError, EpistemicState,
                             ExactState, ObjectRegistry, PropertySpec, StateSpaceSizeError,
                             VoidStateError, all_exact_states, collective_state, combine,
                             full_state, relative_volume, state_slice, volume)


SPIN = AttributeDef(id="spin", kind="binary", values=("up", "down"))


class TestAttributeDef:
    def test_binary_needs_two_values(self):
        with pytest.raises(ValueError, match="binary"):
            AttributeDef(id="b", kind="binary", values=(1, 2, 3))

    def test_circular_needs_three_values(self):
        with pytest.raises(ValueError, match="circular"):
            AttributeDef(id="c", kind="circular", values=(1, 2))

    @pytest.mark.parametrize("kind", ["directed", "ordered"])
    def test_too_few_values_names_the_kind(self, kind):
        with pytest.raises(ValueError) as refused:
            AttributeDef(id="a", kind=kind, values=(1,))
        assert str(refused.value) == f"attribute a: {kind} kind needs >= 2 values"

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

    def test_duplicate_attribute_ids_rejected(self):
        a = AttributeDef(id="a", kind="binary", values=(0, 1))
        with pytest.raises(ValueError) as refused:
            ObjectRegistry.build([a, a], {"o": ["a"]})
        assert str(refused.value) == "duplicate attribute ids"

    def test_object_with_a_duplicate_attribute_rejected(self):
        with pytest.raises(ValueError) as refused:
            ObjectRegistry.build([AttributeDef(id="a", kind="binary", values=(0, 1))],
                                 {"o": ["a", "a"]})
        assert str(refused.value) == "object o: duplicate attribute"

    @pytest.mark.parametrize("attributes, objects, message", [
        ((SPIN,), (("o", ("mass",)),), "object o: unknown attribute mass"),
        ((SPIN,), (("o", ("spin", "spin")),), "object o: duplicate attribute"),
        ((SPIN, SPIN), (("o", ("spin",)),), "duplicate attribute ids"),
    ], ids=["unknown-attribute", "duplicate-attribute", "duplicate-attribute-ids"])
    def test_constructor_refuses_what_build_refuses(self, attributes, objects, message):
        with pytest.raises(ValueError) as refused:
            ObjectRegistry(attributes, objects)
        assert str(refused.value) == message

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

    @pytest.mark.parametrize("member", [0, 1.0, "a", True], ids=["int", "float", "str", "bool"])
    def test_member_that_is_no_state_is_refused(self, registry, member):
        z = ExactState(registry, (3, "down"))
        with pytest.raises(ValueError, match=f"type {type(member).__name__} is not an exact state"):
            EpistemicState(registry, [z, member])

    def test_state_is_its_registry_and_code(self, registry):
        assert ExactState._fields == ("registry", "code")
        z = ExactState(registry, (2, "down"))
        assert repr(z) == f"ExactState(registry={registry!r}, code={z.code})"

    def test_state_refers_to_nothing_but_its_class(self, registry):
        z = ExactState(registry, (2, "down"))
        assert gc.get_referents(z) == [type(z)] and type(z).registry is registry

    def test_state_never_equals_its_code(self, registry):
        z = ExactState(registry, (2, "down"))
        assert z != z.code and z.code != z
        assert not z == z.code and not z.code == z
        assert z not in {z.code} and z.code not in {z}

    def test_code_zero_state_is_true(self, registry):
        z = next(all_exact_states(registry))
        assert z.code == 0 and z and bool(z) is True

    def test_state_refuses_assignment(self, registry):
        z = ExactState(registry, (2, "down"))
        other = ObjectRegistry(registry.attributes, registry.objects)
        for name, value in (("registry", other), ("code", 0), ("extra", 1)):
            with pytest.raises(AttributeError):
                setattr(z, name, value)
        assert z.registry is registry and z.values == (2, "down")

    def test_codes_follow_enumeration_order(self, registry):
        states = list(all_exact_states(registry))
        assert [z.code for z in states] == list(range(len(states)))
        assert [hash(z) for z in states] == list(range(len(states)))

    def test_unhashable_value_is_illegal(self, registry):
        with pytest.raises(ValueError, match="illegal value"):
            ExactState(registry, ([1], "up"))

    def test_unhashable_value_equal_to_a_legal_one_keeps_its_type_error(self, registry):
        """Such a value is not illegal, so the lookup's TypeError comes through."""
        class UnhashableStr(str):
            __hash__ = None

        with pytest.raises(TypeError, match="unhashable type: 'UnhashableStr'"):
            ExactState(registry, (2, UnhashableStr("down")))

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

    @pytest.mark.parametrize("value", [3, "a", None, 3.0])
    def test_membership_of_a_non_state_is_false(self, whole, value):
        assert value not in whole and value not in whole.members

    def test_membership_of_a_member_and_of_a_twin_registrys_state(self, registry, whole):
        up = state_slice(whole, "particle", "spin", "up")
        twin = ObjectRegistry(registry.attributes, registry.objects)
        z, z_twin = ExactState(registry, (2, "up")), ExactState(twin, (2, "up"))
        assert type(z_twin) is not type(z)
        assert z in up and z_twin in up
        assert ExactState(registry, (2, "down")) not in up
        assert ExactState(twin, (2, "down")) not in up

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
        # enumeration of the 2**40 states stays lazy
        head = list(itertools.islice(all_exact_states(big), 5000))
        assert head[-1].code == 4999
        assert head[-1] == ExactState(big, head[-1].values)


    def test_full_state_builds_no_exact_state(self, monkeypatch):
        ten = AttributeDef(id="ten", kind="ordered", values=tuple(range(10)))
        big = ObjectRegistry.build([ten], {f"o{k}": ["ten"] for k in range(6)})
        monkeypatch.setattr(statespace, "ExactState", None)
        whole = full_state(big)
        assert volume(whole) == MAX_STATES
        assert volume(state_slice(whole, "o2", "ten", 7)) == MAX_STATES // 10


class TestMaskPacking:
    def test_repr_of_a_mask_past_the_decimal_digit_limit(self):
        reg = ObjectRegistry.build(
            [AttributeDef(id="x", kind="ordered", values=tuple(range(20_000)))], {"o": ["x"]})
        whole = full_state(reg)
        text = repr(whole)
        assert int(text.split("mask=")[1].split(",")[0], 16) == whole.mask

    @pytest.mark.parametrize("size", [1, 7, 8, 9, 4097])
    def test_codes_to_mask_and_back_at_awkward_sizes(self, size):
        codes = sorted({0, size // 2, size - 1})  # the top code is always set
        expected = sum(1 << c for c in codes)
        assert statespace._mask(codes, size) == expected
        assert list(statespace._codes(expected)) == codes
        assert statespace._mask(iter(codes), size) == expected  # as EvolutionRule.apply passes them


class TestBulkEnumeration:
    @pytest.fixture
    def wide(self):
        attrs = [AttributeDef(id=f"a{n}", kind="ordered", values=tuple(range(n)))
                 for n in (5, 7, 11, 4, 6)]
        return ObjectRegistry.build(attrs, {"o": [a.id for a in attrs[:3]],
                                            "p": [a.id for a in attrs[3:]]})

    def test_codes_cross_batch_boundaries_in_product_order(self, wide):
        states = list(all_exact_states(wide))
        assert len(states) == 5 * 7 * 11 * 4 * 6 > 2 * 4096
        assert [z.code for z in states] == list(range(len(states)))
        for z, values in zip(states, itertools.product(*wide.slot_values())):
            checked = ExactState(wide, values)
            assert z.values == values and z == checked and hash(z) == hash(checked)

    def test_members_across_batch_boundaries(self, wide):
        states = list(all_exact_states(wide))
        picked = states[4096 - 3::997] + [states[-1]]
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

    @staticmethod
    def other_registrys_up(registry):
        other = ObjectRegistry(registry.attributes, (("atom", ("position", "spin")),))
        return state_slice(full_state(other), "atom", "spin", "up")

    def test_combine_across_registries_refused(self, registry, whole):
        up = state_slice(whole, "particle", "spin", "up")
        with pytest.raises(ValueError) as refused:
            combine(up, self.other_registrys_up(registry), "OR")
        assert str(refused.value) == "states are over different registries"

    def test_unknown_connective_refused(self, whole):
        up = state_slice(whole, "particle", "spin", "up")
        with pytest.raises(ValueError) as refused:
            combine(up, up, "XOR")
        assert str(refused.value) == "unknown connective 'XOR'"

    def test_collective_state_of_no_subjects_refused(self):
        with pytest.raises(ValueError) as refused:
            collective_state([])
        assert str(refused.value) == "need at least one subject state"

    def test_collective_state_across_registries_refused(self, registry, whole):
        with pytest.raises(ValueError) as refused:
            collective_state([whole, self.other_registrys_up(registry)])
        assert str(refused.value) == "states are over different registries"


class TestPropertySpec:
    def test_preimages_partition_the_state(self, registry, whole):
        spin = PropertySpec(
            id="spin", labels=(1.0, -1.0),
            valuation=lambda z: 0 if z.value("particle", "spin") == "up" else 1)
        regions = spin.preimages(whole)
        assert list(regions) == [0, 1]
        up, down = regions[0], regions[1]
        assert volume(up) == volume(down) == 4
        assert not (up.members & down.members)
        assert up.members | down.members == whole.members

    def test_partial_valuation(self, registry, whole):
        left = PropertySpec(
            id="leftish", labels=(1.0, 2.0),
            valuation=lambda z: 0 if z.value("particle", "position") == 1 else None)
        # value 1 is never taken, so it has no region
        assert left.preimages(whole) == {0: state_slice(whole, "particle", "position", 1)}

    def test_valuation_called_once_per_member(self, registry, whole):
        calls = []
        spin = PropertySpec(id="spin", labels=(1.0, -1.0),
                            valuation=lambda z: calls.append(z) or z.code % 2)
        spin.preimages(whole)
        assert sorted(z.code for z in calls) == list(range(volume(whole)))

    @pytest.mark.parametrize("result", [2, -1, "0", [0], True, False, 1.0, 0.0],
                             ids=["high", "negative", "str", "list", "true", "false",
                                  "float-one", "float-zero"])
    def test_valuation_outside_the_labels_refused(self, whole, result):
        bad = PropertySpec(id="bad", labels=(1.0, 2.0), valuation=lambda z: result)
        with pytest.raises(ValueError, match="property bad: valuation gave"):
            bad.preimages(whole)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            PropertySpec(id="p", labels=(1.0, 1.0), valuation=lambda z: 0)

    def test_non_finite_labels_rejected(self):
        with pytest.raises(ValueError, match="property p: value labels must be finite"):
            PropertySpec(id="p", labels=("nan", "nan"), valuation=lambda z: 0)
