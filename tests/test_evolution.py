import itertools
from fractions import Fraction

import numpy as np
import pytest

from epiq.evolution import (CompleteAlternativeSet, EvolutionContractError, EvolutionRule,
                            FutureAlternative, Knowability, borel_trial, check_invariance,
                            evolve, make_alternatives, probability)
from epiq.statespace import (AttributeDef, EpistemicState, ObjectRegistry, PropertySpec,
                             all_exact_states, full_state, state_slice)


def shift_rule(registry, step=1):
    """Cyclic position shift; spin untouched. Volume preserving and non-returning
    for states that do not wrap onto themselves."""
    states = list(all_exact_states(registry))
    table = {tuple(z.values): z for z in states}
    images = {}
    for z in states:
        pos, spin = z.values
        images[z] = frozenset([table[(pos % 4 + 1, spin)]])
    return EvolutionRule(images=images)


class TestEvolve:
    def test_singleton_images_union(self, registry, whole):
        rule = shift_rule(registry)
        left = state_slice(whole, "particle", "position", 1)
        out = evolve(left, rule)
        assert {z.value("particle", "position") for z in out.members} == {2}

    def test_linearity_over_union(self, registry, whole):
        rule = shift_rule(registry)
        a = state_slice(whole, "particle", "position", 1)
        b = state_slice(whole, "particle", "position", 3)
        ab = EpistemicState(registry, a.members | b.members)
        assert evolve(ab, rule).members == evolve(a, rule).members | evolve(b, rule).members

    def test_physical_state_must_move(self, registry, whole):
        rule = shift_rule(registry)
        with pytest.raises(EvolutionContractError, match="own future"):
            evolve(whole, rule)  # the full space maps onto itself

    def test_overlap_creation_rejected(self, registry, whole):
        states = list(all_exact_states(registry))
        table = {tuple(z.values): z for z in states}
        # both cells funnel into position 3: disjoint states start overlapping
        images = {z: frozenset([table[(3, z.values[1])]]) for z in states}
        rule = EvolutionRule(images=images)
        a = state_slice(whole, "particle", "position", 1)
        b = state_slice(whole, "particle", "position", 2)
        with pytest.raises(EvolutionContractError, match="not subjectively invertible"):
            evolve(a, rule, tracked_pairs=(b,))

    def test_permutation_keeps_tracked_overlap(self, registry, whole):
        rule = shift_rule(registry)
        a = state_slice(whole, "particle", "position", 1)
        b = state_slice(whole, "particle", "position", 2)
        up = state_slice(whole, "particle", "spin", "up")
        # disjoint stays disjoint, overlapping stays overlapping
        assert evolve(a, rule, tracked_pairs=(b, up)).members == rule.apply(a).members

    def test_domain_gap_rejected(self, registry, whole):
        rule = EvolutionRule(images={})
        with pytest.raises(ValueError, match="domain"):
            evolve(whole, rule)

    def test_partial_domain_rejected(self, registry, whole):
        up = state_slice(whole, "particle", "spin", "up")
        rule = EvolutionRule(images={z: frozenset([z]) for z in up.members})
        assert rule.apply(up) == up
        with pytest.raises(ValueError, match="outside the rule's domain"):
            rule.apply(whole)

    def test_images_in_a_different_registry_rejected(self, registry, whole):
        other = ObjectRegistry(registry.attributes, (("atom", ("position", "spin")),))
        targets = {z.values: z for z in all_exact_states(other)}
        rule = EvolutionRule(images={z: frozenset([targets[z.values]])
                                     for z in all_exact_states(registry)})
        with pytest.raises(ValueError, match="different registry"):
            rule.apply(whole)

    def test_rule_equality_and_hash_are_identity(self, registry):
        rule, twin = shift_rule(registry), shift_rule(registry)
        assert rule == rule and hash(rule) == hash(rule)
        assert rule != twin
        assert len({rule, twin}) == 2


class TestIndexArrayApply:
    """A 9-state space (not a whole number of bytes) and a rule without an image
    for the top code, against the union of ``images`` over the members."""

    @pytest.fixture
    def nine(self):
        return ObjectRegistry.build(
            [AttributeDef(id="x", kind="ordered", values=(0, 1, 2)),
             AttributeDef(id="c", kind="circular", values=("a", "b", "c"))],
            {"dot": ["x", "c"]})

    @pytest.fixture
    def rule(self, nine):
        states = list(all_exact_states(nine))
        return EvolutionRule(images={z: frozenset([states[(2 * k) % 9], states[(k + 4) % 9]])
                                     for k, z in enumerate(states[:-1])})

    def test_member_outside_the_domain_raises(self, nine, rule):
        top = list(all_exact_states(nine))[-1]
        with pytest.raises(ValueError, match="outside the rule's domain"):
            rule.apply(EpistemicState(nine, [top]))
        with pytest.raises(ValueError, match="outside the rule's domain"):
            rule.apply(full_state(nine))

    def test_states_inside_the_domain_map_to_the_union_of_images(self, nine, rule):
        states = list(all_exact_states(nine))
        for picks in itertools.product((False, True), repeat=8):
            members = list(itertools.compress(states, picks))
            if members:
                s = EpistemicState(nine, members)
                expected = frozenset().union(*(rule.images[z] for z in members))
                assert rule.apply(s).members == expected

    def test_equal_registry_gives_the_same_mask(self, nine, rule):
        twin = ObjectRegistry(nine.attributes, nine.objects)
        assert twin is not nine and twin == nine
        s = state_slice(full_state(nine), "dot", "c", "b")
        s_twin = state_slice(full_state(twin), "dot", "c", "b")
        out_twin = rule.apply(s_twin)  # the table is built over the twin first
        assert out_twin.registry is twin
        assert out_twin.mask == rule.apply(s).mask
        assert out_twin.members == frozenset().union(*(rule.images[z] for z in s.members))


@pytest.fixture
def spin_property():
    return PropertySpec(
        id="spin", labels=(1.0, -1.0),
        valuation=lambda z: 0 if z.value("particle", "spin") == "up" else 1)


@pytest.fixture
def spin_alternatives(whole, spin_property):
    pre = {0: state_slice(whole, "particle", "spin", "up"),
           1: state_slice(whole, "particle", "spin", "down")}
    levels = {0: Knowability.DECIDED, 1: Knowability.DECIDED}
    return make_alternatives(whole, spin_property, pre, levels)


class TestAlternatives:
    def test_complete_set_partitions_parent(self, whole, spin_alternatives):
        covered = frozenset().union(*(a.region.members for a in spin_alternatives.alternatives))
        assert covered == whole.members

    def test_probability_is_relative_volume(self, whole, spin_alternatives):
        p = probability(spin_alternatives.alternatives[0], whole)
        assert p == Fraction(1, 2)

    def test_probability_undefined_below_level_three(self, whole, spin_alternatives):
        alt = spin_alternatives.alternatives[0]
        contingent = FutureAlternative(region=alt.region, property_id=alt.property_id,
                                       value_index=alt.value_index,
                                       level=Knowability.CONTINGENT)
        with pytest.raises(ValueError, match="knowability level"):
            probability(contingent, whole)

    def test_single_alternative_rejected(self, whole, spin_alternatives):
        with pytest.raises(ValueError, match="genuine"):
            CompleteAlternativeSet(parent=whole,
                                   alternatives=spin_alternatives.alternatives[:1])

    def test_incomplete_set_rejected(self, registry, whole, spin_alternatives):
        half = spin_alternatives.alternatives[0]
        quarter_members = frozenset(list(spin_alternatives.alternatives[1].region.members)[:2])
        quarter = FutureAlternative(
            region=EpistemicState(registry, quarter_members),
            property_id="spin", value_index=1, level=Knowability.DECIDED)
        with pytest.raises(ValueError, match="incomplete"):
            CompleteAlternativeSet(parent=whole, alternatives=(half, quarter))

    def test_regions_from_members_equal_regions_from_masks(self, registry, spin_alternatives):
        for alt in spin_alternatives.alternatives:
            rebuilt = FutureAlternative(
                region=EpistemicState(registry, alt.region.members),
                property_id=alt.property_id, value_index=alt.value_index, level=alt.level)
            assert rebuilt == alt and hash(rebuilt) == hash(alt)

    def test_overlapping_alternatives_rejected(self, whole, spin_alternatives):
        a = spin_alternatives.alternatives[0]
        with pytest.raises(ValueError):
            CompleteAlternativeSet(parent=whole, alternatives=(a, a))


class TestInvariance:
    def test_volume_ratios_constant_under_shift(self, registry, whole, spin_alternatives):
        rule = shift_rule(registry)
        report = check_invariance(whole, spin_alternatives, rule, steps=8)
        assert report.ratios == (Fraction(1, 2), Fraction(1, 2))
        assert report.max_deviation == 0

    def test_noninvertible_rule_breaks_invariance(self, registry, whole, spin_alternatives):
        states = list(all_exact_states(registry))
        table = {tuple(z.values): z for z in states}
        # contract spin: everything becomes "up" (volume collapses)
        images = {z: frozenset([table[(z.values[0] % 4 + 1, "up")]]) for z in states}
        rule = EvolutionRule(images=images)
        with pytest.raises(EvolutionContractError, match="invariance"):
            check_invariance(whole, spin_alternatives, rule, steps=1)


class TestBorelTrial:
    def test_one_object_in_root_evolution_and_cli(self):
        import epiq
        import epiq.cli
        assert borel_trial is epiq.borel_trial is epiq.cli.borel_trial

    def test_frequencies_sum_to_one(self):
        freqs = borel_trial([0.25, 0.75], n=1000, seed=3)
        assert freqs.sum() == pytest.approx(1.0)

    def test_deterministic_for_fixed_seed(self):
        a = borel_trial([0.5, 0.5], n=10_000, seed=11)
        b = borel_trial([0.5, 0.5], n=10_000, seed=11)
        assert np.array_equal(a, b)

    def test_seed_changes_draws(self):
        a = borel_trial([0.5, 0.5], n=10_000, seed=11)
        b = borel_trial([0.5, 0.5], n=10_000, seed=12)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("n", [1, 9_999, 100_000])
    def test_counts_are_whole_and_sum_to_n(self, n):
        freqs = borel_trial([0.2, 0.3, 0.5], n=n, seed=7)
        counts = np.rint(freqs * n)
        assert np.array_equal(counts / n, freqs)
        assert counts.sum() == n

    def test_memory_does_not_grow_with_n(self):
        # one multinomial sample; materializing 10**9 draws would need ~8 GB
        n = 10**9
        freqs = borel_trial([0.5, 0.5], n=n, seed=0)
        assert np.rint(freqs * n).sum() == n
        assert abs(freqs[0] - 0.5) <= 3 * (0.25 / n) ** 0.5

    def test_degenerate_distribution_exact(self):
        freqs = borel_trial([1.0, 0.0], n=50_000, seed=0)
        assert freqs.tolist() == [1.0, 0.0]

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="sum to one"):
            borel_trial([0.5, 0.6], n=10, seed=0)
