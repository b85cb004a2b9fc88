import copy
import itertools
import math
import pickle
import time
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from scipy import stats

import epiq
from epiq.evolution import (CompleteAlternativeSet, EvolutionContractError, EvolutionRule,
                            FutureAlternative, InvarianceReport, Knowability, borel_trial,
                            check_invariance, evolve, make_alternatives, probability)
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

    @pytest.mark.parametrize("clone", [lambda rule: pickle.loads(pickle.dumps(rule)),
                                       copy.deepcopy], ids=["pickle", "deepcopy"])
    def test_rule_survives_pickle_and_deepcopy(self, registry, whole, clone):
        rule = shift_rule(registry)
        left = state_slice(whole, "particle", "position", 1)
        want = rule.apply(left)  # the original's table is built before the copy
        copied = clone(rule)
        assert copied.images == rule.images
        assert copied != rule  # rule equality is identity
        fresh = state_slice(full_state(registry), "particle", "position", 1)
        assert copied.apply(fresh) == want

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

    @pytest.mark.parametrize("value", [3, "a"], ids=["int", "str"])
    @pytest.mark.parametrize("place", ["image", "key"])
    def test_image_or_key_that_is_no_state_is_refused(self, registry, whole, place, value):
        states = list(all_exact_states(registry))
        images = {z: frozenset([value if place == "image" else z]) for z in states}
        if place == "key":
            images[value] = images.pop(states[0])
        with pytest.raises(ValueError, match=f"{value!r} is not an exact state"):
            EvolutionRule(images).apply(whole)

    def test_empty_image_refused(self, registry):
        states = list(all_exact_states(registry))
        with pytest.raises(ValueError) as refused:
            EvolutionRule(images={states[0]: frozenset()})
        assert str(refused.value) == "every exact state needs a nonempty image"

    def test_image_that_is_no_collection_refused(self, registry, whole):
        # a bare state is true, so the rule constructs; its table refuses it
        states = list(all_exact_states(registry))
        rule = EvolutionRule(images={z: states[0] for z in states})
        with pytest.raises(ValueError) as refused:
            rule.apply(whole)
        assert str(refused.value) == "image of state (1, 'up') is not a collection of states"

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

    def test_rule_keyed_by_a_twin_registrys_states(self, nine, rule):
        twin = ObjectRegistry(nine.attributes, nine.objects)
        states = list(all_exact_states(twin))
        keyed = EvolutionRule(images={states[z.code]: img for z, img in rule.images.items()})
        both = EvolutionRule(images={states[z.code]: frozenset(states[w.code] for w in img)
                                     for z, img in rule.images.items()})
        s = state_slice(full_state(nine), "dot", "c", "b")
        for twin_rule in (keyed, both):
            out = twin_rule.apply(s)
            assert out.registry is nine and out == rule.apply(s)


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

    def test_region_outside_the_parent_rejected(self, whole, spin_alternatives):
        left = state_slice(whole, "particle", "position", 1)
        with pytest.raises(ValueError) as refused:
            CompleteAlternativeSet(parent=left, alternatives=spin_alternatives.alternatives)
        assert str(refused.value) == "alternative region outside parent state"

    def test_missing_level_refused(self, whole, spin_property):
        pre = {0: state_slice(whole, "particle", "spin", "up"),
               1: state_slice(whole, "particle", "spin", "down")}
        with pytest.raises(ValueError) as refused:
            make_alternatives(whole, spin_property, pre, {0: Knowability.DECIDED})
        assert str(refused.value) == "no knowability level for value index 1"

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

    @staticmethod
    def counted_applies(monkeypatch):
        calls, apply = [], EvolutionRule.apply
        monkeypatch.setattr(EvolutionRule, "apply",
                            lambda rule, s: calls.append(s) or apply(rule, s))
        return calls

    def test_rule_applied_once_per_region_and_step(self, registry, whole, spin_alternatives,
                                                    monkeypatch):
        # each state onto every state of its spin: set-valued images keep the
        # ratios, but no table decides that, so the rule is stepped
        states = list(all_exact_states(registry))
        rule = EvolutionRule(images={z: frozenset(w for w in states if w.values[1] == z.values[1])
                                     for z in states})
        calls = self.counted_applies(monkeypatch)
        report = check_invariance(whole, spin_alternatives, rule, steps=3)
        assert report.ratios == (Fraction(1, 2), Fraction(1, 2))
        assert len(calls) == 3 * len(spin_alternatives.alternatives)

    def test_permutation_decided_without_applying(self, registry, whole, spin_alternatives,
                                                  monkeypatch):
        calls = self.counted_applies(monkeypatch)
        report = check_invariance(whole, spin_alternatives, shift_rule(registry), steps=3)
        assert report == InvarianceReport(3, (Fraction(1, 2), Fraction(1, 2)))
        assert calls == []

    def test_steps_must_be_positive(self, registry, whole, spin_alternatives):
        with pytest.raises(ValueError) as refused:
            check_invariance(whole, spin_alternatives, shift_rule(registry), steps=0)
        assert str(refused.value) == "steps must be positive"

    @pytest.mark.parametrize("steps", [True, 2.5, "2"], ids=["bool", "float", "str"])
    def test_steps_must_be_an_int(self, registry, whole, spin_alternatives, steps):
        with pytest.raises(ValueError) as refused:
            check_invariance(whole, spin_alternatives, shift_rule(registry), steps=steps)
        assert str(refused.value) == "steps must be positive"

    def test_parent_must_be_the_alternative_sets(self, registry, whole, spin_property):
        # the alternatives cut position 1 alone; whole contains it, but is not their parent
        left = state_slice(whole, "particle", "position", 1)
        pre = {j: state_slice(left, "particle", "spin", v) for j, v in enumerate(("up", "down"))}
        alts = make_alternatives(left, spin_property, pre, dict.fromkeys(pre, Knowability.DECIDED))
        with pytest.raises(ValueError, match="parent"):
            check_invariance(whole, alts, shift_rule(registry), steps=1)


class TestBorelTrial:
    def test_one_object_in_root_evolution_and_cli(self):
        import epiq
        import epiq.cli
        assert borel_trial is epiq.borel_trial is epiq.cli.borel_trial

    def test_frequencies_sum_to_one(self):
        freqs = np.asarray(borel_trial([0.25, 0.75], n=1000, seed=3))
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
        freqs = np.asarray(borel_trial([0.2, 0.3, 0.5], n=n, seed=7))
        counts = np.rint(freqs * n)
        assert np.array_equal(counts / n, freqs)
        assert counts.sum() == n

    def test_memory_does_not_grow_with_n(self):
        # one multinomial sample; materializing 10**9 draws would need ~8 GB
        n = 10**9
        freqs = np.asarray(borel_trial([0.5, 0.5], n=n, seed=0))
        assert np.rint(freqs * n).sum() == n
        assert abs(freqs[0] - 0.5) <= 3 * (0.25 / n) ** 0.5

    def test_degenerate_distribution_exact(self):
        freqs = np.asarray(borel_trial([1.0, 0.0], n=50_000, seed=0))
        assert freqs.tolist() == [1.0, 0.0]

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="sum to one"):
            borel_trial([0.5, 0.6], n=10, seed=0)

    def test_returns_a_tuple_of_floats(self):
        freqs = borel_trial([0.2, 0.3, 0.5], n=1000, seed=7)
        assert type(freqs) is tuple and all(type(f) is float for f in freqs)

    def test_stream_is_pinned(self):
        # the frequencies of one small run; a change here changes every
        # montecarlo result, so it has to be a deliberate one
        assert borel_trial([0.2, 0.3, 0.5], n=1000, seed=7) == (0.193, 0.309, 0.498)

    @pytest.mark.parametrize("probabilities", [
        [math.nan, 1.0], [0.5, math.nan, 0.5], [math.inf, 0.0], [-math.inf, 1.0],
        [-0.5, 1.5], [1.0 + 1e-9, -1e-9]],
        ids=["nan", "nan-inside", "inf", "minus-inf", "outside", "past-rounding"])
    def test_rejects_entries_outside_the_unit_interval(self, probabilities):
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            borel_trial(probabilities, n=10, seed=0)

    def test_rounding_overshoot_is_clamped(self):
        assert borel_trial([1.0 + 1e-13, -1e-13], n=10, seed=0) == (1.0, 0.0)

    def test_rejects_empty_distribution(self):
        with pytest.raises(ValueError, match="sum to one"):
            borel_trial([], n=10, seed=0)

    def test_rejects_no_draws(self):
        with pytest.raises(ValueError, match="at least one draw"):
            borel_trial([0.5, 0.5], n=0, seed=0)

    @pytest.mark.parametrize("n", [2.5, True], ids=["float", "bool"])
    def test_rejects_a_draw_count_that_is_not_an_int(self, n):
        # a float count gave frequencies of no whole number of draws, and True one draw
        with pytest.raises(ValueError) as refused:
            borel_trial([0.5, 0.5], n=n, seed=1)
        assert str(refused.value) == f"draw count must be an int, not {n!r}"

    @pytest.mark.parametrize("seed", [-1, 1.5, True], ids=["negative", "float", "bool"])
    def test_rejects_a_seed_that_is_not_a_natural_number(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            borel_trial([0.5, 0.5], n=10, seed=seed)

    def test_seed_past_128_bits_runs(self):
        # any integer seed keys its own stream
        a = borel_trial([0.25] * 4, n=10**6, seed=2**128)
        assert a == borel_trial([0.25] * 4, n=10**6, seed=2**128)
        assert a != borel_trial([0.25] * 4, n=10**6, seed=2**128 + 1)

    @pytest.mark.parametrize("n", [10**9, 2**63 - 1])
    def test_largest_counts_are_fast_and_in_band(self, n):
        start = time.perf_counter()
        freqs = borel_trial([0.2, 0.3, 0.5], n=n, seed=1)
        assert time.perf_counter() - start < 1.0
        assert math.fsum(freqs) == pytest.approx(1.0, abs=1e-15)
        for p, freq in zip((0.2, 0.3, 0.5), freqs):
            assert abs(freq - p) <= 5 * math.sqrt(p * (1 - p) / n)


DRAWS = 20_000


def _chi_square_p_value(draws, dist, n):
    """The chi-square p-value of counts 0..n drawn from ``dist`` (a frozen
    scipy distribution), binned at its own twentieths (tails pooled) so
    every cell expects hundreds of draws."""
    edges = np.unique(dist.ppf(np.linspace(0.05, 0.95, 19)))
    edges = edges[edges < n]  # cell i holds edges[i - 1] < k <= edges[i]; the last k > edges[-1]
    expected = np.diff([0.0, *dist.cdf(edges), 1.0]) * len(draws)
    observed = np.bincount(np.searchsorted(edges, draws), minlength=len(expected))
    return stats.chisquare(observed, expected).pvalue


def _draws(n, p):
    random = Random(f"{n} {p}").random
    draws = [epiq._binomial(random, n, p) for _ in range(DRAWS)]
    assert all(0 <= k <= n for k in draws)
    return draws


class TestBinomialSampler:
    """Goodness of fit of the sampler under borel_trial, at fixed seeds:
    Devroye's waiting times below n*min(p, 1-p) = 10, Hörmann's BTRS above,
    each also through the p -> 1-p symmetry."""

    @pytest.mark.parametrize("n, p", [
        (1, 0.3), (1, 0.8), (50, 0.1), (9, 0.5), (200, 0.97),
        (60, 0.3), (20, 0.5), (1000, 0.75), (10**6, 0.4), (10**15, 0.3)],
        ids=["n1", "n1-symmetric", "waiting", "waiting-half", "waiting-symmetric",
             "btrs", "btrs-edge", "btrs-symmetric", "btrs-1e6", "btrs-1e15"])
    def test_counts_follow_the_binomial(self, n, p):
        # at 1e15 an acceptance test on plain lgamma values fails this fit
        assert _chi_square_p_value(_draws(n, p), stats.binom(n, p), n) > 1e-3

    @pytest.mark.parametrize("n, p", [(10**17, 0.3), (2**63 - 1, 0.5), (2**63 - 1, 0.01)],
                             ids=["1e17", "largest-half", "largest-rare"])
    def test_largest_counts_follow_the_normal_limit(self, n, p):
        # scipy's binomial does not reach these n; with n*p*(1-p) past 1e16 the
        # binomial's skew is below 1e-8, far under what 20,000 draws can tell
        normal = stats.norm(n * p, math.sqrt(n * p * (1 - p)))
        assert _chi_square_p_value(_draws(n, p), normal, n) > 1e-3

    def test_chained_binomials_give_multinomial_marginals(self):
        # each outcome of a multinomial draw is Binomial(n, p_j) on its own
        n, probabilities = 40, (0.2, 0.3, 0.1, 0.4)
        counts = np.rint(np.array([borel_trial(probabilities, n=n, seed=seed)
                                   for seed in range(4000)]) * n).astype(int)
        for j, p in enumerate(probabilities):
            assert _chi_square_p_value(counts[:, j], stats.binom(n, p), n) > 1e-3

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_certain_outcomes(self, p):
        random = Random(0).random
        assert epiq._binomial(random, 10**6, p) == 10**6 * p
