"""Property-based suites for the measure, combination, and evolution laws,
and for context propagation against brute-force path enumeration."""
import cmath
import copy
import itertools
import math
from fractions import Fraction
from functools import partial
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from epiq import context
from epiq.context import (ContextError, ContextNetwork, Distribution, Layer, propagate,
                          reduce_by_observation, validate_context)
from epiq.evolution import (EvolutionContractError, EvolutionRule, InvarianceReport, Knowability,
                            check_invariance, make_alternatives, probability)
from epiq.exactnum import ONE, ZERO, ExactAmplitude, Sqrt2Scalar, checked_rows, parse_exact, scalars
from epiq.hilbert import (JointVolumeTable, build_space, commutator, make_operator,
                          principle4_probabilities, reciprocal)
from epiq.statespace import (AttributeDef, EpistemicState, ExactState, ObjectRegistry,
                             PropertySpec, VoidStateError, all_exact_states, combine,
                             full_state, relative_volume, state_slice, volume)
from exact_oracle import abs2, add, mul, neg, sub
from padding import pad_virtual_values


def small_registry(n_positions: int, n_marks: int) -> ObjectRegistry:
    return ObjectRegistry.build(
        [
            AttributeDef(id="position", kind="ordered",
                         values=tuple(range(1, n_positions + 1))),
            AttributeDef(id="mark", kind="ordered",
                         values=tuple(range(n_marks))),
        ],
        {"dot": ["position", "mark"]},
    )


registries = st.builds(small_registry,
                       st.integers(min_value=2, max_value=4),
                       st.integers(min_value=2, max_value=3))


@st.composite
def registry_and_subsets(draw):
    registry = draw(registries)
    states = list(all_exact_states(registry))
    picks = draw(st.lists(st.integers(0, len(states) - 1), min_size=1, unique=True))
    other = draw(st.lists(st.integers(0, len(states) - 1), min_size=1, unique=True))
    a = EpistemicState(registry, frozenset(states[i] for i in picks))
    b = EpistemicState(registry, frozenset(states[i] for i in other))
    return registry, a, b


@st.composite
def mixed_registries(draw):
    """1-3 attributes of 2-3 values, each of 1-3 objects carrying 1-2 of them."""
    sizes = draw(st.lists(st.integers(2, 3), min_size=1, max_size=3))
    attrs = [AttributeDef(id=f"a{k}", kind="ordered", values=tuple(f"v{j}" for j in range(n)))
             for k, n in enumerate(sizes)]
    ids = [a.id for a in attrs]
    carried = draw(st.lists(st.lists(st.sampled_from(ids), min_size=1, max_size=2, unique=True),
                            min_size=1, max_size=3))
    return ObjectRegistry.build(attrs, {f"o{k}": c for k, c in enumerate(carried)})


class TestStateCodes:
    @given(mixed_registries())
    @settings(max_examples=40, deadline=None)
    def test_code_is_a_bijection_onto_the_volume(self, registry):
        whole = full_state(registry)
        codes = sorted(z.code for z in whole.members)
        assert codes == list(range(volume(whole)))
        assert [z.code for z in all_exact_states(registry)] == codes

    @given(mixed_registries())
    @settings(max_examples=40, deadline=None)
    def test_values_decode_the_code_in_product_order(self, registry):
        product = itertools.product(*registry.slot_values())
        for z, values in zip(all_exact_states(registry), product, strict=True):
            assert z.values == values and ExactState(registry, values) == z
            assert tuple(z.value(*slot) for slot in registry.slots()) == values

    @given(mixed_registries(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_set_operations_match_code_sets(self, registry, rnd):
        states = list(all_exact_states(registry))
        a = EpistemicState(registry, frozenset(rnd.sample(states, rnd.randint(1, len(states)))))
        b = EpistemicState(registry, frozenset(rnd.sample(states, rnd.randint(1, len(states)))))
        ca, cb = {z.code for z in a.members}, {z.code for z in b.members}
        for connective, expected in (("OR", ca | cb), ("AND", ca & cb), ("NOT", ca - cb)):
            if expected:
                combined = combine(a, b, connective)
                assert volume(combined) == len(expected)
                assert {z.code for z in combined.members} == expected


class TestMaskOracles:
    """Mask operations against brute-force work on decoded members."""

    @given(mixed_registries(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_slice_equals_member_filter(self, registry, rnd):
        states = list(all_exact_states(registry))
        for whole in (full_state(registry),
                      EpistemicState(registry, rnd.sample(states, rnd.randint(1, len(states))))):
            for idx, (oid, aid) in enumerate(registry.slots()):
                for v in registry.slot_values()[idx]:
                    expected = {z for z in whole.members if z.values[idx] == v}
                    if expected:
                        assert state_slice(whole, oid, aid, v).members == expected
                    else:
                        with pytest.raises(VoidStateError):
                            state_slice(whole, oid, aid, v)

    @given(mixed_registries(), st.booleans(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_apply_equals_union_of_images(self, registry, twin, rnd):
        # the rule may be keyed by an equal registry that is another object
        rule_registry = ObjectRegistry(registry.attributes, registry.objects) if twin else registry
        targets = list(all_exact_states(rule_registry))
        rule = EvolutionRule(images={
            z: frozenset(rnd.sample(targets, rnd.randint(1, min(3, len(targets)))))
            for z in all_exact_states(rule_registry)})
        states = list(all_exact_states(registry))
        s = EpistemicState(registry, rnd.sample(states, rnd.randint(1, len(states))))
        expected = frozenset().union(*(rule.images[z] for z in s.members))
        assert rule.apply(s).members == expected
        assert rule.apply(s).registry is registry


class TestMeasureAxioms:
    @given(registry_and_subsets())
    @settings(max_examples=60, deadline=None)
    def test_additivity_over_disjoint_parts(self, data):
        registry, a, _ = data
        whole = full_state(registry)
        outside = whole.members - a.members
        assert volume(a) + len(outside) == volume(whole)

    @given(registry_and_subsets())
    @settings(max_examples=60, deadline=None)
    def test_union_intersection_inclusion_exclusion(self, data):
        registry, a, b = data
        union = a.members | b.members
        inter = a.members & b.members
        assert len(union) + len(inter) == volume(a) + volume(b)

    @given(registry_and_subsets())
    @settings(max_examples=60, deadline=None)
    def test_relative_volume_bounds(self, data):
        registry, a, _ = data
        whole = full_state(registry)
        v = relative_volume(a, whole)
        assert 0 < v <= 1
        assert isinstance(v, Fraction)

    @given(registries)
    @settings(max_examples=30, deadline=None)
    def test_slice_equality_for_independent_attributes(self, registry):
        whole = full_state(registry)
        position, _ = registry.attributes
        slices = [state_slice(whole, "dot", "position", p) for p in position.values]
        sizes = {volume(s) for s in slices}
        assert len(sizes) == 1
        assert sum(volume(s) for s in slices) == volume(whole)


class TestCombinationLaws:
    @given(registry_and_subsets())
    @settings(max_examples=60, deadline=None)
    def test_or_is_commutative_and_monotone(self, data):
        registry, a, b = data
        ab = combine(a, b, "OR")
        ba = combine(b, a, "OR")
        assert ab.members == ba.members
        assert a.members <= ab.members

    @given(registry_and_subsets())
    @settings(max_examples=60, deadline=None)
    def test_and_refines_both_when_consistent(self, data):
        registry, a, b = data
        if not (a.members & b.members):
            return
        both = combine(a, b, "AND")
        assert both.members <= a.members and both.members <= b.members


class TestEvolutionLaws:
    @given(registries, st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_permutation_rules_preserve_all_volumes(self, registry, rnd):
        states = list(all_exact_states(registry))
        image = states[:]
        rnd.shuffle(image)
        rule = EvolutionRule(
            images={z: frozenset([w]) for z, w in zip(states, image)})
        whole = full_state(registry)
        picks = rnd.sample(states, rnd.randint(1, len(states)))
        part = EpistemicState(registry, frozenset(picks))
        evolved = rule.apply(part)
        assert volume(evolved) == volume(part)
        assert relative_volume(evolved, whole) == relative_volume(part, whole)

    @given(registries, st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_evolution_is_linear_over_union(self, registry, rnd):
        states = list(all_exact_states(registry))
        image = states[:]
        rnd.shuffle(image)
        rule = EvolutionRule(
            images={z: frozenset([w]) for z, w in zip(states, image)})
        half = rnd.sample(states, max(1, len(states) // 2))
        rest = [z for z in states if z not in half]
        a = EpistemicState(registry, frozenset(half))
        b = EpistemicState(registry, frozenset(rest or half))
        union = EpistemicState(registry, a.members | b.members)
        assert rule.apply(union).members == rule.apply(a).members | rule.apply(b).members


@st.composite
def property_partitions(draw, whole):
    """The alternatives cut from ``whole`` by a random three-valued property
    that takes at least two values on it."""
    values = draw(st.lists(st.integers(0, 2), min_size=volume(whole), max_size=volume(whole)))
    prop = PropertySpec(id="p", labels=(1.0, 2.0, 3.0), valuation=lambda z: values[z.code])
    pre = prop.preimages(whole)
    assume(len(pre) >= 2)
    return make_alternatives(whole, prop, pre, dict.fromkeys(pre, Knowability.DECIDED))


@st.composite
def family_images(draw, registry, family):
    """A random permutation of the registry's states, as images; "merged" sends
    one state onto another's image, "set-valued" adds that image to its own,
    and "partial" drops it from the domain."""
    states = list(all_exact_states(registry))
    images = {z: frozenset([w]) for z, w in zip(states, draw(st.permutations(states)))}
    a, b = draw(st.lists(st.sampled_from(states), min_size=2, max_size=2, unique=True))
    if family == "merged":
        images[a] = images[b]
    elif family == "set-valued":
        images[a] |= images[b]
    elif family == "partial":
        del images[a]
    return images


def stepped_invariance(parent, altset, rule, steps):
    """check_invariance by brute force: every region is stepped with
    ``rule.apply``, and the ratios are read from member sets."""
    initial = tuple(relative_volume(a.region, parent) for a in altset.alternatives)
    regions = [a.region for a in altset.alternatives]
    for _ in range(steps):
        regions = [rule.apply(r) for r in regions]
        total = len(frozenset().union(*(r.members for r in regions)))
        if tuple(Fraction(len(r.members), total) for r in regions) != initial:
            raise EvolutionContractError("evolution rule breaks volume invariance")
    return initial


class TestInvarianceOracle:
    """check_invariance decides a permutation from its table and steps every
    other rule; both must give the stepped oracle's ratios or refusal."""

    @given(registries, st.sampled_from(("permutation", "merged", "set-valued", "partial")),
           st.integers(1, 4), st.data())
    @settings(max_examples=120, deadline=None)
    def test_verdict_matches_the_stepped_oracle(self, registry, family, steps, data):
        whole = full_state(registry)
        altset = data.draw(property_partitions(whole))
        images = data.draw(family_images(registry, family))
        try:
            want = stepped_invariance(whole, altset, EvolutionRule(images), steps)
        except ValueError as refused:
            with pytest.raises(ValueError) as got:
                check_invariance(whole, altset, EvolutionRule(images), steps)
            assert type(got.value) is type(refused) and str(got.value) == str(refused)
        else:
            report = check_invariance(whole, altset, EvolutionRule(images), steps)
            assert report == InvarianceReport(steps, want)


class TestKolmogorov:
    @given(registries)
    @settings(max_examples=30, deadline=None)
    def test_alternative_probabilities_form_distribution(self, registry):
        whole = full_state(registry)
        _, mark = registry.attributes
        marks = mark.values
        prop = PropertySpec(
            id="mark", labels=tuple(float(m + 1) for m in marks),
            valuation=lambda z: z.value("dot", "mark"))
        pre = {m: state_slice(whole, "dot", "mark", m) for m in marks}
        levels = {m: Knowability.DECIDED for m in marks}
        alts = make_alternatives(whole, prop, pre, levels)
        probs = [probability(alt, whole) for alt in alts.alternatives]
        assert all(0 < p <= 1 for p in probs)
        assert sum(probs) == 1


# Exact (cos, sin) pairs: Pythagorean triples and the balanced beam splitter.
EXACT_ROTATIONS = tuple(
    (parse_exact(c), parse_exact(s))
    for c, s in (("3/5", "4/5"), ("5/13", "12/13"), ("1/sqrt2", "1/sqrt2"),
                 ("-4/5", "3/5"), ("0", "1")))
I = ExactAmplitude(Sqrt2Scalar.of(0), Sqrt2Scalar.of(1))
EXACT_PHASES = (parse_exact("1"), I, parse_exact("-1"), neg(I))


@st.composite
def unitaries(draw, n, exact):
    """An n x n unitary: Givens rotations on random planes, then column phases.
    Exact draws stay in Q(sqrt2)(i)."""
    one, zero = (parse_exact("1"), parse_exact("0")) if exact else (1 + 0j, 0j)
    u = [[one if r == c else zero for c in range(n)] for r in range(n)]
    for _ in range(draw(st.integers(1, 3))):
        p, q = draw(st.sampled_from(list(itertools.combinations(range(n), 2))))
        if exact:
            c, s = draw(st.sampled_from(EXACT_ROTATIONS))
        else:
            theta = draw(st.floats(0.0, 2 * math.pi))
            c, s = complex(math.cos(theta)), complex(math.sin(theta))
        for row in u:
            row[p], row[q] = (sub(mul(c, row[p]), mul(s, row[q])),
                              add(mul(s, row[p]), mul(c, row[q])))
    if exact:
        phases = [draw(st.sampled_from(EXACT_PHASES)) for _ in range(n)]
    else:
        phases = [cmath.exp(1j * draw(st.floats(0.0, 2 * math.pi))) for _ in range(n)]
    return [tuple(mul(a, ph) for a, ph in zip(row, phases)) for row in u]


@st.composite
def mixed_networks(draw, exact, start=None, depths=(2, 6), never_run=None):
    """Depth 2-6 (or `depths`), widths 2-3, levels 1 and 3, with at most
    `never_run` level-1 layers in a row if given.  A level-1 layer never feeds
    a narrower one (that needs padding) and gets orthonormal rows; a decided
    layer gets rows that are only normalized.

    With a `start`, the network is what a start state at a random layer c
    leaves: for "reduced" the tail from c + 1 fed by a row r of matrix c, for
    "superposed" the tail from c fed by a fresh unit vector."""
    depth = draw(st.integers(*depths))
    levels = []
    for _ in range(depth - 1):
        run = never_run is not None and levels[-never_run:] == [Knowability.NEVER] * never_run
        levels.append(Knowability.DECIDED if run else
                      draw(st.sampled_from((Knowability.NEVER, Knowability.DECIDED))))
    levels.append(Knowability.DECIDED)
    sizes = [draw(st.integers(2, 3))]
    for level in levels[:-1]:
        low = sizes[-1] if level is Knowability.NEVER else 2
        sizes.append(draw(st.integers(low, 3)))
    edges = []
    for i, level in enumerate(levels[:-1]):
        if level is Knowability.NEVER:
            rows = draw(unitaries(sizes[i + 1], exact))[:sizes[i]]
        else:
            rows = [draw(unitaries(sizes[i + 1], exact))[0] for _ in range(sizes[i])]
        edges.append(tuple(rows))
    layers = tuple(Layer(f"L{i}", level, tuple(float(k + 1) for k in range(m)))
                   for i, (level, m) in enumerate(zip(levels, sizes)))
    initial = draw(unitaries(sizes[0], exact))[0]
    if start is None:
        return ContextNetwork(layers=layers, initial=initial, edges=tuple(edges))
    c = draw(st.integers(0, depth - 2))
    if start == "reduced":
        row = edges[c][draw(st.integers(0, sizes[c] - 1))]
        return ContextNetwork(layers[c + 1:], row, edges[c + 1:])
    return ContextNetwork(layers[c:], draw(unitaries(sizes[c], exact))[0], edges[c:])


@st.composite
def padded_networks(draw, exact):
    """Three layers of 3, 2 and 2-3 values, the first at level 1, padded at the
    first boundary, so the middle matrix gains rows for the virtual values.
    Three rows cannot be orthonormal over two values, so the first layer's
    third value gets no initial amplitude."""
    middle = draw(st.sampled_from((Knowability.NEVER, Knowability.DECIDED)))
    # a padded level-1 middle layer has 3 values and must not feed a narrower one
    sizes = (3, 2, 3 if middle is Knowability.NEVER else draw(st.integers(2, 3)))
    initial = draw(unitaries(2, exact))[0] + ((parse_exact("0") if exact else 0j),)
    edges = (tuple(draw(unitaries(2, exact)) + [draw(unitaries(2, exact))[0]]),
             tuple(draw(unitaries(sizes[2], exact))[:2]))
    layers = tuple(Layer(f"L{i}", level, tuple(float(k + 1) for k in range(m)))
                   for i, (level, m) in enumerate(zip(
                       (Knowability.NEVER, middle, Knowability.DECIDED), sizes)))
    return pad_virtual_values(ContextNetwork(layers=layers, initial=initial, edges=edges), 0)


def path_oracle(net):
    """Final distribution by enumerating every path through the network.

    For each choice of values at the decided layers, the path amplitudes are
    summed over the values of the level-1 layers before squaring; the squared
    sums are then added classically."""
    layers = net.layers
    decided = [i for i, l in enumerate(layers) if l.level is Knowability.DECIDED]
    never = [i for i, l in enumerate(layers) if l.level is Knowability.NEVER]
    totals = [0] * net.final_layer.size
    for dvals in itertools.product(*(range(layers[i].size) for i in decided)):
        coherent = 0
        for nvals in itertools.product(*(range(layers[i].size) for i in never)):
            path = dict(zip(decided, dvals)) | dict(zip(never, nvals))
            amp = net.initial[path[0]]
            for i in range(len(layers) - 1):
                amp = mul(net.edges[i][path[i]][path[i + 1]], amp)
            coherent = add(coherent, amp)
        totals[path[len(layers) - 1]] += abs2(coherent)
    return totals


def assert_exact_fold_is_path_sum(net):
    dist = propagate(net)
    assert dist.exact is not None
    assert list(dist.exact) == path_oracle(net)


def assert_float_fold_is_path_sum(net):
    dist = propagate(net)
    assert dist.exact is None
    for p, q in zip(dist.probabilities, path_oracle(net)):
        assert abs(p - q) <= 1e-12


START_KINDS = ("reduced", "superposed")


class TestPropagationOracle:
    @given(mixed_networks(exact=True))
    @settings(max_examples=25, deadline=None)
    def test_exact_fold_equals_path_enumeration(self, net):
        assert_exact_fold_is_path_sum(net)

    @given(mixed_networks(exact=False))
    @settings(max_examples=25, deadline=None)
    def test_float_fold_equals_path_enumeration(self, net):
        assert_float_fold_is_path_sum(net)

    @pytest.mark.parametrize("start", START_KINDS)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_exact_fold_from_a_start_equals_path_enumeration(self, start, data):
        assert_exact_fold_is_path_sum(data.draw(mixed_networks(exact=True, start=start)))

    @pytest.mark.parametrize("start", START_KINDS)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_float_fold_from_a_start_equals_path_enumeration(self, start, data):
        assert_float_fold_is_path_sum(data.draw(mixed_networks(exact=False, start=start)))

    @given(padded_networks(exact=True))
    @settings(max_examples=25, deadline=None)
    def test_exact_padding_before_a_middle_layer_equals_path_enumeration(self, net):
        assert validate_context(net) == []
        assert net.layers[1].size == len(net.edges[1]) == 3
        assert list(propagate(net).exact) == path_oracle(net)

    @given(padded_networks(exact=False))
    @settings(max_examples=25, deadline=None)
    def test_float_padding_before_a_middle_layer_equals_path_enumeration(self, net):
        assert validate_context(net) == []
        assert net.layers[1].size == len(net.edges[1]) == 3
        for p, q in zip(propagate(net).probabilities, path_oracle(net)):
            assert abs(p - q) <= 1e-12


def observed_mixture(net):
    """(|a_j|^2, propagate of the network left by observing j) for each value
    j of the decided first layer that can be observed; an impossible one is
    refused."""
    parts = []
    for j, a in enumerate(net.initial):
        weight = abs2(a)
        if weight in (0, ZERO):
            with pytest.raises(ContextError, match="impossible outcome"):
                reduce_by_observation(net, j)
            continue
        parts.append((weight, propagate(reduce_by_observation(net, j))))
    return parts


def decided_first(net):
    return net.layers[0].level is Knowability.DECIDED


class TestReductionMixtureLaw:
    """Observing the decided first property and weighting each remaining
    network's distribution by its value's Born probability gives back the
    distribution of the whole network."""

    @given(mixed_networks(exact=True).filter(decided_first))
    @settings(max_examples=25, deadline=None)
    def test_exact_mixture_of_reductions_is_the_fold(self, net):
        parts = observed_mixture(net)
        size = net.final_layer.size
        assert [sum((w * d.exact[k] for w, d in parts), ZERO) for k in range(size)] == \
            list(propagate(net).exact)

    @given(mixed_networks(exact=False).filter(decided_first))
    @settings(max_examples=25, deadline=None)
    def test_float_mixture_of_reductions_is_the_fold(self, net):
        parts = observed_mixture(net)
        for k, p in enumerate(propagate(net).probabilities):
            assert abs(sum(w * d.probabilities[k] for w, d in parts) - p) <= 1e-12


def chained_path_oracle(net):
    """path_oracle run one segment at a time: each decided layer ends a segment,
    and the segments' distributions are chained classically, value by value,
    in per-entry Sqrt2Scalar arithmetic.  Deep chains stay cheap this way,
    where enumerating every path of the whole network would not."""
    layers, edges = net.layers, net.edges
    decided = [i for i, l in enumerate(layers) if l.level is Knowability.DECIDED]
    dist = path_oracle(ContextNetwork(layers[:decided[0] + 1], net.initial, edges[:decided[0]]))
    for start, end in zip(decided, decided[1:]):
        steps = [path_oracle(ContextNetwork(layers[start + 1:end + 1], row, edges[start + 1:end]))
                 for row in edges[start]]
        dist = [sum((w * step[k] for w, step in zip(dist, steps)), ZERO)
                for k in range(layers[end].size)]
    return dist


def hadamard_chain(depth):
    """Never and decided layers in turn, each feeding a balanced beam splitter."""
    h, g = parse_exact("1/sqrt2"), parse_exact("-1/sqrt2")
    levels = [Knowability.NEVER, Knowability.DECIDED] * (depth // 2)
    levels = levels[:depth - 1] + [Knowability.DECIDED]
    return ContextNetwork(tuple(Layer(f"L{i}", level, (1.0, 2.0)) for i, level in enumerate(levels)),
                          (h, h), (((h, h), (h, g)),) * (depth - 1))


def in_lowest_terms(value):
    a, b, d = value._k
    return d > 0 and math.gcd(a, b, d) == 1


class TestIntegerRowFold:
    """The exact fold runs on integer rows with one shared denominator each
    (`exactnum.checked_rows` makes them, `merge_rows` and `carry_rows` fold
    them)."""

    @given(mixed_networks(exact=True, depths=(32, 64), never_run=3))
    @settings(max_examples=10, deadline=None)
    def test_deep_chains_equal_the_per_entry_oracle(self, net):
        dist = propagate(net)
        assert list(dist.exact) == chained_path_oracle(net)
        assert all(map(in_lowest_terms, dist.exact))
        assert dist.probabilities == tuple(min(float(t), 1.0) for t in dist.exact)

    def test_chained_oracle_agrees_with_whole_path_enumeration(self):
        net = hadamard_chain(7)
        assert chained_path_oracle(net) == path_oracle(net) == list(propagate(net).exact)

    def test_alternating_hadamard_chain_keeps_denominators_bounded(self):
        carried, merged = [], []

        def record(kernel, out):
            def wrapped(*args):
                result = kernel(*args)
                out.append(result)
                return result
            return wrapped

        with mock.patch.object(context, "carry_rows", record(context.carry_rows, carried)), \
                mock.patch.object(context, "merge_rows", record(context.merge_rows, merged)):
            dist = propagate(hadamard_chain(65))
        assert dist.exact == (Sqrt2Scalar(Fraction(1, 2)),) * 2
        assert (len(carried), len(merged)) == (32, 33)
        rows = [row for rows in carried for row in rows] + merged
        # 0, 1/2, 1 and 1/sqrt2 = sqrt2/2 need no denominator above 2; without
        # one gcd per row they would grow fourfold at every layer
        assert max(d for d, _ in rows) == 2
        assert all(math.gcd(d, *x) == 1 for d, x in rows)

    def test_fold_does_no_per_entry_arithmetic(self, monkeypatch):
        nets = [hadamard_chain(9), padded_exact_network()]
        want = [propagate(net) for net in nets]

        def refuse(*args):
            raise AssertionError("per-entry arithmetic in the exact fold")

        with monkeypatch.context() as m:
            for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
                         "__rmul__"):
                assert not hasattr(ExactAmplitude, name)
                m.setattr(Sqrt2Scalar, name, refuse)
            assert not hasattr(ExactAmplitude, "abs2")
            got = [(propagate(net), validate_context(net)) for net in nets]
        assert got == [(dist, []) for dist in want]


def padded_exact_network():
    """A level-1 layer of three values padded before a decided layer of two.
    The last row's |a|^2 are 3/16 + sqrt2/8, 3/16 - sqrt2/8 and 5/8: their
    sqrt2 parts cancel only in the sum."""
    r, h, z = parse_exact("1/sqrt2"), parse_exact("1/2"), parse_exact("0")
    one, quarter = parse_exact("1"), Fraction(1, 4)
    cancelling = (ExactAmplitude(Sqrt2Scalar(quarter, quarter)),
                  ExactAmplitude(Sqrt2Scalar(quarter, -quarter)),
                  add(ExactAmplitude(ZERO, Sqrt2Scalar(0, quarter)), r))
    net = ContextNetwork(
        layers=(Layer("a", Knowability.NEVER, (1.0, 2.0, 3.0)),
                Layer("b", Knowability.DECIDED, (1.0, 2.0)),
                Layer("c", Knowability.DECIDED, (1.0, 2.0, 3.0))),
        initial=(r, r, z),
        edges=(((r, r), (r, neg(r)), (one, z)), ((h, h, r), cancelling)))
    return pad_virtual_values(net, 0)


def per_entry_messages(net):
    """validate_context's messages from the per-entry check that float and
    mixed networks take: every entry converted to a complex number, and its
    |a|^2 summed in floats."""
    with mock.patch.object(ContextNetwork, "is_exact", lambda self: False):
        return validate_context(net)


PERTURBATIONS = (
    lambda a: ExactAmplitude.of(10**200),
    lambda a: ExactAmplitude.of(0),
    neg,
    lambda a: mul(a, I),
    # a row off by 1e-14 passes the float test, one off by 1e-6 does not
    lambda a: mul(a, 1 + Sqrt2Scalar(Fraction(1, 10**14))),
    lambda a: mul(a, 1 + Sqrt2Scalar(Fraction(1, 10**6))),
    lambda a: add(a, parse_exact("3/5")),
    lambda a: mul(a, parse_exact("1/sqrt2")),
)


@st.composite
def perturbed_networks(draw):
    """A valid exact network with one entry of one row (the initial one or a
    matrix row) replaced, or the row cut short by one entry."""
    net = draw(mixed_networks(exact=True))
    rows = [(None, None)] + [(i, j) for i, m in enumerate(net.edges) for j in range(len(m))]
    i, j = draw(st.sampled_from(rows))
    row = list(net.initial if i is None else net.edges[i][j])
    k = draw(st.integers(0, len(row) - 1))
    if draw(st.integers(0, 9)) == 0:
        del row[k]
    else:
        row[k] = draw(st.sampled_from(PERTURBATIONS))(row[k])
    if i is None:
        return ContextNetwork(net.layers, tuple(row), net.edges)
    edges = [list(m) for m in net.edges]
    edges[i][j] = tuple(row)
    return ContextNetwork(net.layers, net.initial, tuple(map(tuple, edges)))


class TestIntegerRowCheck:
    @given(perturbed_networks())
    @settings(max_examples=60, deadline=None)
    def test_messages_equal_the_per_entry_check(self, net):
        assert net.is_exact()
        assert validate_context(net) == per_entry_messages(net)

    def test_an_entry_past_the_float_range_is_not_normalized(self):
        big = ExactAmplitude.of(10**200)
        h = parse_exact("1/sqrt2")
        net = hadamard_chain(3)
        for bad in (ContextNetwork(net.layers, (h, big), net.edges),
                    ContextNetwork(net.layers, net.initial, (((h, big), (h, h)), net.edges[1]))):
            messages = validate_context(bad)
            assert messages == per_entry_messages(bad)
            assert len(messages) == 1 and messages[0].startswith("row not normalized")


def exact_entries(draw, count):
    """Entries with random small denominators (mixed within a row), their
    coordinates drawn independently."""
    part = st.integers(-6, 6)
    return [ExactAmplitude(Sqrt2Scalar(Fraction(draw(part), n), Fraction(draw(part), n)),
                           Sqrt2Scalar(Fraction(draw(part), n), Fraction(draw(part), n)))
            for n in draw(st.lists(st.integers(1, 12), min_size=count, max_size=count))]


@st.composite
def exact_matrices(draw):
    """1-3 rows of 2-4 exact entries.  A row is a unit row of a Q(sqrt2)(i)
    unitary (its entries on denominators 1, 2, 5 or 13 together), that row with
    one entry scaled by 1 + an exact amount, random entries, a unit row with
    one entry past the float range, or one phased entry 1/3 + (2/3)sqrt2,
    whose |a|^2 has rational part 1 and sqrt2 part 4/9."""
    height, width = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    rows = []
    for _ in range(height):
        row = list(draw(unitaries(width, True))[draw(st.integers(0, width - 1))])
        kind = draw(st.sampled_from(("unit", "off", "random", "big", "sqrt2")))
        k = draw(st.integers(0, width - 1))
        if kind == "off":
            amount = Fraction(draw(st.sampled_from((-1, 1))), 10 ** draw(st.integers(1, 30)))
            scale = 1 + Sqrt2Scalar(*draw(st.sampled_from(((amount, 0), (0, amount)))))
            row[k] = mul(row[k], scale)
        elif kind == "random":
            row = exact_entries(draw, width)
        elif kind == "big":
            row[k] = ExactAmplitude.of(10**400)
        elif kind == "sqrt2":
            row = [ExactAmplitude.of(0)] * width
            phase = draw(st.sampled_from(EXACT_PHASES))
            row[k] = mul(phase, Sqrt2Scalar(Fraction(1, 3), Fraction(2, 3)))
        rows.append(tuple(row))
    return tuple(rows)


class TestFusedRowKernel:
    """`exactnum.checked_rows` against per-entry ExactAmplitude arithmetic."""

    @given(exact_matrices())
    @settings(max_examples=100, deadline=None)
    def test_rows_squares_and_off_rows_equal_the_per_entry_oracle(self, matrix):
        rows, squares, off = checked_rows(matrix)
        d = rows[0][0]
        assert all(a._k[4] and d % a._k[4] == 0 for row in matrix for a in row)
        for entries, (dx, x), (dy, y) in zip(matrix, rows, squares, strict=True):
            assert (dx, dy) == (d, d * d)
            assert [ExactAmplitude(Sqrt2Scalar(Fraction(x[k], d), Fraction(x[k + 1], d)),
                                   Sqrt2Scalar(Fraction(x[k + 2], d), Fraction(x[k + 3], d)))
                    for k in range(0, len(x), 4)] == list(entries)
            assert scalars((dy, y)) == tuple(map(abs2, entries))
        assert off == [j for j, entries in enumerate(matrix)
                       if sum(map(abs2, entries), ZERO) != ONE]

    def test_a_shared_denominator_is_kept(self):
        h = parse_exact("1/sqrt2")
        rows, squares, off = checked_rows(((h, h), (h, neg(h))))
        assert rows == [(2, [0, 1, 0, 0, 0, 1, 0, 0]), (2, [0, 1, 0, 0, 0, -1, 0, 0])]
        assert squares == [(4, [2, 0, 2, 0])] * 2 and off == []


def nudged(a):
    """a scaled by 1 + 1e-6: a row with a nonzero a is then off by more than NORM_TOL."""
    if isinstance(a, ExactAmplitude):
        return mul(a, 1 + Sqrt2Scalar(Fraction(1, 10**6)))
    return a * (1 + 1e-6)


# an entry replaced: 10**400 is past the float range, 10**200 only its square
REPLACEMENTS = (lambda a: ExactAmplitude.of(10**400), lambda a: ExactAmplitude.of(10**200),
                lambda a: 2.0, nudged)


@st.composite
def fielded_networks(draw):
    """An exact, float or mixed network: a mixed one is an exact one with its
    first initial entry and some others turned into complex numbers."""
    field = draw(st.sampled_from(("exact", "float", "mixed")))
    net = draw(mixed_networks(exact=field != "float"))
    if field != "mixed":
        return net
    rnd = draw(st.randoms(use_true_random=False))
    initial = [complex(a) if k == 0 or rnd.random() < 0.5 else a
               for k, a in enumerate(net.initial)]
    edges = [[tuple(complex(a) if rnd.random() < 0.5 else a for a in row) for row in m]
             for m in net.edges]
    return ContextNetwork(net.layers, initial, edges)


@st.composite
def defective_networks(draw):
    """A network of `fielded_networks` with one defect: a matrix or one matrix
    row missing, a row one entry short or long, or an entry replaced
    (`REPLACEMENTS`)."""
    net = draw(fielded_networks())
    initial, edges = list(net.initial), [list(m) for m in net.edges]
    defect = draw(st.sampled_from(("matrix", "matrix row", "short", "long", "entry")))
    if defect == "matrix":
        edges.pop()
    elif defect == "matrix row":
        edges[draw(st.integers(0, len(edges) - 1))].pop()
    else:
        i = draw(st.integers(-1, len(edges) - 1))  # -1: the initial vector
        j = draw(st.integers(0, len(edges[i]) - 1)) if i >= 0 else None
        row = list(initial if i < 0 else edges[i][j])
        k = draw(st.integers(0, len(row) - 1))
        if defect == "short":
            del row[k]
        elif defect == "long":
            row.append(row[k])
        else:
            row[k] = draw(st.sampled_from(REPLACEMENTS))(row[k])
        if i < 0:
            initial = row
        else:
            edges[i][j] = tuple(row)
    return ContextNetwork(net.layers, tuple(initial), tuple(map(tuple, edges)))


class TestOneCheckPath:
    @given(defective_networks())
    @settings(max_examples=150, deadline=None)
    def test_propagate_refuses_with_validate_messages(self, net):
        messages = validate_context(net)
        assume(messages)
        with pytest.raises(ContextError) as refused:
            propagate(net)
        assert str(refused.value) == "; ".join(messages)

    @given(defective_networks(),
           st.sampled_from((build_space, partial(build_space, simultaneous=True), reciprocal)))
    @settings(max_examples=100, deadline=None)
    def test_hilbert_refuses_with_validate_messages(self, net, entry):
        """build_space (simultaneous or not) and reciprocal check the network
        before they look at its shape or kind."""
        messages = validate_context(net)
        assume(messages)
        with pytest.raises(ContextError) as refused:
            entry(net)
        assert str(refused.value) == "; ".join(messages)


def outcome(call, *args):
    """What ``call(*args)`` returns, or its refusal's type and message."""
    try:
        return call(*args)
    except ValueError as e:
        return type(e), str(e)


def propagated(net):
    """propagate's answer on ``net``: labels, probabilities as float.hex,
    exact values and rules, or its refusal's type and message."""
    dist = outcome(propagate, net)
    if not isinstance(dist, Distribution):
        return dist
    return dist.labels, bits(dist.probabilities), dist.exact, dist.rules


# Entry points that read a network's check; an int j is reduce_by_observation(net, j).
ENTRY_POINTS = (
    propagate, validate_context, reciprocal, build_space, partial(build_space, simultaneous=True),
    partial(build_space, joint_volumes=JointVolumeTable(((0.25, 0.25), (0.25, 0.25)))),
    lambda net: validate_context(net).append("edited"),
    lambda net: validate_context(net).clear(),
)


class TestReusedNetwork:
    """A network keeps its first check, and nothing that reads it may change
    it: after any calls, a network answers as a fresh copy of itself does."""

    @given(st.one_of(fielded_networks(), defective_networks()),
           st.lists(st.sampled_from(ENTRY_POINTS) | st.integers(0, 2), max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_a_reused_network_answers_as_a_fresh_copy(self, net, calls):
        for call in calls:
            if isinstance(call, int):
                outcome(reduce_by_observation, net, call)
            else:
                outcome(call, net)
        fresh = copy.copy(net)
        assert validate_context(net) == validate_context(fresh)
        assert propagated(net) == propagated(fresh)


def sum_merge(weights, squared):
    """The float merge as a generator sum() per value: the oracle for `_merge`."""
    return [sum(w * row[j] for w, row in zip(weights, squared)) for j in range(len(squared[0]))]


def sum_carry(rows, matrix):
    """The float carry as a generator sum() per value: the oracle for `_carry`."""
    return [[sum(a * m_row[k] for a, m_row in zip(row, matrix)) for k in range(len(matrix[0]))]
            for row in rows]


def bits(values):
    """Each float's (or complex part's) hex spelling: -0.0 differs from 0.0."""
    return [part.hex() for v in values
            for part in ((v.real, v.imag) if isinstance(v, complex) else (v,))]


SIGNED_ZEROS = (-0.0, complex(0, -0.0), complex(-0.0, -0.0), 0j)


@st.composite
def signed_zero_networks(draw):
    """A float network in which some decided layers' rows (the initial vector
    if the first layer is decided) are standard basis rows, phased, whose
    zeros are signed (-0.0, complex(0, -0.0), ...)."""
    net = draw(mixed_networks(exact=False))
    decided = [i for i, layer in enumerate(net.layers[:-1]) if layer.level is Knowability.DECIDED]

    def basis_row(width):
        k = draw(st.integers(0, width - 1))
        one = draw(st.sampled_from((1.0, -1.0, 1j, complex(-0.0, -1.0))))
        return tuple(one if c == k else draw(st.sampled_from(SIGNED_ZEROS)) for c in range(width))

    edges = [list(m) for m in net.edges]
    for i in decided:
        edges[i] = [basis_row(len(row)) if draw(st.booleans()) else row for row in edges[i]]
    initial = net.initial
    if net.layers[0].level is Knowability.DECIDED and draw(st.booleans()):
        initial = basis_row(len(initial))
    return ContextNetwork(net.layers, initial, tuple(map(tuple, edges)))


class TestFloatFold:
    """The float fold accumulates one row at a time from 0, so every value
    is added in the order a generator sum() adds it."""

    @given(signed_zero_networks())
    @settings(max_examples=60, deadline=None)
    def test_propagate_is_bit_identical_to_the_sum_fold(self, net):
        dist = propagate(net)
        with mock.patch.object(context, "_merge", sum_merge), \
                mock.patch.object(context, "_carry", sum_carry):
            want = propagate(net)
        assert bits(dist.probabilities) == bits(want.probabilities)
        assert (dist.rules, dist.exact) == (want.rules, None)

    @given(st.lists(st.lists(st.one_of(st.sampled_from(SIGNED_ZEROS),
                                       st.complex_numbers(max_magnitude=4)),
                             min_size=3, max_size=3), min_size=1, max_size=3),
           st.lists(st.sampled_from((1, 0.5, -0.0, 0.0, -1.5)), min_size=3, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_kernels_are_bit_identical_to_the_sum_oracles(self, rows, weights):
        matrix = [tuple(row) for row in rows]
        squared = [[a.real for a in row] for row in rows]
        assert bits(context._merge(weights, squared)) == bits(sum_merge(weights, squared))
        carried = context._carry([row[:len(matrix)] for row in rows], matrix)
        assert [bits(row) for row in carried] == \
            [bits(row) for row in sum_carry([row[:len(matrix)] for row in rows], matrix)]


PHASES = {"exact": (parse_exact("1"), parse_exact("-1"), I, neg(I)), "float": (1, -1, 1j, -1j)}


def rephased(net, i, j, phase, inverse):
    """Value j of layer i rephased: row j of its outgoing matrix (if it has
    one) times `phase`, column j of its incoming matrix (or initial[j]) times
    `inverse`."""
    edges = [list(m) for m in net.edges]
    if i < len(edges):
        edges[i][j] = tuple(mul(a, phase) for a in edges[i][j])
    initial = list(net.initial)
    if i == 0:
        initial[j] = mul(initial[j], inverse)
    else:
        edges[i - 1] = [row[:j] + (mul(row[j], inverse),) + row[j + 1:] for row in edges[i - 1]]
    return ContextNetwork(net.layers, tuple(initial), tuple(map(tuple, edges)))


def permuted(net, i, order):
    """The values of layer i (labels included) in the order `order`: the
    incoming matrix's columns (or the initial vector) and the outgoing
    matrix's rows follow them."""
    layers, edges = list(net.layers), [list(m) for m in net.edges]
    layer = layers[i]
    layers[i] = Layer(layer.property_id, layer.level, tuple(layer.labels[k] for k in order))
    initial = net.initial
    if i == 0:
        initial = tuple(initial[k] for k in order)
    else:
        edges[i - 1] = [tuple(row[k] for k in order) for row in edges[i - 1]]
    if i < len(edges):
        edges[i] = [edges[i][k] for k in order]
    return ContextNetwork(tuple(layers), initial, tuple(map(tuple, edges)))


def assert_same_distribution(got, want, exact):
    assert got.labels == want.labels and got.rules == want.rules
    if exact:
        assert got.exact == want.exact
    else:
        assert all(abs(p - q) <= 1e-12 for p, q in zip(got.probabilities, want.probabilities))


class TestPropagateMetamorphic:
    """Relabellings that leave the physics unchanged leave `propagate`'s
    output unchanged: exactly for exact networks, within 1e-12 for float ones."""

    @given(st.sampled_from(("exact", "float")), st.data())
    @settings(max_examples=80, deadline=None)
    def test_rephasing_a_level_one_value(self, field, data):
        net = data.draw(mixed_networks(exact=field == "exact"))
        never = [i for i, layer in enumerate(net.layers[:-1]) if layer.level is Knowability.NEVER]
        assume(never)
        i = data.draw(st.sampled_from(never))
        j = data.draw(st.integers(0, net.layers[i].size - 1))
        k = data.draw(st.integers(0, 3))
        phases = PHASES[field]
        # phases are 1, -1, i, -i: the inverse of phase k is phase k ^ (k >> 1)
        other = rephased(net, i, j, phases[k], phases[k ^ (k >> 1)])
        assert_same_distribution(propagate(other), propagate(net), field == "exact")

    @given(st.sampled_from(("exact", "float")), st.data())
    @settings(max_examples=60, deadline=None)
    def test_rephasing_a_final_matrix_column(self, field, data):
        net = data.draw(mixed_networks(exact=field == "exact"))
        last = len(net.layers) - 1
        k = data.draw(st.integers(0, net.layers[last].size - 1))
        one, *phases = PHASES[field]
        other = rephased(net, last, k, one, data.draw(st.sampled_from(phases)))
        assert_same_distribution(propagate(other), propagate(net), field == "exact")

    @given(st.sampled_from(("exact", "float")), st.data())
    @settings(max_examples=60, deadline=None)
    def test_rephasing_a_whole_row_after_a_decided_layer(self, field, data):
        net = data.draw(mixed_networks(exact=field == "exact"))
        decided = [i for i, layer in enumerate(net.layers[:-1])
                   if layer.level is Knowability.DECIDED]
        assume(decided)
        i = data.draw(st.sampled_from(decided))
        j = data.draw(st.integers(0, net.layers[i].size - 1))
        one, *phases = PHASES[field]
        other = rephased(net, i, j, data.draw(st.sampled_from(phases)), one)
        assert_same_distribution(propagate(other), propagate(net), field == "exact")

    @given(st.sampled_from(("exact", "float")), st.data())
    @settings(max_examples=80, deadline=None)
    def test_permuting_a_decided_layer(self, field, data):
        net = data.draw(mixed_networks(exact=field == "exact"))
        decided = [i for i, layer in enumerate(net.layers) if layer.level is Knowability.DECIDED]
        i = data.draw(st.sampled_from(decided))
        order = data.draw(st.permutations(range(net.layers[i].size)))
        want = propagate(net)
        if i == len(net.layers) - 1:  # the outcome itself is permuted
            want = Distribution(tuple(want.labels[k] for k in order),
                                tuple(want.probabilities[k] for k in order),
                                want.exact and tuple(want.exact[k] for k in order), want.rules)
        assert_same_distribution(propagate(permuted(net, i, order)), want, field == "exact")


def renamed(messages, i, order):
    """validate_context's messages once the values of layer i are put in
    `order` (as `permuted` puts them): matrix i's unnormalized rows move with
    their values, and every other message stays as it is."""
    prefix = f"row not normalized: matrix {i} row "
    moved = iter(sorted(order.index(int(m.removeprefix(prefix)))
                        for m in messages if m.startswith(prefix)))
    return [f"{prefix}{next(moved)}" if m.startswith(prefix) else m for m in messages]


class TestValidateMetamorphic:
    @given(st.sampled_from(("exact", "float")), st.data())
    @settings(max_examples=80, deadline=None)
    def test_permuting_a_layer_names_the_permuted_rows(self, field, data):
        net = data.draw(mixed_networks(exact=field == "exact"))
        rows = [(i, j) for i, m in enumerate(net.edges) for j in range(len(m))]
        edges = [list(m) for m in net.edges]
        for i, j in data.draw(st.lists(st.sampled_from(rows), min_size=1, unique=True)):
            edges[i][j] = tuple(mul(a, 2) for a in edges[i][j])  # its |a|^2 sum to 4
        bad = ContextNetwork(net.layers, net.initial, tuple(map(tuple, edges)))
        i = data.draw(st.integers(0, len(net.layers) - 1))
        order = data.draw(st.permutations(range(net.layers[i].size)))
        messages = validate_context(bad)
        assert messages
        assert validate_context(permuted(bad, i, order)) == renamed(messages, i, order)


@st.composite
def interference_contexts(draw, exact):
    """A level-1 property of M = 2-3 values before a decided one of M' = M-4
    values, joined by M orthonormal rows."""
    m = draw(st.integers(2, 3))
    mp = draw(st.integers(m, 4))
    layers = (Layer("P", Knowability.NEVER, tuple(float(k + 1) for k in range(m))),
              Layer("Q", Knowability.DECIDED, tuple(float(k + 1) for k in range(mp))))
    return ContextNetwork(layers, draw(unitaries(m, exact))[0],
                          (tuple(draw(unitaries(mp, exact))[:m]),))


def hilbert_readout(net, joint_volumes=None):
    """The hilbert command's numbers: the commutator's norm and verdict, and
    the principle-4 probabilities."""
    space = build_space(net, joint_volumes=joint_volumes)
    first, second = net.layers
    a, b = make_operator(space, first.property_id), make_operator(space, second.property_id)
    assert (a.eigenvalues, b.eigenvalues) == (first.labels, second.labels)
    comm = commutator(a, b)
    return comm.norm, comm.commuting, principle4_probabilities(space)


class TestHilbertMetamorphic:
    """The operators and the principle-4 probabilities belong to the context,
    not to the order of its values or the phase of each basis vector.  The
    space is built in floats for exact networks too, so every comparison is
    within 1e-12."""

    @given(st.sampled_from(("exact", "float")),
           st.sampled_from(("permute P", "permute Q", "rephase P", "rephase Q")), st.data())
    @settings(max_examples=100, deadline=None)
    def test_relabelling_keeps_the_commutator_and_moves_the_probabilities(
            self, field, change, data):
        net = data.draw(interference_contexts(exact=field == "exact"))
        i = 0 if change.endswith("P") else 1
        size = net.layers[i].size
        if change.startswith("permute"):
            order = data.draw(st.permutations(range(size)))
            other = permuted(net, i, order)
        else:
            j, k = data.draw(st.integers(0, size - 1)), data.draw(st.integers(0, 3))
            phases = PHASES[field]
            other = rephased(net, i, j, phases[k], phases[k ^ (k >> 1)])
        norm, commuting, probs = hilbert_readout(net)
        got_norm, got_commuting, got_probs = hilbert_readout(other)
        assert abs(got_norm - norm) <= 1e-12 * max(1.0, norm)
        assert got_commuting is commuting
        if change == "permute Q":
            probs = [probs[k] for k in order]
        assert all(abs(p - q) <= 1e-12 for p, q in zip(got_probs, probs, strict=True))


@st.composite
def block_unitaries(draw, exact, sizes=(2, 5)):
    """An M x M unitary: a direct sum of 1x1 blocks and 2x2 Hadamard blocks,
    each times a phase from +-1, +-i, with its rows and columns permuted."""
    m = draw(st.integers(*sizes))
    phases = PHASES["exact" if exact else "float"]
    r = parse_exact("1/sqrt2") if exact else 1 / math.sqrt(2)
    zero = parse_exact("0") if exact else 0j
    u = [[zero] * m for _ in range(m)]
    j = 0
    while j < m:
        phase = draw(st.sampled_from(phases))
        if j + 1 < m and draw(st.booleans()):
            h = mul(r, phase)
            u[j][j], u[j][j + 1], u[j + 1][j], u[j + 1][j + 1] = h, h, h, neg(h)
            j += 2
        else:
            u[j][j] = phase
            j += 1
    rows, cols = draw(st.permutations(range(m))), draw(st.permutations(range(m)))
    return tuple(tuple(u[i][k] for k in cols) for i in rows)


def distinct_labels(m):
    return st.lists(st.integers(-9, 9).filter(bool), min_size=m, max_size=m,
                    unique=True).map(lambda xs: tuple(map(float, xs)))


def fixes_the_second_value(matrix) -> bool:
    """Whether every row of |a_jk|^2 has one nonzero entry: each value of P
    fixes the value of P'."""
    return all(sum(complex(a) != 0 for a in row) == 1 for row in matrix)


class TestCommutationFromTheNetwork:
    """A pair is commuting exactly when each value of P fixes the value of P',
    read off the network as a |a_jk|^2 with one nonzero entry per row."""

    @given(st.sampled_from(("exact", "float")), st.data())
    @settings(max_examples=100, deadline=None)
    def test_interference_pair(self, field, data):
        matrix = data.draw(block_unitaries(exact=field == "exact"))
        m = len(matrix)
        net = ContextNetwork(
            (Layer("P", Knowability.NEVER, data.draw(distinct_labels(m))),
             Layer("Q", Knowability.DECIDED, data.draw(distinct_labels(m)))),
            matrix[0], (matrix,))
        assert hilbert_readout(net)[1] is fixes_the_second_value(matrix)

    @given(st.sampled_from(("exact", "float")), st.data())
    @settings(max_examples=50, deadline=None)
    def test_sequential_pair_with_a_table(self, field, data):
        # a sequential space is built from a table with equal entries, or at
        # M = 2 from a symmetric one: of these blocks, only M = 2 has a space
        matrix = data.draw(block_unitaries(exact=field == "exact", sizes=(2, 2)))
        table = JointVolumeTable([[abs(complex(a)) ** 2 / 2 for a in row] for row in matrix])
        net = ContextNetwork(
            (Layer("P", Knowability.DECIDED, data.draw(distinct_labels(2))),
             Layer("Q", Knowability.DECIDED, data.draw(distinct_labels(2)))),
            matrix[0], (matrix,))
        assert hilbert_readout(net, table)[1] is fixes_the_second_value(matrix)
