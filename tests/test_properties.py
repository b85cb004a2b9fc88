"""Property-based suites for the measure, combination, and evolution laws,
and for context propagation against brute-force path enumeration."""
import cmath
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epiq.context import (ContextNetwork, ContextualState, Layer, pad_virtual_values, propagate,
                          validate_context)
from epiq.evolution import EvolutionRule, Knowability, make_alternatives, probability
from epiq.exactnum import ExactAmplitude, Sqrt2Scalar, abs2, parse_exact
from epiq.statespace import (AttributeDef, EpistemicState, ExactState, ObjectRegistry,
                             PropertySpec, VoidStateError, all_exact_states, combine,
                             full_state, relative_volume, state_slice, volume)


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
EXACT_PHASES = (parse_exact("1"), I, parse_exact("-1"), -I)


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
            row[p], row[q] = c * row[p] - s * row[q], s * row[p] + c * row[q]
    if exact:
        phases = [draw(st.sampled_from(EXACT_PHASES)) for _ in range(n)]
    else:
        phases = [cmath.exp(1j * draw(st.floats(0.0, 2 * math.pi))) for _ in range(n)]
    return [tuple(a * ph for a, ph in zip(row, phases)) for row in u]


@st.composite
def mixed_networks(draw, exact):
    """Depth 2-6, widths 2-3, levels 1 and 3.  A level-1 layer never feeds a
    narrower one (that needs padding) and gets orthonormal rows; a decided
    layer gets rows that are only normalized."""
    depth = draw(st.integers(2, 6))
    levels = [draw(st.sampled_from((Knowability.NEVER, Knowability.DECIDED)))
              for _ in range(depth - 1)] + [Knowability.DECIDED]
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
    net = ContextNetwork(layers=layers, initial=initial, edges=tuple(edges))
    cursor = draw(st.integers(0, depth - 2))
    start = draw(st.sampled_from((None, "reduced", "superposed")))
    if start == "reduced":
        start = ContextualState(layer_cursor=cursor,
                                reduced=draw(st.integers(0, sizes[cursor] - 1)))
    elif start == "superposed":
        start = ContextualState(layer_cursor=cursor,
                                amplitudes=draw(unitaries(sizes[cursor], exact))[0])
    return net, start


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


def path_oracle(net, start=None):
    """Final distribution by enumerating every path from the start layer.

    For each choice of values at the decided layers, the path amplitudes are
    summed over the values of the level-1 layers before squaring; the squared
    sums are then added classically."""
    cursor, initial = 0, net.initial
    if start is not None:
        cursor = start.layer_cursor
        initial = start.amplitudes
        if start.reduced is not None:
            initial = [int(k == start.reduced) for k in range(net.layers[cursor].size)]
    layers = net.layers[cursor:]
    decided = [i for i, l in enumerate(layers) if l.level is Knowability.DECIDED]
    never = [i for i, l in enumerate(layers) if l.level is Knowability.NEVER]
    totals = [0] * net.final_layer.size
    for dvals in itertools.product(*(range(layers[i].size) for i in decided)):
        coherent = 0
        for nvals in itertools.product(*(range(layers[i].size) for i in never)):
            path = dict(zip(decided, dvals)) | dict(zip(never, nvals))
            amp = initial[path[0]]
            for i in range(len(layers) - 1):
                amp = net.edges[cursor + i][path[i]][path[i + 1]] * amp
            coherent = coherent + amp
        totals[path[len(layers) - 1]] += abs2(coherent)
    return totals


class TestPropagationOracle:
    @given(mixed_networks(exact=True))
    @settings(max_examples=25, deadline=None)
    def test_exact_fold_equals_path_enumeration(self, case):
        net, start = case
        dist = propagate(net, start=start)
        assert dist.exact is not None
        assert list(dist.exact) == path_oracle(net, start)

    @given(mixed_networks(exact=False))
    @settings(max_examples=25, deadline=None)
    def test_float_fold_equals_path_enumeration(self, case):
        net, start = case
        dist = propagate(net, start=start)
        assert dist.exact is None
        for p, q in zip(dist.probabilities, path_oracle(net, start)):
            assert abs(p - q) <= 1e-12

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
