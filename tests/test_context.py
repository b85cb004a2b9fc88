from fractions import Fraction

import pytest

from epiq.context import (ContextError, ContextNetwork, Layer, propagate, reduce_by_consistency,
                          reduce_by_observation, validate_context)
from epiq.evolution import Knowability
from epiq.exactnum import ExactAmplitude, Sqrt2Scalar, parse_exact
from exact_oracle import abs2, add
from padding import pad_virtual_values

H = parse_exact("1/sqrt2")
HN = parse_exact("-1/sqrt2")
ZERO = parse_exact("0")
ONE = parse_exact("1")


def mz(level: int) -> ContextNetwork:
    """Balanced two-layer interferometer; the middle layer's level varies."""
    return ContextNetwork(
        layers=(Layer("path", Knowability(level), (1.0, 2.0)),
                Layer("detector", Knowability.DECIDED, (1.0, 2.0))),
        initial=(H, H),
        edges=(((H, H), (H, HN)),))


def test_knowability_is_one_object_in_every_module():
    import epiq
    import epiq.context
    assert Knowability is epiq.Knowability is epiq.context.Knowability


class TestValidation:
    def test_valid_network(self):
        assert validate_context(mz(1)) == []

    def test_final_layer_must_be_decided(self):
        net = ContextNetwork(
            layers=(Layer("p", Knowability.DECIDED, (1.0, 2.0)),
                    Layer("q", Knowability.NEVER, (1.0, 2.0))),
            initial=(H, H), edges=(((H, H), (H, HN)),))
        assert "final property must be decided" in validate_context(net)

    def test_row_normalization(self):
        net = ContextNetwork(
            layers=(Layer("p", Knowability.NEVER, (1.0, 2.0)),
                    Layer("q", Knowability.DECIDED, (1.0, 2.0))),
            initial=(H, H), edges=(((H, H), (H, add(H, H))),))
        assert any("row not normalized" in msg for msg in validate_context(net))

    def test_matrix_shape(self):
        net = ContextNetwork(
            layers=(Layer("p", Knowability.NEVER, (1.0, 2.0)),
                    Layer("q", Knowability.DECIDED, (1.0, 2.0))),
            initial=(H, H), edges=(((H, H),),))
        assert any("expected shape" in msg for msg in validate_context(net))

    def test_narrowing_level_one_needs_padding(self):
        net = ContextNetwork(
            layers=(Layer("p", Knowability.NEVER, (1.0, 2.0, 3.0)),
                    Layer("q", Knowability.DECIDED, (1.0, 2.0))),
            initial=(H, H, ZERO),
            edges=(((H, H), (H, HN), (ONE, ZERO)),))
        assert any("padding" in msg for msg in validate_context(net))

    def test_nan_amplitude_flagged(self):
        nan = complex(float("nan"), 0.0)
        net = ContextNetwork(
            layers=(Layer("p", Knowability.NEVER, (1.0, 2.0)),
                    Layer("q", Knowability.DECIDED, (1.0, 2.0))),
            initial=(nan, 0j), edges=(((1 + 0j, 0j), (0j, nan)),))
        assert validate_context(net) == ["row not normalized: initial amplitudes",
                                         "row not normalized: matrix 0 row 1"]
        with pytest.raises(ContextError, match="not normalized"):
            propagate(net)

    @pytest.mark.parametrize("big", [1e160, ExactAmplitude.of(10**200)],
                             ids=["float-square-overflows", "exact-sum-past-float-range"])
    def test_square_past_the_float_range_is_not_normalized(self, big):
        net = ContextNetwork(
            layers=(Layer("p", Knowability.NEVER, (1.0, 2.0)),
                    Layer("q", Knowability.DECIDED, (1.0, 2.0))),
            initial=(big, H), edges=(((H, H), (H, big)),))
        assert validate_context(net) == ["row not normalized: initial amplitudes",
                                         "row not normalized: matrix 0 row 1"]
        with pytest.raises(ContextError, match="not normalized"):
            propagate(net)

    def test_layer_of_one_value_is_no_complete_set(self):
        net = ContextNetwork(
            layers=(Layer("p", Knowability.NEVER, (1.0,)),
                    Layer("q", Knowability.DECIDED, (1.0, 2.0))),
            initial=(ONE,), edges=(((H, H),),))
        assert validate_context(net) == ["layer p: a complete set needs at least 2 alternatives"]

    def test_duplicate_labels(self):
        net = ContextNetwork(
            layers=(Layer("p", Knowability.NEVER, (1.0, 1.0)),
                    Layer("q", Knowability.DECIDED, (1.0, 2.0))),
            initial=(H, H), edges=(((H, H), (H, HN)),))
        assert any("distinct" in msg for msg in validate_context(net))

    def test_non_finite_labels(self):
        """Two NaN labels are unequal, so distinctness alone lets them through."""
        net = ContextNetwork(
            layers=(Layer("a", Knowability.NEVER, (float("nan"), float("nan"))),
                    Layer("b", Knowability.DECIDED, (1.0, float("inf")))),
            initial=(H, H), edges=(((H, H), (H, HN)),))
        assert validate_context(net) == ["layer a: value labels must be finite",
                                         "layer b: value labels must be finite"]


class TestPropagate:
    def test_amplitude_rule_interferes(self):
        dist = propagate(mz(1))
        assert dist.probabilities == (1.0, 0.0)
        assert dist.rules == ("amplitude",)
        assert dist.exact == (Sqrt2Scalar.of(1), Sqrt2Scalar.of(0))

    def test_classical_rule_mixes(self):
        dist = propagate(mz(3))
        assert dist.probabilities == (0.5, 0.5)
        assert dist.rules == ("classical",)
        assert dist.exact == (Sqrt2Scalar.of(Fraction(1, 2)),) * 2

    def test_total_variation_dichotomy(self):
        assert propagate(mz(1)).total_variation(propagate(mz(3))) == 0.5

    def test_total_variation_refuses_different_labels(self):
        two = propagate(mz(1))
        three = propagate(ContextNetwork(
            layers=(Layer("p", Knowability.DECIDED, (1.0, 2.0, 3.0)),),
            initial=(ONE, ZERO, ZERO), edges=()))
        relabelled = propagate(ContextNetwork(
            layers=(Layer("path", Knowability.NEVER, (1.0, 2.0)),
                    Layer("detector", Knowability.DECIDED, (1.0, 5.0))),
            initial=(H, H), edges=(((H, H), (H, HN)),)))
        for a, b in ((two, three), (three, two), (two, relabelled)):
            with pytest.raises(ValueError, match="same labels"):
                a.total_variation(b)

    def test_unresolved_contingent_layer_rejected(self):
        with pytest.raises(ContextError, match="contingent"):
            propagate(mz(2))

    def test_float_amplitudes_supported(self):
        h = complex(H)
        net = ContextNetwork(
            layers=(Layer("p", Knowability.NEVER, (1.0, 2.0)),
                    Layer("q", Knowability.DECIDED, (1.0, 2.0))),
            initial=(h, h), edges=(((h, h), (h, -h)),))
        dist = propagate(net)
        assert dist.exact is None
        assert dist.probabilities[0] == pytest.approx(1.0)

    def test_non_unitary_level_one_matrix_rejected(self):
        net = ContextNetwork(
            layers=(Layer("p", Knowability.NEVER, (1.0, 2.0)),
                    Layer("q", Knowability.DECIDED, (1.0, 2.0))),
            initial=(H, H), edges=(((H, H), (H, H)),))
        with pytest.raises(ContextError, match="unitarity"):
            propagate(net)

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_non_unitary_mass_on_one_outcome_rejected(self, exact):
        # totals (2, 0): the sum check must see them before any clip to 1
        h = H if exact else complex(H)
        one, zero = (parse_exact("1"), parse_exact("0")) if exact else (1.0, 0.0)
        net = ContextNetwork(
            layers=(Layer("p", Knowability.NEVER, (1.0, 2.0)),
                    Layer("q", Knowability.DECIDED, (1.0, 2.0))),
            initial=(h, h), edges=(((one, zero), (one, zero)),))
        with pytest.raises(ContextError, match="unitarity"):
            propagate(net)

    def test_float_rounding_above_one_is_clipped(self):
        h = 0.7071067811865476
        net = ContextNetwork(
            layers=(Layer("p", Knowability.NEVER, (1.0, 2.0)),
                    Layer("q", Knowability.DECIDED, (1.0, 2.0))),
            initial=(h, h), edges=(((h, h), (h, -h)),))
        assert propagate(net).probabilities == (1.0, 0.0)

    def test_three_layer_mixed_rules(self):
        net = ContextNetwork(
            layers=(Layer("which", Knowability.DECIDED, (1.0, 2.0)),
                    Layer("path", Knowability.NEVER, (1.0, 2.0)),
                    Layer("detector", Knowability.DECIDED, (1.0, 2.0))),
            initial=(H, H),
            edges=(((ONE, ZERO), (ZERO, ONE)), ((H, H), (H, HN))))
        dist = propagate(net)
        assert dist.rules == ("classical", "amplitude")
        assert dist.probabilities == (0.5, 0.5)

    def test_thirty_decided_layers_merge_exactly(self):
        # A mixture of one branch per decided path would hold 2^29 branches.
        net = ContextNetwork(
            layers=tuple(Layer(f"L{i}", Knowability.DECIDED, (1.0, 2.0)) for i in range(30)),
            initial=(H, H),
            edges=(((H, H), (H, HN)),) * 29)
        dist = propagate(net)
        assert dist.rules == ("classical",) * 29
        assert dist.exact == (Sqrt2Scalar.of(Fraction(1, 2)),) * 2
        assert dist.probabilities == (0.5, 0.5)

    def test_start_from_reduced_state(self):
        # value 1 of mz(1)'s path known: the detector layer fed by row 1
        dist = propagate(ContextNetwork(mz(1).layers[1:], mz(1).edges[0][1], ()))
        assert dist.probabilities == (0.5, 0.5) and dist.rules == ()

    def test_a_start_is_checked_and_propagated_on_its_own(self):
        # a superposed start at mz(1)'s path layer, after a decided source whose
        # float matrix has an unnormalized row: the start reaches neither
        source = Layer("source", Knowability.DECIDED, (1.0, 2.0))
        net = ContextNetwork((source,) + mz(1).layers, (ONE, ZERO),
                             (((2 + 0j, 0j), (0.6 + 0j, 0.8j)),) + mz(1).edges)
        start = ContextNetwork(net.layers[1:], (H, HN), net.edges[1:])
        assert validate_context(net) == ["row not normalized: matrix 0 row 0"]
        assert propagate(start).exact == (Sqrt2Scalar.of(0), Sqrt2Scalar.of(1))

    def test_born_map(self):
        assert abs2(H) == Sqrt2Scalar.of(Fraction(1, 2))
        assert abs2(0.6 + 0.8j) == pytest.approx(1.0)


class TestReduction:
    def test_observation_collapses(self):
        # value 1 known: the later layers, fed by row 1 of the first matrix
        reduced = reduce_by_observation(mz(3), outcome=1)
        assert reduced == ContextNetwork(mz(3).layers[1:], (H, HN), ())
        assert propagate(reduced).probabilities == (0.5, 0.5)

    def test_observation_forbidden_at_level_one(self):
        with pytest.raises(ContextError, match="unknowable"):
            reduce_by_observation(mz(1), outcome=0)

    def test_impossible_outcome_rejected(self):
        net = ContextNetwork(mz(3).layers, (ONE, ZERO), mz(3).edges)
        with pytest.raises(ContextError, match="impossible"):
            reduce_by_observation(net, outcome=1)

    def test_observation_of_a_tiny_exact_amplitude_is_possible(self):
        # |tiny|^2 = 10**-800 is 0.0 as a float, but not zero
        tiny = ExactAmplitude.of(Fraction(1, 10**400))
        net = ContextNetwork(
            layers=(Layer("path", Knowability.DECIDED, (1.0, 2.0)),
                    Layer("detector", Knowability.DECIDED, (1.0, 2.0))),
            initial=(ONE, tiny),
            edges=(((ONE, ZERO), (ZERO, ONE)),))
        assert propagate(net).exact[1] == Sqrt2Scalar(Fraction(1, 10**800))
        assert reduce_by_observation(net, outcome=1).initial == (ZERO, ONE)

    def test_tiny_exact_amplitude_in_a_mixed_network_is_impossible(self):
        # a float matrix makes the network mixed, so it is checked and folded
        # in floats, where |tiny|^2 is 0.0: the outcome is impossible there
        tiny = ExactAmplitude.of(Fraction(1, 10**400))
        net = ContextNetwork(
            layers=(Layer("path", Knowability.DECIDED, (1.0, 2.0)),
                    Layer("detector", Knowability.DECIDED, (1.0, 2.0))),
            initial=(ONE, tiny),
            edges=(((1.0, 0.0), (0.0, 1.0)),))
        assert propagate(net).probabilities == (1.0, 0.0)
        with pytest.raises(ContextError, match="impossible"):
            reduce_by_observation(net, outcome=1)

    def test_impossible_float_outcome_rejected(self):
        net = ContextNetwork(mz(3).layers, (1 + 0j, 0j), mz(3).edges)
        with pytest.raises(ContextError, match="impossible"):
            reduce_by_observation(net, outcome=1)

    @pytest.mark.parametrize("outcome", [-1, 2])
    def test_outcome_outside_the_layer_rejected(self, outcome):
        with pytest.raises(ContextError, match=f"no value index {outcome} at layer path"):
            reduce_by_observation(mz(3), outcome=outcome)

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    @pytest.mark.parametrize("outcome", [True, False, 1.0, 0.0])
    def test_outcome_that_is_not_an_int_rejected(self, exact, outcome):
        # True once read as index 1, and 1.0 raised a bare TypeError
        net = mz(3) if exact else ContextNetwork(
            mz(3).layers, (0.6 + 0j, 0.8 + 0j), (((1 + 0j, 0j), (0j, 1 + 0j)),))
        with pytest.raises(ContextError, match=f"no value index {outcome} at layer path"):
            reduce_by_observation(net, outcome=outcome)

    def test_one_layer_network_leaves_nothing_to_propagate(self):
        with pytest.raises(ContextError, match="nothing left to propagate"):
            reduce_by_observation(reduce_by_observation(mz(3), outcome=0), outcome=0)

    @pytest.mark.parametrize("net", [
        ContextNetwork((), (), ()),
        ContextNetwork(mz(3).layers, (H, H), ()),
        ContextNetwork(mz(3).layers, (ONE, ZERO, ZERO), mz(3).edges),
    ], ids=["no-layers", "missing-matrix", "long-initial"])
    def test_malformed_network_rejected_with_validation_messages(self, net):
        with pytest.raises(ContextError) as refused:
            reduce_by_observation(net, outcome=0)
        assert str(refused.value) == "; ".join(validate_context(net))

    def test_superposed_state_must_be_normalized(self):
        # a superposed state at the path layer is the network fed by it
        state = ContextNetwork(mz(3).layers, (ONE, ONE), mz(3).edges)
        for refuse in (propagate, lambda net: reduce_by_observation(net, outcome=0)):
            with pytest.raises(ContextError, match="row not normalized: initial amplitudes"):
                refuse(state)

    def test_consistency_promotes_when_reachable(self):
        resolved = reduce_by_consistency(mz(2), path_knowledge_reachable=True)
        assert resolved.layers[0].level is Knowability.DECIDED
        assert propagate(resolved).probabilities == (0.5, 0.5)

    def test_consistency_degrades_when_erased(self):
        resolved = reduce_by_consistency(mz(2), path_knowledge_reachable=False)
        assert resolved.layers[0].level is Knowability.NEVER
        assert propagate(resolved).probabilities == (1.0, 0.0)

    def test_nothing_to_resolve(self):
        with pytest.raises(ContextError, match="nothing"):
            reduce_by_consistency(mz(1), path_knowledge_reachable=True)


class TestPadding:
    def wide(self):
        return ContextNetwork(
            layers=(Layer("p", Knowability.NEVER, (1.0, 2.0, 3.0)),
                    Layer("q", Knowability.DECIDED, (1.0, 2.0))),
            initial=(H, H, ZERO),
            edges=(((H, H), (H, HN), (ONE, ZERO)),))

    def test_padding_restores_validity(self):
        padded = pad_virtual_values(self.wide(), 0)
        assert validate_context(padded) == []
        assert padded.layers[1].size == 3

    def test_virtual_values_carry_zero_probability(self):
        dist = propagate(pad_virtual_values(self.wide(), 0))
        assert len(dist.labels) == 3
        assert dist.probabilities[2] == 0.0

    def test_padding_unnecessary(self):
        with pytest.raises(ContextError, match="unnecessary"):
            pad_virtual_values(mz(1), 0)

    def test_padding_only_after_level_one(self):
        net = ContextNetwork(
            layers=(Layer("p", Knowability.DECIDED, (1.0, 2.0, 3.0)),
                    Layer("q", Knowability.DECIDED, (1.0, 2.0))),
            initial=(H, H, ZERO),
            edges=(((H, H), (H, HN), (ONE, ZERO)),))
        with pytest.raises(ContextError, match="level-1"):
            pad_virtual_values(net, 0)

