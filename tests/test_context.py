from fractions import Fraction

import pytest

from epiq.context import (ContextError, ContextNetwork, ContextualState, Layer,
                          pad_virtual_values, propagate, reduce_by_consistency,
                          reduce_by_observation, validate_context)
from epiq.evolution import Knowability
from epiq.exactnum import ExactAmplitude, Sqrt2Scalar, abs2, parse_exact

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
            initial=(H, H), edges=(((H, H), (H, H + H)),))
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

    def test_duplicate_labels(self):
        net = ContextNetwork(
            layers=(Layer("p", Knowability.NEVER, (1.0, 1.0)),
                    Layer("q", Knowability.DECIDED, (1.0, 2.0))),
            initial=(H, H), edges=(((H, H), (H, HN)),))
        assert any("distinct" in msg for msg in validate_context(net))


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
        dist = propagate(mz(1), start=ContextualState(layer_cursor=0, reduced=1))
        assert dist.probabilities == (0.5, 0.5)

    @pytest.mark.parametrize("start, match", [
        (ContextualState(layer_cursor=0, amplitudes=(ONE, ZERO, ZERO)), "2 amplitudes"),
        (ContextualState(layer_cursor=7, amplitudes=(H, H)), "outside"),
        (ContextualState(layer_cursor=-1, amplitudes=(H, H)), "outside"),
        (ContextualState(layer_cursor=0, reduced=-1), "value index"),
    ])
    def test_start_out_of_range_rejected(self, start, match):
        with pytest.raises(ContextError, match=match):
            propagate(mz(1), start=start)

    def test_born_map(self):
        assert abs2(H) == Sqrt2Scalar.of(Fraction(1, 2))
        assert abs2(0.6 + 0.8j) == pytest.approx(1.0)


class TestReduction:
    def test_observation_collapses(self):
        state = ContextualState(layer_cursor=0, amplitudes=(H, H))
        reduced = reduce_by_observation(state, mz(3), outcome=0)
        assert reduced.reduced == 0

    def test_observation_forbidden_at_level_one(self):
        state = ContextualState(layer_cursor=0, amplitudes=(H, H))
        with pytest.raises(ContextError, match="unknowable"):
            reduce_by_observation(state, mz(1), outcome=0)

    def test_impossible_outcome_rejected(self):
        state = ContextualState(layer_cursor=0, amplitudes=(ONE, ZERO))
        with pytest.raises(ContextError, match="impossible"):
            reduce_by_observation(state, mz(3), outcome=1)

    def test_observation_of_a_tiny_exact_amplitude_is_possible(self):
        # |tiny|^2 = 10**-800 is 0.0 as a float, but not zero
        tiny = ExactAmplitude.of(Fraction(1, 10**400))
        net = ContextNetwork(
            layers=(Layer("path", Knowability.DECIDED, (1.0, 2.0)),
                    Layer("detector", Knowability.DECIDED, (1.0, 2.0))),
            initial=(ONE, tiny),
            edges=(((ONE, ZERO), (ZERO, ONE)),))
        assert propagate(net).exact[1] == Sqrt2Scalar(Fraction(1, 10**800))
        state = ContextualState(layer_cursor=0, amplitudes=(ONE, tiny))
        assert reduce_by_observation(state, net, outcome=1).reduced == 1

    def test_impossible_float_outcome_rejected(self):
        state = ContextualState(layer_cursor=0, amplitudes=(1 + 0j, 0j))
        with pytest.raises(ContextError, match="impossible"):
            reduce_by_observation(state, mz(3), outcome=1)

    @pytest.mark.parametrize("cursor", [-1, 2])
    def test_cursor_outside_network_rejected(self, cursor):
        # -1 would index the decided detector layer, 2 is one past the end
        state = ContextualState(layer_cursor=cursor, amplitudes=(H, H))
        with pytest.raises(ContextError, match="outside"):
            reduce_by_observation(state, mz(1), outcome=0)

    def test_state_is_superposed_xor_reduced(self):
        with pytest.raises(ContextError):
            ContextualState(layer_cursor=0, amplitudes=(H, H), reduced=0)
        with pytest.raises(ContextError):
            ContextualState(layer_cursor=0)

    def test_superposed_state_must_be_normalized(self):
        with pytest.raises(ContextError, match="normalized"):
            ContextualState(layer_cursor=0, amplitudes=(ONE, ONE))

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

