import math

import numpy as np
import pytest

from epiq.context import ContextError, ContextNetwork, Layer, propagate
from epiq.evolution import Knowability
from epiq.hilbert import (JointVolumeTable, SpaceConstructionError, build_space, commutator,
                          inner, make_operator, principle4_probabilities, reciprocal)

H = 1 / math.sqrt(2)


def interference_net(initial=(H, H)):
    return ContextNetwork(
        layers=(Layer("path", Knowability.NEVER, (1.0, 2.0)),
                Layer("detector", Knowability.DECIDED, (1.0, 2.0))),
        initial=tuple(complex(a) for a in initial),
        edges=(((H + 0j, H + 0j), (H + 0j, -H + 0j)),))


def sequential_net():
    return ContextNetwork(
        layers=(Layer("P", Knowability.DECIDED, (1.0, 2.0)),
                Layer("Q", Knowability.DECIDED, (1.0, 2.0))),
        initial=(H + 0j, H + 0j),
        edges=(((H + 0j, H + 0j), (H + 0j, -H + 0j)),))


def quarter_volumes():
    return JointVolumeTable(v=((0.25, 0.25), (0.25, 0.25)))


class TestJointVolumeTable:
    def test_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to one"):
            JointVolumeTable(v=((0.5, 0.5), (0.5, 0.5)))

    def test_nonnegative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            JointVolumeTable(v=((0.75, -0.25), (0.25, 0.25)))

    @pytest.mark.parametrize("v, message", [
        (((float("nan"), 0.5), (0.25, 0.25)), "nonnegative"),
        (((float("inf"), 0.5), (0.25, 0.25)), "sum to one"),
        (((10**400, 0), (0, 0)), "joint volumes must be within the float range"),
    ], ids=["nan", "inf", "int-past-float-range"])
    def test_non_finite_volumes_rejected(self, v, message):
        with pytest.raises(ValueError, match=message):
            JointVolumeTable(v=v)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            JointVolumeTable(v=((0.25, 0.25), (0.25, 0.125, 0.125)))

    def test_symmetric_pair_conditions(self):
        assert quarter_volumes().symmetric_pair_conditions_hold()
        # symmetric with equal diagonal: holds
        assert JointVolumeTable(v=((0.4, 0.1), (0.1, 0.4))).symmetric_pair_conditions_hold()
        assert not JointVolumeTable(v=((0.4, 0.2), (0.1, 0.3))).symmetric_pair_conditions_hold()


class TestInterferenceSpace:
    def test_dimension_and_bases(self):
        space = build_space(interference_net())
        assert space.dimension == 2
        assert space.kind == "interference"

    def test_inner_products_reproduce_amplitudes(self):
        net = interference_net()
        space = build_space(net)
        p, d = space.basis("path"), space.basis("detector")
        a = np.array([[H, H], [H, -H]])
        for j in range(2):
            for k in range(2):
                assert inner(p[:, j], d[:, k]) == pytest.approx(a[j, k], abs=1e-12)

    def test_principle4_matches_propagate(self):
        net = interference_net()
        space = build_space(net)
        probs = principle4_probabilities(space, net)
        assert probs == pytest.approx(propagate(net).probabilities, abs=1e-12)

    def test_wider_second_layer_completion(self):
        s = math.sqrt(0.5)
        net = ContextNetwork(
            layers=(Layer("path", Knowability.NEVER, (1.0, 2.0)),
                    Layer("detector", Knowability.DECIDED, (1.0, 2.0, 3.0))),
            initial=(1 + 0j, 0j),
            edges=(((s, s, 0j), (s, -s, 0j)),))
        space = build_space(net)
        assert space.dimension == 3
        w = space.basis("detector")
        assert np.max(np.abs(np.conj(w).T @ w - np.eye(3))) < 1e-12
        probs = principle4_probabilities(space, net)
        assert probs == pytest.approx(propagate(net).probabilities, abs=1e-12)

    def test_narrower_second_layer_needs_padding(self):
        net = ContextNetwork(
            layers=(Layer("path", Knowability.NEVER, (1.0, 2.0, 3.0)),
                    Layer("detector", Knowability.DECIDED, (1.0, 2.0))),
            initial=(1 + 0j, 0j, 0j),
            edges=(((H, H), (H, -H), (1 + 0j, 0j)),))
        with pytest.raises(SpaceConstructionError, match="pad virtual values"):
            build_space(net)

    def test_nonunitary_matrix_rejected(self):
        net = ContextNetwork(
            layers=(Layer("path", Knowability.NEVER, (1.0, 2.0)),
                    Layer("detector", Knowability.DECIDED, (1.0, 2.0))),
            initial=(H + 0j, H + 0j),
            edges=(((H, H), (H, H)),))
        with pytest.raises(SpaceConstructionError, match="orthonormal"):
            build_space(net)


class TestJointSpace:
    def test_product_dimensions(self):
        s = math.sqrt(1 / 3)
        net = ContextNetwork(
            layers=(Layer("P", Knowability.DECIDED, (1.0, 2.0)),
                    Layer("Q", Knowability.DECIDED, (1.0, 2.0, 3.0))),
            initial=(H + 0j, H + 0j),
            edges=((tuple([s + 0j] * 3),) * 2,))
        space = build_space(net, simultaneous=True)
        assert space.dimension == 6
        assert space.subspace_dimensions("P") == (3, 3)
        assert space.subspace_dimensions("Q") == (2, 2, 2)

    def test_subspaces_have_no_single_basis(self):
        s = math.sqrt(1 / 3)
        net = ContextNetwork(
            layers=(Layer("P", Knowability.DECIDED, (1.0, 2.0)),
                    Layer("Q", Knowability.DECIDED, (1.0, 2.0, 3.0))),
            initial=(H + 0j, H + 0j),
            edges=((tuple([s + 0j] * 3),) * 2,))
        space = build_space(net, simultaneous=True)
        with pytest.raises(SpaceConstructionError, match="subspaces"):
            space.basis("P")


class TestSequentialSpace:
    def test_45_degree_basis(self):
        space = build_space(sequential_net(), joint_volumes=quarter_volumes())
        p, q = space.basis("P"), space.basis("Q")
        for j in range(2):
            for k in range(2):
                assert abs(inner(p[:, j], q[:, k])) ** 2 == pytest.approx(0.5, abs=1e-12)

    def test_coinciding_bases(self):
        net = ContextNetwork(
            layers=(Layer("P", Knowability.DECIDED, (1.0, 2.0)),
                    Layer("Q", Knowability.DECIDED, (1.0, 2.0))),
            initial=(H + 0j, H + 0j),
            edges=(((1 + 0j, 0j), (0j, 1 + 0j)),))
        space = build_space(net, joint_volumes=JointVolumeTable(v=((0.5, 0.0), (0.0, 0.5))))
        p, q = space.basis("P"), space.basis("Q")
        assert np.max(np.abs(p - q)) < 1e-12

    def test_requires_square(self):
        s = math.sqrt(1 / 3)
        net = ContextNetwork(
            layers=(Layer("P", Knowability.DECIDED, (1.0, 2.0)),
                    Layer("Q", Knowability.DECIDED, (1.0, 2.0, 3.0))),
            initial=(H + 0j, H + 0j),
            edges=((tuple([s + 0j] * 3),) * 2,))
        with pytest.raises(SpaceConstructionError, match="no reciprocal basis"):
            build_space(net, joint_volumes=JointVolumeTable(
                v=((1 / 6,) * 3, (1 / 6,) * 3)))

    def test_non_neutral_rejected(self):
        net = ContextNetwork(
            layers=(Layer("P", Knowability.DECIDED, (1.0, 2.0)),
                    Layer("Q", Knowability.DECIDED, (1.0, 2.0))),
            initial=(H + 0j, H + 0j),
            edges=(((0.6 + 0j, 0.8 + 0j), (0.8 + 0j, -0.6 + 0j)),))
        with pytest.raises(SpaceConstructionError, match="not neutral"):
            build_space(net, joint_volumes=quarter_volumes())

    def test_vectorcond_violation(self):
        v = JointVolumeTable(v=((0.4, 0.1), (0.1, 0.4)))
        a11 = math.sqrt(0.8)
        a12 = math.sqrt(0.2)
        net = ContextNetwork(
            layers=(Layer("P", Knowability.DECIDED, (1.0, 2.0)),
                    Layer("Q", Knowability.DECIDED, (1.0, 2.0))),
            initial=(H + 0j, H + 0j),
            edges=(((a11 + 0j, a12 + 0j), (a12 + 0j, a11 + 0j)),))
        space = build_space(net, joint_volumes=v)  # symmetric, equal diagonal: fine
        assert space.dimension == 2
        skew = JointVolumeTable(v=((0.4, 0.2), (0.1, 0.3)))
        net2 = ContextNetwork(
            layers=net.layers, initial=net.initial,
            edges=(((math.sqrt(2 / 3) + 0j, math.sqrt(1 / 3) + 0j),
                    (0.5 + 0j, math.sqrt(0.75) + 0j)),))
        with pytest.raises(SpaceConstructionError, match="no orthonormal second basis"):
            build_space(net2, joint_volumes=skew)

    def test_independent_pair_fourier(self):
        m = 3
        s = math.sqrt(1 / m)
        net = ContextNetwork(
            layers=(Layer("P", Knowability.DECIDED, (1.0, 2.0, 3.0)),
                    Layer("Q", Knowability.DECIDED, (1.0, 2.0, 3.0))),
            initial=(1 + 0j, 0j, 0j),
            edges=((tuple([s + 0j] * m),) * m,))
        v = JointVolumeTable(v=tuple((1 / 9,) * 3 for _ in range(3)))
        space = build_space(net, joint_volumes=v)
        p, q = space.basis("P"), space.basis("Q")
        for j in range(m):
            for k in range(m):
                assert abs(inner(p[:, j], q[:, k])) ** 2 == pytest.approx(1 / 3, abs=1e-12)

    def test_unsupported_pair_class(self):
        m = 3
        row = tuple(math.sqrt(c) + 0j for c in (1 / 2, 1 / 3, 1 / 6))
        net = ContextNetwork(
            layers=(Layer("P", Knowability.DECIDED, (1.0, 2.0, 3.0)),
                    Layer("Q", Knowability.DECIDED, (1.0, 2.0, 3.0))),
            initial=(1 + 0j, 0j, 0j),
            edges=((row,) * m,))
        lopsided = [[1 / 6, 1 / 9, 1 / 18]] * 3
        with pytest.raises(SpaceConstructionError, match="unsupported pair class"):
            build_space(net, joint_volumes=JointVolumeTable(
                v=tuple(tuple(r) for r in lopsided)))


@pytest.mark.parametrize("net, kwargs, message", [
    (sequential_net(), {}, "sequential space needs a joint volume table"),
    (sequential_net(), {"joint_volumes": JointVolumeTable(v=((0.5, 0.5),))},
     "joint volume table has the wrong shape"),
    (ContextNetwork(layers=(Layer("P", Knowability.CONTINGENT, (1.0, 2.0)),
                            Layer("Q", Knowability.DECIDED, (1.0, 2.0))),
                    initial=(H + 0j, H + 0j), edges=(((1 + 0j, 0j), (0j, 1 + 0j)),)),
     {"simultaneous": True}, "joint space needs both properties decided"),
], ids=["no-table", "wrong-shape", "joint-undecided"])
def test_build_space_refusals(net, kwargs, message):
    with pytest.raises(SpaceConstructionError, match=message):
        build_space(net, **kwargs)


class TestOperators:
    def space(self):
        return build_space(sequential_net(), joint_volumes=quarter_volumes())

    def test_diagonal_in_own_basis(self):
        op = make_operator(self.space(), "P", labels=(1.0, -1.0))
        assert np.max(np.abs(op.matrix - np.diag([1.0, -1.0]))) < 1e-12

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            make_operator(self.space(), "P", labels=(1.0, 1.0))

    def test_spectral_reconstruction(self):
        space = self.space()
        op = make_operator(space, "Q", labels=(2.0, -3.0))
        rebuilt = sum(val * (b @ np.conj(b).T)
                      for val, b in zip(op.eigenvalues, space.value_spaces["Q"]))
        assert np.max(np.abs(rebuilt - op.matrix)) < 1e-12

    def test_commutator_dichotomy(self):
        space = self.space()
        a = make_operator(space, "P", labels=(1.0, -1.0))
        b = make_operator(space, "Q", labels=(1.0, -1.0))
        c = commutator(a, b)
        assert not c.commuting
        assert c.norm == pytest.approx(2.0, abs=1e-12)
        assert commutator(a, a).norm < 1e-12

    def test_joint_space_operators_commute(self):
        s = math.sqrt(1 / 3)
        net = ContextNetwork(
            layers=(Layer("P", Knowability.DECIDED, (1.0, 2.0)),
                    Layer("Q", Knowability.DECIDED, (1.0, 2.0, 3.0))),
            initial=(H + 0j, H + 0j),
            edges=((tuple([s + 0j] * 3),) * 2,))
        space = build_space(net, simultaneous=True)
        a = make_operator(space, "P", labels=(1.0, -1.0))
        b = make_operator(space, "Q", labels=(1.0, 2.0, 3.0))
        assert commutator(a, b).commuting

    def test_dimension_mismatch(self):
        a = make_operator(self.space(), "P", labels=(1.0, -1.0))
        space3 = build_space(ContextNetwork(
            layers=(Layer("P", Knowability.NEVER, (1.0, 2.0, 3.0)),
                    Layer("Q", Knowability.DECIDED, (1.0, 2.0, 3.0))),
            initial=(1 + 0j, 0j, 0j),
            edges=((tuple(tuple(math.sqrt(1 / 3) * np.exp(2j * np.pi * j * k / 3)
                                for k in range(3)) for j in range(3))),)))
        b = make_operator(space3, "P")
        with pytest.raises(ValueError, match="different spaces"):
            commutator(a, b)


class TestReciprocal:
    def test_identity_matrix(self):
        net = ContextNetwork(
            layers=(Layer("P", Knowability.NEVER, (1.0, 2.0)),
                    Layer("Q", Knowability.DECIDED, (1.0, 2.0))),
            initial=(0.6 + 0j, 0.8 + 0j),
            edges=(((1 + 0j, 0j), (0j, 1 + 0j)),))
        rec = reciprocal(net)
        assert np.max(np.abs(np.array(rec.edges[0]) - np.eye(2))) < 1e-12
        assert rec.initial == pytest.approx((0.6 + 0j, 0.8 + 0j))
        assert rec.layers[0].property_id == "Q"

    def test_hadamard_self_inverse(self):
        net = interference_net(initial=(1.0, 0.0))
        rec = reciprocal(net)
        a = np.array([[H, H], [H, -H]])
        assert np.max(np.abs(np.array(rec.edges[0]) - a)) < 1e-12
        assert np.array(rec.initial) == pytest.approx(a[0])

    def test_round_trip(self):
        net = interference_net()
        rr = reciprocal(reciprocal(net))
        assert np.max(np.abs(np.array(rr.edges[0]) -
                             np.array([[H, H], [H, -H]]))) < 1e-12
        assert np.array(rr.initial) == pytest.approx(np.array([H, H]))

    def test_rectangular_rejected(self):
        s = math.sqrt(1 / 3)
        net = ContextNetwork(
            layers=(Layer("P", Knowability.NEVER, (1.0, 2.0)),
                    Layer("Q", Knowability.DECIDED, (1.0, 2.0, 3.0))),
            initial=(H + 0j, H + 0j),
            edges=((tuple([s + 0j] * 3),) * 2,))
        with pytest.raises(ContextError, match="if and only if"):
            reciprocal(net)

    def test_singular_rejected(self):
        net = ContextNetwork(
            layers=(Layer("P", Knowability.NEVER, (1.0, 2.0)),
                    Layer("Q", Knowability.DECIDED, (1.0, 2.0))),
            initial=(H + 0j, H + 0j),
            edges=(((H + 0j, H + 0j), (H + 0j, H + 0j)),))
        with pytest.raises(ContextError, match="reciprocal undefined"):
            reciprocal(net)
