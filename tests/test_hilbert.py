import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epiq.context
from epiq.context import (ContextError, ContextNetwork, Layer, propagate, reduce_by_observation,
                          validate_context)
from epiq.evolution import Knowability
from epiq.exactnum import ExactAmplitude, parse_exact
from epiq.hilbert import (ContextSpace, JointVolumeTable, PropertyOperator,
                          SpaceConstructionError, _orthonormal, _recompose, build_space,
                          commutator, inner, make_operator, principle4_probabilities, reciprocal,
                          spectral_norm)
from epiq.scenario import bundled_scenario_path, load_scenario_file
from padding import pad_virtual_values

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


def wide_matrix_net(level=Knowability.NEVER, edges=(((1 + 0j, 0j, 0j), (0j, 1 + 0j, 0j)),)):
    """Two-valued layers whose one matrix is 2x3 (or ``edges`` instead)."""
    return ContextNetwork(layers=(Layer("P", level, (1.0, 2.0)),
                                  Layer("Q", Knowability.DECIDED, (1.0, 2.0))),
                          initial=(1 + 0j, 0j), edges=edges)


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

    def test_symmetric_pair_conditions_fail_on_a_rectangular_table(self):
        table = JointVolumeTable(v=((0.25, 0.0, 0.25), (0.25, 0.0, 0.25)))
        assert table.shape == (2, 3)
        assert table.symmetric_pair_conditions_hold() is False


class TestInterferenceSpace:
    def test_dimension_and_bases(self):
        space = build_space(interference_net())
        assert space.dimension == 2
        assert space.kind == "interference"

    def test_inner_products_reproduce_amplitudes(self):
        net = interference_net()
        space = build_space(net)
        p, d = np.asarray(space.basis("path")), np.asarray(space.basis("detector"))
        a = np.array([[H, H], [H, -H]])
        for j in range(2):
            for k in range(2):
                assert inner(p[:, j], d[:, k]) == pytest.approx(a[j, k], abs=1e-12)

    def test_principle4_matches_propagate(self):
        net = interference_net()
        space = build_space(net)
        probs = principle4_probabilities(space)
        assert probs == pytest.approx(propagate(net).probabilities, abs=1e-12)

    @pytest.mark.parametrize("entry", [2.0, ExactAmplitude.of(10**400)],
                             ids=["float", "exact-past-float-range"])
    def test_principle4_refuses_what_validate_refuses(self, entry):
        net = interference_net()
        bad = ContextNetwork(net.layers, (entry, 0), net.edges)
        assert validate_context(bad) == ["row not normalized: initial amplitudes"]
        with pytest.raises(ContextError) as refused:
            build_space(bad)
        assert str(refused.value) == "row not normalized: initial amplitudes"

    def test_wider_second_layer_completion(self):
        s = math.sqrt(0.5)
        net = ContextNetwork(
            layers=(Layer("path", Knowability.NEVER, (1.0, 2.0)),
                    Layer("detector", Knowability.DECIDED, (1.0, 2.0, 3.0))),
            initial=(1 + 0j, 0j),
            edges=(((s, s, 0j), (s, -s, 0j)),))
        space = build_space(net)
        assert space.dimension == 3
        p, d = np.asarray(space.basis("path")), np.asarray(space.basis("detector"))
        assert p.shape == (3, 2)  # two value vectors in C^3, and nothing completes them
        assert np.max(np.abs(np.conj(p).T @ p - np.eye(2))) < 1e-12
        assert np.array_equal(d, np.eye(3))
        for j in range(2):
            for k in range(3):
                assert inner(p[:, j], d[:, k]) == net.edges[0][j][k]
        probs = principle4_probabilities(space)
        assert probs == pytest.approx(propagate(net).probabilities, abs=1e-12)

    def test_narrower_second_layer_needs_padding(self):
        net = ContextNetwork(
            layers=(Layer("path", Knowability.NEVER, (1.0, 2.0, 3.0)),
                    Layer("detector", Knowability.DECIDED, (1.0, 2.0))),
            initial=(1 + 0j, 0j, 0j),
            edges=(((H, H), (H, -H), (1 + 0j, 0j)),))
        with pytest.raises(ContextError) as refused:
            build_space(net)
        assert str(refused.value) == "layer path: requires virtual-value padding"

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
        p, q = np.asarray(space.basis("P")), np.asarray(space.basis("Q"))
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
        p, q = np.asarray(space.basis("P")), np.asarray(space.basis("Q"))
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
        p, q = np.asarray(space.basis("P")), np.asarray(space.basis("Q"))
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


@pytest.mark.parametrize("net, kwargs, error, message", [
    (sequential_net(), {}, SpaceConstructionError, "sequential space needs a joint volume table"),
    (sequential_net(), {"joint_volumes": JointVolumeTable(v=((0.5, 0.5),))},
     SpaceConstructionError, "joint volume table has the wrong shape"),
    (ContextNetwork(layers=(Layer("P", Knowability.CONTINGENT, (1.0, 2.0)),
                            Layer("Q", Knowability.DECIDED, (1.0, 2.0))),
                    initial=(H + 0j, H + 0j), edges=(((1 + 0j, 0j), (0j, 1 + 0j)),)),
     {"simultaneous": True}, SpaceConstructionError, "joint space needs both properties decided"),
    (ContextNetwork(layers=(Layer("P", Knowability.CONTINGENT, (1.0, 2.0)),
                            Layer("Q", Knowability.DECIDED, (1.0, 2.0))),
                    initial=(H + 0j, H + 0j), edges=(((1 + 0j, 0j), (0j, 1 + 0j)),)),
     {"joint_volumes": JointVolumeTable(v=((0.5, 0.0), (0.0, 0.5)))},
     SpaceConstructionError, "sequential space needs both properties decided"),
    (wide_matrix_net(), {}, ContextError, "matrix 0: expected shape 2x2"),
    (wide_matrix_net(Knowability.DECIDED), {"joint_volumes": quarter_volumes()},
     ContextError, "matrix 0: expected shape 2x2"),
    (wide_matrix_net(edges=()), {},
     ContextError, "need exactly one amplitude matrix per consecutive layer pair"),
    # the joint kind reads no matrix, but the network is checked first
    (ContextNetwork(layers=sequential_net().layers, initial=(2 + 0j, 0j),
                    edges=(((3 + 0j, 0j), (0j, 5 + 0j)),)), {"simultaneous": True},
     ContextError, "^row not normalized: initial amplitudes; row not normalized: matrix 0 row 0; "
                   "row not normalized: matrix 0 row 1$"),
], ids=["no-table", "wrong-shape", "joint-undecided", "sequential-undecided",
        "interference-matrix-shape", "sequential-matrix-shape", "no-matrix", "joint-invalid"])
def test_build_space_refusals(net, kwargs, error, message):
    with pytest.raises(error, match=message):
        build_space(net, **kwargs)


def dense(op):
    """An operator's matrix V diag(spectrum) V^H, rebuilt from its basis rows
    V (the identity for the standard basis)."""
    v = np.eye(len(op.spectrum)) if op.basis is None else np.asarray(op.basis)
    return v @ np.diag(op.spectrum) @ v.conj().T


class TestOperators:
    def space(self):
        return build_space(sequential_net(), joint_volumes=quarter_volumes())

    def test_diagonal_in_own_basis(self):
        space = self.space()
        for pid, labels in (("P", (1.0, -1.0)), ("Q", (2.0, -3.0))):
            v = np.asarray(space.basis(pid))
            a = dense(make_operator(space, pid, labels=labels))
            assert np.max(np.abs(np.conj(v).T @ a @ v - np.diag(labels))) < 1e-12

    def test_operator_records_its_space_and_hashes(self):
        space = self.space()
        op = make_operator(space, "Q", labels=(1.0, -1.0))
        twin = make_operator(self.space(), "Q", labels=(1.0, -1.0))
        assert op.space is space
        assert op == twin and hash(op) == hash(twin)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            make_operator(self.space(), "P", labels=(1.0, 1.0))

    def test_every_operator_checks_its_labels_and_fits_its_basis(self):
        """The constructor itself refuses a label count other than the
        property's value count and repeated labels, and `_recompose` refuses
        a spectrum longer than a basis row instead of truncating it."""
        space = self.space()
        with pytest.raises(ValueError, match="one label per value required"):
            PropertyOperator(space, "P", labels=(1.0, -1.0, 0.0))
        with pytest.raises(ValueError, match="property values must be distinct"):
            PropertyOperator(space, "P", labels=(1.0, 1.0))
        op = PropertyOperator(space, "P")
        with pytest.raises(ValueError):
            _recompose(op.basis, op.spectrum + (0.0,))

    def test_spectral_reconstruction(self):
        space = self.space()
        op = make_operator(space, "Q", labels=(2.0, -3.0))
        w = np.asarray(space.basis("Q"))
        rebuilt = sum(val * np.outer(w[:, k], np.conj(w[:, k]))
                      for k, val in enumerate(op.eigenvalues))
        assert np.max(np.abs(rebuilt - dense(op))) < 1e-12

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

    def test_exact_network_comes_back_as_floats(self):
        """The construction works in floats, so an exact network's reciprocal
        is not exact, and applying it twice gives back each entry within 1e-12."""
        net = load_scenario_file(bundled_scenario_path("mach-zehnder-open")).network
        assert net.is_exact()
        assert not reciprocal(net).is_exact()
        rr = reciprocal(reciprocal(net))
        for got, want in zip((*rr.initial, *(x for row in rr.edges[0] for x in row)),
                             (*net.initial, *(x for row in net.edges[0] for x in row)),
                             strict=True):
            assert abs(got - complex(want)) < 1e-12

    def test_three_layers_rejected(self):
        net = interference_net()
        three = ContextNetwork(net.layers + (Layer("screen", Knowability.DECIDED, (1.0, 2.0)),),
                               net.initial, net.edges + (((1 + 0j, 0j), (0j, 1 + 0j)),))
        assert validate_context(three) == []
        with pytest.raises(ContextError) as refused:
            reciprocal(three)
        assert str(refused.value) == "reciprocal context is defined for two-layer networks"

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

    def test_invertible_non_unitary_rejected(self):
        # a valid network (unit rows), but its inverse's rows are not unit vectors
        net = ContextNetwork(
            layers=(Layer("P", Knowability.NEVER, (1.0, 2.0)),
                    Layer("Q", Knowability.DECIDED, (1.0, 2.0))),
            initial=(H + 0j, H + 0j),
            edges=(((H + 0j, H + 0j), (0.6 + 0j, 0.8 + 0j)),))
        assert validate_context(net) == []
        with pytest.raises(ContextError, match="reciprocal undefined"):
            reciprocal(net)

    def test_never_decided_pair_reverses_to_a_valid_network(self):
        """The reversed first layer keeps the first position's level, so the
        final layer stays decided and the reversed fold gives back |initial_j|^2."""
        net = interference_net(initial=(0.6, 0.8))
        rec = reciprocal(net)
        assert [layer.level for layer in rec.layers] == [Knowability.NEVER, Knowability.DECIDED]
        assert validate_context(rec) == []
        dist = propagate(rec)
        assert dist.labels == net.layers[0].labels
        assert dist.probabilities == pytest.approx((0.36, 0.64), abs=1e-12)
        assert reciprocal(rec).layers == net.layers

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_unitary_decided_pair_reverses_to_a_valid_network(self, n):
        rng = np.random.default_rng(n)
        u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        labels = tuple(float(k + 1) for k in range(n))
        net = ContextNetwork(
            layers=(Layer("P", Knowability.DECIDED, labels),
                    Layer("Q", Knowability.DECIDED, labels)),
            initial=tuple(u[0]), edges=(tuple(map(tuple, u)),))
        assert validate_context(reciprocal(net)) == []


def random_hermitian(rng, n, shape):
    """An n x n Hermitian matrix: dense, zero, rank 1 of either sign, or with
    a repeated eigenvalue of the largest modulus."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if shape == "dense":
        return z + z.conj().T
    if shape == "zero":
        return np.zeros((n, n), dtype=complex)
    if shape == "rank1":
        return rng.choice([-1, 1]) * np.outer(z[0], z[0].conj())
    q = np.linalg.qr(z)[0]
    eigenvalues = rng.choice([-3.0, 3.0, 1.0, 0.0], size=n)
    eigenvalues[: (n + 1) // 2] = rng.choice([-3.0, 3.0])
    return q @ np.diag(eigenvalues) @ q.conj().T


class TestSpectralNorm:
    """The Householder-and-bisection norm against numpy's SVD norm, also with
    entries near 1e150 and 1e-150, where squares leave the float range."""

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 16), shape=st.sampled_from(["dense", "zero", "rank1", "repeated"]),
           scale=st.sampled_from([1.0, 1e150, 1e-150]), seed=st.integers(0, 2**32 - 1))
    def test_matches_numpy(self, n, shape, scale, seed):
        h = random_hermitian(np.random.default_rng(seed), n, shape) * scale
        assert spectral_norm(h.tolist()) == pytest.approx(np.linalg.norm(h, 2), rel=1e-12, abs=0)

    @pytest.mark.parametrize("shape", ["dense", "repeated"])
    def test_matches_numpy_at_64(self, shape):
        h = random_hermitian(np.random.default_rng(64), 64, shape)
        assert spectral_norm(h.tolist()) == pytest.approx(np.linalg.norm(h, 2), rel=1e-12, abs=0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(math.nan, 0)])
    def test_non_finite_entry_gives_nan(self, bad):
        h = [[1.0, 0j], [0j, bad]]
        assert math.isnan(spectral_norm(h))


def dense_oracle(net, volumes=None):
    """Commutator norm and principle-4 probabilities from numpy's dense
    construction: identity columns for the first property, the second basis
    from the amplitude matrix (its SVD completing it when M < M') or from the
    volume table, projector sums for the operators, [A, B] by matrix products
    and its norm from the SVD."""
    a = np.array([[complex(x) for x in row] for row in net.edges[0]])
    m, mp = a.shape
    if net.layers[0].level is Knowability.NEVER:
        w = np.conj(a)
        if m < mp:
            w = np.vstack([w, np.linalg.svd(w)[2][m:]])
    elif m == 2:
        alpha = math.acos(math.sqrt(min(1.0, 2.0 * volumes[0][0])))
        w = np.array([[math.cos(alpha), -math.sin(alpha)],
                      [math.sin(alpha), math.cos(alpha)]], dtype=complex)
    else:
        w = np.array([[np.exp(2j * np.pi * j * k / m) / np.sqrt(m) for k in range(m)]
                      for j in range(m)])
    dim = len(w)
    eye = np.eye(dim)
    op_a = sum(label * np.outer(eye[:, j], eye[:, j])
               for j, label in enumerate(net.layers[0].labels))
    op_b = sum(label * np.outer(w[:, k], np.conj(w[:, k]))
               for k, label in enumerate(net.layers[1].labels))
    norm = np.linalg.norm(op_a @ op_b - op_b @ op_a, 2)
    init = np.zeros(dim, dtype=complex)
    init[:m] = [complex(x) for x in net.initial]
    if net.layers[0].level is Knowability.DECIDED:
        probs = (np.abs(init) ** 2) @ (np.abs(w) ** 2)
    else:
        probs = np.abs(init @ w.conj()) ** 2
    return norm, np.minimum(1.0, probs)


def random_labels(rng, n):
    return tuple(float(x) for x in rng.permutation(n) + rng.normal(scale=0.3, size=n))


def random_unit(rng, n):
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    return tuple(complex(x) for x in z / np.linalg.norm(z))


class TestDenseOracle:
    """commutator and principle4_probabilities against the dense numpy
    construction, on random interference and sequential spaces; the
    commutator's result does not depend on the order of its operators."""

    @staticmethod
    def check(net, volumes=None):
        table = JointVolumeTable(v=volumes) if volumes else None
        space = build_space(net, joint_volumes=table)
        first, second = space.property_order
        a, b = make_operator(space, first), make_operator(space, second)
        assert (a.eigenvalues, b.eigenvalues) == tuple(layer.labels for layer in net.layers)
        result = commutator(a, b)
        assert commutator(b, a) == result  # the same floats, bit for bit
        want_norm, want_probs = dense_oracle(net, volumes)
        assert result.norm == pytest.approx(want_norm, rel=1e-12, abs=1e-13)
        assert principle4_probabilities(space) == pytest.approx(want_probs, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(2, 6), extra=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
    def test_interference(self, m, extra, seed):
        rng = np.random.default_rng(seed)
        mp = m + extra
        u = np.linalg.qr(rng.normal(size=(mp, mp)) + 1j * rng.normal(size=(mp, mp)))[0]
        self.check(ContextNetwork(
            layers=(Layer("P", Knowability.NEVER, random_labels(rng, m)),
                    Layer("Q", Knowability.DECIDED, random_labels(rng, mp))),
            initial=random_unit(rng, m), edges=(tuple(map(tuple, u[:m])),)))

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(2, 6), t=st.floats(0.0, 0.5), seed=st.integers(0, 2**32 - 1))
    def test_sequential(self, m, t, seed):
        rng = np.random.default_rng(seed)
        if m == 2:
            volumes = ((t, 0.5 - t), (0.5 - t, t))
        else:
            volumes = ((1 / m**2,) * m,) * m
        # neutral: each row's squared moduli are its conditional volumes
        phases = np.exp(2j * np.pi * rng.random(size=(m, m)))
        amplitudes = np.sqrt(np.array(volumes) * m) * phases
        self.check(ContextNetwork(
            layers=(Layer("P", Knowability.DECIDED, random_labels(rng, m)),
                    Layer("Q", Knowability.DECIDED, random_labels(rng, m))),
            initial=random_unit(rng, m), edges=(tuple(map(tuple, amplitudes)),)), volumes)


# offsets around numpy.allclose's bands: atol 1e-9, and rtol 1e-05 of entries near 0.25
OFFSETS = st.sampled_from([0.0, 4e-10, 1e-9, 1e-7, 1e-6, 1.2e-6, 2e-6, 1e-5])


@settings(max_examples=80, deadline=None)
@given(p=st.floats(0.05, 0.45), d1=OFFSETS, d2=OFFSETS, signs=st.tuples(st.booleans(), st.booleans()))
def test_symmetric_pair_conditions_follow_numpy_allclose(p, d1, d2, signs):
    d1, d2 = (-d1 if signs[0] else d1), (-d2 if signs[1] else d2)
    q = 0.5 - p
    table = JointVolumeTable(v=((p + d1, q + d2), (q - d2, p - d1)))
    a = np.array(table.v)
    want = bool(np.allclose(a, a.T, atol=1e-9) and np.allclose(np.diag(a), a[0, 0], atol=1e-9))
    assert table.symmetric_pair_conditions_hold() is want


@settings(max_examples=40, deadline=None)
@given(d=OFFSETS)
def test_fourier_class_follows_numpy_allclose(d):
    v = [[1 / 9] * 3 for _ in range(3)]
    v[0][1] += d
    v[1][0] -= d
    net = ContextNetwork(
        layers=(Layer("P", Knowability.DECIDED, (1.0, 2.0, 3.0)),
                Layer("Q", Knowability.DECIDED, (1.0, 2.0, 3.0))),
        initial=(1 + 0j, 0j, 0j),
        edges=(tuple(tuple(complex(math.sqrt(x / sum(row))) for x in row) for row in v),))
    table = JointVolumeTable(v=v)
    if np.allclose(np.array(table.v), table.v[0][0], atol=1e-9):
        assert build_space(net, joint_volumes=table).kind == "sequential"
    else:
        with pytest.raises(SpaceConstructionError, match="unsupported pair class"):
            build_space(net, joint_volumes=table)


def test_neutrality_check_fails_a_row_of_zero_volume():
    """A value of zero volume has no conditional volumes (0/0): NaN fails
    the neutrality check instead of passing it."""
    net = ContextNetwork(layers=sequential_net().layers, initial=(H + 0j, H + 0j),
                         edges=(((H + 0j, H + 0j), (1 + 0j, 0j)),))
    with pytest.raises(SpaceConstructionError, match="context not neutral"):
        build_space(net, joint_volumes=JointVolumeTable(v=((0.5, 0.5), (0.0, 0.0))))


def test_unitarity_check_fails_a_nan_amplitude():
    """A NaN row fails the row check, which comes first, and the unitarity check too."""
    rows = ((complex(math.nan), H + 0j), (H + 0j, -H + 0j))
    net = ContextNetwork(layers=interference_net().layers, initial=(H + 0j, H + 0j),
                         edges=(rows,))
    with pytest.raises(ContextError, match="row not normalized: matrix 0 row 0"):
        build_space(net)
    assert not _orthonormal(rows)


def past_float_range(net, initial=False):
    """``net`` with its first initial entry (or else matrix entry [0][0]) an
    exact amplitude past the float range."""
    big = ExactAmplitude.of(10**400)
    if initial:
        return ContextNetwork(net.layers, (big,) + net.initial[1:], net.edges)
    (row, *rows), = net.edges
    return ContextNetwork(net.layers, net.initial, (((big,) + row[1:], *rows),))


@pytest.mark.parametrize("call, message", [
    (lambda: reciprocal(past_float_range(interference_net())),
     "row not normalized: matrix 0 row 0"),
    (lambda: build_space(past_float_range(interference_net())),
     "row not normalized: matrix 0 row 0"),
    (lambda: build_space(past_float_range(sequential_net()), joint_volumes=quarter_volumes()),
     "row not normalized: matrix 0 row 0"),
], ids=["reciprocal", "interference", "sequential"])
def test_an_exact_entry_past_the_float_range_is_refused_with_its_message(call, message):
    """The entry converts to an infinite complex number, whose row fails the
    row check, instead of raising OverflowError."""
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == message


def test_reciprocal_of_an_initial_entry_past_the_float_range_fails_validation():
    net = past_float_range(interference_net(), initial=True)
    assert validate_context(net) == ["row not normalized: initial amplitudes"]
    with pytest.raises(ContextError) as refused:
        reciprocal(net)
    assert str(refused.value) == "row not normalized: initial amplitudes"


def drifting_chain():
    """All-decided float layers whose rows each sum to 1 + 9e-13, inside
    NORM_TOL, so the final total drifts to about 1 + 2.7e-12, past it."""
    s = complex(math.sqrt(1 + 9e-13))
    layers = tuple(Layer(f"L{i}", Knowability.DECIDED, (1.0, 2.0)) for i in range(3))
    return ContextNetwork(layers, (s, 0j), (((s, 0j), (0j, s)),) * 2)


def contingent_net():
    """The interferometer with its path layer left contingent (level 2)."""
    net = interference_net()
    return ContextNetwork((Layer("path", Knowability.CONTINGENT, (1.0, 2.0)),) + net.layers[1:],
                          net.initial, net.edges)


def joint_space():
    return build_space(sequential_net(), simultaneous=True)


def rotated_q(theta):
    """Q's operator in the 2x2 interference space whose matrix is a rotation
    by ``theta``: its basis is not the standard one."""
    c, s = complex(math.cos(theta)), complex(math.sin(theta))
    net = ContextNetwork(layers=(Layer("P", Knowability.NEVER, (1.0, 2.0)),
                                 Layer("Q", Knowability.DECIDED, (1.0, 2.0))),
                         initial=(1 + 0j, 0j), edges=(((c, s), (-s, c)),))
    return make_operator(build_space(net), "Q")


def mach_zehnder_open():
    """The bundled open interferometer: a level-1 ``path`` feeding ``detector``."""
    return load_scenario_file(bundled_scenario_path("mach-zehnder-open")).network


def three_outcome_net():
    """The interferometer's path feeding a three-valued detector."""
    s = math.sqrt(0.5)
    return ContextNetwork(interference_net().layers[:1]
                          + (Layer("detector", Knowability.DECIDED, (1.0, 2.0, 3.0)),),
                          (1 + 0j, 0j), (((s, s, 0j), (s, -s, 0j)),))


@pytest.mark.parametrize("call, message", [
    (lambda: propagate(contingent_net()), "unresolved contingent knowability"),
    (lambda: propagate(drifting_chain()), "distribution does not normalize"),
    (lambda: pad_virtual_values(interference_net(), 0), "padding unnecessary"),
    (lambda: make_operator(joint_space(), "P", labels=(1.0,)), "one label per value required"),
    (lambda: make_operator(joint_space(), "P", labels=(1.0, 1.0)),
     "property values must be distinct"),
    (lambda: make_operator(joint_space(), "P", labels=("nan", "nan")),
     "property values must be finite"),
    (lambda: commutator(make_operator(joint_space(), "P"),
                        make_operator(build_space(interference_net()), "path")),
     "operators act on different spaces"),
    # two non-standard bases come from two spaces, which may share a dimension
    (lambda: commutator(rotated_q(0.3), rotated_q(1.1)), "operators act on different spaces"),
    # of one dimension, and one basis standard: only the spaces tell them apart
    (lambda: commutator(make_operator(build_space(interference_net()), "path"),
                        rotated_q(1.1)),
     "operators act on different spaces"),
    (lambda: joint_space().basis("P"), "P is represented by subspaces, not vectors"),
    (lambda: make_operator(joint_space(), "nope"), "space has no property 'nope'"),
    (lambda: joint_space().basis("nope"), "space has no property 'nope'"),
    (lambda: joint_space().subspace_dimensions("nope"), "space has no property 'nope'"),
    (lambda: reciprocal(wide_matrix_net()), "matrix 0: expected shape 2x2"),
    (lambda: reciprocal(wide_matrix_net(edges=())),
     "need exactly one amplitude matrix per consecutive layer pair"),
    (lambda: reciprocal(ContextNetwork(interference_net().layers, (0.6 + 0j, 0.8 + 0j, 0j),
                                       interference_net().edges)),
     "initial amplitude vector does not match first layer"),
    # the (kind, bases) form is gone: a kind or bases in the place of a
    # table or flag is refused, as are a bare table and a truthy int
    (lambda: ContextSpace(mach_zehnder_open(), "interference",
                          (((2 + 0j, 0j), (0j, 2 + 0j)), None)),
     "joint volumes must be a JointVolumeTable, not 'interference'"),
    (lambda: ContextSpace(mach_zehnder_open(), "interference", (((1 + 0j,),), None)),
     "joint volumes must be a JointVolumeTable, not 'interference'"),
    (lambda: ContextSpace(mach_zehnder_open(), None, (None, None, None)),
     "simultaneous must be a bool, not (None, None, None)"),
    (lambda: ContextSpace(mach_zehnder_open(), None, (None, ((1 + 0j, 0j), (0j, 1 + 0j)))),
     "simultaneous must be a bool, not (None, (((1+0j), 0j), (0j, (1+0j))))"),
    (lambda: ContextSpace(mach_zehnder_open(), simultaneous=1),
     "simultaneous must be a bool, not 1"),
    (lambda: ContextSpace(mach_zehnder_open(), ((0.25, 0.25), (0.25, 0.25))),
     "joint volumes must be a JointVolumeTable, not ((0.25, 0.25), (0.25, 0.25))"),
], ids=["contingent", "drift", "padding", "label-count", "label-distinct", "label-finite", "spaces",
        "non-standard-bases", "standard-basis-other-space", "subspaces", "unknown-id-operator",
        "unknown-id-basis", "unknown-id-subspaces", "reciprocal-matrix-shape", "reciprocal-no-matrix",
        "reciprocal-initial-length", "space-kind", "space-bases-short", "space-bases-long",
        "space-last-basis", "space-single-kind", "space-bare-table"])
def test_refusals_carry_their_messages(call, message):
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == message


@pytest.mark.parametrize("call", [
    lambda: build_space(interference_net()),
    lambda: build_space(sequential_net(), simultaneous=True),
    lambda: build_space(sequential_net(), joint_volumes=quarter_volumes()),
    lambda: reciprocal(interference_net()),
], ids=["interference", "joint", "sequential", "reciprocal"])
def test_each_entry_point_checks_the_network_once(call, monkeypatch):
    calls, examine = [], epiq.context._examine
    monkeypatch.setattr(epiq.context, "_examine", lambda *a: calls.append(1) or examine(*a))
    call()
    assert len(calls) == 1


def test_principle4_checks_the_network_once(monkeypatch):
    net = interference_net()
    space = build_space(net)
    calls, examine = [], epiq.context._examine
    monkeypatch.setattr(epiq.context, "_examine", lambda *a: calls.append(1) or examine(*a))
    principle4_probabilities(space)
    assert len(calls) == 0


def test_entry_points_share_one_check_of_a_network(monkeypatch):
    """A network is checked on its first use only: every later entry point
    called on it reads that check.  A copy is checked again."""
    calls, examine = [], epiq.context._examine
    monkeypatch.setattr(epiq.context, "_examine", lambda *a: calls.append(1) or examine(*a))
    net = sequential_net()
    propagate(net)
    validate_context(net)
    build_space(net, joint_volumes=quarter_volumes())
    reciprocal(net)
    for j in range(net.layers[0].size):
        reduce_by_observation(net, j)
    assert len(calls) == 1
    propagate(copy.copy(net))
    assert len(calls) == 2


def test_principle4_refuses_a_joint_space():
    """A joint space represents its first property, P, by subspaces, so it
    has no value vectors to read the probabilities from."""
    net = sequential_net()
    with pytest.raises(SpaceConstructionError) as refused:
        principle4_probabilities(build_space(net, simultaneous=True))
    assert str(refused.value) == "P is represented by subspaces, not vectors"


def test_inner_refuses_vectors_of_unequal_length():
    assert inner((1, 0), (1, 0)) == 1
    for x, y in (((1, 0), (1,)), ((1,), (1, 0))):
        with pytest.raises(ValueError):
            inner(x, y)


def random_interference_net(m, mp, seed):
    """M rows of a random M' x M' unitary joining a level-1 property to a decided one."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.normal(size=(mp, mp)) + 1j * rng.normal(size=(mp, mp)))[0]
    return ContextNetwork((Layer("P", Knowability.NEVER, random_labels(rng, m)),
                           Layer("Q", Knowability.DECIDED, random_labels(rng, mp))),
                          random_unit(rng, m), (tuple(map(tuple, u[:m])),))


def fourier_space():
    s = complex(math.sqrt(1 / 3))
    net = ContextNetwork(tuple(Layer(pid, Knowability.DECIDED, (1.0, 2.0, 3.0)) for pid in "PQ"),
                         (1 + 0j, 0j, 0j), (((s,) * 3,) * 3,))
    return build_space(net, joint_volumes=JointVolumeTable(v=((1 / 9,) * 3,) * 3))


@pytest.mark.parametrize("make", [
    lambda: build_space(ContextNetwork((Layer("P", Knowability.DECIDED, (1.0, 2.0, 3.0)),),
                                       (0.6 + 0j, 0.8 + 0j, 0j), ())),
    joint_space,
    lambda: build_space(interference_net()),
    lambda: build_space(three_outcome_net()),
    lambda: build_space(random_interference_net(3, 5, seed=7)),
    lambda: build_space(sequential_net(), joint_volumes=quarter_volumes()),
    fourier_space,
], ids=["single", "joint", "interference", "interference-2x3", "interference-3x5", "sequential",
        "sequential-fourier"])
def test_last_property_has_the_standard_basis(make):
    """The last property's basis is the standard one; each property's value
    subspaces together have as many dimensions as it has basis columns,
    every other basis has orthonormal columns, and an operator's spectrum
    holds each label once per dimension of its value's subspace."""
    space = make()
    assert space.bases[-1] is None
    for pid, rows in zip(space.property_order, space.bases):
        columns = space.dimension if rows is None else len(rows[0])
        dims = space.subspace_dimensions(pid)
        assert sum(dims) == columns
        if rows is not None:
            v = np.asarray(rows)
            assert v.shape == (space.dimension, columns)
            assert np.max(np.abs(np.conj(v).T @ v - np.eye(columns))) < 1e-12
        op = make_operator(space, pid)
        assert len(op.spectrum) == columns
        assert [op.spectrum.count(label) for label in op.eigenvalues] == list(dims)


def test_records_survive_pickle_and_copy():
    """Each hilbert record, and a network already propagated, comes back from
    pickle, copy and deepcopy equal, with the same hash and repr; a space
    keeps its kind and bases, and the network propagates to the same
    distribution."""
    single = build_space(ContextNetwork((Layer("P", Knowability.DECIDED, (1.0, 2.0)),),
                                        (0.6 + 0j, 0.8 + 0j), ()))
    spaces = [single, joint_space(), build_space(interference_net()),
              build_space(sequential_net(), joint_volumes=quarter_volumes())]
    a = make_operator(spaces[2], "path")
    h, minus_h = parse_exact("1/sqrt2"), parse_exact("-1/sqrt2")
    exact_net = ContextNetwork(sequential_net().layers, (h, h), (((h, h), (h, minus_h)),))
    networks = [sequential_net(), exact_net]
    for net in networks:
        propagate(net)
    records = [*spaces, quarter_volumes(), a, commutator(a, make_operator(spaces[2], "detector")),
               *networks]
    for record in records:
        for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                      copy.deepcopy(record)):
            assert clone == record
            assert hash(clone) == hash(record)
            assert repr(clone) == repr(record)
            if isinstance(record, ContextSpace):  # equality reads only the inputs
                assert (clone.kind, clone.bases) == (record.kind, record.bases)
            if isinstance(record, ContextNetwork):
                assert propagate(clone) == propagate(record)


def test_a_space_is_built_from_its_context_alone():
    """`build_space` is `ContextSpace`, and a space keeps an input only where
    its kind reads it: a table and a flag that an interference network does
    not read, or a table beside a true flag, leave the space as it was."""
    assert build_space is ContextSpace
    net, seq = interference_net(), sequential_net()
    for plain, spaces in (
            (build_space(net), [build_space(net, quarter_volumes()),
                                build_space(net, simultaneous=True),
                                build_space(net, quarter_volumes(), True)]),
            (build_space(seq, simultaneous=True), [build_space(seq, quarter_volumes(), True)])):
        for space in spaces:
            assert space == plain and hash(space) == hash(plain) and repr(space) == repr(plain)
            assert (space.kind, space.bases) == (plain.kind, plain.bases)
    assert repr(build_space(net)).endswith(", joint_volumes=None, simultaneous=False)")
    assert build_space(seq, quarter_volumes()).joint_volumes == quarter_volumes()
