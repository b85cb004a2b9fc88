"""Contextual vector spaces, property operators, and commutation checks.

A two-property context gets a finite complex inner-product space with one
orthonormal basis (or subspace family) per observed property:

* interference type  -- first property never knowable: the amplitude matrix
  itself relates the two bases, so it must be unitary;
* joint type         -- both decided and simultaneously knowable: product
  space of dimension M*M' with complementary subspace families;
* sequential type    -- both decided but not simultaneously knowable: the
  second basis is rebuilt from the declared joint volume table, and the
  context must be neutral (amplitudes must match those volumes).

The inner product used throughout is linear in its first argument and
conjugate-linear in the second.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import Knowability
from .context import ContextError, ContextNetwork

ORTHO_TOL = 1e-12
NEUTRAL_TOL = 1e-9


class SpaceConstructionError(ValueError):
    pass


def inner(x: np.ndarray, y: np.ndarray) -> complex:
    """<x, y> with conjugation on the second argument."""
    return complex(np.sum(np.asarray(x) * np.conj(np.asarray(y))))


@dataclass(frozen=True)
class JointVolumeTable:
    """Relative volumes v[j][k] of the joint value regions of two properties."""

    v: tuple  # M x M' nonnegative reals, summing to 1

    def __post_init__(self):
        try:
            rows = tuple(tuple(float(x) for x in row) for row in self.v)
        except OverflowError:
            raise ValueError("joint volumes must be within the float range") from None
        object.__setattr__(self, "v", rows)
        if len({len(row) for row in rows}) > 1:
            raise ValueError("joint volume rows must have equal length")
        flat = [x for row in rows for x in row]
        if not all(x >= 0 for x in flat):  # both checks are written so that NaN fails
            raise ValueError("joint volumes must be nonnegative")
        if not abs(sum(flat) - 1.0) <= 1e-9:
            raise ValueError("joint volumes must sum to one")

    @property
    def shape(self):
        return len(self.v), len(self.v[0])

    def as_array(self) -> np.ndarray:
        return np.asarray(self.v, dtype=float)

    def symmetric_pair_conditions_hold(self) -> bool:
        """v[j][k] = v[k][j] and equal diagonal entries (square tables only)."""
        a = self.as_array()
        m, mp = self.shape
        if m != mp:
            return False
        if not np.allclose(a, a.T, atol=1e-9):
            return False
        return np.allclose(np.diag(a), a[0, 0], atol=1e-9)


@dataclass(frozen=True)
class ContextSpace:
    """Finite complex space with per-property value subspaces.

    ``value_spaces`` maps a property id to one orthonormal column block per
    value; blocks are single columns except in the joint (simultaneous) case.
    """

    dimension: int
    kind: str  # "interference" | "joint" | "sequential" | "single"
    property_order: tuple
    value_spaces: dict = field(compare=False)

    def basis(self, property_id: str) -> np.ndarray:
        """Columns of all value vectors of a property (1-dim blocks only)."""
        blocks = self.value_spaces[property_id]
        if any(b.shape[1] != 1 for b in blocks):
            raise SpaceConstructionError(f"{property_id} is represented by subspaces, not vectors")
        return np.hstack(blocks)

    def subspace_dimensions(self, property_id: str) -> tuple:
        return tuple(b.shape[1] for b in self.value_spaces[property_id])


def _check_unitary(a: np.ndarray, what: str):
    m = np.conj(a).T @ a
    if np.max(np.abs(m - np.eye(a.shape[1]))) > 1e-9:
        raise SpaceConstructionError(what)


def _amp_matrix(net: ContextNetwork) -> np.ndarray:
    return np.array([[complex(a) for a in row] for row in net.edges[0]], dtype=complex)


def build_space(net: ContextNetwork,
                joint_volumes: Optional[JointVolumeTable] = None,
                simultaneous: bool = False) -> ContextSpace:
    """Construct the contextual space for a one- or two-property network."""
    if len(net.layers) == 1:
        layer = net.layers[0]
        eye = np.eye(layer.size, dtype=complex)
        return ContextSpace(
            dimension=layer.size, kind="single",
            property_order=(layer.property_id,),
            value_spaces={layer.property_id: [eye[:, [j]] for j in range(layer.size)]})
    if len(net.layers) != 2:
        raise SpaceConstructionError("space construction covers one- and two-property contexts")

    first, second = net.layers
    m, mp = first.size, second.size

    if first.level is Knowability.NEVER:
        return _build_interference(net, m, mp)
    if simultaneous:
        return _build_joint(net, m, mp)
    return _build_sequential(net, joint_volumes, m, mp)


def _build_interference(net: ContextNetwork, m: int, mp: int) -> ContextSpace:
    first, second = net.layers
    if m > mp:
        raise SpaceConstructionError(
            "pad virtual values first: interference space needs M <= M'")
    a = _amp_matrix(net)
    _check_unitary(a.T, "amplitude matrix rows are not orthonormal")
    dim = mp  # max(M, M') once M <= M'
    eye = np.eye(dim, dtype=complex)
    # second-basis vector k has component conj(a[j][k]) on first-basis vector j,
    # so that <first_j, second_k> equals the amplitude a[j][k]; when M < M' the
    # remaining coordinates are an orthonormal completion.
    w = np.conj(a)
    if m < mp:
        # the trailing right-singular vectors span the null space of w
        w = np.vstack([w, np.linalg.svd(w)[2][m:]])
    _check_unitary(w, "derived second basis is not orthonormal")
    return ContextSpace(
        dimension=dim, kind="interference",
        property_order=(first.property_id, second.property_id),
        value_spaces={
            first.property_id: [eye[:, [j]] for j in range(m)],
            second.property_id: [w[:, [k]] for k in range(mp)],
        })


def _build_joint(net: ContextNetwork, m: int, mp: int) -> ContextSpace:
    first, second = net.layers
    if first.level is not Knowability.DECIDED or second.level is not Knowability.DECIDED:
        raise SpaceConstructionError("joint space needs both properties decided")
    dim = m * mp
    eye = np.eye(dim, dtype=complex)
    # product basis index (j, k) -> j * mp + k
    first_blocks = [eye[:, [j * mp + k for k in range(mp)]] for j in range(m)]
    second_blocks = [eye[:, [j * mp + k for j in range(m)]] for k in range(mp)]
    return ContextSpace(
        dimension=dim, kind="joint",
        property_order=(first.property_id, second.property_id),
        value_spaces={first.property_id: first_blocks,
                      second.property_id: second_blocks})


def _build_sequential(net: ContextNetwork, joint_volumes: Optional[JointVolumeTable],
                      m: int, mp: int) -> ContextSpace:
    first, second = net.layers
    if m != mp:
        raise SpaceConstructionError("no reciprocal basis: sequential space needs M = M'")
    if joint_volumes is None:
        raise SpaceConstructionError("sequential space needs a joint volume table")
    if joint_volumes.shape != (m, mp):
        raise SpaceConstructionError("joint volume table has the wrong shape")
    v = joint_volumes.as_array()

    a = _amp_matrix(net)
    # network rows are unit vectors, i.e. conditional amplitudes; a neutral
    # apparatus means their squared moduli reproduce the joint volumes once
    # those are conditioned on the first observed value.
    conditional = v / v.sum(axis=1, keepdims=True)
    if np.max(np.abs(np.abs(a) ** 2 - conditional)) > NEUTRAL_TOL:
        raise SpaceConstructionError("context not neutral")

    eye = np.eye(m, dtype=complex)
    if m == 2:
        if not joint_volumes.symmetric_pair_conditions_hold():
            raise SpaceConstructionError("no orthonormal second basis exists")
        # |<first_1, second_1>|^2 = 2*v11: a rotation by alpha with
        # cos(alpha)^2 = 2*v11 realizes every entry of the table.
        c = math.sqrt(min(1.0, 2.0 * v[0][0]))
        alpha = math.acos(c)
        w = np.array([[math.cos(alpha), -math.sin(alpha)],
                      [math.sin(alpha), math.cos(alpha)]], dtype=complex)
    else:
        if not np.allclose(v, v[0, 0], atol=1e-9):
            raise SpaceConstructionError("unsupported pair class")
        # independent pair: all joint volumes equal, realized by the unitary
        # Fourier matrix (every squared inner product equals 1/M).
        w = np.array([[cmath.exp(2j * math.pi * j * k / m) / math.sqrt(m)
                       for k in range(m)] for j in range(m)], dtype=complex)
    return ContextSpace(
        dimension=m, kind="sequential",
        property_order=(first.property_id, second.property_id),
        value_spaces={first.property_id: [eye[:, [j]] for j in range(m)],
                      second.property_id: [w[:, [k]] for k in range(m)]})


def reciprocal(net: ContextNetwork) -> ContextNetwork:
    """The same two properties observed in the reverse order.

    The reversed initial amplitudes re-express the evolved state in the
    second property's basis; the reversed matrix is the inverse of the
    original, so applying the construction twice restores the network.
    """
    if len(net.layers) != 2:
        raise ContextError("reciprocal context is defined for two-layer networks")
    m, mp = net.layers[0].size, net.layers[1].size
    if m != mp:
        raise ContextError("reciprocal context exists if and only if M = M'")
    a = _amp_matrix(net)
    if abs(np.linalg.det(a)) < 1e-12:
        raise ContextError("reciprocal undefined")
    init = np.array([complex(x) for x in net.initial], dtype=complex)
    new_init = init @ a
    new_matrix = np.linalg.inv(a)
    return ContextNetwork(
        layers=(net.layers[1], net.layers[0]),
        initial=tuple(complex(x) for x in new_init),
        edges=(tuple(tuple(complex(x) for x in row) for row in new_matrix),),
    )


@dataclass(frozen=True)
class PropertyOperator:
    matrix: np.ndarray = field(compare=False)
    eigenvalues: tuple

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if np.max(np.abs(m - np.conj(m).T)) > ORTHO_TOL:
            raise ValueError("property operator must be self-adjoint")
        object.__setattr__(self, "matrix", m)


def make_operator(space: ContextSpace, property_id: str,
                  labels: Optional[Sequence[float]] = None) -> PropertyOperator:
    """Sum of label-weighted projectors onto a property's value subspaces."""
    blocks = space.value_spaces[property_id]
    if labels is None:
        labels = [float(j + 1) for j in range(len(blocks))]
    labels = [float(x) for x in labels]
    if len(labels) != len(blocks):
        raise ValueError("one label per value required")
    if len(set(labels)) != len(labels):
        raise ValueError("property values must be distinct")
    matrix = np.zeros((space.dimension, space.dimension), dtype=complex)
    for label, cols in zip(labels, blocks):
        matrix += label * (cols @ np.conj(cols).T)
    return PropertyOperator(matrix=matrix, eigenvalues=tuple(labels))


@dataclass(frozen=True)
class CommutatorResult:
    norm: float = 0.0
    commuting: bool = False


def commutator(a: PropertyOperator, b: PropertyOperator) -> CommutatorResult:
    """[A, B] with its spectral norm; commuting iff the norm vanishes."""
    if a.matrix.shape != b.matrix.shape:
        raise ValueError("operators act on different spaces")
    c = a.matrix @ b.matrix - b.matrix @ a.matrix
    norm = float(np.linalg.norm(c, 2))
    return CommutatorResult(norm=norm, commuting=norm < ORTHO_TOL)


def principle4_probabilities(space: ContextSpace, net: ContextNetwork) -> np.ndarray:
    """Final-property probabilities via squared inner products with the
    evolved contextual state, each clipped at 1 as propagation clips them;
    must agree with network propagation."""
    first, second = space.property_order[0], space.property_order[-1]
    init = np.array([complex(x) for x in net.initial], dtype=complex)
    v = space.basis(first)
    w = space.basis(second)
    if net.layers[0].level == Knowability.DECIDED:
        # The first property is observed, so the contextual state reduces to
        # one first-basis vector per branch; the outcomes mix classically.
        return np.minimum(1.0, [
            sum(abs(init[j]) ** 2 * abs(inner(v[:, j], w[:, k])) ** 2
                for j in range(v.shape[1]))
            for k in range(w.shape[1])])
    evolved = v @ init
    return np.minimum(1.0, [abs(inner(evolved, w[:, k])) ** 2 for k in range(w.shape[1])])
